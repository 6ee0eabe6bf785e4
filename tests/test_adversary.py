import hashlib
import itertools
import math
import resource
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (
    assert_shared_solve_matches_standalone,
    level_table_rows,
    log_likelihood_iid,
    log_likelihood_markov,
    map_assignment_bruteforce,
    posterior_pi1_bruteforce,
    row0_minors_dp,
    tie_loss,
)
from locpriv import adversary
from locpriv.adversary import (
    count_stats,
    likelihood_matrix_iid,
    likelihood_matrix_markov,
    map_assignment,
    posterior_pi1,
    transition_stats,
)
from locpriv.anonymization import anonymize, sample_permutation
from locpriv.markov import MarkovModel, MobilityGraph, expand_free_params
from locpriv.metrics import simulate_attack_trial
from locpriv.mobility import IidModel, ProfileDensity, sample_profile


THREE_STATE = MobilityGraph(
    r=3,
    edges=[(0, 0), (0, 1), (0, 2), (1, 2), (2, 0), (2, 1)],
    free_edges=[(0, 0), (0, 1), (2, 1)],
)


def col_matrix(*cols):
    return np.stack([np.asarray(c) for c in cols], axis=1)


def permanent(A):
    """Glynn's permanent expanded along row 0, from the posterior's minors."""
    A = np.asarray(A, dtype=float)
    return float(A[0] @ adversary._glynn_row0_minors(A))


def test_count_stats_examples():
    stats = count_stats(col_matrix([1, 0, 1, 1]), r=2)
    assert stats[0].tolist() == [1, 3]

    # the worked example's first user: path 1->2->3->4 over five locations
    stats = count_stats(col_matrix(np.array([1, 2, 3, 4]) - 1), r=5)
    assert stats[0].tolist() == [1, 1, 1, 1, 0]

    rng = np.random.default_rng(0)
    Y = rng.integers(0, 3, size=(7, 4))
    stats = count_stats(Y, r=3)
    assert np.all(stats.sum(axis=1) == 7)


def test_transition_stats_examples():
    stats = transition_stats(col_matrix(np.array([1, 2, 3, 4]) - 1), r=5)
    M = stats[0]
    assert M[0, 1] == 1 and M[1, 2] == 1 and M[2, 3] == 1
    assert M.sum() == 3

    stats = transition_stats(col_matrix([2, 2, 2, 2, 2]), r=3)
    assert stats[0][2, 2] == 4

    rng = np.random.default_rng(1)
    Y = rng.integers(0, 3, size=(9, 5))
    stats = transition_stats(Y, r=3)
    assert np.all(stats.sum(axis=(1, 2)) == 8)


@pytest.mark.parametrize("m, n, r", [(1, 5, 3), (2, 1, 4), (9, 6, 5), (400, 32, 3)])
def test_stats_match_per_column_reference(m, n, r):
    # states 0..r-2 only, so the last state is never visited
    Y = np.random.default_rng(m + n + r).integers(0, r - 1, size=(m, n))
    counts = np.zeros((n, r), dtype=np.int64)
    mats = np.zeros((n, r, r), dtype=np.int64)
    for j in range(n):
        col = Y[:, j]
        for t in range(m):
            counts[j, col[t]] += 1
            if t + 1 < m:
                mats[j, col[t], col[t + 1]] += 1
    assert np.array_equal(count_stats(Y, r), counts)
    assert np.array_equal(transition_stats(Y, r), mats)
    assert not counts[:, r - 1].any()


def test_stats_are_read_only_int64_arrays():
    Y = col_matrix([0, 1, 1], [2, 2, 0])
    for stats in (count_stats(Y, 3), transition_stats(Y, 3)):
        assert stats.dtype == np.int64 and not stats.flags.writeable
        with pytest.raises(ValueError):
            stats[0, 0] = 5


def test_stats_reject_states_out_of_range():
    for bad in (np.array([[0, 3]]), np.array([[0, -1]]), np.array([[1], [3]])):
        with pytest.raises(ValueError):
            count_stats(bad, 3)
        with pytest.raises(ValueError):
            transition_stats(bad, 3)
    with pytest.raises(ValueError):
        transition_stats(np.zeros((0, 2)), 3)


def test_log_likelihood_iid():
    p = np.array([0.5, 0.5])
    assert log_likelihood_iid(p, [1, 1]) == pytest.approx(2 * math.log(0.5))
    p2 = np.array([0.2, 0.8])
    assert log_likelihood_iid(p2, [0, 7]) == pytest.approx(7 * math.log(0.8))


def test_log_likelihood_iid_swap_ratio():
    # the two-user likelihood-ratio Delta evaluated through the kernel:
    # exp(LL(pi,a) + LL(pj,b) - LL(pi,b) - LL(pj,a)) = 4/9
    m = 10
    pi, pj = np.array([0.5, 0.5]), np.array([0.4, 0.6])
    a = np.array([m - 5, 5])
    b = np.array([m - 3, 3])
    delta = math.exp(
        log_likelihood_iid(pi, a)
        + log_likelihood_iid(pj, b)
        - log_likelihood_iid(pi, b)
        - log_likelihood_iid(pj, a)
    )
    assert delta == pytest.approx(4 / 9, rel=1e-12)


def test_log_likelihood_markov():
    T = expand_free_params([0.2, 0.3, 0.4], THREE_STATE)
    assert log_likelihood_markov(T, np.zeros((3, 3))) == 0.0

    # path 1->2->3 uses edges (1,2) then (2,3): probability 0.3 * 1
    M = np.zeros((3, 3))
    M[0, 1] = 1
    M[1, 2] = 1
    assert log_likelihood_markov(T, M) == pytest.approx(math.log(0.3))

    M_bad = np.zeros((3, 3))
    M_bad[1, 0] = 1  # edge (2,1) does not exist
    assert log_likelihood_markov(T, M_bad) == -math.inf


def test_permanent_matches_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        A = rng.random((n, n))
        brute = sum(
            math.prod(A[i, p[i]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        assert permanent(A) == pytest.approx(brute, rel=1e-10)


def test_map_assignment_trivial_cases():
    assert map_assignment(np.array([[0.0]])).tolist() == [0]
    L = np.full((4, 4), -10.0)
    np.fill_diagonal(L, 0.0)
    assert map_assignment(L).tolist() == [0, 1, 2, 3]


def test_map_assignment_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        L = rng.normal(size=(n, n))
        assert np.array_equal(map_assignment(L), map_assignment_bruteforce(L))


def _tie_heavy(rng, n):
    """Small-integer likelihoods (so every total is exact) with random -inf
    cells and duplicated columns: exact ties between optima are common."""
    L = rng.integers(-3, 1, size=(n, n)).astype(float)
    L[rng.random((n, n)) < 0.15] = -np.inf
    dup = rng.random(n) < 0.5
    L[:, dup] = L[:, rng.integers(0, n, size=int(dup.sum()))]
    return L


def test_map_assignment_matches_bruteforce_on_ties():
    # The oracle keeps the first permutation (in lexicographic order) that
    # reaches the maximum, so on exact ties it is the lexicographic rule.
    rng = np.random.default_rng(17)
    for _ in range(400):
        n = int(rng.integers(1, 8))
        L = _tie_heavy(rng, n)
        try:
            expected = map_assignment_bruteforce(L)
        except ValueError:
            with pytest.raises(ValueError):
                map_assignment(L)
            continue
        assert np.array_equal(map_assignment(L), expected)


def test_map_assignment_near_ties_at_tolerance(monkeypatch):
    # Integer likelihoods with one or two cells moved by 0.35, 0.8 or 1.6
    # times tol: totals then differ from the maximum by combinations that
    # stay at least 0.15 tol away from the tie threshold, so the tie rule
    # has one answer however the totals are rounded.
    calls = []
    solve = adversary.linear_sum_assignment

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(adversary, "linear_sum_assignment", counting)
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        L = rng.integers(-2, 1, size=(n, n)).astype(float) * 10.0 ** rng.integers(-1, 3)
        tol = 1e-9 * max(1.0, float(np.abs(L).max()))
        cells = rng.integers(0, n, size=(int(rng.integers(1, 3)), 2))
        L[cells[:, 0], cells[:, 1]] += (
            rng.choice([0.35, 0.8, 1.6], size=len(cells))
            * rng.choice([-1.0, 1.0], size=len(cells))
            * tol
        )
        assert np.array_equal(map_assignment(L), map_assignment_bruteforce(L, tol))
    # a row takes the column it holds with no sub-solve: 409 solves when
    # each held column beyond the swap margin got one
    assert len(calls) <= 394


def _planted_near_ties(rng, n):
    """Integer likelihoods (times a power of ten) with duplicated columns,
    -inf cells, and one or two planted near-ties: a cell moved by 0.35,
    0.8 or 1.6 tol, or two rows whose trade of two distinct columns costs
    that much (the kind of tie a Markov audit produced). As in
    test_map_assignment_near_ties_at_tolerance, every total stays at least
    0.15 tol away from the tie threshold."""
    L = rng.integers(-3, 1, size=(n, n)).astype(float) * 10.0 ** rng.integers(-1, 3)
    dup = rng.random(n) < 0.3
    L[:, dup] = L[:, rng.integers(0, n, size=int(dup.sum()))]
    trades = []
    for _ in range(int(rng.integers(1, 3))):
        if rng.random() < 0.5:
            a, b = rng.choice(n, size=2, replace=False)
            x, y = rng.choice(n, size=2, replace=False)
            L[b, y] = L[a, y] + L[b, x] - L[a, x]
            trades.append((b, y))
        else:
            trades.append(tuple(rng.integers(0, n, size=2)))
    tol = 1e-9 * max(1.0, float(np.abs(L).max()))
    for cell in trades:
        L[cell] += rng.choice([0.35, 0.8, 1.6]) * rng.choice([-1.0, 1.0]) * tol
    L[rng.random((n, n)) < 0.1] = -np.inf
    return L


def test_near_ties_contain_every_cell_of_small_exact_loss():
    # The screen may flag cells the Floyd-Warshall exact loss rules out,
    # never miss one it keeps; MAP's choice is the oracle's either way.
    rng = np.random.default_rng(29)
    planted = 0  # cells of exact loss in (0, 2 tol]: no column class has them
    for _ in range(400):
        n = int(rng.integers(2, 13))
        L = _planted_near_ties(rng, n)
        Lf = np.where(np.isfinite(L), L, adversary._NEG_SENTINEL)
        _, sigma = adversary.linear_sum_assignment(Lf, maximize=True)
        if np.any(Lf[np.arange(n), sigma] <= adversary._SENTINEL_CUTOFF):
            continue
        tol = 1e-9 * max(1.0, float(np.abs(L[np.isfinite(L)]).max()))
        loss = tie_loss(Lf, sigma)
        exact = loss <= 2 * tol
        near = adversary._near_ties(adversary._reduced_costs(Lf, sigma), sigma, tol)
        assert near.dtype == bool and not (exact & ~near).any()
        assert near[np.arange(n), sigma].all()
        planted += np.count_nonzero(exact & (loss > 0))
        if n <= 7:
            assert np.array_equal(map_assignment(L), map_assignment_bruteforce(L, tol))
    assert planted >= 300


def _sparse_three_state_law(rng):
    """A law on THREE_STATE that may put zero mass on some edges, so walks
    of other users can hit -inf cells."""
    matrix = np.zeros((3, 3))
    for i in range(3):
        targets = [j for a, j in THREE_STATE.edges if a == i]
        w = rng.random(len(targets)) * (rng.random(len(targets)) < 0.7)
        w[int(rng.integers(len(targets)))] += 0.1
        matrix[i, targets] = w / w.sum()
    return matrix


def test_near_ties_contain_every_cell_of_small_exact_loss_at_audit_scale():
    # Markov likelihood matrices at the audit's crowd sizes: forbidden
    # transitions give -inf cells and equal transition counts exact ties
    rng = np.random.default_rng(41)
    checked = with_inf = with_ties = 0
    for _ in range(60):
        n = int(rng.integers(16, 41))
        m = int(rng.integers(2, 25))
        laws = [_sparse_three_state_law(rng) for _ in range(n)]
        Y = anonymize(
            MarkovModel(THREE_STATE).sample_trajectories(laws, m, rng),
            sample_permutation(n, rng),
        )
        L = likelihood_matrix_markov(laws, transition_stats(Y, 3))
        Lf = np.where(np.isfinite(L), L, adversary._NEG_SENTINEL)
        _, sigma = adversary.linear_sum_assignment(Lf, maximize=True)
        if np.any(Lf[np.arange(n), sigma] <= adversary._SENTINEL_CUTOFF):
            continue
        tol = 1e-9 * max(1.0, float(np.abs(L[np.isfinite(L)]).max()))
        exact = tie_loss(Lf, sigma) <= 2 * tol
        near = adversary._near_ties(adversary._reduced_costs(Lf, sigma), sigma, tol)
        assert near.dtype == bool and not (exact & ~near).any()
        assert near[np.arange(n), sigma].all()
        checked += 1
        with_inf += bool(np.isneginf(L).any())
        with_ties += np.unique(Y, axis=1).shape[1] < n
    assert checked >= 40 and with_inf >= 20 and with_ties >= 20


def test_likelihood_matrix_iid_takes_one_log_of_the_stacked_laws():
    # np.log over the stacked laws gives each profile's own log, bit for bit
    rng = np.random.default_rng(37)
    for r in (2, 3, 5, 8, 17):
        density = ProfileDensity("uniform-simplex", r)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            profiles = [sample_profile(density, rng) for _ in range(n)]
            counts = rng.integers(0, 150, size=(n, r))
            per_profile = np.stack([np.log(p) for p in profiles])
            expected = per_profile @ counts.T.astype(float)
            laws = np.stack(profiles)
            assert np.array_equal(likelihood_matrix_iid(laws, counts), expected)


@pytest.mark.parametrize(
    "n, digest",
    [
        (64, "3c381aac5d6bbc4d861d45a93a1938790f67ca881b3a4fe646870efbc517f871"),
        (128, "f3721ab14c5d042961cd12a34f0b4d04bff4a937ce6c69c0db9086b7596db5cb"),
    ],
)
def test_map_assignment_pinned_with_duplicated_columns(n, digest):
    # iid2 sweep trials at m = round(n^1.2): users whose observation
    # counts coincide give identical likelihood columns, hence tied optima.
    L = _sweep_like_iid2(n, np.random.default_rng(200 + n))
    assert np.unique(L, axis=1).shape[1] < n
    forward = map_assignment(L)
    assert hashlib.sha256(forward.tobytes()).hexdigest() == digest


def test_map_assignment_solve_count(monkeypatch):
    # One assignment solve, with or without tied optima: at n = 64 the
    # tie-break once took about 1,000.
    calls = []
    solve = adversary.linear_sum_assignment

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(adversary, "linear_sum_assignment", counting)
    map_assignment(np.random.default_rng(64).normal(size=(64, 64)))
    assert len(calls) == 1
    calls.clear()
    map_assignment(_sweep_like_iid2(64, np.random.default_rng(264)))
    assert len(calls) == 1  # 7 if tied columns each needed a sub-solve


def test_map_assignment_tie_break_lexicographic():
    # identical rows: every permutation ties; smallest forward array wins
    L = np.zeros((3, 3))
    assert map_assignment(L).tolist() == [0, 1, 2]
    L = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert map_assignment(L).tolist() == [0, 1]


def test_map_assignment_respects_infeasible_cells():
    L = np.array([[-np.inf, 0.0], [-np.inf, 0.0]])
    with pytest.raises(ValueError):
        map_assignment(L)
    L = np.array([[-np.inf, 0.0], [0.0, -np.inf]])
    assert map_assignment(L).tolist() == [1, 0]


def _iid2_trial(rng, n, m, profiles=None):
    """One two-state i.i.d. attack at a random density (or on ``profiles``)."""
    if profiles is None:
        density = ProfileDensity(str(rng.choice(["uniform-simplex", "bounded-mixture"])), 2)
        profiles = [sample_profile(density, rng) for _ in range(n)]
    return simulate_attack_trial(IidModel(2), profiles, m, rng)


def test_map_sort_path_by_hand():
    # users by logit: 1, 3, 0, 2 take counts 0, 1, 1, 2; the count-1 group
    # (columns 0 and 2) goes to users 0 and 3 in index order
    b = np.array([0.5, -1.0, 2.0, 0.1])
    k = np.array([1, 0, 1, 2])
    L = np.outer(b, k).astype(float)
    assert adversary._sorted_matching(L, (b, k)).tolist() == [0, 1, 3, 2]
    assert map_assignment(L).tolist() == [0, 1, 3, 2]
    assert map_assignment_bruteforce(L, 1e-9).tolist() == [0, 1, 3, 2]


def test_map_sort_path_matches_general_path():
    # n = 2..128 at both densities, m down to 1 where most counts are
    # equal: where the sort path answers it is the general path's forward
    # array (and the brute-force rule's at n <= 6); with the keys MAP
    # returns that array either way.
    rng = np.random.default_rng(41)
    sorted_trials = 0
    for t in range(300):
        n = int(rng.integers(2, 7)) if t % 2 else int(rng.integers(2, 129))
        m = int(rng.integers(1, 6)) if t % 3 == 0 else round(n ** rng.uniform(0.5, 1.5))
        trial = _iid2_trial(rng, n, m)
        general = map_assignment(trial.L)
        keyed = map_assignment(trial.L, sort_keys=trial.sort_keys)
        assert np.array_equal(keyed, general)
        forward = adversary._sorted_matching(trial.L, trial.sort_keys)
        if forward is None:
            continue
        sorted_trials += 1
        assert np.array_equal(forward, general)
        if n <= 6:
            tol = 1e-9 * max(1.0, float(np.abs(trial.L).max()))
            assert np.array_equal(forward, map_assignment_bruteforce(trial.L, tol))
    assert sorted_trials >= 270


def test_map_sort_path_falls_back_on_near_tied_logits(monkeypatch):
    # One user's logit moved to within 0, 0.5, 1 or 2 tol of another's:
    # the sort path declines, MAP solves, and the answer is the general
    # path's. Trading the two users' columns then costs multiples of the
    # gap, some right at tol, where the tie-break's recomputed totals may
    # round past tol: it must still answer.
    solve = adversary.linear_sum_assignment
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(adversary, "linear_sum_assignment", counting)
    rng = np.random.default_rng(43)
    density = ProfileDensity("uniform-simplex", 2)
    for t in range(80):
        n = int(rng.integers(2, 65))
        profiles = [sample_profile(density, rng) for _ in range(n)]
        trial = _iid2_trial(rng, n, int(rng.integers(1, 2 * n)), profiles)
        u, v = rng.choice(n, size=2, replace=False)
        tol = 1e-9 * max(1.0, float(np.abs(trial.L).max()))
        logit = trial.sort_keys[0][u] + (0.0, 0.5, 1.0, 2.0)[t % 4] * tol
        q = 1.0 / (1.0 + math.exp(-logit))
        profiles[v] = np.array([1.0 - q, q])
        L, keys = IidModel(2).evidence(profiles, trial.Y)
        assert adversary._sorted_matching(L, keys) is None
        calls.clear()
        keyed = map_assignment(L, sort_keys=keys)
        assert calls, "the fall-back made no assignment solve"
        assert np.array_equal(keyed, map_assignment(L))


@pytest.mark.parametrize(
    "L",
    [
        np.array([[0.0, np.nan], [0.0, 0.0]]),
        np.array([[np.inf, 0.0], [0.0, 0.0]]),
        np.zeros((2, 3)),
        np.zeros((0, 0)),
        np.array([[-np.inf, 0.0], [-np.inf, 0.0]]),
    ],
    ids=["nan", "inf", "non-square", "empty", "infeasible"],
)
def test_map_sort_keys_keep_the_general_errors(L):
    keys = (np.array([-1.0, 1.0]), np.array([0, 3]))
    with pytest.raises(ValueError) as plain:
        map_assignment(L)
    with pytest.raises(ValueError) as keyed:
        map_assignment(L, sort_keys=keys)
    assert str(keyed.value) == str(plain.value)


def test_map_sort_keys_checked_against_the_matrix():
    L = np.array([[-np.inf, 0.0], [0.0, -np.inf]])  # not finite: the general path
    keys = (np.array([-1.0, 1.0]), np.array([0, 3]))
    assert map_assignment(L, sort_keys=keys).tolist() == [1, 0]
    with pytest.raises(ValueError, match="sort keys do not match the likelihood matrix"):
        map_assignment(np.zeros((3, 3)), sort_keys=keys)
    L = np.outer(keys[0], keys[1]).astype(float)
    other = adversary.solve_assignment(L.copy())
    with pytest.raises(ValueError, match="solved was built from another likelihood matrix"):
        map_assignment(L, solved=other, sort_keys=keys)


def test_posterior_trivial_cases():
    post = posterior_pi1(np.array([[0.0]]))
    assert post.tolist() == [1.0]

    # identical users: symmetry forces the uniform posterior
    L = np.tile(np.array([-1.0, -2.0, -0.5, -3.0]), (4, 1))
    post = posterior_pi1(L)
    assert np.abs(post - 0.25).max() < 1e-12


def test_posterior_matches_bruteforce():
    rng = np.random.default_rng(4)
    for _ in range(150):
        n = int(rng.integers(1, 7))
        L = rng.normal(scale=4.0, size=(n, n))
        a = posterior_pi1(L)
        b = posterior_pi1_bruteforce(L)
        assert np.abs(a - b).max() <= 1e-10


def test_posterior_with_infeasible_cells_matches_bruteforce():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        L = rng.normal(size=(n, n))
        mask = rng.random((n, n)) < 0.2
        L[mask] = -np.inf
        try:
            a = posterior_pi1(L)
        except ValueError:
            with pytest.raises(ValueError):
                posterior_pi1_bruteforce(L)
            continue
        b = posterior_pi1_bruteforce(L)
        assert np.abs(a - b).max() <= 1e-10


def _sweep_like_iid2(n, rng):
    """Likelihood matrix of one iid2 sweep trial: n users with uniform
    state-1 probabilities, m = round(n^1.2) observations each."""
    m = round(n**1.2)
    ps = rng.uniform(0.01, 0.99, size=n)
    ones = rng.binomial(m, ps)
    laws = np.stack([1 - ps, ps], axis=1)
    return likelihood_matrix_iid(laws, np.stack([m - ones, ones], axis=1))


def _posterior_dp(L):
    B = np.exp(L - L.max(axis=1, keepdims=True))
    w = B[0] * row0_minors_dp(B)
    return w / w.sum()


@pytest.mark.parametrize("n", [8, 16, 20])
def test_posterior_matches_sign_free_reference(n):
    # Glynn's signed sum against a subset DP that adds only
    # nonnegative terms, up to the feasibility bound.
    L = _sweep_like_iid2(n, np.random.default_rng(100 + n))
    assert np.abs(posterior_pi1(L) - _posterior_dp(L)).max() <= 1e-9


def test_posterior_with_infeasible_cells_matches_sign_free_reference():
    rng = np.random.default_rng(9)
    L = rng.normal(scale=3.0, size=(8, 8))
    L[rng.random((8, 8)) < 0.4] = -np.inf
    np.fill_diagonal(L, 0.0)  # keeps the identity matching feasible
    assert np.abs(posterior_pi1(L) - _posterior_dp(L)).max() <= 1e-9


def test_posterior_weights_pinned_n16():
    # Re-frozen when the level tables became class-major 8192-column
    # tables built by broadcasting: every weight moved by at most 5.6e-16
    # from the previous pin and lies within 1.2e-16 of the subset DP. The
    # weights must replay bit for bit. Pseudonyms 5 and 8, and 6 and 7,
    # have equal statistics and so equal weights.
    L = _sweep_like_iid2(16, np.random.default_rng(16))
    w = posterior_pi1(L)
    assert w.tolist() == [
        0.3022206429549854,
        0.0937047947545403,
        4.215547685475752e-08,
        0.013766468863780834,
        0.5196920845590888,
        5.5697856070313605e-11,
        0.00017306805417430238,
        0.00017306805417430238,
        5.5697856070313605e-11,
        0.0007520955122956141,
        0.0024870875168683994,
        0.023833407093712063,
        6.061102335873008e-05,
        0.043136535166331307,
        3.1638133809252907e-09,
        9.101600402970136e-08,
    ]
    assert np.abs(w - _posterior_dp(L)).max() <= 1e-12


@pytest.mark.parametrize("n", [8, 16, 20])
def test_posterior_matches_sign_free_reference_tightly(n):
    for seed in range(3):
        L = _sweep_like_iid2(n, np.random.default_rng(1000 * n + seed))
        assert np.abs(posterior_pi1(L) - _posterior_dp(L)).max() <= 1e-12


def _with_classes(L, sizes, rng):
    """L with its columns overwritten so that disjoint random column sets of
    the given sizes are each one repeated column."""
    L = L.copy()
    cols = rng.permutation(L.shape[1])
    start = 0
    for size in sizes:
        group = cols[start : start + size]
        L[:, group] = L[:, group[:1]]
        start += size
    return L


@pytest.mark.parametrize("n", [16, 20])
def test_posterior_with_column_classes_matches_sign_free_reference(n):
    # classes of 2, 2, 3 and 4 identical pseudonym columns, the rest distinct
    for seed in range(2):
        rng = np.random.default_rng(2000 * n + seed)
        L = _with_classes(_sweep_like_iid2(n, rng), (2, 2, 3, 4), rng)
        assert np.abs(posterior_pi1(L) - _posterior_dp(L)).max() <= 1e-12


def _fits_level_table(L):
    """Whether every class of equal columns among 1..n-1 fits the level
    table of _glynn_row0_minors, so no level loop runs."""
    _, sizes = np.unique(L[:, 1:], axis=1, return_counts=True)
    return math.prod(int(mu) + 1 for mu in sizes) <= 2**adversary._TABLE_BITS


def _all_rows_lone(L):
    """Whether MAP's screen leaves each row only its own column."""
    solved = adversary.solve_assignment(L)
    finite = solved.Lf[solved.Lf > adversary._SENTINEL_CUTOFF]
    tol = 1e-9 * max(1.0, float(np.abs(finite).max()))
    near = adversary._near_ties(solved.rc, solved.sigma, tol)
    return bool((np.count_nonzero(near, axis=1) == 1).all())


def test_shared_solve_matches_standalone():
    # One solve_assignment handed to both attacks gives what each computes
    # alone, bit for bit, on both branches of the minors (every class in
    # the level table, or some beyond it) and of MAP (all rows lone or not).
    rng = np.random.default_rng(47)
    cases = []
    for n in range(1, 21):  # iid2 counts coincide: equal columns
        cases += [_sweep_like_iid2(n, rng) for _ in range(3)]
    for n in (14, 16, 20):
        cases.append(_with_classes(_sweep_like_iid2(n, rng), (2, 2, 3, 4), rng))
    markov = 0
    while markov < 30:  # Markov likelihoods with forbidden (-inf) cells
        n = int(rng.integers(2, 17))
        laws = [_sparse_three_state_law(rng) for _ in range(n)]
        m = int(rng.integers(2, 12))
        walks = MarkovModel(THREE_STATE).sample_trajectories(laws, m, rng)
        Y = anonymize(walks, sample_permutation(n, rng))
        L = likelihood_matrix_markov(laws, transition_stats(Y, 3))
        try:
            adversary.solve_assignment(L)
        except ValueError:
            continue
        markov += np.isneginf(L).any()
        cases.append(L)
    for L in cases:
        assert_shared_solve_matches_standalone(L)
    fits = [_fits_level_table(L) for L in cases]
    lone = [_all_rows_lone(L) for L in cases]
    assert fits.count(True) >= 50 and fits.count(False) >= 10
    assert lone.count(True) >= 10 and lone.count(False) >= 10
    L = cases[-1]
    solved = adversary.solve_assignment(L)
    for attack in (posterior_pi1, map_assignment):
        with pytest.raises(ValueError, match="another likelihood matrix"):
            attack(L.copy(), solved=solved)


def _class_sizes(L):
    """Sizes of the classes of equal columns among columns 1..n-1."""
    _, sizes = np.unique(L[:, 1:], axis=1, return_counts=True)
    return sizes.tolist()


def _level_split(sizes):
    """The class sizes, sorted, that _glynn_row0_minors puts in its level
    table and those whose levels its loop runs over: the smallest classes
    go in while the table's rows stay within 2^_TABLE_BITS."""
    sizes = sorted(sizes)
    rows, split = 1, 0
    limit = 2**adversary._TABLE_BITS
    while split < len(sizes) and rows * (sizes[split] + 1) <= limit:
        rows *= sizes[split] + 1
        split += 1
    return tuple(sizes[:split]), tuple(sizes[split:])


def _tiled_classes(n):
    """Classes of equal columns among columns 1..n-1 whose split leaves a
    class of two or more columns beyond the level table and more than 3
    levels, not a multiple of 3, for the loop: the first of a few
    candidates that does."""
    for classes in [(2, 2, 3, 4), (3, 4), (2, 4), (4,), (3,)]:
        low, high = _level_split(classes + (1,) * (n - 1 - sum(classes)))
        levels = math.prod(mu + 1 for mu in high)
        if max(high, default=1) > 1 and levels > 3 and levels % 3:
            return classes
    raise AssertionError(f"no candidate classes run the level loop at n = {n}")


@pytest.mark.parametrize("grouped", [False, True], ids=["distinct", "classes"])
@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_tiled_level_loop_matches_sign_free_reference(monkeypatch, n, grouped):
    # The level loop with 2 and 3 levels per tile (several tiles, the last
    # cut short where the level count is odd or not a multiple of 3), with
    # every level in one tile, and with the default tile.
    rng = np.random.default_rng(3000 * n + grouped)
    L = rng.normal(size=(n, n))
    if grouped:
        L[:, 1:] = _with_classes(L[:, 1:], _tiled_classes(n), rng)
    low, high = _level_split(_class_sizes(L))
    rows = math.prod(mu + 1 for mu in low)
    levels = math.prod(mu + 1 for mu in high)
    assert levels > 3 and levels % 3
    reference = _posterior_dp(L)
    equal = {}
    for j in range(n):
        equal.setdefault(L[:, j].tobytes(), []).append(j)
    for step in (2, 3, levels, adversary._TILE // rows):
        monkeypatch.setattr(adversary, "_TILE", step * rows)
        w = posterior_pi1(L)
        assert np.abs(w - reference).max() <= 1e-12
        for cols in equal.values():
            assert len(set(w[cols].tolist())) == 1


def _partitions(total, smallest=1):
    """Every way to write total as a sum of parts >= smallest, each as a
    nondecreasing tuple."""
    if total == 0:
        yield ()
    for first in range(smallest, total + 1):
        for rest in _partitions(total - first, first):
            yield (first, *rest)


def _split_tables():
    """The size tuples of every level table _glynn_row0_minors builds up
    to n = PERMANENT_FEASIBILITY_BOUND."""
    wanted = set()
    for n in range(1, adversary.PERMANENT_FEASIBILITY_BOUND + 1):
        for sizes in _partitions(n - 1):
            low, high = _level_split(sizes)
            wanted.update((low, high) if high else (low,))
    return wanted


def test_level_table_cache_stays_within_its_stated_size():
    # the _TABLE_CACHE largest tables _glynn_row0_minors builds up to
    # n = PERMANENT_FEASIBILITY_BOUND fit the 2.5 MB the cache's comment states
    def nbytes(sizes):
        mult, weight = adversary._level_table(sizes)
        assert weight.size <= 2**adversary._TABLE_BITS
        return mult.nbytes + weight.nbytes

    largest = sorted(_split_tables(), key=nbytes)[-adversary._TABLE_CACHE :]
    adversary._level_table.cache_clear()
    try:
        total = sum(map(nbytes, largest))
        assert adversary._level_table.cache_info().currsize == adversary._TABLE_CACHE
        assert total <= 2.5e6
    finally:
        adversary._level_table.cache_clear()


def test_level_table_matches_row_by_row_build():
    # the class-major table, built by broadcasting, holds the row-by-row
    # table's multipliers transposed and its weights byte for byte
    for sizes in sorted(_split_tables() | {()}):
        mult, weight = adversary._level_table(sizes)
        rows_mult, rows_weight = level_table_rows(sizes)
        assert mult.dtype == rows_mult.dtype and np.array_equal(mult, rows_mult.T)
        assert weight.dtype == rows_weight.dtype
        assert weight.tobytes() == rows_weight.tobytes()
        assert not (mult.flags.writeable or weight.flags.writeable)


def test_identical_columns_get_identical_weights():
    # pseudonyms with equal statistics are exchangeable: their weights
    # must agree bit for bit, whether or not column 0 is among them
    rng = np.random.default_rng(31)
    L = _sweep_like_iid2(12, rng)
    L[:, [3, 7, 9]] = L[:, [3]]
    L[:, [0, 5]] = L[:, [0]]
    w = posterior_pi1(L)
    assert w[3] == w[7] == w[9]
    assert w[0] == w[5]
    assert len(set(w.tolist())) == 12 - 3


def _classed_matrix(n, classes, rng):
    """A positive n x n matrix whose columns are equal within each list in
    classes and otherwise all differ."""
    B = rng.uniform(0.5, 1.5, size=(n, n))
    for cols in classes:
        B[:, cols] = B[:, cols[:1]]
    return B


def _pivoted_cost(B):
    """prod(mu + 1) over the classes of equal columns once the pivot, the
    first column of the first smallest class, has left its class."""
    classes = {}
    for j in range(B.shape[1]):
        classes.setdefault(B[:, j].tobytes(), []).append(j)
    sizes = sorted(map(len, classes.values()))
    return math.prod(mu + 1 for mu in sizes[1:]) * sizes[0]


def _minors_and_table_sizes(monkeypatch, B):
    """_glynn_row0_minors(B) and the size tuples it hands _level_table."""
    seen = []
    level_table = adversary._level_table

    def recording(sizes):
        seen.append(sizes)
        return level_table(sizes)

    with monkeypatch.context() as patch:
        patch.setattr(adversary, "_level_table", recording)
        minors = adversary._glynn_row0_minors(B)
    return minors, seen


_PIVOT_CASES = {
    # column 0 shares its class and singletons exist: a singleton is the pivot
    "col0-triple": (16, [[0, 5, 11], [3, 8]]),
    # no singleton: the pivot is the first column of the first pair
    "no-singleton-col0-triple": (20, [[0, 7, 13], [1, 2], [3, 9], [4, 10], [5, 12],
                                      [6, 14], [8, 15], [11, 16], [17, 18, 19]]),
    "no-singleton-col0-pair": (16, [[0, 9], [1, 2, 3], [4, 5], [6, 7, 8],
                                    [10, 11, 12, 13], [14, 15]]),
    "all-pairs": (20, [[j, 19 - j] for j in range(10)]),
}


@pytest.mark.parametrize("case", sorted(_PIVOT_CASES))
def test_pivot_on_smallest_class_matches_sign_free_reference(monkeypatch, case):
    # the pivot leaves its class, so the tables cover the classes of every
    # other column: prod(mu + 1) over them is the pivoted cost
    n, classes = _PIVOT_CASES[case]
    B = _classed_matrix(n, classes, np.random.default_rng(n + len(classes)))
    minors, seen = _minors_and_table_sizes(monkeypatch, B)
    reference = row0_minors_dp(B)
    assert np.abs(minors - reference).max() <= 1e-12 * reference.max()
    for cols in classes:
        assert len(set(minors[cols].tolist())) == 1
    assert sum(map(sum, seen)) == n - 1
    assert math.prod(mu + 1 for sizes in seen for mu in sizes) == _pivoted_cost(B)
    # no more than with column 0 the pivot, less when its class is larger
    assert _pivoted_cost(B) <= math.prod(mu + 1 for mu in _class_sizes(B))


@pytest.mark.parametrize("n, classes", [(12, (2, 3)), (17, (3, 4)), (20, (2, 2, 3, 4))])
def test_singleton_column_0_stays_the_pivot(monkeypatch, n, classes):
    # with column 0 a singleton the tables are split as they were when
    # column 0 was always the pivot: the classes among columns 1..n-1
    rng = np.random.default_rng(4000 + n)
    B = rng.uniform(0.5, 1.5, size=(n, n))
    B[:, 1:] = _with_classes(B[:, 1:], classes, rng)
    _, seen = _minors_and_table_sizes(monkeypatch, B)
    low, high = _level_split(_class_sizes(B))
    assert seen == ([low, high] if high else [low])


def _fresh_minors(monkeypatch, B):
    """The bytes of _glynn_row0_minors(B) from a call that starts with no
    scratch buffers."""
    with monkeypatch.context() as patch:
        patch.setattr(adversary, "_buffers", threading.local())
        return adversary._glynn_row0_minors(B).tobytes()


def test_reused_buffers_give_the_bytes_of_fresh_calls(monkeypatch):
    # small, large, small and large again on one thread's buffers, which
    # must grow: each call returns what a call with fresh buffers returns,
    # and no result is a view of a buffer that a later call overwrites
    rng = np.random.default_rng(61)
    mats = [rng.uniform(0.5, 1.5, size=(n, n)) for n in (12, 20, 6, 17)]
    fresh = [_fresh_minors(monkeypatch, B) for B in mats]
    monkeypatch.setattr(adversary, "_buffers", threading.local())
    results = []
    for k in (0, 1, 0, 2, 3, 1, 0):
        minors = adversary._glynn_row0_minors(mats[k])
        assert minors.tobytes() == fresh[k]
        results.append((minors, fresh[k]))
    for minors, expected in results:
        assert minors.tobytes() == expected


def test_minors_on_two_threads_match_serial_bytes():
    rng = np.random.default_rng(62)
    mats = [rng.uniform(0.5, 1.5, size=(n, n)) for n in (20, 18)]
    serial = [adversary._glynn_row0_minors(B).tobytes() for B in mats]
    start = threading.Barrier(len(mats))
    got = [[] for _ in mats]

    def run(k):
        start.wait()
        for _ in range(4):
            got[k].append(adversary._glynn_row0_minors(mats[k]).tobytes())

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(mats))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got == [[expected] * 4 for expected in serial]


def test_warm_minors_touch_no_fresh_pages():
    # a fresh float table, level sums and tile cost an n = 20 call about
    # 428 minor page faults; reused buffers cost none
    B = np.random.default_rng(63).uniform(0.5, 1.5, size=(20, 20))
    adversary._glynn_row0_minors(B)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        adversary._glynn_row0_minors(B)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


@pytest.mark.parametrize("n", range(12, 21))
def test_permanent_of_all_ones_is_n_factorial(n):
    assert abs(permanent(np.ones((n, n))) / math.factorial(n) - 1.0) <= 1e-12


def _cancelled_minors(monkeypatch, minors):
    monkeypatch.setattr(
        adversary, "_glynn_row0_minors", lambda B: np.asarray(minors, dtype=float)
    )


def test_posterior_rejects_cancelled_minors(monkeypatch):
    # the tolerance at n = 3 is -3e-12 times the largest minor
    _cancelled_minors(monkeypatch, [1.0, 0.5, -1e-9])
    with pytest.raises(ValueError, match="cancellation"):
        posterior_pi1(np.zeros((3, 3)))


def test_posterior_rejects_degenerate_weights_before_dividing(monkeypatch):
    # all-zero minors leave no weight; the total is checked before anything
    # is divided by it, so numpy warns of nothing
    _cancelled_minors(monkeypatch, [0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ValueError,
            match=r"^degenerate posterior: total weight 0\.0 is not positive and finite$",
        ):
            posterior_pi1(np.zeros((3, 3)))


def test_assignment_posterior_rejects_non_finite_weights(monkeypatch):
    for minors in ([np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0], [1.0, np.inf, np.nan]):
        _cancelled_minors(monkeypatch, minors)
        with pytest.raises(ValueError, match="degenerate posterior: .* finite$"):
            posterior_pi1(np.zeros((3, 3)))


def test_posterior_zeroes_rounded_minors(monkeypatch):
    _cancelled_minors(monkeypatch, [1.0, 0.5, -1e-12])
    weights = posterior_pi1(np.zeros((3, 3)))
    assert weights.tolist() == [2 / 3, 1 / 3, 0.0]


def test_posterior_concentrated_matches_bruteforce():
    # Above the paper's threshold (iid2, n = 8, m = 8^3.5 = 1,448) the
    # posterior concentrates on one pseudonym or two. Balancing from the
    # row maxima stalled on such matrices: most of these trials raised,
    # and some returned weights off by up to 1 without raising.
    model = IidModel(2)
    density = ProfileDensity("uniform-simplex", 2)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        profiles = [sample_profile(density, rng) for _ in range(8)]
        L = simulate_attack_trial(model, profiles, 1448, rng).L
        w = posterior_pi1(L)
        assert np.abs(w - posterior_pi1_bruteforce(L)).max() <= 1e-12


def test_posterior_reports_sinkhorn_non_convergence(monkeypatch):
    # An upper-triangular support admits one permutation, the identity,
    # and lacks total support, so Sinkhorn converges slowly: 56 sweeps to
    # bring every sum within 0.1 of 1 at n = 20.
    n = 20
    L = np.where(np.triu(np.ones((n, n))) > 0, 0.0, -np.inf)
    assert posterior_pi1(L)[0] >= 1.0 - 1e-12
    monkeypatch.setattr(adversary, "_SINKHORN_SWEEPS", 55)
    with pytest.raises(
        ValueError,
        match=r"did not converge in 55 sweeps: worst row sum 1\.1\d*, "
        r"worst column sum 1\.1\d*$",
    ):
        posterior_pi1(L)


@st.composite
def _likelihoods(draw):
    n = draw(st.integers(1, 10))
    cells = st.floats(-30.0, 30.0, allow_nan=False)
    return draw(hnp.arrays(np.float64, (n, n), elements=cells))


_properties = settings(max_examples=60, deadline=None, derandomize=True)


@_properties
@given(_likelihoods(), st.data())
def test_posterior_shift_invariance_property(L, data):
    n = L.shape[0]
    shifts = hnp.arrays(np.float64, n, elements=st.floats(-50.0, 50.0))
    rows, cols = data.draw(shifts), data.draw(shifts)
    w = posterior_pi1(L)
    assert np.abs(posterior_pi1(L + rows[:, None]) - w).max() <= 1e-12
    assert np.abs(posterior_pi1(L + cols[None, :]) - w).max() <= 1e-12


@_properties
@given(_likelihoods(), st.randoms(use_true_random=False))
def test_posterior_permutation_property(L, rnd):
    # relabelling the pseudonyms relabels the weights; reordering the
    # other users changes nothing
    n = L.shape[0]
    cols = np.array(rnd.sample(range(n), n))
    others = np.array([0] + rnd.sample(range(1, n), n - 1))
    w = posterior_pi1(L)
    assert np.abs(posterior_pi1(L[:, cols]) - w[cols]).max() <= 1e-12
    assert np.abs(posterior_pi1(L[others]) - w).max() <= 1e-12


@_properties
@given(_likelihoods())
def test_posterior_matches_sign_free_reference_property(L):
    assert np.abs(posterior_pi1(L) - _posterior_dp(L)).max() <= 1e-12


@st.composite
def _classed_likelihoods(draw):
    """A random L whose columns are copies of random columns of another:
    class sizes are whatever the draw of sources makes them."""
    base = draw(_likelihoods())
    n = base.shape[0]
    sources = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return base[:, sources], sources


@_properties
@given(_classed_likelihoods())
def test_posterior_identical_columns_property(case):
    L, sources = case
    w = posterior_pi1(L)
    for i, j in itertools.combinations(range(len(sources)), 2):
        if sources[i] == sources[j]:
            assert w[i] == w[j]


@_properties
@given(_classed_likelihoods())
def test_posterior_with_column_classes_property(case):
    L, _ = case
    assert np.abs(posterior_pi1(L) - _posterior_dp(L)).max() <= 1e-12


@pytest.mark.parametrize(
    "attack", [posterior_pi1, map_assignment, adversary.solve_assignment]
)
@pytest.mark.parametrize(
    "L, message",
    [
        (np.zeros((2, 3)), "square"),
        (np.zeros((0, 0)), "square"),
        (np.array([[0.0, np.nan], [0.0, 0.0]]), "NaN"),
        (np.array([[0.0, np.inf, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), r"\+inf"),
        (np.array([[-np.inf, -np.inf], [0.0, 0.0]]), "no feasible permutation"),
        (np.array([[0.0, -np.inf], [0.0, -np.inf]]), "no feasible permutation"),
    ],
    ids=["2x3", "empty", "nan", "inf", "row-infeasible", "column-infeasible"],
)
def test_attacks_reject_malformed_likelihoods(attack, L, message):
    with pytest.raises(ValueError, match=message):
        attack(L)


def test_posterior_feasibility_bound():
    L = np.zeros((21, 21))
    with pytest.raises(ValueError):
        posterior_pi1(L)


def test_posterior_weights_sum_to_one():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        post = posterior_pi1(rng.normal(scale=10.0, size=(n, n)))
        assert abs(post.sum() - 1.0) <= 1e-10
        assert post.min() >= 0.0


def test_row_shift_invariance():
    # adding per-row constants multiplies every permutation weight by the
    # same factor: both attacks must be unchanged
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        L = rng.normal(size=(n, n))
        shifts = rng.normal(scale=5.0, size=n)
        L2 = L + shifts[:, None]
        assert np.abs(
            posterior_pi1(L) - posterior_pi1(L2)
        ).max() <= 1e-12
        assert np.array_equal(map_assignment(L), map_assignment(L2))


def test_iid_sufficiency_time_permutation():
    # reordering observations within a column preserves the statistics and
    # therefore the posterior, bit for bit
    rng = np.random.default_rng(8)
    profiles = np.array([[p, 1 - p] for p in (0.3, 0.5, 0.62, 0.8)])
    trajs = IidModel(2).sample_trajectories(profiles, 6, rng)
    perm = sample_permutation(4, rng)
    Y = anonymize(trajs, perm)
    L = likelihood_matrix_iid(profiles, count_stats(Y, 2))
    base = posterior_pi1(L)

    shuffled = Y.copy()
    for j in range(4):
        shuffled[:, j] = shuffled[rng.permutation(6), j]
    L2 = likelihood_matrix_iid(profiles, count_stats(shuffled, 2))
    assert np.abs(posterior_pi1(L2) - base).max() <= 1e-12


def _paths_with_transition_counts(M, length, start=0):
    """All state sequences of a given length, from `start`, whose adjacent
    transition counts equal M (depth-first over the remaining multigraph)."""
    r = M.shape[0]
    out = []

    def rec(state, remaining, acc):
        if len(acc) == length:
            if remaining.sum() == 0:
                out.append(tuple(acc))
            return
        for j in range(r):
            if remaining[state, j] > 0:
                remaining[state, j] -= 1
                acc.append(j)
                rec(j, remaining, acc)
                acc.pop()
                remaining[state, j] += 1

    rec(start, M.astype(int).copy(), [start])
    return out


def test_markov_sufficiency_alternate_realizations():
    # any column rewritten as a different path with the same transition
    # counts (and same start) leaves the posterior unchanged
    rng = np.random.default_rng(9)
    T_users = [
        expand_free_params(v, THREE_STATE)
        for v in ([0.2, 0.3, 0.4], [0.4, 0.2, 0.6], [0.1, 0.6, 0.5], [0.3, 0.3, 0.3])
    ]
    trajs = MarkovModel(THREE_STATE).sample_trajectories(T_users, 8, rng)
    perm = sample_permutation(4, rng)
    Y = anonymize(trajs, perm)
    stats = transition_stats(Y, 3)
    base = posterior_pi1(likelihood_matrix_markov(T_users, stats))

    rewritten = Y.copy()
    changed = 0
    for j in range(4):
        alternatives = _paths_with_transition_counts(stats[j], 8)
        current = tuple(Y[:, j].tolist())
        assert current in alternatives
        others = [p for p in alternatives if p != current]
        if others:
            rewritten[:, j] = others[0]
            changed += 1
    assert changed >= 1
    stats2 = transition_stats(rewritten, 3)
    assert np.array_equal(stats2, stats)
    post2 = posterior_pi1(likelihood_matrix_markov(T_users, stats2))
    assert np.abs(post2 - base).max() <= 1e-12


def test_markov_forced_edges_contribute_nothing():
    # rows with a single out-edge carry probability 1: their counts add
    # exactly zero to every log-likelihood, so zeroing them changes nothing
    rng = np.random.default_rng(10)
    T_users = [
        expand_free_params(v, THREE_STATE)
        for v in ([0.2, 0.3, 0.4], [0.25, 0.5, 0.7], [0.15, 0.35, 0.2])
    ]
    trajs = MarkovModel(THREE_STATE).sample_trajectories(T_users, 10, rng)
    Y = anonymize(trajs, sample_permutation(3, rng))
    stats = transition_stats(Y, 3)
    L = likelihood_matrix_markov(T_users, stats)

    zeroed = np.array(stats, copy=True)
    zeroed[:, 1, 2] = 0  # the forced edge 2->3
    L2 = np.stack(
        [
            [log_likelihood_markov(T, M) for M in zeroed]
            for T in T_users
        ]
    )
    assert np.allclose(L, L2, atol=1e-12)


def test_column_shift_invariance():
    # per-pseudonym constants are picked up exactly once by every
    # permutation, so the argmax and the posterior are both unchanged
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        L = rng.normal(size=(n, n))
        shifts = rng.normal(scale=3.0, size=n)
        L2 = L + shifts[None, :]
        assert np.abs(
            posterior_pi1(L) - posterior_pi1(L2)
        ).max() <= 1e-12
        assert np.array_equal(map_assignment(L), map_assignment(L2))


def test_posterior_survives_extreme_scales():
    # likelihoods hundreds of log-units apart: balancing keeps the
    # permanent alive where naive row factoring underflows
    rng = np.random.default_rng(12)
    profiles = np.array([[p, 1 - p] for p in (0.01, 0.012, 0.985, 0.99, 0.5)])
    trajs = IidModel(2).sample_trajectories(profiles, 500, rng)
    perm = sample_permutation(5, rng)
    Y = anonymize(trajs, perm)
    L = likelihood_matrix_iid(profiles, count_stats(Y, 2))
    post = posterior_pi1(L)
    brute = posterior_pi1_bruteforce(L)
    assert np.abs(post - brute).max() <= 1e-10
