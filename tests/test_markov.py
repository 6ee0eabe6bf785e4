import numpy as np
import pytest

from helpers import (
    contract_transition_matrix,
    expand_free_params_stepwise,
    fit_markov_profile_per_state,
    sample_trajectory_markov_stepwise,
    stationary_distribution,
    validate_chain,
)
from locpriv.markov import (
    MarkovModel,
    MobilityGraph,
    expand_free_params,
    fit_markov_profile,
    load_graph_csv,
    sample_free_params,
)
from locpriv.mobility import fit_iid_profile


def three_state_graph() -> MobilityGraph:
    """The worked 3-state example: self-loop and two exits at state 1,
    forced hop 2->3, and two exits at state 3 with the free edge 3->2."""
    return MobilityGraph(
        r=3,
        edges=[(0, 0), (0, 1), (0, 2), (1, 2), (2, 0), (2, 1)],
        free_edges=[(0, 0), (0, 1), (2, 1)],
    )


def two_state(a: float, b: float) -> np.ndarray:
    return np.array([[1 - a, a], [b, 1 - b]])


def walk(g: MobilityGraph, T: np.ndarray, m: int, rng) -> np.ndarray:
    """One length-m walk of law T on g, through the model's stacked sampler."""
    (states,) = MarkovModel(g).sample_trajectories(np.array([T]), m, rng)
    return states


def random_graph(rng, r):
    edges = []
    for i in range(r):
        out_deg = int(rng.integers(1, r + 1))
        targets = rng.choice(r, size=out_deg, replace=False)
        edges.extend((i, int(j)) for j in targets)
    return MobilityGraph(r=r, edges=edges)


def test_degrees_of_freedom():
    assert MarkovModel(three_state_graph()).d == 3  # |E|=6, r=3
    complete2 = MobilityGraph(r=2, edges=[(0, 0), (0, 1), (1, 0), (1, 1)])
    assert MarkovModel(complete2).d == 2
    cycle = MobilityGraph(r=4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    assert MarkovModel(cycle).d == 0


def test_graph_validation():
    with pytest.raises(ValueError):
        MobilityGraph(r=2, edges=[(0, 0)])  # state 1 has no out-edge
    with pytest.raises(ValueError):
        MobilityGraph(r=2, edges=[(0, 0), (0, 1), (1, 1)], free_edges=[(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        MobilityGraph(r=2, edges=[(0, 1), (1, 0)], free_edges=[(1, 1)])


def test_canonical_free_edge_rule():
    g = MobilityGraph(r=3, edges=[(0, 0), (0, 1), (0, 2), (1, 2), (2, 0), (2, 1)])
    # per row, every out-edge except the lexicographically largest target
    assert g.free_edges == ((0, 0), (0, 1), (2, 0))
    assert np.argwhere(g.support & ~g.free).tolist() == [[0, 2], [1, 2], [2, 1]]


def test_expand_three_state_params():
    T = expand_free_params([0.2, 0.3, 0.4], three_state_graph())
    expected = np.array([[0.2, 0.3, 0.5], [0.0, 0.0, 1.0], [0.6, 0.4, 0.0]])
    assert np.allclose(T, expected, atol=0)


def test_expand_rejects_boundary():
    with pytest.raises(ValueError):
        expand_free_params([0.5, 0.5, 0.5], three_state_graph())  # 1-p1-p2 = 0
    with pytest.raises(ValueError):
        expand_free_params([1.2, 0.1, 0.5], three_state_graph())


def test_expand_matches_stepwise_reference():
    # one fancy-index write and one row sum against one edge and one row
    # at a time: the same matrix bit for bit, or the same first error
    rng = np.random.default_rng(23)
    raised = 0
    for seed in range(300):
        g = random_graph(rng, int(rng.integers(1, 13)))
        if seed % 2:
            params = sample_free_params(g, np.random.default_rng(seed))
        else:
            params = rng.uniform(0.05, 0.95, size=g.d)
        try:
            want = expand_free_params_stepwise(params, g)
        except ValueError as err:
            raised += 1
            with pytest.raises(ValueError) as got:
                expand_free_params(params, g)
            assert str(got.value) == str(err)
            continue
        assert np.array_equal(expand_free_params(params, g), want)
    assert 0 < raised < 300


def test_expand_contract_roundtrip_exact():
    g = three_state_graph()
    params = np.array([0.25, 0.125, 0.75])
    back = contract_transition_matrix(expand_free_params(params, g), g)
    assert np.array_equal(back, params)


def test_free_params_are_checked_read_only_arrays():
    g = three_state_graph()
    sampled = sample_free_params(g, np.random.default_rng(0))
    back = contract_transition_matrix(expand_free_params(sampled, g), g)
    for values in (sampled, back):
        assert values.shape == (3,) and not values.flags.writeable
    for bad in ([0.2, 0.3], [0.2, 0.3, 0.4, 0.1], [[0.2, 0.3, 0.4]], [0.0, 0.3, 0.4]):
        with pytest.raises(ValueError):
            expand_free_params(bad, g)
    # a fitted matrix may put 0 on a free edge: no interior free parameter
    T = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.6, 0.4, 0.0]])
    with pytest.raises(ValueError, match="strictly in"):
        contract_transition_matrix(T, g)


def test_graph_counts_free_edges_per_state():
    assert three_state_graph().free.sum(axis=1).tolist() == [2, 0, 1]
    g = MobilityGraph(r=3, edges=[(0, 1), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)])
    assert g.free.sum(axis=1).tolist() == [0, 1, 2]
    assert g == MobilityGraph(r=3, edges=list(reversed(g.edges)))


def test_sample_free_params_matches_per_row_dirichlet():
    """Each row with k free edges consumes the stream as
    rng.dirichlet(np.ones(k + 1)) does and keeps its first k entries."""
    rng = np.random.default_rng(11)
    for seed in range(30):
        g = random_graph(rng, int(rng.integers(2, 7)))
        ref, ours = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = []
        for i in range(g.r):
            k = sum(1 for a, _ in g.free_edges if a == i)
            if k:
                expected.extend(ref.dirichlet(np.ones(k + 1))[:-1])
        assert np.array_equal(sample_free_params(g, ours), expected)
        assert ours.random() == ref.random()


def test_roundtrip_random_graphs():
    rng = np.random.default_rng(10)
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 7)))
        params = sample_free_params(g, rng)
        T = expand_free_params(params, g)
        back = contract_transition_matrix(T, g)
        assert np.array_equal(back, params)
        # dependent probability forced exactly by the row sum
        assert np.abs(T.sum(axis=1) - 1.0).max() <= 1e-12


def _oracle_chain_report(matrix):
    """Independent reachability/cycle-gcd oracle via matrix powers.

    Irreducible iff the transitive closure is all-ones; the period is the
    gcd of {walk lengths l with a closed walk}, and simple cycles
    (length <= r) already generate it, so l <= r*r is plenty.
    """
    import math

    r = matrix.shape[0]
    A = (matrix > 0).astype(int)
    closure = np.eye(r, dtype=int) + A
    for _ in range(r):
        closure = ((closure @ closure) > 0).astype(int)
    irreducible = bool(closure.all())
    g = 0
    power = np.eye(r, dtype=int)
    for length in range(1, r * r + 1):
        power = ((power @ A) > 0).astype(int)
        if power.diagonal().any():
            g = math.gcd(g, length)
    return irreducible, g == 1


def test_validate_chain_examples():
    rep = validate_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert rep.irreducible and not rep.aperiodic

    assert not validate_chain(np.eye(2)).irreducible

    chain = expand_free_params([0.2, 0.3, 0.4], three_state_graph())
    rep = validate_chain(chain)
    assert rep.irreducible and rep.aperiodic
    assert (rep.irreducible, rep.aperiodic) == _oracle_chain_report(chain)


def test_validate_chain_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(60):
        g = random_graph(rng, int(rng.integers(2, 6)))
        T = expand_free_params(sample_free_params(g, rng), g)
        rep = validate_chain(T)
        assert (rep.irreducible, rep.aperiodic) == _oracle_chain_report(T)

    # Uniform walks on random 0/1 supports, sparse enough that reducible
    # and periodic chains both occur.
    seen = set()
    for r in range(1, 8):
        for _ in range(100):
            support = rng.random((r, r)) < rng.uniform(0.05, 0.6)
            for i in np.flatnonzero(~support.any(axis=1)):
                support[i, rng.integers(r)] = True
            T = support / support.sum(axis=1, keepdims=True)
            rep = validate_chain(T)
            oracle = _oracle_chain_report(T)
            assert (rep.irreducible, rep.aperiodic) == oracle
            seen.add(oracle)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_stationary_two_state_closed_form():
    pi = stationary_distribution(two_state(0.3, 0.6))
    assert np.allclose(pi, [2 / 3, 1 / 3], atol=1e-12)


def test_stationary_doubly_stochastic_uniform():
    T = np.full((3, 3), 1 / 3)
    assert np.allclose(stationary_distribution(T), [1 / 3] * 3, atol=1e-12)


def test_stationary_agrees_with_power_iteration():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 6)))
        T = expand_free_params(sample_free_params(g, rng), g)
        rep = validate_chain(T)
        if not (rep.irreducible and rep.aperiodic):
            continue
        pi = stationary_distribution(T)
        mu = np.full(g.r, 1.0 / g.r)
        for _ in range(20000):
            mu = mu @ T
        assert np.abs(pi - mu).max() < 1e-9


def test_stationary_rejects_periodic():
    with pytest.raises(ValueError):
        stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_sample_trajectory_deterministic_cycle():
    g = MobilityGraph(r=3, edges=[(0, 1), (1, 2), (2, 0)])
    T = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    t = walk(g, T, 5, np.random.default_rng(0))
    assert t.tolist() == [0, 1, 2, 0, 1]
    t1 = walk(g, T, 1, np.random.default_rng(0))
    assert t1.tolist() == [0]


def _sparse_law(g, rng) -> np.ndarray:
    """A law on graph g that may put zero mass on some of its edges."""
    matrix = np.zeros((g.r, g.r))
    for i in range(g.r):
        targets = [j for a, j in g.edges if a == i]
        w = rng.random(len(targets)) * (rng.random(len(targets)) < 0.7)
        w[int(rng.integers(len(targets)))] += 0.1
        matrix[i, targets] = w / w.sum()
    return matrix


def test_sample_trajectory_matches_stepwise_walk():
    # the stacked, tabulated walks against one CDF search per step, user
    # by user, on random chains with zero-probability edges and on sampled
    # laws, down to a single observation
    rng = np.random.default_rng(17)
    for seed in range(200):
        g = random_graph(rng, int(rng.integers(1, 7)))
        n = 1 + seed % 5
        if seed % 2:
            laws = np.stack([_sparse_law(g, rng) for _ in range(n)])
        else:
            laws = np.stack(
                [expand_free_params(sample_free_params(g, rng), g) for _ in range(n)]
            )
        m = 1 if seed % 10 == 0 else int(rng.integers(2, 300))
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = MarkovModel(g).sample_trajectories(laws, m, rng_got)
        assert len(got) == n
        for states, T in zip(got, laws):
            want = sample_trajectory_markov_stepwise(T, m, rng_want)
            assert states.dtype == np.int64 and not states.flags.writeable
            assert states.tolist() == want.tolist()
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


def test_sample_trajectory_transition_frequencies():
    g = three_state_graph()
    T = expand_free_params([0.2, 0.3, 0.4], g)
    t = walk(g, T, 100_000, np.random.default_rng(13))
    counts = np.zeros((3, 3))
    np.add.at(counts, (t[:-1], t[1:]), 1)
    departures = counts.sum(axis=1)
    for i in range(3):
        for j in range(3):
            if T[i, j] == 0:
                assert counts[i, j] == 0
                continue
            p = T[i, j]
            sigma = np.sqrt(departures[i] * p * (1 - p))
            assert abs(counts[i, j] - departures[i] * p) <= 3 * sigma + 1


def test_long_run_occupancy_matches_stationary():
    g = three_state_graph()
    T = expand_free_params([0.2, 0.3, 0.4], g)
    pi = stationary_distribution(T)
    t = walk(g, T, 100_000, np.random.default_rng(14))
    occ = np.bincount(t, minlength=3) / len(t)
    sigma = np.sqrt(pi * (1 - pi) / len(t))
    # correlated samples: allow triple the iid band plus mixing slack
    assert np.all(np.abs(occ - pi) <= 9 * sigma + 1e-3)


def test_fit_markov_profile():
    # unvisited state: uniform over its out-edges
    g2 = three_state_graph()
    T2 = fit_markov_profile([0, 0, 1, 2, 1], g2)
    assert np.abs(T2.sum(axis=1) - 1).max() <= 1e-12
    T3 = fit_markov_profile([0, 0], g2)
    assert np.allclose(T3[1], [0, 0, 1])
    assert np.allclose(T3[2], [0.5, 0.5, 0])


def test_fit_markov_profile_rejects_off_graph_transition():
    g = three_state_graph()
    with pytest.raises(ValueError):
        fit_markov_profile([0, 1, 0], g)  # (1,0) not in E
    with pytest.raises(ValueError):
        fit_markov_profile([0], g)


def test_fit_markov_profile_names_first_off_graph_transition():
    # (2,2) at step 3 comes before (1,0) at step 5; the message names them
    # by their file labels, 3 -> 3 and 2 -> 1
    with pytest.raises(ValueError, match=r"transition \(3,3\) not in the graph"):
        fit_markov_profile([0, 1, 2, 2, 1, 0], three_state_graph())


def test_fits_reject_states_outside_range():
    for bad in ([0, -1, 0], [0, 3, 0]):
        with pytest.raises(ValueError, match=r"outside 0\.\.2"):
            fit_markov_profile(bad, three_state_graph())
        with pytest.raises(ValueError, match=r"outside 0\.\.2"):
            fit_iid_profile(bad, 3)


def test_fit_markov_profile_matches_stepwise_counts():
    # the one-bincount transition count and the masked whole-matrix fit
    # against a per-step count and a per-state loop, bit for bit, on the
    # worked graph and on random graphs with up to 17 states
    rng = np.random.default_rng(21)
    for k in range(60):
        g = three_state_graph() if k < 20 else random_graph(rng, int(rng.integers(1, 18)))
        T = expand_free_params(sample_free_params(g, rng), g)
        trace = walk(g, T, int(rng.integers(2, 3001)), rng)
        assert np.array_equal(
            fit_markov_profile(trace, g), fit_markov_profile_per_state(trace, g)
        )


def test_fit_markov_row_stochastic_random():
    rng = np.random.default_rng(15)
    g = three_state_graph()
    T = expand_free_params([0.3, 0.3, 0.5], g)
    for _ in range(25):
        t = walk(g, T, int(rng.integers(2, 50)), rng)
        fit = fit_markov_profile(t, g)
        assert np.abs(fit.sum(axis=1) - 1).max() <= 1e-12


def test_exactly_one_dependent_edge_per_state():
    rng = np.random.default_rng(16)
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(2, 7)))
        free = set(g.free_edges)
        for i in range(g.r):
            dep = [j for a, j in g.edges if a == i and (a, j) not in free]
            assert len(dep) == 1
            assert dep == np.flatnonzero(g.support[i] & ~g.free[i]).tolist()


def test_graph_masks_are_read_only_edge_sets():
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(1, 9)))
        assert g.support.shape == g.free.shape == (g.r, g.r)
        assert [tuple(e) for e in np.argwhere(g.support).tolist()] == list(g.edges)
        assert [tuple(e) for e in np.argwhere(g.free).tolist()] == list(g.free_edges)
        for mask in (g.support, g.free):
            assert mask.dtype == bool and not mask.flags.writeable


def test_load_graph_csv(tmp_path):
    path = tmp_path / "graph3.csv"
    path.write_text(
        "from,to,free\n"
        "1,1,1\n1,2,1\n1,3,0\n2,3,0\n3,1,0\n3,2,1\n"
    )
    g = load_graph_csv(str(path))
    assert g.r == 3 and g.d == 3
    assert g.free_edges == ((0, 0), (0, 1), (2, 1))

    auto = tmp_path / "auto.csv"
    auto.write_text("from,to,free\n1,1,auto\n1,2,auto\n2,1,auto\n2,2,auto\n")
    g2 = load_graph_csv(str(auto))
    assert g2.free_edges == ((0, 0), (1, 0))

    bad = tmp_path / "bad.csv"
    bad.write_text("src,dst,free\n1,2,1\n")
    with pytest.raises(ValueError):
        load_graph_csv(str(bad))
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("from,to,free\n1,1,auto\n1,2,1\n2,1,0\n2,2,0\n")
    with pytest.raises(ValueError):
        load_graph_csv(str(mixed))
    # contradicting free flags for one edge: neither row may win silently
    twice = tmp_path / "twice.csv"
    twice.write_text("from,to,free\n1,2,1\n1,2,0\n1,1,0\n2,1,0\n2,2,1\n")
    with pytest.raises(ValueError, match=r"edge \(1, 2\) is listed twice on line 3"):
        load_graph_csv(str(twice))


def test_load_graph_csv_reads_padded_header_blank_lines_and_extra_columns(tmp_path):
    # the header check strips names, so padded ones must read too
    path = tmp_path / "padded.csv"
    path.write_text(
        "from, to ,free \n1,1,1\n\n1,2,1,note\n1,3,0\n2,3,0\n3,1,0\n3,2,1\n"
    )
    g = load_graph_csv(str(path))
    assert g.edges == ((0, 0), (0, 1), (0, 2), (1, 2), (2, 0), (2, 1))
    assert g.free_edges == ((0, 0), (0, 1), (2, 1))
    # and so must a file that starts with a byte-order mark, as spreadsheet
    # exports often do
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    h = load_graph_csv(str(bom))
    assert (h.r, h.edges, h.free_edges) == (g.r, g.edges, g.free_edges)


def test_markov_model_descriptor():
    model = MarkovModel(graph=three_state_graph())
    assert model.graph.d == 3
