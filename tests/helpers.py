"""Shared oracles for the test suite.

Everything here is deliberately brute-force or scalar and independent of
the library's computational paths: exhaustive enumeration over location
matrices and permutations (among them the exact-posterior and MAP
oracles), binomial tail sums, a step-by-step Markov walk, and the
worked 3-state graph used across the Markov tests. The references that
library code is checked against live here too: the per-user scalar
log-likelihood kernels (for ``likelihood_matrix_*``), chain validation
and the stationary law (for ``MarkovModel.marginal``), the free-parameter
read-back and the edge-by-edge expansion (for ``expand_free_params``), the
per-state Markov fit (for ``fit_markov_profile``), the Floyd-Warshall
exact tie loss (for MAP's near-tie screen) and the results-CSV reader
(for ``write_results_csv``). So do the Monte Carlo
estimators the acceptance criteria measure the paper's claims with, MI and
de-anonymization accuracy over a prior-sampled or fixed population, each a
thin loop over ``locpriv.metrics.run_trials``.
"""
import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.stats import binom

from locpriv import adversary
from locpriv.adversary import _SENTINEL_CUTOFF
from locpriv.harness import RESULT_HEADER, ConfigError, ResultRow
from locpriv.markov import MobilityGraph, _free_params
from locpriv.metrics import entropy, run_trials


def three_state_graph() -> MobilityGraph:
    return MobilityGraph(
        r=3,
        edges=[(0, 0), (0, 1), (0, 2), (1, 2), (2, 0), (2, 1)],
        free_edges=[(0, 0), (0, 1), (2, 1)],
    )


def expand_free_params_stepwise(params, graph: MobilityGraph) -> np.ndarray:
    """Transition matrix from free parameters, one edge and one row at a
    time (reference for locpriv.markov.expand_free_params): raises the
    same ValueError for the first state whose free entries leave no
    probability for its dependent edge."""
    T = np.zeros((graph.r, graph.r))
    for (i, j), p in zip(graph.free_edges, _free_params(params, graph)):
        T[i, j] = p
    for i in range(graph.r):
        dep_i, dep_j = next(
            e for e in graph.edges if e[0] == i and e not in graph.free_edges
        )
        residual = 1.0 - T[i].sum()
        if residual <= 0.0:
            raise ValueError(
                f"free parameters of state {i} leave no probability for the "
                f"dependent edge ({dep_i},{dep_j})"
            )
        T[dep_i, dep_j] = residual
    return T


def sample_trajectory_markov_stepwise(
    T: np.ndarray, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Length-m walk from state 0 under transition matrix T, one CDF search
    per step (reference for the tabulated walk in locpriv.markov; it draws
    the same uniforms)."""
    cdf = np.cumsum(T, axis=1)
    cdf[:, -1] = 1.0
    states = np.empty(m, dtype=np.int64)
    states[0] = 0
    u = rng.random(m - 1) if m > 1 else np.empty(0)
    cur = 0
    for t in range(1, m):
        cur = int(np.searchsorted(cdf[cur], u[t - 1], side="right"))
        states[t] = cur
    return states


def fit_markov_profile_per_state(trace, graph: MobilityGraph) -> np.ndarray:
    """Add-one smoothed transition matrix of a trace, one state's row at a
    time (reference for the masked expression in
    locpriv.markov.fit_markov_profile); the trace must stay on the graph."""
    r = graph.r
    support = graph.support
    M = np.zeros((r, r))
    for a, b in zip(trace[:-1], trace[1:]):
        M[a, b] += 1.0
    T = np.zeros((r, r))
    for i in range(r):
        row_edges = support[i]
        T[i, row_edges] = (M[i, row_edges] + 1.0) / (M[i].sum() + row_edges.sum())
    return T


def entropy_bits(q) -> float:
    q = np.asarray(q, dtype=float)
    pos = q[q > 0]
    return float(-(pos * np.log2(pos)).sum())


def exact_mi_two_state(p_values, m: int, k: int) -> float:
    """I(X_1(k); Y) in bits by exhaustive enumeration.

    Sums over every location matrix in {0,1}^(m x n) and every
    permutation, weighting by the exact product-Bernoulli probability,
    then evaluates H(X_1(k)) - H(X_1(k) | Y) from the tabulated joint.
    """
    n = len(p_values)
    perms = list(itertools.permutations(range(n)))
    y_prob: dict = {}
    joint: dict = {}
    for flat in itertools.product((0, 1), repeat=m * n):
        X = np.array(flat, dtype=np.int64).reshape(m, n)
        pX = 1.0
        for u in range(n):
            ones = int(X[:, u].sum())
            pX *= p_values[u] ** ones * (1 - p_values[u]) ** (m - ones)
        x1k = int(X[k - 1, 0])
        for pi in perms:
            Y = np.empty_like(X)
            for u in range(n):
                Y[:, pi[u]] = X[:, u]
            key = Y.tobytes()
            w = pX / len(perms)
            y_prob[key] = y_prob.get(key, 0.0) + w
            joint[(key, x1k)] = joint.get((key, x1k), 0.0) + w
    h_marginal = entropy_bits([1 - p_values[0], p_values[0]])
    h_cond = 0.0
    for key, py in y_prob.items():
        q = np.array([joint.get((key, x), 0.0) for x in (0, 1)]) / py
        h_cond += py * entropy_bits(q)
    return h_marginal - h_cond


def exact_two_user_map_accuracy(p1: float, p2: float, m: int) -> float:
    """P(the MAP matching recovers user 1's pseudonym) for two two-state
    users, by summing binomial tails.

    The matching compares the two columns' state-1 counts: user 1 takes
    the column favored by (s_a - s_b)(logit p1 - logit p2), with exact
    ties resolved toward the identity matching (so half of them are
    correct under the uniform permutation).
    """
    s = np.arange(m + 1)
    pmf1 = binom.pmf(s, m, p1)
    cdf2 = binom.cdf(s, m, p2)
    pmf2 = binom.pmf(s, m, p2)
    if p1 == p2:
        return 0.5
    # orient so user 1 is the low-logit profile: correct iff S1 < S2
    if p1 > p2:
        p1, p2 = p2, p1
        pmf1 = binom.pmf(s, m, p1)
        cdf2 = binom.cdf(s, m, p2)
        pmf2 = binom.pmf(s, m, p2)
    p_tie = float((pmf1 * pmf2).sum())
    p_s1_ge_s2 = float((pmf1 * cdf2).sum())
    p_s1_gt_s2 = p_s1_ge_s2 - p_tie
    return 1.0 - p_s1_gt_s2 - 0.5 * p_tie


def mi_identical_profiles_shortcut(
    p: float, n: int, m: int, k: int, trials: int, rng
) -> tuple[float, float]:
    """MI Monte Carlo for an all-identical population via the symmetry
    identity: the posterior is uniform, so the conditional law of
    X_1(k) is the empirical state frequency at time k."""
    ones = rng.binomial(n, p, size=trials)
    h = np.array([entropy_bits([1 - c / n, c / n]) for c in ones])
    value = entropy_bits([1 - p, p]) - float(h.mean())
    return value, float(h.std(ddof=1) / math.sqrt(trials))


def map_assignment_bruteforce(L: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Exhaustive search over all n! permutations (test oracle): the forward
    array of the first, in lexicographic order, whose total is within tol
    of the maximum, so with tol = 0 the lexicographically smallest exact
    optimum. -inf cells are infeasible."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    perms = list(itertools.permutations(range(n)))
    totals = [sum(L[u, j] for u, j in enumerate(p)) for p in perms]
    best = max(totals)
    if best == -np.inf:
        raise ValueError("no feasible permutation: every matching hits -inf")
    return np.array(next(p for p, t in zip(perms, totals) if t >= best - tol))


def assert_shared_solve_matches_standalone(L: np.ndarray) -> None:
    """Both attacks on one adversary.solve_assignment(L), MAP first, give
    the forward array and (up to the posterior's size bound) the weights
    that each computes alone, bit for bit."""
    solved = adversary.solve_assignment(L)
    shared = adversary.map_assignment(L, solved=solved)
    assert shared.tobytes() == adversary.map_assignment(L).tobytes()
    if L.shape[0] <= adversary.PERMANENT_FEASIBILITY_BOUND:
        shared = adversary.posterior_pi1(L, solved=solved)
        assert shared.tobytes() == adversary.posterior_pi1(L).tobytes()


def tie_loss(Lf: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """loss[u, j]: how far the best permutation that matches u to j falls
    below the optimum sigma (inf where no feasible permutation does); the
    exact-loss oracle for locpriv.adversary._near_ties, whose mask must
    contain every cell with loss <= 2 tol.

    Any permutation differs from sigma by disjoint alternating cycles on
    the columns, where row i moving from sigma(i) to j is an edge
    sigma(i) -> j of weight Lf[i, sigma(i)] - Lf[i, j]. Bellman-Ford
    potentials make every weight nonnegative (no cycle is negative, since
    sigma is optimal) and Floyd-Warshall closes the cheapest cycle
    through each edge.
    """
    n = sigma.size
    own = Lf[np.arange(n), sigma]
    W = np.where(Lf > _SENTINEL_CUTOFF, own[:, None] - Lf, np.inf)
    p = np.zeros(n)
    for _ in range(n):
        q = np.minimum(p, (p[sigma][:, None] + W).min(axis=0))
        if not (q < p).any():
            break
        p = q
    rc = np.maximum(W + p[sigma][:, None] - p[None, :], 0.0)
    D = np.empty_like(rc)
    D[sigma] = rc
    np.fill_diagonal(D, 0.0)
    for k in range(n):
        np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
    return rc + D[:, sigma].T


def row0_minors_dp(B: np.ndarray) -> np.ndarray:
    """Permanents of B with row 0 and column j struck out, for every j, by
    a subset dynamic program over columns (reference for Ryser at n <= 20).

    dp[S] is the permanent of rows 1..|S| over the column set S, built one
    row at a time: dp[S] = sum over j in S of B[|S|, j] * dp[S - {j}].
    Minor j is dp[all columns but j]. Every term is a product of
    nonnegative entries, so nothing cancels, unlike Ryser's alternating
    sum. O(2^n * n) time and 2^n floats of memory.
    """
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    full = (1 << n) - 1
    states = np.arange(1 << n, dtype=np.int64)
    sizes = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        sizes += (states >> j) & 1
    dp = np.zeros(1 << n)
    dp[0] = 1.0
    for k in range(1, n):
        layer = states[sizes == k]
        for j in range(n):
            S = layer[(layer >> j) & 1 == 1]
            dp[S] += B[k, j] * dp[S ^ (1 << j)]
    return np.array([dp[full ^ (1 << j)] for j in range(n)])


def posterior_pi1_bruteforce(L: np.ndarray) -> np.ndarray:
    """Posterior weights over user 1's pseudonym by enumerating all n!
    permutations (test oracle for small n)."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    totals = []
    firsts = []
    for p in itertools.permutations(range(n)):
        t = sum(L[u, j] for u, j in enumerate(p))
        if np.isfinite(t):
            totals.append(t)
            firsts.append(p[0])
    if not totals:
        raise ValueError("degenerate posterior: no feasible permutation")
    totals = np.asarray(totals)
    shift = totals.max()
    w = np.zeros(n)
    np.add.at(w, np.asarray(firsts), np.exp(totals - shift))
    return w / w.sum()


def log_likelihood_iid(profile: np.ndarray, counts: np.ndarray) -> float:
    """Multinomial kernel: sum_i counts[i] * ln p(i)."""
    profile = np.asarray(profile, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if counts.size != profile.size:
        raise ValueError("counts length must equal the number of states")
    return float(counts @ np.log(profile))


def log_likelihood_markov(T: np.ndarray, M: np.ndarray) -> float:
    """Markov kernel: sum_{i,k} M(i,k) * ln T(i,k); -inf if M puts mass on
    a zero-probability transition (this user cannot have produced it)."""
    T = np.asarray(T, dtype=float)
    M = np.asarray(M, dtype=float)
    mask = M > 0
    if np.any(T[mask] == 0.0):
        return float("-inf")
    return float(np.sum(M[mask] * np.log(T[mask])))


@dataclass(frozen=True)
class ChainReport:
    irreducible: bool
    aperiodic: bool


def contract_transition_matrix(T: np.ndarray, graph: MobilityGraph) -> np.ndarray:
    """Read the free-edge probabilities back out of a transition matrix, as
    a read-only (d,) array ordered like graph.free_edges."""
    return _free_params([T[i, j] for (i, j) in graph.free_edges], graph)


def validate_chain(T: np.ndarray) -> ChainReport:
    """Report irreducibility (one SCC) and aperiodicity (cycle gcd 1).

    A component's period is the gcd of depth[u] + 1 - depth[v] over its
    internal edges u -> v, with depths from a BFS inside the component.
    """
    adj = csr_matrix(np.asarray(T) > 0.0)
    n_comps, labels = connected_components(adj, directed=True, connection="strong")
    g = 0
    for c in range(n_comps):
        members = np.flatnonzero(labels == c)
        sub = adj[members][:, members]
        if sub.nnz == 0:
            continue
        depth = shortest_path(sub, unweighted=True, indices=0).astype(np.int64)
        u, v = sub.nonzero()
        g = np.gcd(g, np.gcd.reduce(depth[u] + 1 - depth[v]))
    return ChainReport(irreducible=n_comps == 1, aperiodic=bool(g == 1))


def stationary_distribution(T: np.ndarray) -> np.ndarray:
    """Solve pi T = pi, sum(pi) = 1 for an irreducible aperiodic chain."""
    T = np.asarray(T, dtype=float)
    report = validate_chain(T)
    if not (report.irreducible and report.aperiodic):
        raise ValueError(f"chain is not irreducible+aperiodic: {report}")
    r = T.shape[0]
    A = T.T - np.eye(r)
    A[-1, :] = 1.0
    b = np.zeros(r)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    residual = np.abs(pi @ T - pi).max()
    if residual > 1e-10:
        raise ValueError(f"stationary solve residual {residual:.3e} exceeds 1e-10")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def read_results_csv(path: str) -> list[ResultRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RESULT_HEADER.split(","):
            raise ConfigError("unexpected results header")
        for rec in reader:
            rows.append(
                ResultRow(
                    experiment_id=rec["experiment_id"],
                    model=rec["model"],
                    n=int(rec["n"]),
                    m=int(rec["m"]),
                    beta=float(rec["beta"]),
                    trial=int(rec["trial"]),
                    metric=rec["metric"],
                    value=float(rec["value"]),
                    std_error=None if rec["std_error"] == "" else float(rec["std_error"]),
                    seed=int(rec["seed"]),
                )
            )
    return rows


@dataclass(frozen=True)
class MiEstimate:
    """Mutual-information estimate in bits."""

    value: float
    std_error: float
    trials: int
    method: str

    def __post_init__(self) -> None:
        if self.std_error < 0.0 or not math.isfinite(self.std_error):
            raise ValueError("std_error must be a finite nonnegative number")
        if not math.isfinite(self.value):
            raise ValueError("MI estimate must be finite")


@dataclass(frozen=True)
class AccuracyResult:
    pi1_accuracy: float
    full_perm_accuracy: float
    trials: int


def _population(n, rng, profile_sampler, profile1, profiles):
    """User 1's profile and a ``run_trials`` draw: the stack of the fixed
    profiles, or of profile 1 and n - 1 fresh sampler draws. Profile 1 is
    drawn from ``rng`` up front unless pinned."""
    if profiles is not None:
        if profile1 is not None or profile_sampler is not None:
            raise ValueError("profiles excludes profile1 and profile_sampler")
        laws = np.array(profiles, dtype=float)
        if len(laws) != n:
            raise ValueError("fixed profile list must have length n")
        return laws[0], lambda _: (laws, None)
    if profile_sampler is None:
        raise ValueError("need either fixed profiles or a profile sampler")
    if profile1 is None:
        profile1 = profile_sampler(rng)
    return profile1, lambda rng: (
        np.stack([profile1] + [profile_sampler(rng) for _ in range(n - 1)]),
        None,
    )


def mutual_information_mc(
    model, n, m, k, trials, rng, *, profile_sampler=None, profile1=None, profiles=None
) -> MiEstimate:
    """Monte Carlo estimate of I(X_1(k); Y) in bits, every trial drawn from
    ``rng``. User 1's profile stays fixed across trials; the rest of the
    population is redrawn from the prior every trial (pass ``profiles`` to
    pin all of them instead). The permutation is redrawn every trial.
    """
    if trials < 2:
        raise ValueError("need at least two trials for a standard error")
    if not 1 <= k <= m:
        raise ValueError(f"time index k={k} outside 1..{m}")
    profile1, draw = _population(n, rng, profile_sampler, profile1, profiles)
    named = ((rng, f"trial {t}") for t in range(trials))
    scores = run_trials(model, m, named, draw, ("mi",), k=k)
    # Scored with h_marginal = 0, each trial's mi is exactly -H(X_1(k) | Y).
    cond = np.array([-s["mi"] for s in scores])
    return MiEstimate(
        value=entropy(model.marginal(profile1, k)) - float(cond.mean()),
        std_error=float(cond.std(ddof=1) / math.sqrt(trials)),
        trials=trials,
        method="mc-permanent",
    )


def deanonymization_accuracy_mc(
    model, n, m, trials, rng, *, profile_sampler=None, profile1=None, profiles=None
) -> AccuracyResult:
    """Fraction of trials, all drawn from ``rng``, where MAP matching
    recovers user 1's pseudonym, and where it recovers the entire
    permutation; the population is drawn as in ``mutual_information_mc``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    _, draw = _population(n, rng, profile_sampler, profile1, profiles)
    named = ((rng, f"trial {t}") for t in range(trials))
    scores = list(run_trials(model, m, named, draw, ("accuracy",)))
    return AccuracyResult(
        pi1_accuracy=sum(s["pi1_accuracy"] for s in scores) / trials,
        full_perm_accuracy=sum(s["full_perm_accuracy"] for s in scores) / trials,
        trials=trials,
    )
