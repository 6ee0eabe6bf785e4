"""The strongest de-anonymization adversary the model admits.

Works from sufficient statistics only: per-pseudonym visit counts for
i.i.d. mobility, per-pseudonym transition-count matrices for Markov
mobility. Log-likelihoods are multinomial kernels with the combinatorial
coefficients dropped (they cancel in every posterior ratio). On top of
the likelihood matrix the adversary offers two attacks:

* ``map_assignment`` -- the MAP permutation via optimal assignment;
* ``posterior_pi1`` -- the exact posterior P(pseudonym of user 1 = j),
  a ratio of matrix permanents evaluated with Glynn's formula on a
  Sinkhorn-balanced matrix. All n row-0 minors come out of a single
  pass over column sign vectors (the permanent is multilinear, so
  each minor is the partial derivative of the full permanent with
  respect to a first-row entry). Pseudonyms with equal statistics have
  identical columns; a class of mu of them is summed over its mu + 1
  sign counts instead of its 2^mu sign vectors.

Both attacks start from one optimal assignment of the matrix and its
LP-dual reduced costs; ``solve_assignment`` computes them once, so a
trial that runs both attacks solves once. Two-state i.i.d. matrices,
L[u, j] = a_u + b_u k_j, need no solve for MAP: given the keys (b, k) it
sorts (see ``map_assignment``).
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolvedAssignment",
    "count_stats",
    "likelihood_matrix_iid",
    "likelihood_matrix_markov",
    "map_assignment",
    "posterior_pi1",
    "solve_assignment",
    "transition_stats",
]


def _load_assignment_solver():
    """scipy's compiled linear_sum_assignment (shortest augmenting paths
    after Crouse, IEEE TAES 52(4), 2016), loaded from its own extension
    file. Importing scipy.optimize for it would load linalg, linprog and
    the rest first, most of locpriv's start-up time and memory. The module
    is registered under its scipy name, so a later import of scipy.optimize
    reuses it and both names bind the same function. Where that file is
    not found (scipy laid out otherwise), scipy.optimize is imported.
    """
    name = "scipy.optimize._lsap"
    module = sys.modules.get(name)
    if module is None:
        scipy_spec = importlib.util.find_spec("scipy")  # runs no scipy code
        folders = scipy_spec.submodule_search_locations if scipy_spec else ()
        paths = [
            os.path.join(folder, "optimize", "_lsap" + suffix)
            for folder in folders
            for suffix in importlib.machinery.EXTENSION_SUFFIXES
        ]
        path = next(filter(os.path.isfile, paths), None)
        if path is None:
            from scipy.optimize import linear_sum_assignment

            return linear_sum_assignment
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[name]
            raise
    return module.linear_sum_assignment


linear_sum_assignment = _load_assignment_solver()

# Stand-in for -inf cells handed to the assignment solver; any feasible
# permutation beats any total containing one of these.
_NEG_SENTINEL = -1e18
_SENTINEL_CUTOFF = _NEG_SENTINEL / 2

# Hard cap on exact-posterior size: the row-0 minors sum over prod(mu + 1)
# terms at O(n) each, mu running over the sizes of the classes of equal
# columns other than the pivot column fixed at +1 (see _glynn_row0_minors):
# 2^(n-1) when all columns differ, so each further distinct user doubles
# the time. On a 2-vCPU Xeon VM one posterior_pi1 call at n = 20 takes
# 1-10 ms (median about 3) on iid2 sweep inputs at m = n^1.2 and about
# 7 ms when no two columns are equal.
PERMANENT_FEASIBILITY_BOUND = 20

# _glynn_row0_minors tabulates the row sums of at most 2^_TABLE_BITS
# level combinations in a matrix product (with every column class of
# size 1: the pivot column and the sign vectors of the next 13 columns)
# and loops over the levels of any further classes, as many at a time as
# fill a tile of _TILE (level, table row) products: 512 kB per buffer, so
# both buffers stay in a core's 2 MB L2 cache while every matrix row
# multiplies into them. On that VM the tile's add and multiply take about
# 0.6 ns per element over 8192-wide table rows in 2^16-element tiles, as
# over 4096-wide rows in 2^15-element tiles, and about 1.3 ns over
# 2048-wide ones; the wider rows and tile halve the loop's numpy calls.
_TABLE_BITS = 13
_TILE = 2**16

# Table columns per slice of _glynn_row0_minors' level-sum product. A
# 19 x 14 by 14 x 512 product stays below the size at which OpenBLAS
# hands work to a second thread, which then busy-waits for about 27 ms
# after the call; the slices' sums come out bit-identical to one product.
_PRODUCT_COLUMNS = 512

# Per-thread scratch arrays of _glynn_row0_minors (see _scratch).
_buffers = threading.local()

# Level tables kept by _level_table. Up to n = PERMANENT_FEASIBILITY_BOUND
# none exceeds 2^_TABLE_BITS columns of 14 int8 multipliers and a float
# weight (180 kB), and the 16 largest come to 2.47 MB, so the cache stays
# under 2.5 MB however many class-size tuples occur.
_TABLE_CACHE = 16

# Sinkhorn sweeps _balance may take before it reports non-convergence.
_SINKHORN_SWEEPS = 100

# Per-user relative size a negative minor may reach before posterior_pi1
# reports cancellation instead of reading it as a rounded zero.
_CANCELLATION_TOL = 1e-12


@dataclass(frozen=True)
class SolvedAssignment:
    """What both attacks need of a likelihood matrix, from solve_assignment:
    the matrix ``L`` it was built from (the attacks check it by identity),
    ``Lf``, L with -inf cells at the solver's sentinel, ``sigma``, one
    optimal assignment (a column per row), and ``rc``, its reduced costs
    (see _reduced_costs). The arrays are read-only."""

    L: np.ndarray
    Lf: np.ndarray
    sigma: np.ndarray
    rc: np.ndarray


def _check_states(Y: np.ndarray, r: int) -> None:
    if Y.ndim != 2:
        raise ValueError("observation matrix must be 2-D (time x pseudonym)")
    if Y.size and (Y.min() < 0 or Y.max() >= r):
        raise ValueError(f"observation outside 0..{r - 1}")


def count_stats(Y: np.ndarray, r: int) -> np.ndarray:
    """Exact per-state visit counts: counts[j, i] = #times pseudonym j is
    at state i in the (m, n) Y. Each row sums to m."""
    _check_states(Y, r)
    n = Y.shape[1]
    cell = np.arange(n) * r + Y  # (pseudonym, state) as one index
    counts = np.bincount(cell.ravel(), minlength=n * r).reshape(n, r)
    counts.flags.writeable = False
    return counts


def transition_stats(Y: np.ndarray, r: int) -> np.ndarray:
    """Adjacent-pair transition counts: mats[j, i, k] = #steps i -> k in
    pseudonym j's column of the (m, n) Y. Each matrix sums to m - 1."""
    _check_states(Y, r)
    m, n = Y.shape
    if m < 1:
        raise ValueError("need at least one observation")
    cell = (np.arange(n) * r + Y[:-1]) * r + Y[1:]
    mats = np.bincount(cell.ravel(), minlength=n * r * r).reshape(n, r, r)
    mats.flags.writeable = False
    return mats


def likelihood_matrix_iid(laws: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """L[u, j] = log-likelihood that user u, of law laws[u] in the (n, r)
    stack, generated pseudonym j's counts (the (n, r) array from
    count_stats)."""
    return np.log(laws) @ counts.T.astype(float)


def likelihood_matrix_markov(laws: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Markov analogue of likelihood_matrix_iid over the (n, r, r) stack of
    transition matrices and the (n, r, r) array from transition_stats;
    -inf marks impossible pairs."""
    n, r, _ = mats.shape
    Tflat = np.reshape(laws, (n, r * r))
    logT = np.log(np.where(Tflat > 0.0, Tflat, 1.0))  # log(1.0) is +0.0
    Mflat = mats.reshape(n, r * r).astype(float)
    L = logT @ Mflat.T
    forbidden = (Tflat == 0.0).astype(float) @ Mflat.T
    L[forbidden > 0] = -np.inf
    return L


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _level_table(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Every level combination of column classes of the given sizes, after
    a leading column fixed at +1, as read-only int8 multipliers stored
    class-major (int8 keeps the cache small and holds every multiplier for
    sizes up to 127; callers compute with a float copy), plus their
    weights.

    Column t reads t in mixed radix (mu_g + 1 for class g, first class
    fastest): k_g of class g's mu_g columns carry -1, so the class's
    columns sum with multiplier mu_g - 2 k_g, and the C(mu_g, k_g) sign
    vectors that do so each carry the sign (-1)^k_g. Row 0 holds the
    leading column's +1s and row g class g's multipliers, each one
    contiguous row, built by broadcasting a class's mu_g + 1 values over
    its digit; the weights take the classes' factors in the same order.
    With every size 1 these are the +-1 sign vectors and their sign
    products. On the 2-vCPU VM an 8192-column table builds in about
    0.28 ms.
    """
    total = math.prod(mu + 1 for mu in sizes)
    mult = np.ones((len(sizes) + 1, total), dtype=np.int8)
    weight = np.ones(total)
    stride = 1  # columns per step of class g's digit
    for g, mu in enumerate(sizes, 1):
        k = np.arange(mu + 1)
        mult[g].reshape(-1, mu + 1, stride)[...] = (mu - 2 * k)[:, None]
        coeff = np.array([(-1) ** i * math.comb(mu, i) for i in range(mu + 1)])
        weight.reshape(-1, mu + 1, stride)[...] *= coeff[:, None]
        stride *= mu + 1
    mult.flags.writeable = weight.flags.writeable = False
    return mult, weight


def _scratch(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array of the given shape, a view of this
    thread's buffer ``name``, which is kept between calls and replaced by a
    larger one when it is too small. A call that reuses a buffer touches no
    fresh pages; one per thread keeps concurrent calls apart."""
    size = math.prod(shape)
    buf = getattr(_buffers, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_buffers, name, buf)
    return buf[:size].reshape(shape)


def _glynn_row0_minors(A: np.ndarray) -> np.ndarray:
    """perm of A with row 0 and column j removed, for every j, in one pass.

    Glynn's formula, with the sign of one column p (the pivot) fixed at +1,
    differentiated by A[0, c]:
    minor_c = 2^-(n-1) sum over sign vectors d with d_p = +1 of
    (prod d) d_c prod_{i >= 1} sum_j d_j A[i, j].
    Bitwise-identical columns form a class. The row sums depend only on
    how many of a class's mu columns carry -1, so the class adds mu + 1
    levels instead of 2^mu sign patterns (see _level_table), and each of
    its columns takes (mu - 2k) / mu of a level's term. The pivot is the
    first column of the smallest class, the first such class in column
    order, so column 0 stays the pivot whenever it is a singleton. The
    pivot leaves its class, and the cost is the product of mu + 1 over
    the classes of the other columns. The columns equal to the pivot
    share its minor, so equal columns get equal minors bit for bit. The
    level sums of the pivot and the smallest classes, at most
    2^_TABLE_BITS = 8192 of them, come from a matrix product with the
    class-major table (a row of sums per matrix row, so the loop below
    runs along contiguous memory). Each level of the remaining classes
    shifts them by its own row sums, all levels' shifts coming from one
    more product. The loop takes the levels a tile at a time (see
    _TILE): it adds each matrix row's shifted sums and multiplies them
    into the tile in place, the rows in order, and folds the finished
    tile into the minors with two matrix-vector products. A table of
    more than _PRODUCT_COLUMNS columns is copied to float in a per-thread
    buffer (see _scratch) and multiplied in slices of that many columns
    into another; the tile is a third. When no two columns are equal
    this is the plain sum over 2^(n-1) sign vectors, term for term. On
    the 2-vCPU VM the median call on posterior-n20's iid2 inputs takes
    about 1.3 ms at n = 20 and 0.25 ms at n = 16 with its tables cached.
    """
    n = A.shape[0]
    raw = A.T.tobytes()
    w = len(raw) // n
    classes: dict[bytes, list[int]] = {}
    for j in range(n):
        classes.setdefault(raw[j * w : (j + 1) * w], []).append(j)
    groups = sorted(classes.values(), key=len)  # stable: in column order
    pivot = groups[0].pop(0)
    equal = groups[0]  # the columns equal to the pivot
    if not equal:
        del groups[0]
    sizes = tuple(map(len, groups))
    rows, split = 1, 0
    while split < len(sizes) and rows * (sizes[split] + 1) <= 2**_TABLE_BITS:
        rows *= sizes[split] + 1
        split += 1
    low_mult, low_weight = _level_table(sizes[:split])
    C = A[1:].take([pivot] + [cols[0] for cols in groups], axis=1)
    if rows <= _PRODUCT_COLUMNS:  # fresh arrays this small cost less than buffers
        table = low_mult.astype(float)
        low_sums = C[:, : split + 1] @ table
    else:
        table = _scratch("table", low_mult.shape)
        np.copyto(table, low_mult)
        low_sums = _scratch("low_sums", (n - 1, rows))
        for lo in range(0, rows, _PRODUCT_COLUMNS):
            part = slice(lo, lo + _PRODUCT_COLUMNS)
            np.matmul(C[:, : split + 1], table[:, part], out=low_sums[:, part])
    out = np.zeros(C.shape[1])
    if split == len(sizes):  # every class in the table: no level to shift by
        terms = np.multiply.reduce(low_sums, axis=0)
    else:
        high_mult, high_weight = _level_table(sizes[split:])
        high_mult = high_mult[1:].astype(float)
        shifts = C[:, split + 1 :] @ high_mult  # row i's shift at each level
        step = _TILE // rows  # levels per tile
        tile = _scratch("tile", (2, step, rows))
        terms = np.zeros(rows)  # each table row's products, weighted, over all levels
        for lo in range(0, high_weight.size, step):
            h_weight = high_weight[lo : lo + step]
            v, t = tile[:, : h_weight.size]
            np.add(low_sums[0], shifts[0, lo : lo + step, None], out=v)
            for i in range(1, n - 1):  # the rows in order, as one reduce takes them
                np.add(low_sums[i], shifts[i, lo : lo + step, None], out=t)
                v *= t
            terms += h_weight @ v
            out[split + 1 :] += high_mult[:, lo : lo + step] @ (v @ low_weight * h_weight)
    # added to zeros, so that a zero minor reads +0.0
    out[: split + 1] += table @ (terms * low_weight)
    owner = [0] * n
    for g, cols in enumerate(groups, 1):
        for j in cols:
            owner[j] = g
    for j in equal:
        owner[j] = 0
    return (out / (1, *sizes)).take(owner) / 2.0 ** (n - 1)


def _reduced_costs(Lf: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Reduced costs rc[i, j] = W[i, j] + p_sigma(i) - p_j >= 0 (up to
    rounding) of the optimal assignment sigma: 0 on sigma, +inf on sentinel
    cells, and L - rc a row plus a column constant (LP duals; Burkard,
    Dell'Amico & Martello, Assignment Problems, SIAM 2009). Row i moving
    from sigma(i) to j is an edge sigma(i) -> j of weight W[i, j] =
    Lf[i, sigma(i)] - Lf[i, j]. No cycle is negative, sigma being optimal,
    so Bellman-Ford reaches p_j <= p_sigma(i) + W[i, j] within n rounds from
    any finite start; it starts from the column part of the feasible dual
    (0, max_i Lf[i, j]) and typically settles in far fewer.
    """
    n = sigma.size
    own = Lf[np.arange(n), sigma]
    W = np.where(Lf > _SENTINEL_CUTOFF, own[:, None] - Lf, np.inf)
    p = -Lf.max(axis=0)
    for _ in range(n):
        q = np.minimum(p, (p[sigma][:, None] + W).min(axis=0))
        if not (q < p).any():
            break
        p = q
    return W + p[sigma][:, None] - p[None, :]


def _near_ties(rc: np.ndarray, sigma: np.ndarray, tol: float) -> np.ndarray:
    """near[u, j]: keeps every cell whose exact loss (how far the best
    permutation matching u to j falls below sigma) is at most 2 tol, and
    may keep a few more. It leaves sigma by cycles of edges (see
    _reduced_costs, whose rc it takes) whose loss sums their nonnegative
    reduced costs, so every edge of a cycle of loss at most 2 tol is tight,
    rc <= 2 tol: (u, j) is near when tight and tight edges lead back from j
    to sigma(u).
    """
    n = sigma.size
    tight = rc <= 2 * tol
    reach = np.empty((n, n))
    reach[sigma] = tight  # rc is 0 on sigma: every column reaches itself
    edges = np.count_nonzero(reach)
    while True:
        reach = (reach @ reach > 0).astype(float)
        grown = np.count_nonzero(reach)
        if grown == edges:
            break
        edges = grown
    return tight & (reach[:, sigma].T > 0)


def solve_assignment(L: np.ndarray) -> SolvedAssignment:
    """The work both attacks share, done once: validate L, find one optimal
    assignment with one solver call, and take its reduced costs. Pass the
    result as ``solved`` to posterior_pi1 and map_assignment on the same
    L object; each attack solves by itself when given none."""
    A = np.asarray(L, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or n < 1:
        raise ValueError("likelihood matrix must be square and nonempty")
    if not (A < np.inf).all():
        raise ValueError("likelihood matrix contains NaN or +inf")
    Lf = np.where(np.isfinite(A), A, _NEG_SENTINEL)
    rows, sigma = linear_sum_assignment(Lf, maximize=True)
    if np.any(Lf[rows, sigma] <= _SENTINEL_CUTOFF):
        raise ValueError("no feasible permutation: every matching hits -inf")
    rc = _reduced_costs(Lf, sigma)
    Lf.flags.writeable = sigma.flags.writeable = rc.flags.writeable = False
    return SolvedAssignment(L=L, Lf=Lf, sigma=sigma, rc=rc)


def _solved(L, solved: SolvedAssignment | None) -> SolvedAssignment:
    """``solved`` when it was built from this very L, else a fresh solve."""
    if solved is None:
        return solve_assignment(L)
    if solved.L is not L:
        raise ValueError("solved was built from another likelihood matrix")
    return solved


def _sorted_matching(L, sort_keys) -> np.ndarray | None:
    """MAP's forward array for L[u, j] = a_u + b_u k_j with integer k, by
    sorting, or None when L is not a finite square array (the general path
    then reports it) or two logits b lie within 4 tol, tol being MAP's
    1e-9 max(1, max |L|).

    Pairing users in increasing b with pseudonyms in increasing k is
    optimal (rearrangement inequality). Every other matching holds a pair
    of users in the wrong order on distinct counts, and setting it right
    gains at least the logit gap: more than 4 tol, so MAP's ties are
    exactly the sorted matchings, which differ only in how each group of
    equal k (equal columns) is spread over its users. The smallest forward
    array gives a group's columns in increasing order to its users in
    increasing order.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0] if L.ndim == 2 else 0
    if n < 1 or L.shape != (n, n) or not np.isfinite(L).all():
        return None
    b, k = map(np.asarray, sort_keys)
    if b.shape != (n,) or k.shape != (n,):
        raise ValueError("sort keys do not match the likelihood matrix")
    tol = 1e-9 * max(1.0, float(np.abs(L).max()))
    users = np.argsort(b, kind="stable")
    if n > 1 and not np.diff(b[users]).min() > 4 * tol:  # NaN falls back too
        return None
    cols = np.argsort(k, kind="stable")  # by count, then by index
    count = np.empty_like(k)
    count[users] = k[cols]  # the count each user is matched to
    forward = np.empty(n, dtype=np.int64)
    forward[np.argsort(count, kind="stable")] = cols  # users by count, then index
    return forward


def map_assignment(
    L: np.ndarray,
    *,
    solved: SolvedAssignment | None = None,
    sort_keys: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """MAP user-to-pseudonym matching, as the read-only forward array:
    argmax over permutations of the total log-likelihood, ties broken by
    lexicographically smallest forward array (totals within a small
    numeric tolerance count as tied).

    One assignment solve finds the optimum. The tie-break then fixes rows
    in order, each to the smallest column that still completes to a
    total within tol of the optimum, and keeps one such completion at
    hand. The column a row holds in it qualifies, so the row takes that
    column, untested, when no smaller column qualifies. A smaller column
    cannot when the near-tie screen (see _near_ties) leaves it out: its
    exact loss then exceeds 2 tol. It can when the completion at hand,
    with the row trading columns with the row that holds it, falls short
    of the optimum by at most tol / 2. Those margins absorb the rounding
    in the bounds; only the columns left undecided get the exact test, a
    sub-assignment over the remaining rows and columns. A column the
    screen keeps although its loss exceeds 2 tol fails that test, so it
    costs a sub-assignment and never changes the answer. Every row's
    held column in sigma passes the screen, so when no row has another
    screened column the answer is sigma.
    On a 2-vCPU Xeon VM one untraced call without sort keys takes about
    1.3 / 6.4 / 37 ms at n = 64 / 128 / 256 on iid2 sweep-like inputs and
    0.7 / 3.2 / 13.5 ms on random normal ones; with the keys IidModel(2)
    supplies, the iid2 inputs take 0.07 / 0.18 / 0.44 ms. ``solved`` is
    solve_assignment(L) for this L object, when the caller already has it.

    ``sort_keys`` = (b, k) declares L[u, j] = a_u + b_u k_j with integer
    counts k, as two-state i.i.d. mobility gives (b the users' logits,
    k the pseudonyms' state-1 counts). MAP then sorts instead of solving
    (see _sorted_matching), with the same answer, unless two logits lie
    within 4 tol or L is not a finite square array: those fall back to
    the path above, which solves and reports errors as without keys.
    """
    if sort_keys is not None and (solved is None or solved.L is L):
        forward = _sorted_matching(L, sort_keys)
        if forward is not None:
            forward.flags.writeable = False
            return forward
    solved = _solved(L, solved)
    Lf, cols = solved.Lf, solved.sigma
    n = cols.size
    finite = Lf[Lf > _SENTINEL_CUTOFF]
    tol = 1e-9 * max(1.0, float(np.abs(finite).max()))
    near = _near_ties(solved.rc, cols, tol)
    # near[u, sigma(u)] holds, so rows with no other near column keep sigma
    if (np.count_nonzero(near, axis=1) == 1).all():
        return cols  # read-only, as solve_assignment leaves it

    best = float(Lf[np.arange(n), cols].sum())
    work = cols.copy()  # completes the fixed prefix within tol of best
    slack = 0.0
    used = np.zeros(n, dtype=bool)
    fixed = 0.0
    for u in range(n):
        w = work[u]  # qualifies: only the smaller columns need a test
        for j in (near[u, :w] & ~used[:w]).nonzero()[0]:
            # completion at hand: the working one, with rows u and r (the
            # row that holds j) trading columns
            r = int((work == j).nonzero()[0][0])
            swap = Lf[u, w] + Lf[r, j] - Lf[u, j] - Lf[r, w]
            if slack + swap <= tol / 2:
                work[u], work[r] = j, w
                slack += swap
                break
            free_cols = np.flatnonzero(~used)
            rest = free_cols[free_cols != j]
            sub = Lf[np.ix_(np.arange(u + 1, n), rest)]
            rr, cc = linear_sum_assignment(sub, maximize=True)
            total = fixed + Lf[u, j] + float(sub[rr, cc].sum())
            if total >= best - tol:
                work[u] = j
                work[u + 1 + rr] = rest[cc]
                slack = best - total
                break
        used[work[u]] = True
        fixed += Lf[u, work[u]]
    work.flags.writeable = False
    return work


def _balance(B: np.ndarray) -> np.ndarray:
    """B rescaled in place by row and column factors toward a doubly
    stochastic matrix (Sinkhorn & Knopp 1967, Pacific J. Math. 21).

    Such scalings multiply every permutation's weight by one factor, so
    the balancing need not be exact: Glynn's signed sums cancel little once
    every row and column sums to within 0.1 of 1, where it stops. Near the
    edge of total support it slows down; past _SINKHORN_SWEEPS sweeps it
    raises ValueError rather than hand unbalanced minors on.
    """
    for _ in range(_SINKHORN_SWEEPS):
        rs = B.sum(axis=1)
        B /= rs[:, None]
        cs = B.sum(axis=0)
        B /= cs[None, :]
        if np.abs(rs - 1.0).max() < 0.1 and np.abs(cs - 1.0).max() < 0.1:
            return B
    row_err, col_err = np.abs(rs - 1.0), np.abs(cs - 1.0)
    raise ValueError(
        f"Sinkhorn balancing did not converge in {_SINKHORN_SWEEPS} sweeps: "
        f"worst row sum {rs[row_err.argmax()]:.4g}, "
        f"worst column sum {cs[col_err.argmax()]:.4g}"
    )


def posterior_pi1(
    L: np.ndarray, *, solved: SolvedAssignment | None = None
) -> np.ndarray:
    """Exact posterior over user 1's pseudonym: the read-only weights
    W_j = P(pseudonym of user 1 = j | statistics).

    W_j is proportional to exp(L[0, j]) times the permanent of exp(L)
    with row 0 and column j struck out. It runs on B = exp(-rc), rc the
    reduced costs of an optimal assignment (see _reduced_costs): exp(L)
    scaled by row and column factors, every entry at most 1 and the
    assignment's exactly 1, so perm(B) >= 1 and nothing vanishes however
    concentrated the posterior. B is then balanced (see _balance); all the
    factors cancel in the normalization. Glynn's signed sum can leave a
    zero minor slightly negative: down to -(n * 1e-12) times the largest
    minor it is set to 0, and below that ValueError reports cancellation.
    A total weight that is not positive and finite raises ValueError
    before anything is divided by it. ``solved`` is solve_assignment(L)
    for this L object, when the caller already has it.
    """
    solved = _solved(L, solved)
    n = solved.sigma.size
    if n > PERMANENT_FEASIBILITY_BOUND:
        raise ValueError(
            f"posterior limited to n <= {PERMANENT_FEASIBILITY_BOUND} (got n = {n})"
        )
    B = _balance(np.exp(-solved.rc))
    minors = _glynn_row0_minors(B)
    lowest, highest = float(minors.min()), float(minors.max())
    if lowest < -n * _CANCELLATION_TOL * max(highest, 0.0):
        ratio = lowest / highest if highest > 0.0 else float("-inf")
        raise ValueError(
            f"cancellation in the permanent minors: a minor is {ratio:.3g} "
            f"times the largest (tolerance -{n * _CANCELLATION_TOL:.3g})"
        )
    w = B[0] * np.maximum(minors, 0.0)
    total = float(w.sum())
    if not 0.0 < total < math.inf:
        raise ValueError(
            f"degenerate posterior: total weight {total!r} is not positive and finite"
        )
    w = w / total
    w = w / w.sum()
    w.flags.writeable = False
    return w
