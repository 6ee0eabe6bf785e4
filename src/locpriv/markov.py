"""Markov-chain mobility on a shared location graph.

All users move on one directed graph over states ``0..r-1``, labelled
``1..r`` in files and reports; every message here that a bad input file
can reach names states by those labels. Row-stochasticity removes one
degree of freedom per state, so a graph with edge set E has d = |E| - r free
transition probabilities; each state has exactly one dependent out-edge
whose probability is forced by the row sum. The map from the free
parameter vector to the full transition matrix is affine (dependent
probability = 1 - sum of the row's free entries). A user's law is its
read-only (r, r) row-stochastic transition matrix, supported on the
graph's edges; a trial's n users travel as one read-only (n, r, r) stack.
"""
from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import adversary
from .mobility import BOUNDARY_MARGIN, _dirichlet, _readonly, _trace_states

__all__ = [
    "MarkovModel",
    "MobilityGraph",
    "expand_free_params",
    "fit_markov_profile",
    "load_graph_csv",
    "sample_free_params",
    "sample_trajectory_markov",
]

# Largest state count r a graph may have: every law holds r * r floats,
# every trial an (n, r, r) stack of them, and walks store states as bytes.
MAX_MARKOV_STATES = 256


@dataclass(frozen=True)
class MobilityGraph:
    """Directed graph of permitted transitions plus the free-edge choice.

    ``edges`` is kept sorted row-major; ``free_edges`` is the ordered
    subset carrying the free parameters (order inherited from ``edges``).
    If ``free_edges`` is None the canonical rule applies: in every row,
    all out-edges except the one with the lexicographically largest
    target are free. ``support`` and ``free`` are the read-only (r, r)
    bool masks of the two edge sets; ``support & ~free`` holds each
    state's one dependent out-edge, and the masks' row-major order is
    the order of ``edges`` and ``free_edges``. A graph has at most
    ``MAX_MARKOV_STATES`` states.
    """

    r: int
    edges: tuple
    free_edges: tuple = None
    support: np.ndarray = field(init=False, repr=False, compare=False)
    free: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("graph needs at least one state")
        edges = sorted(set((int(i), int(j)) for i, j in self.edges))
        for i, j in edges:
            if not (0 <= i < self.r and 0 <= j < self.r):
                raise ValueError(f"edge ({i + 1},{j + 1}) has a label outside 1..{self.r}")
        # counted per source, not per state, so a mistyped huge label is
        # reported as a missing out-edge without an r-entry allocation
        out_degree = Counter(i for i, _ in edges)
        if len(out_degree) < self.r:
            lonely = next(i for i in range(self.r) if i not in out_degree)
            raise ValueError(f"state {lonely + 1} has no outgoing edge")
        if self.r > MAX_MARKOV_STATES:
            raise ValueError(f"graph has {self.r} states, at most {MAX_MARKOV_STATES} allowed")
        if self.free_edges is None:
            last = dict(edges)  # state -> its largest target, as edges are sorted
            free_set = {(i, j) for i, j in edges if j != last[i]}
        else:
            free_set = set((int(i), int(j)) for i, j in self.free_edges)
            if not free_set <= set(edges):
                raise ValueError("free edges must be a subset of the edge set")
        for i, _ in free_set:
            out_degree[i] -= 1
        for i in range(self.r):
            if out_degree[i] != 1:
                raise ValueError(f"state {i + 1} must have exactly one dependent out-edge")
        support = np.zeros((self.r, self.r), dtype=bool)
        free = np.zeros_like(support)
        for e in edges:
            support[e] = True
            free[e] = e in free_set
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "free_edges", tuple(e for e in edges if e in free_set))
        object.__setattr__(self, "support", _readonly(support))
        object.__setattr__(self, "free", _readonly(free))

    @property
    def d(self) -> int:
        return len(self.edges) - self.r


@dataclass(frozen=True)
class MarkovModel:
    """Model descriptor for Markov mobility on a fixed graph.

    A user's law is a transition matrix on the graph; its d = |E| - r
    free parameters set the privacy threshold exponent 2/d. The adversary
    attacks it through each pseudonym's transition counts.
    """

    graph: MobilityGraph
    name = "markov"

    @property
    def r(self) -> int:
        return self.graph.r

    @property
    def d(self) -> int:
        return self.graph.d

    def profile_sampler(self, density):
        """rng -> a transition matrix with free parameters uniform on R_p
        (the only Markov prior, so ``density`` is not consulted)."""
        graph = self.graph
        return lambda rng: expand_free_params(sample_free_params(graph, rng), graph)

    def sample_trajectories(
        self, laws: np.ndarray, m: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """One length-m walk per transition matrix of the (n, r, r) stack.

        The trial's uniforms U come from one ``rng.random((n, m-1))`` draw,
        the same numbers as n consecutive ``rng.random(m-1)`` calls. At
        step t, user i's walk inverts the current state's row of its
        cumulative table at U[i, t-1]. Every state's successor at every
        step is tabulated up front, for the whole trial, as the count of
        the row's first r-1 cumulative entries that are <= U[i, t-1]: on a
        nondecreasing row that is ``searchsorted(row, u, side="right")``
        with the last entry taken as 1, which u < 1 never reaches, so the
        last column is never read. The count is summed one column at a
        time into an (n, r, m-1) uint8 table, so no temporary is larger
        than its n * r * (m-1) bytes; a uint8 holds every state of a graph
        within ``MAX_MARKOV_STATES``. Each walk then steps through its
        user's (r, m-1) slice. Raises for m < 1 before drawing anything.
        """
        if m < 1:
            raise ValueError("Markov trajectories need at least one observation")
        cdf = np.cumsum(laws, axis=2)
        n, r = cdf.shape[:2]
        u = rng.random((n, m - 1))
        successors = np.zeros((n, r, m - 1), dtype=np.uint8)
        for k in range(r - 1):
            successors += cdf[:, :, k, None] <= u[:, None, :]
        return [sample_trajectory_markov(table, m) for table in successors]

    def marginal(self, profile: np.ndarray, k: int) -> np.ndarray:
        """Exact law of the user's location at time k; walks start at state 0."""
        if k < 1:
            raise ValueError("time index k must be >= 1")
        return np.linalg.matrix_power(profile, k - 1)[0].copy()

    def evidence(self, laws, Y: np.ndarray) -> tuple[np.ndarray, None]:
        """L[u, j] = log-likelihood that user u generated column j of Y, and
        no sort keys: MAP solves a Markov matrix."""
        mats = adversary.transition_stats(Y, self.r)
        return adversary.likelihood_matrix_markov(laws, mats), None

    def fit_profile(self, trace: Sequence[int]) -> np.ndarray:
        """The add-one smoothed transition matrix of one trace on the graph."""
        return fit_markov_profile(trace, self.graph)


def _free_params(values: Sequence[float], graph: MobilityGraph) -> np.ndarray:
    """The graph's d free probabilities as a fresh read-only array; raises
    unless there are exactly d of them, each strictly inside (0, 1)."""
    values = np.array(values, dtype=float)
    if values.shape != (graph.d,):
        raise ValueError(f"expected {graph.d} free parameters, got shape {values.shape}")
    if not np.all((values > 0.0) & (values < 1.0)):
        raise ValueError("free parameters must lie strictly in (0, 1)")
    values.flags.writeable = False
    return values


def expand_free_params(params: Sequence[float], graph: MobilityGraph) -> np.ndarray:
    """The read-only transition matrix of the free parameters: fill the free
    edges verbatim, force each dependent edge by the row sum.

    Raises if any free entry leaves (0, 1) or any dependent probability is
    not strictly positive.
    """
    T = np.zeros((graph.r, graph.r))
    T[graph.free] = _free_params(params, graph)
    residual = 1.0 - T.sum(axis=1)
    dependent = graph.support & ~graph.free
    if residual.min() <= 0.0:
        i = int(np.argmax(residual <= 0.0))
        j = int(np.argmax(dependent[i]))
        raise ValueError(
            f"free parameters of state {i} leave no probability for the "
            f"dependent edge ({i},{j})"
        )
    T[dependent] = residual
    T.flags.writeable = False
    return T


def sample_trajectory_markov(successors: np.ndarray, m: int) -> np.ndarray:
    """Length-m read-only int64 walk from state 0 (label 1 in external files).

    ``successors`` is one user's (r, m-1) uint8 table from
    ``MarkovModel.sample_trajectories``, which draws the uniforms and
    checks m >= 1: entry [s, t-1] is the state the walk enters at step t
    from state s. The walk is a chain of lookups in the table's rows as
    ``bytes``, and its states are read back as bytes.
    """
    nxt = [row.tobytes() for row in successors]
    walk = [0]
    append = walk.append
    cur = 0
    for t in range(m - 1):
        cur = nxt[cur][t]
        append(cur)
    walk = np.frombuffer(bytes(walk), np.uint8).astype(np.int64)
    walk.flags.writeable = False
    return walk


def sample_free_params(graph: MobilityGraph, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from R_p: per row, free entries uniform on the open
    sub-simplex that leaves positive mass for the dependent edge. A
    read-only (d,) array ordered like graph.free_edges."""
    values = np.empty(len(graph.free_edges))
    pos = 0
    for n_free in graph.free.sum(axis=1).tolist():
        if n_free == 0:
            continue
        while True:
            x = _dirichlet(rng, n_free + 1)
            if min(x) >= BOUNDARY_MARGIN:
                break
        values[pos : pos + n_free] = x[:-1]
        pos += n_free
    values.flags.writeable = False
    return values


def fit_markov_profile(trace: Sequence[int], graph: MobilityGraph) -> np.ndarray:
    """Add-one (Laplace) smoothed transition-frequency estimate on the
    graph's edges, as a read-only matrix: T(i,j) = (M(i,j) + 1) /
    (departures_i + outdeg_i) on E. Every state has an out-edge, so every
    row has positive mass."""
    r = graph.r
    states = _trace_states(trace, r)
    if states.size < 2:
        raise ValueError("need at least two observations to fit transitions")
    support = graph.support
    pair = states[:-1] * r + states[1:]  # transition a -> b as one index
    off_graph = np.flatnonzero(~support.ravel()[pair])
    if off_graph.size:
        a, b = divmod(int(pair[off_graph[0]]), r)
        raise ValueError(f"trace uses transition ({a + 1},{b + 1}) not in the graph")
    M = np.bincount(pair, minlength=r * r).reshape(r, r).astype(float)
    denom = M.sum(axis=1) + support.sum(axis=1)
    T = np.where(support, (M + 1.0) / denom[:, None], 0.0)
    T.flags.writeable = False
    return T


def load_graph_csv(path: str) -> MobilityGraph:
    """Read a graph file: header ``from,to,free``, 1-based state labels,
    free in {0, 1, auto}. All-auto selects the canonical free-edge rule;
    mixing auto with explicit flags, or listing an edge twice, is rejected.
    Blank lines are skipped and extra columns ignored; a bad row's error
    names its line. The file is read as UTF-8, with or without a
    byte-order mark."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        if [f.strip() for f in next(reader, [])] != ["from", "to", "free"]:
            raise ValueError("must have header 'from,to,free'")
        flags: dict[tuple[int, int], str] = {}  # edge -> free flag, in file order

        def bad(what: str) -> ValueError:
            return ValueError(f"{what} on line {reader.line_num}")

        for row in reader:
            if not row:  # blank line
                continue
            try:
                i, j = int(row[0]) - 1, int(row[1]) - 1
            except (IndexError, ValueError):
                raise bad(f"from and to must be integer labels, got {row[:2]!r}") from None
            if min(i, j) < 0:
                raise bad(f"edge ({i + 1}, {j + 1}) has a label below 1")
            flag = row[2].strip().lower() if len(row) > 2 else ""
            if flag not in ("0", "1", "auto"):
                raise bad(f"free flag must be 0, 1 or auto, got {flag!r}")
            if (i, j) in flags:
                raise bad(f"edge ({i + 1}, {j + 1}) is listed twice")
            flags[i, j] = flag
    if not flags:
        raise ValueError("has no edges")
    edges = tuple(flags)
    r = max(max(e) for e in edges) + 1
    if all(f == "auto" for f in flags.values()):
        return MobilityGraph(r=r, edges=edges)
    if "auto" in flags.values():
        raise ValueError("mixes auto with explicit free flags")
    free = tuple(e for e, f in flags.items() if f == "1")
    return MobilityGraph(r=r, edges=edges, free_edges=free)
