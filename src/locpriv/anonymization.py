"""Anonymization by uniform random pseudonym assignment.

Users are relabeled by a permutation drawn uniformly from the symmetric
group; the adversary sees the m x n observation matrix whose column j is
the trajectory of the user mapped to pseudonym j. The privacy thresholds
say how fast the per-pseudonym observation budget m(n) may grow with the
crowd size n before anonymity degrades: exponent 2/d, where d is the
number of free parameters of one user's law -- r-1 for i.i.d. mobility
over r locations and |E|-r for Markov mobility.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ObservationSchedule",
    "Permutation",
    "anonymize",
    "sample_permutation",
    "schedule_observations",
    "threshold_exponent",
]


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1}; forward maps user -> pseudonym."""

    forward: np.ndarray
    inverse: np.ndarray

    @classmethod
    def from_forward(cls, forward: Sequence[int]) -> "Permutation":
        forward = np.array(forward, dtype=np.int64)  # a copy, made read-only below
        n = forward.size
        if sorted(forward.tolist()) != list(range(n)):
            raise ValueError("forward array is not a permutation of 0..n-1")
        inverse = np.empty(n, dtype=np.int64)
        inverse[forward] = np.arange(n)
        forward.flags.writeable = False
        inverse.flags.writeable = False
        return cls(forward=forward, inverse=inverse)

    @property
    def n(self) -> int:
        return int(self.forward.size)


@dataclass(frozen=True)
class ObservationSchedule:
    """m(n) = max(1, round-half-up(c * n**beta))."""

    c: float
    beta: float

    def __post_init__(self) -> None:
        if self.c <= 0 or self.beta <= 0:
            raise ValueError("schedule needs c > 0 and beta > 0")


def sample_permutation(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform draw over all n! permutations."""
    if n < 1:
        raise ValueError("need at least one user")
    return Permutation.from_forward(rng.permutation(n))


def anonymize(trajectories: Sequence[np.ndarray], perm: Permutation) -> np.ndarray:
    """The read-only, C-contiguous (m, n) observation matrix: column
    forward[u] holds user u's trajectory. One row gather of the stacked
    (n, m) trajectories by perm.inverse, then one transposing copy; the
    dtype is the trajectories'."""
    if len(trajectories) != perm.n:
        raise ValueError("permutation size must match the number of users")
    if len({len(t) for t in trajectories}) != 1:
        raise ValueError("all trajectories must have the same length")
    Y = np.array(trajectories)[perm.inverse].T.copy()
    Y.flags.writeable = False
    return Y


def schedule_observations(n: int, sched: ObservationSchedule) -> int:
    if n < 1:
        raise ValueError("need at least one user")
    return max(1, int(math.floor(sched.c * float(n) ** sched.beta + 0.5)))


def threshold_exponent(model) -> float:
    """Privacy-threshold exponent 2/d for a model with d free parameters
    per user (``IidModel``: 2/(r-1); ``MarkovModel``: 2/(|E|-r))."""
    if model.d < 1:
        raise ValueError(
            "threshold exponent undefined for d = 0 (all users share one law)"
        )
    return 2.0 / model.d
