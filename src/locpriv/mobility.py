"""User mobility profiles for the i.i.d. movement model.

A user is described by a probability vector over ``r`` locations (states
``0..r-1``), a read-only (r,) float array; a trial's n users travel as
one read-only (n, r) stack. Profiles are drawn from a bounded prior
density supported on the open probability simplex; the density value is
pinched between two positive constants, which is all the privacy
analysis needs.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import adversary

__all__ = [
    "BOUNDARY_MARGIN",
    "IidModel",
    "ProfileDensity",
    "fit_iid_profile",
    "sample_profile",
    "sample_trajectory_iid",
]

# Profiles closer than this to the simplex boundary are rejected and
# resampled; keeps every profile strictly interior as the open-support
# prior requires.
BOUNDARY_MARGIN = 1e-9


def _readonly(arr: np.ndarray, dtype=None) -> np.ndarray:
    arr = np.array(arr, dtype=dtype, copy=True)
    arr.flags.writeable = False
    return arr


def _trace_states(trace: Sequence[int], r: int) -> np.ndarray:
    """A trace as an int64 array; raises unless every state is in 0..r-1."""
    states = np.asarray(trace, dtype=np.int64)
    if states.size and (states.min() < 0 or states.max() >= r):
        raise ValueError(f"trace contains a state outside 0..{r - 1}")
    return states


@dataclass(frozen=True)
class IidModel:
    """Model descriptor for i.i.d. mobility over r locations.

    A user's law is a probability vector over the r locations; its
    d = r - 1 free parameters set the privacy threshold exponent 2/d. The
    adversary attacks it through each pseudonym's visit counts.
    """

    r: int
    name = "iid"

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError("i.i.d. model needs r >= 2 locations")

    @property
    def d(self) -> int:
        """Free parameters of one profile: r - 1 after the sum-to-one constraint."""
        return self.r - 1

    def profile_sampler(self, density: ProfileDensity):
        """rng -> a profile drawn from the prior ``density``."""
        return lambda rng: sample_profile(density, rng)

    def sample_trajectories(
        self, laws: np.ndarray, m: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """One length-m trajectory per law of the (n, r) stack, user by
        user from ``rng``. The CDF table is the one ``Generator.choice``
        builds: each row's cumulative sum over its last entry."""
        cdf = np.cumsum(laws, axis=1)
        cdf /= cdf[:, -1:]
        return [sample_trajectory_iid(row, m, rng) for row in cdf]

    def marginal(self, profile: np.ndarray, k: int) -> np.ndarray:
        """Exact law of the user's location at time k: the profile itself."""
        if k < 1:
            raise ValueError("time index k must be >= 1")
        return np.array(profile, copy=True)

    def evidence(self, laws, Y: np.ndarray) -> tuple[np.ndarray, tuple | None]:
        """L[u, j] = log-likelihood that user u generated column j of Y, and
        map_assignment's sort keys: at r = 2, where L[u, j] = a_u + b_u k_j,
        the users' logits b = log p_1 - log p_0 and the pseudonyms' state-1
        counts k; None at r > 2."""
        counts = adversary.count_stats(Y, self.r)
        L = adversary.likelihood_matrix_iid(laws, counts)
        if self.r != 2:
            return L, None
        logp = np.log(laws)  # the logs L is built from
        return L, (logp[:, 1] - logp[:, 0], counts[:, 1])

    def fit_profile(self, trace: Sequence[int]) -> np.ndarray:
        """The Laplace-smoothed profile of one trace."""
        return fit_iid_profile(trace, self.r)


@dataclass(frozen=True)
class ProfileDensity:
    """Bounded prior over profiles on the open simplex.

    ``uniform-simplex`` is the flat density (value (r-1)! everywhere).
    ``bounded-mixture`` mixes the flat density with a symmetric Dirichlet
    bump: the flat component bounds the density below, and the bump's
    mode value (finite for bump_alpha > 1) caps it above.
    """

    kind: str
    r: int
    bump_weight: float = 0.5
    bump_alpha: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform-simplex", "bounded-mixture"):
            raise ValueError(f"unknown density kind: {self.kind!r}")
        if self.r < 2:
            raise ValueError("density needs r >= 2")
        if self.kind == "bounded-mixture":
            if not 0.0 < self.bump_weight < 1.0:
                raise ValueError("bump_weight must lie in (0, 1)")
            if self.bump_alpha <= 1.0:
                raise ValueError("bump_alpha must exceed 1 for a bounded bump")


def _dirichlet(rng: np.random.Generator, r: int, alpha: float = 1.0) -> list[float]:
    """``rng.dirichlet(np.full(r, alpha))`` bit for bit, as Python floats,
    for alpha >= 0.1.

    numpy draws one shape-alpha gamma per entry (shape 1 is the standard
    exponential, which ``standard_gamma`` also draws then, bit for bit)
    and scales them by the reciprocal of their sequential sum; below alpha
    0.1 it switches to stick-breaking, which this does not reproduce.
    Skips ``dirichlet``'s per-call argument handling, and the per-call
    cost of numpy reductions on a few entries.
    """
    g = rng.standard_gamma(alpha, r).tolist()
    scale = 1.0 / list(accumulate(g))[-1]
    return [x * scale for x in g]


def sample_profile(density: ProfileDensity, rng: np.random.Generator) -> np.ndarray:
    """Draw one read-only profile from the prior, rejecting near-boundary
    draws.

    Each attempt consumes the stream exactly as ``rng.dirichlet(np.ones(r))``
    does, after a ``rng.random()`` mixture coin for ``bounded-mixture``
    (``rng.dirichlet(np.full(r, bump_alpha))`` when the coin falls below
    ``bump_weight``). The accepted draw is renormalized as ``probs /
    probs.sum()`` would, on Python floats.
    """
    r = density.r
    while True:
        if density.kind == "bounded-mixture" and rng.random() < density.bump_weight:
            probs = _dirichlet(rng, r, density.bump_alpha)
        else:
            probs = _dirichlet(rng, r)
        if min(probs) >= BOUNDARY_MARGIN:
            # numpy's sum: left to right below 8 entries, pairwise from 8 on
            total = list(accumulate(probs))[-1] if r < 8 else np.add.reduce(probs)
            return _readonly([p / total for p in probs])


def sample_trajectory_iid(
    cdf: np.ndarray, m: int, rng: np.random.Generator
) -> np.ndarray:
    """m independent draws from a profile, as a read-only int64 array.

    ``cdf`` is the profile's cumulative vector over its last entry (see
    ``IidModel.sample_trajectories``). Equal bit for bit to
    ``rng.choice(r, size=m, p=profile)``: the lines ``choice`` runs once
    ``p`` is validated, against the CDF it builds.
    """
    if m < 0:
        raise ValueError("observation count must be nonnegative")
    states = cdf.searchsorted(rng.random(m), side="right")
    states.flags.writeable = False
    return states


def fit_iid_profile(trace: Sequence[int], r: int) -> np.ndarray:
    """Add-one (Laplace) smoothed visit-frequency estimate of a profile, as
    a read-only array: probs[i] = (count_i + 1) / (m + r), strictly
    interior for any trace."""
    states = _trace_states(trace, r)
    counts = np.bincount(states, minlength=r).astype(float)
    probs = (counts + 1.0) / (states.size + r)
    probs.flags.writeable = False
    return probs
