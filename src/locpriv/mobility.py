"""User mobility profiles for the i.i.d. movement model.

A user is described by a probability vector over ``r`` locations (states
``0..r-1``). Profiles are drawn from a bounded prior density supported on
the open probability simplex; the density value is pinched between two
positive constants, which is all the privacy analysis needs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import adversary

__all__ = [
    "BOUNDARY_MARGIN",
    "IidModel",
    "IidProfile",
    "Population",
    "ProfileDensity",
    "fit_iid_profile",
    "sample_profile",
    "sample_trajectory_iid",
]

# Profiles closer than this to the simplex boundary are rejected and
# resampled; keeps every profile strictly interior as the open-support
# prior requires.
BOUNDARY_MARGIN = 1e-9

_SUM_TOL = 1e-12


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
class IidProfile:
    """Probability vector over the r locations; strictly interior.

    ``cdf`` is the read-only cumulative vector ``Generator.choice`` builds
    from ``probs`` (``probs.cumsum()`` over its last entry, which is
    exactly 1), kept for trajectory draws. The sum check reads the
    sequential sum off the unnormalized cumulative vector.
    """

    probs: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 2:
            raise ValueError("profile needs at least two locations")
        values = probs.tolist()
        # a chained comparison is False for NaN, so NaN entries fail too;
        # on a list this beats two numpy reductions for the small r used
        if not all(0.0 < p < 1.0 for p in values):
            raise ValueError("profile entries must lie strictly in (0, 1)")
        sums = list(accumulate(values))  # probs.cumsum(), bit for bit
        total = sums[-1]
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError("profile entries must sum to 1 within 1e-12")
        cdf = np.array([s / total for s in sums])
        probs.flags.writeable = False
        cdf.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "cdf", cdf)


@dataclass(frozen=True)
class IidModel:
    """Model descriptor for i.i.d. mobility over r locations.

    A user's law is an ``IidProfile``; its d = r - 1 free parameters set
    the privacy threshold exponent 2/d. The adversary attacks it through
    each pseudonym's visit counts.
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

    def sample_trajectory(
        self, profile: IidProfile, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        return sample_trajectory_iid(profile, m, rng)

    def marginal(self, profile: IidProfile, k: int) -> np.ndarray:
        """Exact law of the user's location at time k: the profile itself."""
        if k < 1:
            raise ValueError("time index k must be >= 1")
        return np.array(profile.probs, copy=True)

    def evidence(self, laws, Y: np.ndarray) -> tuple[np.ndarray, tuple | None]:
        """L[u, j] = log-likelihood that user u generated column j of Y, and
        map_assignment's sort keys: at r = 2, where L[u, j] = a_u + b_u k_j,
        the users' logits b = log p_1 - log p_0 and the pseudonyms' state-1
        counts k; None at r > 2."""
        counts = adversary.count_stats(Y, self.r)
        L = adversary.likelihood_matrix_iid(laws, counts)
        if self.r != 2:
            return L, None
        logp = np.log(np.stack([p.probs for p in laws]))  # the logs L is built from
        return L, (logp[:, 1] - logp[:, 0], counts[:, 1])

    def fit_profile(self, trace: Sequence[int]) -> IidProfile:
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


@dataclass(frozen=True)
class Population:
    """n users sharing one model kind; profiles are per-user laws."""

    model: object  # IidModel or markov.MarkovModel
    profiles: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if len(self.profiles) < 1:
            raise ValueError("population needs at least one user")
        object.__setattr__(self, "profiles", tuple(self.profiles))

    @property
    def n(self) -> int:
        return len(self.profiles)


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


def sample_profile(density: ProfileDensity, rng: np.random.Generator) -> IidProfile:
    """Draw one profile from the prior, rejecting near-boundary draws.

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
            return IidProfile([p / total for p in probs])


def sample_trajectory_iid(
    profile: IidProfile, m: int, rng: np.random.Generator
) -> np.ndarray:
    """m independent draws from the profile, as a read-only int64 array.

    Equal bit for bit to ``rng.choice(profile.probs.size, size=m, p=profile.probs)``:
    the lines ``choice`` runs once ``p`` is validated, which ``IidProfile``
    already guarantees, against the profile's cached CDF.
    """
    if m < 0:
        raise ValueError("observation count must be nonnegative")
    states = profile.cdf.searchsorted(rng.random(m), side="right")
    states.flags.writeable = False
    return states


def fit_iid_profile(trace: Sequence[int], r: int) -> IidProfile:
    """Add-one (Laplace) smoothed visit-frequency estimate of a profile:
    probs[i] = (count_i + 1) / (m + r), strictly interior for any trace."""
    states = _trace_states(trace, r)
    counts = np.bincount(states, minlength=r).astype(float)
    return IidProfile((counts + 1.0) / (states.size + r))
