"""Numerical checks of the two-state indistinguishability machinery.

The asymptotic argument rests on a handful of concrete objects: a
shrinking width eps(m) that defines the crowd of users statistically
close to user 1, a concentration interval A(m) of half-width m*beta(m)
for their visit counts, the likelihood ratio Delta obtained by swapping
two such users' counts, and the posterior weights over the crowd which
must flatten as the crowd grows. Everything here evaluates those objects
at finite (n, m) so the limiting claims can be watched happening.

Restricted to the two-state model throughout; the r-state and Markov
results reduce to this case and are exercised by the sweep experiments
instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import run_trials
from .mobility import BOUNDARY_MARGIN, IidModel

__all__ = [
    "DeltaUniformityRecord",
    "LemmaParams",
    "WeightUniformityResult",
    "critical_set",
    "crowd",
    "delta_uniformity_experiment",
    "weight_uniformity",
]

@dataclass(frozen=True)
class LemmaParams:
    """Exponent bookkeeping for the concentration argument.

    eps(m) = m^-(1/2+phi) is the crowd half-width, beta(m) = m^-(1/2-theta)
    the count-concentration half-width (as a fraction of m), and
    lambda = alpha/2 + alpha*phi - 2*phi the growth exponent of the crowd
    size when m = c * n^(2-alpha). lambda > 0 is enforced directly; the
    product m * beta(m) * eps(m) = m^(theta-phi) must vanish, which the
    ordering theta < phi guarantees.
    """

    alpha: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.alpha, self.theta, self.phi))):
            raise ValueError("alpha, theta and phi must be finite")
        if not 0.0 < self.theta < self.phi:
            raise ValueError("need 0 < theta < phi")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("need 0 < alpha < 2 so m(n) grows")
        if not self.lam > 0.0:  # NaN where alpha * phi and 2 * phi overflow
            raise ValueError(
                f"lambda = {self.lam:.6g} is not positive: crowd size would not grow"
            )

    @property
    def lam(self) -> float:
        return self.alpha / 2.0 + self.alpha * self.phi - 2.0 * self.phi

    def eps(self, m: float) -> float:
        return float(m) ** -(0.5 + self.phi)

    def beta(self, m: float) -> float:
        return float(m) ** -(0.5 - self.theta)


def critical_set(p_values: np.ndarray, eps: float) -> np.ndarray:
    """Indices of users whose state-1 probability lies within eps of user
    1's (index 0). Always contains index 0."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    p_values = np.asarray(p_values, dtype=float)
    return np.flatnonzero(np.abs(p_values - p_values[0]) < eps)


def crowd(p_values: np.ndarray, eps: float) -> np.ndarray | None:
    """``critical_set(p_values, eps)``, or None when the crowd is degenerate:
    fewer than two members among n > 1 users. The sweep's weights metric
    and ``weight_uniformity`` both form their crowds here."""
    members = critical_set(p_values, eps)
    return None if len(p_values) > 1 and members.size < 2 else members


@dataclass(frozen=True)
class DeltaUniformityRecord:
    m: int
    max_abs_log_delta: float
    envelope: float
    product_identity: float  # m * beta(m) * eps(m) as computed
    power_identity: float  # m^(theta - phi) closed form


def delta_uniformity_experiment(
    params: LemmaParams, m_grid, samples: int, rng: np.random.Generator
) -> list[DeltaUniformityRecord]:
    """Sample crowd pairs and count pairs and track the worst |ln Delta|.

    User 1 visits state 1 with probability p1 = 1/2. For each m: p_i, p_j
    are uniform in [lo_p, hi_p], the eps(m)-window around p1 clipped to
    [BOUNDARY_MARGIN, 1 - BOUNDARY_MARGIN], and a, b are uniform integers
    in [a_lo, a_hi], A(m) clipped to [0, m]. Since
    ln Delta = (a - b) * (logit p_i - logit p_j) and logit is monotone,

        |a - b|                 <= a_hi - a_lo
        |logit p_i - logit p_j| <= logit(hi_p) - logit(lo_p)

    and the reported envelope is the product of the two: the exact
    supremum of |ln Delta| over the sampled box, so every sample lies
    under it. To first order in eps and beta it is
    2*m*beta * 2*eps / (p1*(1-p1)) = 16 * m^(theta-phi).
    """
    p1 = 0.5
    records = []
    for m in m_grid:
        m = int(m)
        eps = params.eps(m)
        beta = params.beta(m)
        lo_p = max(BOUNDARY_MARGIN, p1 - eps)
        hi_p = min(1.0 - BOUNDARY_MARGIN, p1 + eps)
        a_lo = max(0, math.ceil(m * (p1 - beta)))
        a_hi = min(m, math.floor(m * (p1 + beta)))
        ps = rng.uniform(lo_p, hi_p, size=(samples, 2))
        ab = rng.integers(a_lo, a_hi + 1, size=(samples, 2))
        logit_gap = np.log(ps[:, 0] / ps[:, 1]) + np.log(
            (1.0 - ps[:, 1]) / (1.0 - ps[:, 0])
        )
        log_delta = (ab[:, 0] - ab[:, 1]) * logit_gap
        max_logit_gap = math.log(hi_p / lo_p) + math.log(
            (1.0 - lo_p) / (1.0 - hi_p)
        )
        records.append(
            DeltaUniformityRecord(
                m=m,
                max_abs_log_delta=float(np.abs(log_delta).max()),
                envelope=(a_hi - a_lo) * max_logit_gap,
                product_identity=m * beta * eps,
                power_identity=float(m) ** (params.theta - params.phi),
            )
        )
    return records


@dataclass(frozen=True)
class WeightUniformityResult:
    """Per-trial max |N * W_j - 1| over the crowd's pseudonyms, for the
    trials that formed a crowd, and their median (None if none did). The
    sweep's weights metric and ``weight_uniformity`` both summarize here."""

    deviations: np.ndarray
    median: float | None
    degenerate_trials: int
    trials: int

    @classmethod
    def from_trials(cls, deviations) -> WeightUniformityResult:
        """Summarize per-trial deviations; None marks a degenerate trial."""
        devs = [dev for dev in deviations if dev is not None]
        return cls(
            deviations=np.asarray(devs, dtype=float),
            median=float(np.median(devs)) if devs else None,
            degenerate_trials=len(deviations) - len(devs),
            trials=len(deviations),
        )


def _draw_interior_uniform(rng: np.random.Generator) -> float:
    while True:
        p = rng.random()
        if BOUNDARY_MARGIN < p < 1.0 - BOUNDARY_MARGIN:
            return p


def weight_uniformity(
    params: LemmaParams,
    n: int,
    m: int,
    trials: int,
    rng: np.random.Generator,
) -> WeightUniformityResult:
    """Watch the crowd's posterior weights flatten: N * W_j -> 1.

    Per trial: user 1 visits state 1 with probability 1/2; draw the other
    users' probabilities uniformly, form the crowd within eps(m) of 1/2,
    run the full attack, restrict the exact posterior to the crowd's
    pseudonyms and renormalize. A trial that forms no ``crowd`` draws
    nothing more; it, or one with no posterior mass on the crowd, counts
    as degenerate and is excluded, and the median is None if every trial
    is. A lone user's crowd is itself, with W = [1] and deviation 0. A
    ValueError in trial t is re-raised with "trial t" appended.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    eps = params.eps(m)

    def draw(rng):
        ps = np.empty(n)
        ps[0] = 0.5
        for i in range(1, n):
            ps[i] = _draw_interior_uniform(rng)
        members = crowd(ps, eps)
        if members is None:
            return None
        laws = np.column_stack((1.0 - ps, ps))
        laws.flags.writeable = False
        return laws, members

    scores = run_trials(
        IidModel(r=2), m, ((rng, f"trial {t}") for t in range(trials)), draw,
        ("weights",),
    )
    return WeightUniformityResult.from_trials(
        [None if out is None else out["weight_max_dev"] for out in scores]
    )
