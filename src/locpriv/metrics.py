"""Privacy metrics over anonymized observations.

The headline quantity is the mutual information between user 1's
location at a chosen time and the whole anonymized observation matrix,
I = H(X_1(k)) - E[H(X_1(k) | Y)]. The marginal entropy is exact; the
conditional term is averaged over Monte Carlo trials, where each trial
regenerates the population, trajectories and pseudonym permutation and
evaluates the exact permanent-based posterior. De-anonymization accuracy
(did the MAP matching recover user 1's pseudonym / the whole
permutation) is the cheap large-n companion metric.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import adversary
from .anonymization import anonymize, sample_permutation

__all__ = [
    "AccuracyResult",
    "AttackTrial",
    "MiEstimate",
    "attack",
    "conditional_location_distribution",
    "deanonymization_accuracy",
    "entropy",
    "mutual_information_mc",
    "score_trial",
    "simulate_attack_trial",
]


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


def entropy(p: Sequence[float] | np.ndarray) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if p.min() < 0.0:
        raise ValueError("probabilities must be nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1 within 1e-9")
    pos = p[p > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def conditional_location_distribution(
    Y: np.ndarray, post: adversary.AssignmentPosterior, k: int, r: int
) -> np.ndarray:
    """P(X_1(k) = x | Y) = sum_j W_j * 1[column j of Y is at x at time k]."""
    m, n = Y.shape
    if not 1 <= k <= m:
        raise ValueError(f"time index k={k} outside 1..{m}")
    if post.n != n:
        raise ValueError("posterior size must match the number of pseudonyms")
    q = np.zeros(r)
    np.add.at(q, Y[k - 1], post.weights)
    return q


@dataclass(frozen=True)
class AttackTrial:
    """One simulated epoch: the (m, n) observations, truth, and the
    adversary's log-likelihood matrix ``L[u, j]`` (user u generated
    pseudonym j's column), the evidence both attacks work from:
    ``adversary.posterior_pi1(L)`` and ``adversary.map_assignment(L)``.
    """

    Y: np.ndarray
    perm: object
    L: np.ndarray


def attack(model, profiles, trajectories, rng: np.random.Generator) -> AttackTrial:
    """Draw a pseudonym permutation, anonymize the users' trajectories,
    and build the likelihood matrix of an adversary who knows the users'
    laws exactly, from the model's sufficient statistics.
    """
    perm = sample_permutation(len(profiles), rng)
    Y = anonymize(trajectories, perm)
    return AttackTrial(Y=Y, perm=perm, L=model.likelihood_matrix(profiles, Y))


def simulate_attack_trial(
    model, profiles, m: int, rng: np.random.Generator
) -> AttackTrial:
    """Sample each user's trajectory of length m, then ``attack``."""
    trajectories = [model.sample_trajectory(p, m, rng) for p in profiles]
    return attack(model, profiles, trajectories, rng)


def score_trial(
    model, trial: AttackTrial, metrics, *, k=None, h_marginal=0.0, crowd=None
) -> dict:
    """One attacked trial's values for the config metric names in
    ``metrics``, keyed by result-row metric name in the results CSV's
    order: ``mi`` = h_marginal - H(X_1(k) | Y); ``pi1_accuracy`` and
    ``full_perm_accuracy``, 1.0 where MAP matching recovers user 1's
    pseudonym / the whole permutation; ``weight_max_dev`` = max |N * W_j - 1|
    over the pseudonyms of the N users in ``crowd``, the posterior
    renormalized to them, or None for no crowd or no mass on it. The exact
    posterior runs at most once, and MAP only for "accuracy".
    """
    out: dict[str, float | None] = {}
    if "mi" in metrics or "weights" in metrics:
        post = adversary.posterior_pi1(trial.L)
    if "mi" in metrics:
        q = conditional_location_distribution(trial.Y, post, k, model.r)
        out["mi"] = h_marginal - entropy(q)
    truth = trial.perm.forward
    if "accuracy" in metrics:
        guess = adversary.map_assignment(trial.L).forward
        out["pi1_accuracy"] = float(guess[0] == truth[0])
        out["full_perm_accuracy"] = float(np.array_equal(guess, truth))
    if "weights" in metrics:
        dev = None
        if crowd is not None:
            w = post.weights[truth[crowd]]
            mass = float(w.sum())
            if mass > 0.0:
                dev = float(np.abs(crowd.size * (w / mass) - 1.0).max())
        out["weight_max_dev"] = dev
    return out


def _score_trials(
    model, n, m, trials, rng, metric, k, profile_sampler, profile1, profiles
):
    """User 1's profile and each trial's ``score_trial`` values for one
    metric. A trial attacks the fixed profile list, or profile 1 and n - 1
    fresh sampler draws; profile 1 is drawn up front unless pinned."""
    if profiles is not None:
        if profile1 is not None or profile_sampler is not None:
            raise ValueError("profiles excludes profile1 and profile_sampler")
        profiles = list(profiles)
        if len(profiles) != n:
            raise ValueError("fixed profile list must have length n")
        profile1 = profiles[0]
    elif profile_sampler is None:
        raise ValueError("need either fixed profiles or a profile sampler")
    elif profile1 is None:
        profile1 = profile_sampler(rng)
    scores = []
    for _ in range(trials):
        drawn = profiles
        if drawn is None:
            drawn = [profile1] + [profile_sampler(rng) for _ in range(n - 1)]
        trial = simulate_attack_trial(model, drawn, m, rng)
        scores.append(score_trial(model, trial, (metric,), k=k))
    return profile1, scores


def mutual_information_mc(
    model,
    n: int,
    m: int,
    k: int,
    trials: int,
    rng: np.random.Generator,
    *,
    profile_sampler: Callable[[np.random.Generator], object] | None = None,
    profile1=None,
    profiles=None,
) -> MiEstimate:
    """Monte Carlo estimate of I(X_1(k); Y) in bits.

    User 1's profile stays fixed across trials; the rest of the
    population is redrawn from the prior every trial (pass ``profiles``
    to pin all of them instead). The permutation is redrawn every trial.
    """
    if trials < 2:
        raise ValueError("need at least two trials for a standard error")
    if not 1 <= k <= m:
        raise ValueError(f"time index k={k} outside 1..{m}")
    profile1, scores = _score_trials(
        model, n, m, trials, rng, "mi", k, profile_sampler, profile1, profiles
    )
    # Scored with h_marginal = 0, each trial's mi is exactly -H(X_1(k) | Y).
    cond = np.array([-s["mi"] for s in scores])
    value = entropy(model.marginal(profile1, k)) - float(cond.mean())
    std_error = float(cond.std(ddof=1) / math.sqrt(trials))
    return MiEstimate(
        value=value, std_error=std_error, trials=trials, method="mc-permanent"
    )


def deanonymization_accuracy(
    model,
    n: int,
    m: int,
    trials: int,
    rng: np.random.Generator,
    *,
    profile_sampler: Callable[[np.random.Generator], object] | None = None,
    profile1=None,
    profiles=None,
) -> AccuracyResult:
    """Fraction of trials where MAP matching recovers user 1's pseudonym,
    and where it recovers the entire permutation."""
    if trials < 1:
        raise ValueError("need at least one trial")
    _, scores = _score_trials(
        model, n, m, trials, rng, "accuracy", None, profile_sampler, profile1, profiles
    )
    return AccuracyResult(
        pi1_accuracy=sum(s["pi1_accuracy"] for s in scores) / trials,
        full_perm_accuracy=sum(s["full_perm_accuracy"] for s in scores) / trials,
        trials=trials,
    )
