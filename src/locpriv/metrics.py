"""Privacy metrics over anonymized observations.

The headline quantity is the mutual information between user 1's
location at a chosen time and the whole anonymized observation matrix,
I = H(X_1(k)) - E[H(X_1(k) | Y)]. The marginal entropy is exact; the
conditional term is averaged over Monte Carlo trials (``run_trials``),
each regenerating the population, trajectories and pseudonym permutation
and evaluating the exact permanent-based posterior. De-anonymization
accuracy (did the MAP matching recover user 1's pseudonym / the whole
permutation) is the cheap large-n companion metric.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import adversary
from .anonymization import anonymize, sample_permutation

__all__ = [
    "AttackTrial",
    "attack",
    "conditional_location_distribution",
    "deanonymization_accuracy",
    "entropy",
    "run_trials",
    "score_trial",
    "simulate_attack_trial",
]


@contextlib.contextmanager
def _naming(context: str):
    """Re-raise a ValueError from the block as the same type, chained, with
    the context (the trial and seed) appended, so it can be replayed."""
    try:
        yield
    except ValueError as exc:
        raise type(exc)(f"{exc} ({context})") from exc


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
    Y: np.ndarray, weights: np.ndarray, k: int, r: int
) -> np.ndarray:
    """P(X_1(k) = x | Y) = sum_j W_j * 1[column j of Y is at x at time k],
    W the posterior weights from ``adversary.posterior_pi1``."""
    m, n = Y.shape
    if not 1 <= k <= m:
        raise ValueError(f"time index k={k} outside 1..{m}")
    if len(weights) != n:
        raise ValueError("posterior size must match the number of pseudonyms")
    states = Y[k - 1]
    if states.min() < 0 or states.max() >= r:
        raise ValueError(f"state at time {k} outside 0..{r - 1}")
    return np.bincount(states, weights=weights, minlength=r)


@dataclass(frozen=True)
class AttackTrial:
    """One simulated epoch: the (m, n) observations, the true forward
    array (user u has pseudonym ``forward[u]``), and the adversary's
    log-likelihood matrix ``L[u, j]`` (user u generated pseudonym j's
    column), the evidence both attacks work from:
    ``adversary.posterior_pi1(L)`` and ``adversary.map_assignment(L)``,
    which share one ``adversary.solve_assignment(L)``. ``sort_keys`` is
    the model's (b, k) that lets MAP sort instead of solve (two-state
    i.i.d. mobility), or None.
    """

    Y: np.ndarray
    forward: np.ndarray
    L: np.ndarray
    sort_keys: tuple | None


def attack(model, laws, trajectories, rng: np.random.Generator) -> AttackTrial:
    """Draw a pseudonym permutation, anonymize the users' trajectories,
    and build the likelihood matrix of an adversary who knows the users'
    laws (the model's stack of them) exactly, from the model's sufficient
    statistics.
    """
    forward = sample_permutation(len(laws), rng)
    Y = anonymize(trajectories, forward)
    L, sort_keys = model.evidence(laws, Y)
    return AttackTrial(Y=Y, forward=forward, L=L, sort_keys=sort_keys)


def simulate_attack_trial(
    model, laws, m: int, rng: np.random.Generator
) -> AttackTrial:
    """Sample each user's trajectory of length m, then ``attack``."""
    return attack(model, laws, model.sample_trajectories(laws, m, rng), rng)


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
    posterior runs at most once, and MAP only for "accuracy". The
    assignment solve runs once, shared by both, where the posterior runs;
    otherwise MAP sorts on the trial's sort keys where the model gives
    them (two-state i.i.d.) and solves by itself only where it falls back
    (two logits within 4 tol) or has no keys.
    """
    out: dict[str, float | None] = {}
    solved = None
    if "mi" in metrics or "weights" in metrics:
        solved = adversary.solve_assignment(trial.L)
        weights = adversary.posterior_pi1(trial.L, solved=solved)
    if "mi" in metrics:
        q = conditional_location_distribution(trial.Y, weights, k, model.r)
        out["mi"] = h_marginal - entropy(q)
    truth = trial.forward
    if "accuracy" in metrics:
        guess = adversary.map_assignment(
            trial.L, solved=solved, sort_keys=trial.sort_keys
        )
        out["pi1_accuracy"] = float(guess[0] == truth[0])
        out["full_perm_accuracy"] = float(np.array_equal(guess, truth))
    if "weights" in metrics:
        dev = None
        if crowd is not None:
            w = weights[truth[crowd]]
            mass = float(w.sum())
            if mass > 0.0:
                dev = float(np.abs(crowd.size * (w / mass) - 1.0).max())
        out["weight_max_dev"] = dev
    return out


def run_trials(model, m: int, trials, draw, metrics, *, k=None, h_marginal=0.0):
    """Yield each sampled trial's ``score_trial`` values, one per
    ``(rng, name)`` pair in ``trials``. ``draw(rng)`` returns the trial's
    ``(laws, crowd)``, laws the model's stack of the users' laws, or None
    to skip the trial, which then yields None and draws nothing more; the
    trajectories and the permutation come from the same generator. A
    ValueError in the trial is re-raised as the same type, chained, with
    its name appended, so the trial can be replayed.
    """
    for rng, name in trials:
        scores = None
        with _naming(name):
            drawn = draw(rng)
            if drawn is not None:
                laws, crowd = drawn
                trial = simulate_attack_trial(model, laws, m, rng)
                scores = score_trial(
                    model, trial, metrics, k=k, h_marginal=h_marginal, crowd=crowd
                )
        yield scores


def deanonymization_accuracy(
    model, laws, m: int, trials: int, rng: np.random.Generator
) -> float:
    """Fraction of ``trials`` attacks on the fixed ``laws`` stack, all drawn
    from ``rng``, where MAP matching recovers user 1's pseudonym. A
    ValueError in trial t is re-raised with "trial t" appended."""
    if trials < 1:
        raise ValueError("need at least one trial")
    scores = run_trials(
        model, m, ((rng, f"trial {t}") for t in range(trials)),
        lambda _: (laws, None), ("accuracy",),
    )
    return sum(s["pi1_accuracy"] for s in scores) / trials
