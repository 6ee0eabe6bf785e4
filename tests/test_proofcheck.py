import hashlib
import math

import numpy as np
import pytest

from locpriv.mobility import BOUNDARY_MARGIN
from locpriv.proofcheck import (
    LemmaParams,
    critical_set,
    delta_uniformity_experiment,
    weight_uniformity,
)


def test_derive_lemma_params():
    params = LemmaParams(1.0, 0.05, 0.1)
    assert params.lam == pytest.approx(0.4)
    assert params.eps(10**4) == pytest.approx(3.9811e-3, abs=1e-6)
    assert params.beta(100) == pytest.approx(100 ** -0.45)


def test_derive_lemma_params_rejects_bad_exponents():
    with pytest.raises(ValueError):
        LemmaParams(1.0, 0.6, 0.8)  # lambda = -0.3
    with pytest.raises(ValueError):
        LemmaParams(1.0, 0.2, 0.1)  # theta >= phi
    with pytest.raises(ValueError):
        LemmaParams(0.0, 0.05, 0.1)
    with pytest.raises(ValueError):
        LemmaParams(2.0, 0.05, 0.1)
    with pytest.raises(ValueError, match="alpha, theta and phi must be finite"):
        LemmaParams(1.0, 0.05, math.inf)  # lambda = nan
    with pytest.raises(ValueError, match="lambda = nan is not positive"):
        LemmaParams(1.9, 0.05, 1.5e308)  # alpha * phi and 2 * phi overflow


def test_exponent_identities_exact():
    params = LemmaParams(1.0, 0.05, 0.1)
    for m in (10**2, 10**3, 10**4, 10**5, 10**6):
        product = m * params.beta(m) * params.eps(m)
        assert abs(product - m ** (0.05 - 0.1)) <= 1e-12
    assert params.lam == pytest.approx(
        params.alpha / 2 + params.alpha * params.phi - 2 * params.phi, abs=0
    )


def test_critical_set_examples():
    J = critical_set([0.5, 0.49, 0.8], 0.02)
    assert J.tolist() == [0, 1]
    J = critical_set([0.5, 0.49, 0.8], 1.0)
    assert J.tolist() == [0, 1, 2]
    with pytest.raises(ValueError):
        critical_set([0.5, 0.4], 0.0)


def test_critical_set_contains_reference_and_grows_with_eps():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ps = rng.random(20)
        small = critical_set(ps, 0.01)
        large = critical_set(ps, 0.1)
        assert 0 in small
        assert set(small.tolist()) <= set(large.tolist())


def test_critical_set_size_matches_binomial_oracle():
    # uniform prior, eps = 0.01, p1 = 0.5: each other user lands in the
    # window with probability exactly 2 * eps
    rng = np.random.default_rng(1)
    n, eps, draws = 10_000, 0.01, 200
    sizes = np.empty(draws)
    for t in range(draws):
        ps = np.empty(n)
        ps[0] = 0.5
        ps[1:] = rng.random(n - 1)
        sizes[t] = critical_set(ps, eps).size
    predicted = 2 * n * eps
    sigma_mean = math.sqrt(n * 2 * eps * (1 - 2 * eps)) / math.sqrt(draws)
    assert abs(sizes.mean() - predicted) <= 3 * sigma_mean


def test_delta_uniformity_identity_and_trend():
    params = LemmaParams(1.0, 0.05, 0.1)
    m_grid = [10**2, 10**3, 10**4, 10**5, 10**6]
    records = delta_uniformity_experiment(params, m_grid, np.random.default_rng(5))
    for rec in records:
        assert abs(rec.product_identity - rec.power_identity) <= 1e-12
        # the sampled worst case stays under the sharp analytic ceiling
        # |a-b| * sup|logit'| * 2eps = 2 m beta * 2 eps / (p(1-p)) at p=1/2,
        # i.e. 16 m beta eps, with a little slack for the O(eps^2) terms
        assert rec.max_abs_log_delta <= 17.0 * rec.product_identity
    maxes = [rec.max_abs_log_delta for rec in records]
    assert all(a > b for a, b in zip(maxes, maxes[1:]))


def _logit(p):
    return math.log(p / (1.0 - p))


def test_delta_envelope_is_tight_box_supremum():
    params = LemmaParams(1.0, 0.05, 0.1)
    m_grid = [10**2, 10**3, 10**4, 10**5, 10**6]
    records = delta_uniformity_experiment(params, m_grid, np.random.default_rng(5))
    p1 = 0.5
    for rec in records:
        m = rec.m
        eps, beta = params.eps(m), params.beta(m)
        lo_p = max(BOUNDARY_MARGIN, p1 - eps)
        hi_p = min(1.0 - BOUNDARY_MARGIN, p1 + eps)
        a_lo = max(0, math.ceil(m * (p1 - beta)))
        a_hi = min(m, math.floor(m * (p1 + beta)))
        box_sup = (a_hi - a_lo) * (_logit(hi_p) - _logit(lo_p))
        # the envelope is the exact supremum of |ln Delta| over the box
        assert rec.envelope == pytest.approx(box_sup, rel=1e-12)
        # ... which is the first-order 4 m beta eps / (p1 (1 - p1)) up to
        # the O(eps^2) terms
        first_order = 4.0 * rec.product_identity / (p1 * (1.0 - p1))
        assert rec.envelope <= 1.05 * first_order
        # it bounds every sample, and not vacuously
        assert 0.5 * rec.envelope <= rec.max_abs_log_delta <= rec.envelope


def test_symmetric_population_weights_are_flat():
    # all profiles identical: the crowd is everyone, the posterior is
    # uniform by symmetry, and N * W_j sits at 1 up to float roundoff
    from locpriv import adversary
    from locpriv.anonymization import anonymize, sample_permutation
    from locpriv.mobility import IidModel

    rng = np.random.default_rng(6)
    n = 5
    profiles = np.array([[0.4, 0.6]] * n)
    trajs = IidModel(2).sample_trajectories(profiles, 8, rng)
    forward = sample_permutation(n, rng)
    Y = anonymize(trajs, forward)
    L = adversary.likelihood_matrix_iid(profiles, adversary.count_stats(Y, 2))
    crowd = critical_set(np.full(n, 0.6), 0.01)
    assert crowd.size == n
    w = adversary.posterior_pi1(L)[forward[crowd]]
    w = w / w.sum()
    assert np.abs(n * w - 1.0).max() <= 1e-10


def test_weight_uniformity_single_user():
    params = LemmaParams(0.8, 0.15, 0.3)
    res = weight_uniformity(params, 1, 6, 3, np.random.default_rng(7))
    assert np.all(res.deviations == 0.0)


def test_weight_uniformity_reports_degenerate_trials():
    # microscopic eps: no other user ever lands in the crowd, so every
    # trial is counted as degenerate and there is no median
    params = LemmaParams(1.0, 0.05, 0.1)
    res = weight_uniformity(params, 4, 10**7, 5, np.random.default_rng(8))
    assert res.median is None
    assert res.degenerate_trials == 5
    assert res.deviations.size == 0


def test_weight_uniformity_basic_run():
    params = LemmaParams(0.8, 0.15, 0.3)
    res = weight_uniformity(params, 6, 8, 50, np.random.default_rng(9))
    assert res.deviations.size + res.degenerate_trials == 50
    assert res.median >= 0.0
    assert np.isfinite(res.deviations).all()


def test_weight_uniformity_pinned():
    # Frozen before the flatness check moved onto the shared trial loop and
    # re-frozen when the posterior's balance began from the LP duals, when
    # the minors' level tables became class-major (5 of 13 deviations
    # moved, by at most 4.5e-16) and when the minors began pivoting on a
    # singleton class (1 of 13 moved, by 2.2e-16): its profile draws, crowds
    # and attacks must replay bit for bit.
    params = LemmaParams(0.5, 0.05, 0.1)
    res = weight_uniformity(params, 4, 30, 30, np.random.default_rng(33))
    assert res.degenerate_trials == 17
    assert hashlib.sha256(res.deviations.tobytes()).hexdigest() == (
        "53894bbc27410f8bc28f0b5d993dd937ce38dba2679733819a3d6b5d4b171fba"
    )


def test_weight_uniformity_large_m_needs_posterior_bound():
    params = LemmaParams(0.8, 0.15, 0.3)
    with pytest.raises(ValueError):
        weight_uniformity(params, 25, 4, 5, np.random.default_rng(10))
