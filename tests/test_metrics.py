import dataclasses
import math

import numpy as np
import pytest

from helpers import (
    deanonymization_accuracy_mc,
    exact_mi_two_state,
    exact_two_user_map_accuracy,
    mutual_information_mc,
    three_state_graph,
    mi_identical_profiles_shortcut,
    stationary_distribution,
)
from locpriv import adversary
from locpriv.markov import MarkovModel, expand_free_params
from locpriv.metrics import (
    AttackTrial,
    conditional_location_distribution,
    deanonymization_accuracy,
    entropy,
    simulate_attack_trial,
)
from locpriv.mobility import IidModel, ProfileDensity, sample_profile


def uniform2_sampler():
    density = ProfileDensity("uniform-simplex", 2)
    return lambda rng: sample_profile(density, rng)


def test_entropy_values():
    assert entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0)
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    assert entropy([0.5, 0.5]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        entropy([0.7, -0.1, 0.4])
    with pytest.raises(ValueError):
        entropy([0.5, 0.4])


def test_entropy_rejects_non_finite_probabilities():
    for bad in ([np.nan, 0.5], [np.nan, 1.0], [0.5, 0.5, np.inf], [1.0, -np.inf]):
        with pytest.raises(ValueError):
            entropy(bad)


def test_conditional_location_distribution():
    Y = np.array([[0], [1], [1]])
    post = np.array([1.0])
    q = conditional_location_distribution(Y, post, 2, r=2)
    assert q.tolist() == [0.0, 1.0]

    Y = np.array([[0, 1, 1, 2]])
    post = np.full(4, 0.25)
    q = conditional_location_distribution(Y, post, 1, r=3)
    assert np.allclose(q, [0.25, 0.5, 0.25])
    assert q.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        conditional_location_distribution(Y, post, 2, r=3)

    # a state outside 0..r-1 is an error, not a mass filed elsewhere
    post = np.array([0.25, 0.75])
    for bad in ([[0, -1]], [[0, 2]]):
        with pytest.raises(ValueError, match="outside 0..1"):
            conditional_location_distribution(np.array(bad), post, 1, r=2)

    # one weighted bincount, bit for bit the sequential add.at sum
    rng = np.random.default_rng(53)
    for _ in range(300):
        m, n, r = (int(v) for v in rng.integers(1, 9, size=3))
        Y = rng.integers(0, r, size=(m, n))
        w = rng.dirichlet(np.ones(n))
        k = int(rng.integers(1, m + 1))
        expected = np.zeros(r)
        np.add.at(expected, Y[k - 1], w)
        q = conditional_location_distribution(Y, w, k, r)
        assert q.tobytes() == expected.tobytes()


def test_marginal_location_distribution():
    model = IidModel(3)
    p = np.array([0.2, 0.3, 0.5])
    for k in (1, 5, 99):
        assert np.array_equal(model.marginal(p, k), p)

    T = expand_free_params([0.2, 0.3, 0.4], three_state_graph())
    mm = MarkovModel(three_state_graph())
    assert np.array_equal(mm.marginal(T, 1), [1.0, 0.0, 0.0])
    pi = stationary_distribution(T)
    assert np.abs(mm.marginal(T, 400) - pi).max() <= 1e-8


def test_mi_single_user_is_exact_marginal_entropy():
    model = IidModel(2)
    p = np.array([0.3, 0.7])
    est = mutual_information_mc(
        model, 1, 4, 2, 10, np.random.default_rng(0), profiles=[p]
    )
    assert est.value == pytest.approx(entropy(p), abs=1e-12)
    assert est.std_error == 0.0
    assert est.method == "mc-permanent"


def test_mi_estimator_error_names_the_failing_trial(monkeypatch):
    # the trial loop names every trial, so the test estimators' errors can
    # be replayed too
    posterior_pi1 = adversary.posterior_pi1
    calls = []

    def failing_posterior(L, solved=None):
        calls.append(L)
        if len(calls) == 3:
            raise ValueError("degenerate posterior: injected")
        return posterior_pi1(L, solved=solved)

    monkeypatch.setattr(adversary, "posterior_pi1", failing_posterior)
    profiles = np.array([[0.7, 0.3], [0.3, 0.7]])
    with pytest.raises(ValueError) as info:
        mutual_information_mc(
            IidModel(2), 2, 4, 2, 5, np.random.default_rng(0), profiles=profiles
        )
    assert type(info.value) is ValueError
    assert str(info.value) == "degenerate posterior: injected (trial 2)"
    assert str(info.value.__cause__) == "degenerate posterior: injected"


def test_mi_matches_exhaustive_enumeration_tiny_case():
    exact = exact_mi_two_state([0.3, 0.7], m=2, k=1)
    profiles = np.array([[0.7, 0.3], [0.3, 0.7]])
    est = mutual_information_mc(
        IidModel(2), 2, 2, 1, 20_000, np.random.default_rng(1), profiles=profiles
    )
    assert abs(est.value - exact) <= 3 * est.std_error


def test_mi_decreasing_in_crowd_size_identical_profiles():
    # everyone at 0.5: hiding gets easier as the crowd grows
    model = IidModel(2)
    m, k = 8, 8
    estimates = {}
    for n in (2, 8, 16):
        profiles = np.array([[0.5, 0.5]] * n)
        estimates[n] = mutual_information_mc(
            model, n, m, k, 1500, np.random.default_rng(100 + n), profiles=profiles
        )
    assert estimates[2].value > estimates[8].value - 2 * estimates[8].std_error
    assert estimates[8].value > estimates[16].value - 2 * estimates[16].std_error
    assert estimates[2].value > estimates[16].value

    # n = 32 exceeds the exact-posterior budget; the uniform-posterior
    # symmetry identity extends the trend, and agrees with the full
    # machinery where both run
    v16, se16 = mi_identical_profiles_shortcut(
        0.5, 16, m, k, 4000, np.random.default_rng(2)
    )
    assert abs(v16 - estimates[16].value) <= 3 * math.hypot(
        se16, estimates[16].std_error
    )
    v32, se32 = mi_identical_profiles_shortcut(
        0.5, 32, m, k, 4000, np.random.default_rng(3)
    )
    assert v32 < estimates[16].value + 2 * math.hypot(se32, estimates[16].std_error)


def test_mi_rejects_bad_arguments():
    model = IidModel(2)
    p = np.array([0.5, 0.5])
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        mutual_information_mc(model, 2, 4, 1, 1, rng, profiles=[p, p])
    with pytest.raises(ValueError):
        mutual_information_mc(model, 25, 4, 1, 10, rng, profiles=[p] * 25)
    with pytest.raises(ValueError):
        mutual_information_mc(model, 2, 4, 9, 10, rng, profiles=[p, p])
    with pytest.raises(ValueError):
        mutual_information_mc(model, 2, 4, 1, 10, rng)


def test_fixed_profiles_exclude_profile1_and_sampler():
    # profiles pins every user, so a second source for user 1 is ambiguous
    model = IidModel(2)
    q = np.array([0.4, 0.6])
    rng = np.random.default_rng(4)
    for extra in (
        {"profile1": np.array([0.3, 0.7])},
        {"profile_sampler": uniform2_sampler()},
    ):
        with pytest.raises(ValueError, match="excludes"):
            mutual_information_mc(model, 2, 4, 1, 10, rng, profiles=[q, q], **extra)
        with pytest.raises(ValueError, match="excludes"):
            deanonymization_accuracy_mc(model, 2, 4, 10, rng, profiles=[q, q], **extra)


def test_mi_nonnegative_within_noise():
    rng = np.random.default_rng(5)
    sampler = uniform2_sampler()
    for n in (2, 4):
        est = mutual_information_mc(
            IidModel(2), n, 6, 6, 400, rng, profile_sampler=sampler
        )
        assert est.value >= -3 * est.std_error


def test_conditioning_reduces_entropy_on_average():
    model = IidModel(2)
    profiles = np.array([[0.35, 0.65], [0.6, 0.4], [0.5, 0.5]])
    est = mutual_information_mc(
        model, 3, 5, 5, 600, np.random.default_rng(6), profiles=profiles
    )
    # value = H(X) - mean H(X|Y): nonnegativity of the mean gap
    assert est.value >= -1e-9


def test_mi_reproducible():
    sampler = uniform2_sampler()
    a = mutual_information_mc(
        IidModel(2), 3, 6, 6, 50, np.random.default_rng(7), profile_sampler=sampler
    )
    b = mutual_information_mc(
        IidModel(2), 3, 6, 6, 50, np.random.default_rng(7), profile_sampler=sampler
    )
    assert a == b


def test_mi_estimates_pinned():
    # Frozen before the estimator moved onto the shared trial loop and
    # re-frozen when the posterior's balance began from the LP duals: a
    # prior-sampled and a fixed-profile estimate must replay bit for bit.
    prior = mutual_information_mc(
        IidModel(2), 4, 6, 3, 40, np.random.default_rng(31),
        profile_sampler=uniform2_sampler(),
    )
    assert (prior.value.hex(), prior.std_error.hex()) == (
        "0x1.9b0dce2039fe5p-3",
        "0x1.a9946a6a6be2ap-5",
    )
    profiles = np.array([[0.3, 0.7], [0.6, 0.4], [0.45, 0.55]])
    fixed = mutual_information_mc(
        IidModel(2), 3, 5, 4, 40, np.random.default_rng(32), profiles=profiles
    )
    assert (fixed.value.hex(), fixed.std_error.hex()) == (
        "0x1.9b785d2a545c9p-2",
        "0x1.fcfc26c3a0837p-5",
    )


def test_accuracy_single_user():
    res = deanonymization_accuracy_mc(
        IidModel(2), 1, 5, 3, np.random.default_rng(8),
        profiles=[np.array([0.4, 0.6])],
    )
    assert res.pi1_accuracy == 1.0
    assert res.full_perm_accuracy == 1.0


def test_accuracy_two_identical_users_is_a_coin_flip():
    profiles = np.array([[0.5, 0.5]] * 2)
    res = deanonymization_accuracy_mc(
        IidModel(2), 2, 6, 1000, np.random.default_rng(9), profiles=profiles
    )
    se = math.sqrt(0.25 / 1000)
    assert abs(res.pi1_accuracy - 0.5) <= 3 * se
    assert abs(res.full_perm_accuracy - 0.5) <= 3 * se


def test_accuracy_identical_population_hits_one_over_n():
    n = 4
    profiles = np.array([[0.5, 0.5]] * n)
    acc = deanonymization_accuracy(
        IidModel(2), profiles, 6, 1200, np.random.default_rng(10)
    )
    se = math.sqrt((1 / n) * (1 - 1 / n) / 1200)
    assert abs(acc - 1 / n) <= 3 * se


def test_accuracy_well_separated_profiles():
    exact = exact_two_user_map_accuracy(0.05, 0.95, 200)
    assert exact >= 0.99
    profiles = np.array([[0.95, 0.05], [0.05, 0.95]])
    acc = deanonymization_accuracy(
        IidModel(2), profiles, 200, 300, np.random.default_rng(11)
    )
    assert acc >= 0.99


def test_accuracy_reproducible():
    sampler = uniform2_sampler()
    a = deanonymization_accuracy_mc(
        IidModel(2), 4, 8, 60, np.random.default_rng(12), profile_sampler=sampler
    )
    b = deanonymization_accuracy_mc(
        IidModel(2), 4, 8, 60, np.random.default_rng(12), profile_sampler=sampler
    )
    assert a == b



def test_attack_trial_carries_the_likelihood_matrix():
    # The kernel stops at L (and MAP's sort keys, which only two-state
    # i.i.d. models give); both attacks are the callers' to run.
    assert [f.name for f in dataclasses.fields(AttackTrial)] == [
        "Y", "forward", "L", "sort_keys"
    ]
    rng = np.random.default_rng(8)
    profiles = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    trial = simulate_attack_trial(IidModel(r=3), profiles, 12, rng)
    expected = adversary.likelihood_matrix_iid(
        profiles, adversary.count_stats(trial.Y, 3)
    )
    np.testing.assert_array_equal(trial.L, expected)
    assert trial.sort_keys is None
    graph = three_state_graph()
    chains = [expand_free_params(v, graph) for v in ([0.2, 0.3, 0.4], [0.5, 0.1, 0.7])]
    trial = simulate_attack_trial(MarkovModel(graph=graph), chains, 12, rng)
    expected = adversary.likelihood_matrix_markov(
        chains, adversary.transition_stats(trial.Y, 3)
    )
    np.testing.assert_array_equal(trial.L, expected)
    assert trial.sort_keys is None
