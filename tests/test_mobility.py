import numpy as np
import pytest

from locpriv.mobility import (
    BOUNDARY_MARGIN,
    IidModel,
    Population,
    ProfileDensity,
    fit_iid_profile,
    sample_profile,
)
from locpriv.mobility import _dirichlet


def test_profile_is_immutable():
    # drawn and fitted profiles, and a population's stack, are read-only
    rng = np.random.default_rng(0)
    drawn = sample_profile(ProfileDensity("uniform-simplex", 3), rng)
    fitted = fit_iid_profile([0, 1, 1], r=3)
    source = np.stack([drawn, fitted])
    pop = Population(model=IidModel(3), profiles=source)
    assert pop.profiles is not source and np.array_equal(pop.profiles, source)
    for p in (drawn, fitted, pop.profiles):
        with pytest.raises(ValueError):
            p[0] = 0.5


def test_profile_cdf_is_the_normalized_cumulative_sum():
    # the sampler inverts cumsum / cumsum[-1] of each law: a uniform on a
    # table entry falls past it, one just below stays
    laws = np.array([[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]])
    cdf = np.cumsum(laws, axis=1)
    cdf /= cdf[:, -1:]
    assert (cdf[:, -1] == 1.0).all()
    for row, law in zip(cdf, laws):
        draws = np.concatenate([row[:-1], np.nextafter(row, 0.0)])
        want = [int(np.searchsorted(row, u, side="right")) for u in draws]
        rng = _Uniforms(draws)
        (got,) = IidModel(4).sample_trajectories(law[None], draws.size, rng)
        assert got.tolist() == want == [1, 2, 3, 0, 1, 2, 3]


def test_density_rejects_bad_kinds():
    with pytest.raises(ValueError):
        ProfileDensity("spiky", 2)
    with pytest.raises(ValueError):
        ProfileDensity("bounded-mixture", 2, bump_alpha=1.0)


def test_sample_profile_r2_support_and_normalization():
    rng = np.random.default_rng(0)
    d = ProfileDensity("uniform-simplex", 2)
    for _ in range(200):
        p = sample_profile(d, rng)
        assert 0.0 < p[0] < 1.0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_sample_profile_uniform_mean():
    # oracle: mean of U(0,1) is 1/2
    rng = np.random.default_rng(1)
    d = ProfileDensity("uniform-simplex", 2)
    draws = np.array([sample_profile(d, rng)[0] for _ in range(100_000)])
    assert abs(draws.mean() - 0.5) < 0.005


def test_sample_profile_r3_corner_mass():
    # oracle: under the flat prior on the 2-simplex, P(p0 > 1/2) is the
    # relative area of the corner sub-simplex, (1/2)^2 = 0.25
    rng = np.random.default_rng(2)
    d = ProfileDensity("uniform-simplex", 3)
    hits = 0
    trials = 100_000
    for _ in range(trials):
        if sample_profile(d, rng)[0] > 0.5:
            hits += 1
    assert abs(hits / trials - 0.25) < 0.01


def test_sample_profile_strictly_interior():
    rng = np.random.default_rng(3)
    for kind in ("uniform-simplex", "bounded-mixture"):
        d = ProfileDensity(kind, 3)
        for _ in range(500):
            assert sample_profile(d, rng).min() >= 1e-9


def test_sampling_reproducible():
    d = ProfileDensity("bounded-mixture", 3)
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(10):
        assert np.array_equal(
            sample_profile(d, rng1), sample_profile(d, rng2)
        )


def test_trajectory_empty_and_support():
    rng = np.random.default_rng(4)
    model = IidModel(3)
    laws = np.array([[0.2, 0.3, 0.5]])
    assert len(model.sample_trajectories(laws, 0, rng)[0]) == 0
    (t,) = model.sample_trajectories(laws, 1000, rng)
    assert len(t) == 1000
    assert t.max() < 3 and t.min() >= 0


def test_trajectory_frequency():
    rng = np.random.default_rng(5)
    (t,) = IidModel(2).sample_trajectories(np.array([[0.5, 0.5]]), 100_000, rng)
    assert abs(t.mean() - 0.5) < 0.005


def test_fit_iid_profile_formula():
    p = fit_iid_profile([0, 0, 0, 1], r=2)
    assert np.allclose(p, [4 / 6, 2 / 6])


def test_fit_iid_profile_smoothed_always_interior():
    rng = np.random.default_rng(6)
    for _ in range(50):
        states = rng.integers(0, 4, size=rng.integers(0, 30))
        p = fit_iid_profile(states, r=4)
        assert np.all(p > 0) and np.all(p < 1)


def test_population_requires_users():
    with pytest.raises(ValueError):
        Population(model=IidModel(2), profiles=np.empty((0, 2)))
    pop = Population(model=IidModel(2), profiles=np.array([[0.4, 0.6]]))
    assert pop.n == 1


def _dirichlet_profile_reference(density, rng):
    """sample_profile as written against Generator.dirichlet."""
    r = density.r
    while True:
        if density.kind == "uniform-simplex":
            probs = rng.dirichlet(np.ones(r))
        elif rng.random() < density.bump_weight:
            probs = rng.dirichlet(np.full(r, density.bump_alpha))
        else:
            probs = rng.dirichlet(np.ones(r))
        if probs.min() >= BOUNDARY_MARGIN:
            return probs / probs.sum()


# These pin the numpy internals the samplers rely on (a shape-1 gamma is
# the standard exponential, Dirichlet rows scale by the reciprocal of a
# sequential sum, choice inverts cumsum / cumsum[-1]): a numpy upgrade
# that changes them fails here rather than drifting the pinned CSVs.
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_dirichlet_helper_matches_numpy_bit_for_bit(alpha):
    for seed in range(60):
        for r in (2, 3, 5, 8, 9, 12, 17):
            ref, ours = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = ref.dirichlet(np.ones(r) if alpha == 1.0 else np.full(r, alpha))
            assert np.array_equal(_dirichlet(ours, r, alpha), expected)
            assert ours.random() == ref.random()


@pytest.mark.parametrize("kind", ["uniform-simplex", "bounded-mixture"])
def test_sample_profile_matches_dirichlet_reference(kind):
    for r in (2, 3, 5, 7, 8, 9, 12, 17):
        density = ProfileDensity(kind, r)
        ref, ours = np.random.default_rng(r), np.random.default_rng(r)
        for _ in range(100):
            expected = _dirichlet_profile_reference(density, ref)
            assert np.array_equal(sample_profile(density, ours), expected)
        assert ours.random() == ref.random()


def test_sample_trajectory_matches_numpy_choice_bit_for_bit():
    # the stacked sampler against one Generator.choice call per user
    profiles = np.random.default_rng(99)
    for seed in range(40):
        for r in (2, 3, 5, 8, 9, 17):
            density = ProfileDensity("uniform-simplex", r)
            n = 1 + seed % 6
            laws = np.stack([sample_profile(density, profiles) for _ in range(n)])
            for m in (0, 1, 147):
                ref, ours = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = [ref.choice(r, size=m, p=law) for law in laws]
                got = IidModel(r).sample_trajectories(laws, m, ours)
                assert len(got) == n
                for g, e in zip(got, expected):
                    assert g.dtype == np.int64 and not g.flags.writeable
                    assert np.array_equal(g, e)
                assert ours.random() == ref.random()


def test_sample_trajectory_rejects_negative_length():
    with pytest.raises(ValueError, match="nonnegative"):
        IidModel(2).sample_trajectories(np.array([[0.5, 0.5]]), -1, np.random.default_rng())


class _Uniforms:
    """Hands out the given uniforms as ``Generator.random(size)`` would."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        assert size == self.values.size
        return self.values


class _ScriptedRng:
    """Hands out scripted draws in order; what is left shows what went unused."""

    def __init__(self, coins=(), exponentials=(), gammas=()):
        self.coins = list(coins)
        self.exponentials = list(exponentials)
        self.gammas = list(gammas)

    def random(self):
        return self.coins.pop(0)

    def standard_gamma(self, shape, size):
        # shape 1 (uniform-simplex) is served from the exponential script
        assert shape in (1.0, 2.0)
        script = self.exponentials if shape == 1.0 else self.gammas
        block = np.array(script.pop(0), dtype=float)
        assert block.shape == (size,)
        return block


def test_sample_profile_rejects_near_boundary_draws():
    # first attempt puts 1e-12 of the mass on location 0: below the margin
    rng = _ScriptedRng(exponentials=[[1e-12, 1.0], [1.0, 3.0]])
    p = sample_profile(ProfileDensity("uniform-simplex", 2), rng)
    assert p.tolist() == [0.25, 0.75] and rng.exponentials == []
    # the mixture coin is redrawn on every attempt, before its block
    rng = _ScriptedRng(coins=[0.9, 0.1], exponentials=[[1.0, 1e-12]], gammas=[[1.0, 1.0]])
    p = sample_profile(ProfileDensity("bounded-mixture", 2), rng)
    assert p.tolist() == [0.5, 0.5]
    assert rng.coins == [] and rng.exponentials == [] and rng.gammas == []
