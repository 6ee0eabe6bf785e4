import itertools

import numpy as np
import pytest
from scipy.stats import chisquare

from locpriv.adversary import count_stats, transition_stats
from locpriv.anonymization import (
    ObservationSchedule,
    anonymize,
    sample_permutation,
    schedule_observations,
    threshold_exponent,
)
from locpriv.markov import MarkovModel, MobilityGraph, expand_free_params
from locpriv.mobility import IidModel


THREE_STATE = MobilityGraph(
    r=3,
    edges=[(0, 0), (0, 1), (0, 2), (1, 2), (2, 0), (2, 1)],
    free_edges=[(0, 0), (0, 1), (2, 1)],
)


def test_permutation_bijection():
    # drawn forward arrays are bijections; anonymize takes only bijections
    rng = np.random.default_rng(0)
    for n in range(1, 30):
        forward = sample_permutation(n, rng)
        assert sorted(forward.tolist()) == list(range(n))
    with pytest.raises(ValueError):
        anonymize([np.zeros(2)] * 3, np.array([0, 0, 1]))


def test_sample_permutation_identity_for_one():
    forward = sample_permutation(1, np.random.default_rng(0))
    assert forward.tolist() == [0]
    assert forward.dtype == np.int64 and not forward.flags.writeable
    with pytest.raises(ValueError):
        sample_permutation(0, np.random.default_rng(0))


def test_sample_permutation_uniform_chi_square():
    rng = np.random.default_rng(1)
    draws = 60_000
    keys = {p: i for i, p in enumerate(itertools.permutations(range(3)))}
    counts = np.zeros(6)
    for _ in range(draws):
        counts[keys[tuple(sample_permutation(3, rng).tolist())]] += 1
    _, pvalue = chisquare(counts)
    assert pvalue > 0.001


def test_anonymize_worked_example():
    # 1-based paths 1->2->3->4, 2->1->3->5, 4->5->1->3 with permutation
    # (1,2,3) -> (3,1,2); internally 0-based.
    x1 = np.array([1, 2, 3, 4]) - 1
    x2 = np.array([2, 1, 3, 5]) - 1
    x3 = np.array([4, 5, 1, 3]) - 1
    Y = anonymize([x1, x2, x3], [2, 0, 1])
    expected = np.array([[2, 4, 1], [1, 5, 2], [3, 1, 3], [5, 3, 4]]) - 1
    assert np.array_equal(Y, expected)


def test_anonymize_identity_and_recovery():
    rng = np.random.default_rng(2)
    trajs = [rng.integers(0, 4, size=6) for _ in range(5)]
    Y = anonymize(trajs, np.arange(5))
    assert np.array_equal(Y, np.stack(trajs, axis=1))

    forward = sample_permutation(5, rng)
    Y = anonymize(trajs, forward)
    for u, t in enumerate(trajs):
        assert np.array_equal(Y[:, forward[u]], t)


def test_anonymize_matches_stacked_column_gather():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 71))
        m = int(rng.choice([0, 1, 5, 147, 400]))
        dtype = rng.choice([np.int64, np.int32])
        trajs = [rng.integers(0, 5, size=m).astype(dtype) for _ in range(n)]
        forward = sample_permutation(n, rng)
        Y = anonymize(trajs, forward)
        inverse = np.empty(n, dtype=np.int64)
        inverse[forward] = np.arange(n)
        expected = np.stack(trajs, axis=1)[:, inverse]
        assert Y.dtype == expected.dtype and np.array_equal(Y, expected)
        assert Y.flags.c_contiguous and not Y.flags.writeable


def test_anonymize_rejects_mismatches():
    t4 = np.array([0, 1, 0, 1])
    t3 = np.array([0, 1, 0])
    with pytest.raises(ValueError, match="same length"):
        anonymize([t4, t3], np.array([0, 1]))
    # forward arrays that are not a permutation of 0..n-1: a duplicate, an
    # entry out of range, a -1 that a plain scatter would wrap to n - 1,
    # and wrong lengths
    for forward in ([0, 0, 1], [0, 1, 3], [0, 1, -1], [0, 1], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match=r"not a permutation of 0\.\.n-1"):
            anonymize([t4, t4, t4], np.array(forward))


def test_schedule_observations_examples():
    assert schedule_observations(10, ObservationSchedule(1.0, 2.0)) == 100
    assert schedule_observations(3, ObservationSchedule(0.5, 1.0)) == 2
    assert schedule_observations(1, ObservationSchedule(0.2, 2.0)) == 1


def test_schedule_monotone():
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = float(rng.uniform(0.1, 3.0))
        beta = float(rng.uniform(0.1, 3.0))
        n = int(rng.integers(1, 50))
        base = schedule_observations(n, ObservationSchedule(c, beta))
        assert schedule_observations(n + 1, ObservationSchedule(c, beta)) >= base
        assert schedule_observations(n, ObservationSchedule(c + 0.5, beta)) >= base
        assert schedule_observations(n, ObservationSchedule(c, beta + 0.5)) >= base


def test_threshold_exponents():
    assert threshold_exponent(IidModel(2)) == 2.0
    assert threshold_exponent(IidModel(3)) == 1.0
    assert threshold_exponent(MarkovModel(THREE_STATE)) == pytest.approx(2 / 3)


def test_threshold_exponent_rejects_degenerate():
    cycle = MobilityGraph(r=3, edges=[(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        threshold_exponent(MarkovModel(cycle))


def test_iid_markov_exponent_equivalence():
    # a Markov graph with d = r-1 matches the iid exponent for r states
    rng = np.random.default_rng(4)
    for r in range(2, 6):
        d = r - 1
        # line graph with extra edges from state 0: out-degree d+1 at 0,
        # single forced edge elsewhere -> |E| - r_g = d
        r_g = d + 1
        edges = [(0, j) for j in range(r_g)] + [
            (i, (i + 1) % r_g) for i in range(1, r_g)
        ]
        g = MobilityGraph(r=r_g, edges=edges)
        assert g.d == d
        assert threshold_exponent(MarkovModel(g)) == pytest.approx(
            threshold_exponent(IidModel(r))
        )


def test_observation_matrix_shape():
    Y = np.zeros((4, 3), dtype=np.int64)
    assert count_stats(Y, 2).shape == (3, 2)
    assert transition_stats(Y, 2).shape == (3, 2, 2)
    for stats in (count_stats, transition_stats):
        with pytest.raises(ValueError):
            stats(np.zeros(4, dtype=np.int64), 2)


@pytest.mark.parametrize("model", [IidModel(3), MarkovModel(THREE_STATE)])
def test_samplers_and_anonymize_return_read_only_int64_arrays(model):
    rng = np.random.default_rng(7)
    if isinstance(model, IidModel):
        profile = np.array([0.2, 0.3, 0.5])
    else:
        profile = expand_free_params([0.2, 0.3, 0.4], THREE_STATE)
    trajs = model.sample_trajectories(np.stack([profile] * 4), 6, rng)
    Y = anonymize(trajs, sample_permutation(4, rng))
    for arr, shape in [(t, (6,)) for t in trajs] + [(Y, (6, 4))]:
        assert arr.dtype == np.int64 and arr.shape == shape
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
