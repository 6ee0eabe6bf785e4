"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Slow trend experiments (2000 trials per cell) live here, not in
the unit suites.
"""
import json
import math
import time

import numpy as np
import pytest

from helpers import (
    contract_transition_matrix,
    deanonymization_accuracy_mc,
    exact_mi_two_state,
    map_assignment_bruteforce,
    mutual_information_mc,
    three_state_graph,
    mi_identical_profiles_shortcut,
    posterior_pi1_bruteforce,
    stationary_distribution,
)
from locpriv import adversary, proofcheck
from locpriv.anonymization import (
    ObservationSchedule,
    anonymize,
    sample_permutation,
    schedule_observations,
    threshold_exponent,
)
from locpriv.cli import main
from locpriv.markov import (
    MarkovModel,
    MobilityGraph,
    expand_free_params,
    sample_free_params,
)
from locpriv.mobility import IidModel, ProfileDensity, sample_profile


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


def _uniform_sampler(r: int):
    density = ProfileDensity("uniform-simplex", r)
    return lambda rng: sample_profile(density, rng)


def _markov_sampler(graph: MobilityGraph):
    return lambda rng: expand_free_params(sample_free_params(graph, rng), graph)


def _random_instance_likelihoods(rng) -> np.ndarray:
    r = int(rng.choice([2, 3]))
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 13))
    sampler = _uniform_sampler(r)
    profiles = np.stack([sampler(rng) for _ in range(n)])
    trajs = IidModel(r).sample_trajectories(profiles, m, rng)
    Y = anonymize(trajs, sample_permutation(n, rng))
    return adversary.likelihood_matrix_iid(profiles, adversary.count_stats(Y, r))


def test_criterion_01_posterior_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        L = _random_instance_likelihoods(rng)
        fast = adversary.posterior_pi1(L)
        brute = posterior_pi1_bruteforce(L)
        worst = max(worst, float(np.abs(fast - brute).max()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 60
    assert _report(
        1, ok, f"max |W - W_bruteforce| = {worst:.2e} over 200 instances, {elapsed:.1f}s"
    )


def test_criterion_02_map_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(102)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        L = rng.normal(scale=2.0, size=(n, n))
        if not np.array_equal(
            adversary.map_assignment(L),
            map_assignment_bruteforce(L),
        ):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 10
    assert _report(
        2, ok, f"{mismatches} mismatches over 500 random matrices, {elapsed:.1f}s"
    )


def _alternate_markov_column(column: np.ndarray, r: int) -> np.ndarray | None:
    """A different state sequence with the same start and the same
    adjacent-transition counts, if one exists (depth-first search)."""
    m = len(column)
    M = np.zeros((r, r), dtype=int)
    np.add.at(M, (column[:-1], column[1:]), 1)
    target = tuple(column.tolist())

    found: list[tuple] = []

    def rec(state, remaining, acc):
        if found:
            return
        if len(acc) == m:
            if remaining.sum() == 0 and tuple(acc) != target:
                found.append(tuple(acc))
            return
        for j in range(r):
            if remaining[state, j] > 0:
                remaining[state, j] -= 1
                acc.append(j)
                rec(j, remaining, acc)
                acc.pop()
                remaining[state, j] += 1

    rec(int(column[0]), M.copy(), [int(column[0])])
    return np.array(found[0]) if found else None


def test_criterion_03_sufficiency():
    rng = np.random.default_rng(103)
    worst_iid = 0.0
    sampler = _uniform_sampler(2)
    for _ in range(100):
        profiles = np.stack([sampler(rng) for _ in range(4)])
        trajs = IidModel(2).sample_trajectories(profiles, 6, rng)
        Y = anonymize(trajs, sample_permutation(4, rng))
        base = adversary.posterior_pi1(
            adversary.likelihood_matrix_iid(profiles, adversary.count_stats(Y, 2))
        )
        shuffled = Y.copy()
        for j in range(4):
            shuffled[:, j] = shuffled[rng.permutation(6), j]
        redo = adversary.posterior_pi1(
            adversary.likelihood_matrix_iid(
                profiles, adversary.count_stats(shuffled, 2)
            )
        )
        worst_iid = max(worst_iid, float(np.abs(redo - base).max()))

    graph = three_state_graph()
    msampler = _markov_sampler(graph)
    worst_markov = 0.0
    rewritten_columns = 0
    for _ in range(100):
        chains = np.stack([msampler(rng) for _ in range(4)])
        trajs = MarkovModel(graph).sample_trajectories(chains, 8, rng)
        Y = anonymize(trajs, sample_permutation(4, rng))
        stats = adversary.transition_stats(Y, 3)
        base = adversary.posterior_pi1(
            adversary.likelihood_matrix_markov(chains, stats)
        )
        rewritten = Y.copy()
        for j in range(4):
            alt = _alternate_markov_column(Y[:, j], 3)
            if alt is not None:
                rewritten[:, j] = alt
                rewritten_columns += 1
        stats2 = adversary.transition_stats(rewritten, 3)
        assert np.array_equal(stats2, stats)
        redo = adversary.posterior_pi1(
            adversary.likelihood_matrix_markov(chains, stats2)
        )
        worst_markov = max(worst_markov, float(np.abs(redo - base).max()))

    ok = worst_iid <= 1e-12 and worst_markov <= 1e-12 and rewritten_columns >= 50
    assert _report(
        3,
        ok,
        f"posterior shift: iid {worst_iid:.2e}, markov {worst_markov:.2e} "
        f"({rewritten_columns} columns rewritten)",
    )


def test_criterion_04_exact_tiny_mi():
    start = time.monotonic()
    exact = exact_mi_two_state([0.3, 0.7], m=2, k=1)
    profiles = np.array([[0.7, 0.3], [0.3, 0.7]])
    est = mutual_information_mc(
        IidModel(2), 2, 2, 1, 100_000, np.random.default_rng(104), profiles=profiles
    )
    elapsed = time.monotonic() - start
    gap = abs(est.value - exact)
    ok = gap <= 3 * est.std_error and elapsed < 60
    assert _report(
        4,
        ok,
        f"exact {exact:.6f} vs MC {est.value:.6f} (SE {est.std_error:.6f}), "
        f"{elapsed:.1f}s",
    )


def _trend_ok(values, errors) -> tuple[bool, int]:
    increases = 0
    for (v1, e1), (v2, e2) in zip(zip(values, errors), zip(values[1:], errors[1:])):
        if v2 > v1:
            increases += 1
            if v2 - v1 > 2 * math.hypot(e1, e2):
                return False, increases
    return increases <= 1, increases


def test_criterion_05_two_state_trend():
    start = time.monotonic()
    model = IidModel(2)
    sampler = _uniform_sampler(2)
    sched = ObservationSchedule(1.0, 1.2)
    profile1 = sampler(np.random.default_rng(1050))
    values, errors = [], []
    for n in (4, 8, 16):
        m = schedule_observations(n, sched)
        est = mutual_information_mc(
            model, n, m, m, 2000, np.random.default_rng(1050 + n),
            profile_sampler=sampler, profile1=profile1,
        )
        values.append(est.value)
        errors.append(est.std_error)
    trend_ok, increases = _trend_ok(values, errors)

    m12 = schedule_observations(16, sched)
    m28 = schedule_observations(16, ObservationSchedule(1.0, 2.8))
    acc1 = deanonymization_accuracy_mc(
        model, 16, m12, 2000, np.random.default_rng(1061),
        profile_sampler=sampler, profile1=profile1,
    ).pi1_accuracy
    acc2 = deanonymization_accuracy_mc(
        model, 16, m28, 2000, np.random.default_rng(1062),
        profile_sampler=sampler, profile1=profile1,
    ).pi1_accuracy
    ratio = acc2 / max(acc1, 1e-12)
    elapsed = time.monotonic() - start
    ok = trend_ok and ratio >= 3.0 and elapsed < 600
    assert _report(
        5,
        ok,
        f"MI {['%.4f' % v for v in values]} (SE {['%.4f' % e for e in errors]}, "
        f"{increases} inversions); accuracy {acc1:.3f} -> {acc2:.3f} "
        f"(x{ratio:.2f}); {elapsed:.0f}s",
    )


def test_criterion_06_threshold_exponents():
    vals = (
        threshold_exponent(IidModel(2)),
        threshold_exponent(IidModel(3)),
        threshold_exponent(MarkovModel(three_state_graph())),
    )
    ok = vals == (2.0, 1.0, 2 / 3)
    assert _report(6, ok, f"exponents = {vals}")


def test_criterion_07_markov_trend():
    start = time.monotonic()
    graph = three_state_graph()
    model = MarkovModel(graph)
    sampler = _markov_sampler(graph)
    chain1 = sampler(np.random.default_rng(1070))
    sched_low = ObservationSchedule(1.0, 0.4)
    values, errors = [], []
    for n in (4, 8, 16):
        m = schedule_observations(n, sched_low)
        est = mutual_information_mc(
            model, n, m, m, 2000, np.random.default_rng(1070 + n),
            profile_sampler=sampler, profile1=chain1,
        )
        values.append(est.value)
        errors.append(est.std_error)
    trend_ok, increases = _trend_ok(values, errors)

    m_low = schedule_observations(16, sched_low)
    m_high = schedule_observations(16, ObservationSchedule(1.0, 1.2))
    acc_low = deanonymization_accuracy_mc(
        model, 16, m_low, 2000, np.random.default_rng(1081),
        profile_sampler=sampler, profile1=chain1,
    ).pi1_accuracy
    acc_high = deanonymization_accuracy_mc(
        model, 16, m_high, 2000, np.random.default_rng(1082),
        profile_sampler=sampler, profile1=chain1,
    ).pi1_accuracy
    ratio = acc_high / max(acc_low, 1e-12)
    elapsed = time.monotonic() - start
    ok = trend_ok and ratio >= 3.0 and elapsed < 900
    assert _report(
        7,
        ok,
        f"MI {['%.4f' % v for v in values]} ({increases} inversions); "
        f"accuracy {acc_low:.3f} -> {acc_high:.3f} (x{ratio:.2f}); {elapsed:.0f}s",
    )


def test_criterion_08_lemma_machinery():
    params = proofcheck.LemmaParams(1.0, 0.05, 0.1)

    # (a) m * beta * eps identity, exact to 1e-12
    gaps = [
        abs(m * params.beta(m) * params.eps(m) - m ** (0.05 - 0.1))
        for m in (10**2, 10**3, 10**4, 10**5, 10**6)
    ]
    ok_a = max(gaps) <= 1e-12

    # (b) crowd size vs the binomial prediction 2 n eps (uniform prior)
    rng = np.random.default_rng(208)
    n, eps, draws = 10_000, 0.01, 200
    sizes = np.empty(draws)
    for t in range(draws):
        ps = np.empty(n)
        ps[0] = 0.5
        ps[1:] = rng.random(n - 1)
        sizes[t] = proofcheck.critical_set(ps, eps).size
    sigma_mean = math.sqrt(n * 2 * eps * (1 - 2 * eps) / draws)
    gap_b = abs(float(sizes.mean()) - 2 * n * eps)
    ok_b = gap_b <= 3 * sigma_mean

    # (c) likelihood-ratio envelope at the stated coefficient, and
    # monotone decay of the sampled maximum across the m-grid
    records = proofcheck.delta_uniformity_experiment(
        params, [10**2, 10**3, 10**4, 10**5, 10**6], np.random.default_rng(109),
    )
    ok_c_envelope = all(r.max_abs_log_delta <= r.envelope for r in records)
    maxima = [r.max_abs_log_delta for r in records]
    ok_c_decreasing = all(a > b for a, b in zip(maxima, maxima[1:]))

    # (d) posterior flattening across n at beta = 1.2
    wparams = proofcheck.LemmaParams(0.8, 0.15, 0.3)
    sched = ObservationSchedule(1.0, 1.2)
    medians = []
    for n_cell in (4, 8, 16):
        m = schedule_observations(n_cell, sched)
        res = proofcheck.weight_uniformity(
            wparams, n_cell, m, 2000, np.random.default_rng(2 * 7777 + n_cell)
        )
        medians.append(res.median)
    ok_d = medians[0] > medians[1] > medians[2]

    ok = ok_a and ok_b and ok_c_envelope and ok_c_decreasing and ok_d
    assert _report(
        8,
        ok,
        f"(a) identity gap {max(gaps):.1e} {'PASS' if ok_a else 'FAIL'}; "
        f"(b) |J| gap {gap_b:.2f} vs 3sigma {3 * sigma_mean:.2f} "
        f"{'PASS' if ok_b else 'FAIL'}; "
        f"(c) envelope {'PASS' if ok_c_envelope else 'FAIL'} "
        f"(max/bound {max(r.max_abs_log_delta / r.envelope for r in records):.2f}), "
        f"decay {'PASS' if ok_c_decreasing else 'FAIL'}; "
        f"(d) medians {['%.4f' % v for v in medians]} {'PASS' if ok_d else 'FAIL'}",
    )


def test_criterion_09_markov_algebra():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(0.05, 0.95, size=2)
        T = np.array([[1 - a, a], [b, 1 - b]])
        pi = stationary_distribution(T)
        closed = np.array([b, a]) / (a + b)
        worst = max(worst, float(np.abs(pi - closed).max()))
    ok_stat = worst <= 1e-12

    exact_roundtrips = 0
    for _ in range(100):
        r = int(rng.integers(2, 7))
        edges = []
        for i in range(r):
            out_deg = int(rng.integers(1, r + 1))
            targets = rng.choice(r, size=out_deg, replace=False)
            edges.extend((i, int(j)) for j in targets)
        g = MobilityGraph(r=r, edges=edges)
        params = sample_free_params(g, rng)
        back = contract_transition_matrix(expand_free_params(params, g), g)
        exact_roundtrips += int(np.array_equal(back, params))
    ok_rt = exact_roundtrips == 100
    ok = ok_stat and ok_rt
    assert _report(
        9,
        ok,
        f"stationary max err {worst:.2e}; {exact_roundtrips}/100 exact round-trips",
    )


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "model": "iid2",
        "density": {"kind": "uniform-simplex"},
        "n_grid": [3, 5],
        "schedule": {"c": 1.0, "beta": 1.2},
        "trials": 40,
        "k": "last",
        "metrics": ["mi", "accuracy", "weights"],
        "seed": 4242,
        "out_path": "results.csv",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for i in range(3):
        out = tmp_path / f"run{i}.csv"
        code = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    assert _report(
        10, ok, f"3 serial runs byte-identical: {ok}; {len(outputs[0])} bytes"
    )
