"""The benchmark's per-layer metrics name locpriv entry points; keep them.

`bench/run.py --trace 1` wraps every function listed in a layer module's
``__all__`` and stops with SystemExit when a per-layer metric names an
entry point it did not wrap, so a refactor that drops or renames one of
these functions silently breaks the benchmark. The same run also checks
each workload's call counts against ``expected_calls``; a refactor that
moves an adversary call out of reach of the tracer fails that check.
"""
import importlib.util
import inspect
import json
import os
import types

import numpy as np
import pytest

import locpriv

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
BENCH_DIR = os.path.join(ROOT, "bench")


def _entry_points():
    with open(BENCHMARK) as fh:
        per_layer = json.load(fh)["per_layer"]
    names = set()
    for metric in per_layer:
        parts = metric["name"].split(".")
        if parts[0] != "trace" and len(parts) > 2:
            names.add((parts[0], parts[1]))
    return sorted(names)


def test_per_layer_entry_points_are_public_functions():
    entry_points = _entry_points()
    assert entry_points
    for layer, name in entry_points:
        module = getattr(locpriv, layer)
        if (layer, name) == ("adversary", "linear_sum_assignment"):
            # scipy's solver as bound in adversary; traced at that binding.
            assert callable(getattr(module, name))
            continue
        assert name in module.__all__, f"{layer}.{name} not in __all__"
        fn = getattr(module, name)
        assert isinstance(fn, types.FunctionType), f"{layer}.{name} is not a function"
        assert fn.__module__ == module.__name__, f"{layer}.{name} is defined elsewhere"


def _load_bench_module(name):
    """Import bench/<name>.py as it stands, without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH_DIR, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_bench_module("workloads")
tracer = _load_bench_module("tracer")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_call_counts_and_output(tmp_path, name):
    # The completeness check of `bench/run.py --trace 1`: one traced call
    # on input 0 makes exactly the workload's expected calls, and its
    # output still matches that input's golden.
    workload = workloads.WORKLOADS[name]
    inp = workload.prepare(ROOT, str(tmp_path), 0)
    spans = tracer.Tracer()
    spans.install(locpriv)
    try:
        output = workload.call(inp, 1)
    finally:
        spans.uninstall()
    stats, _ = spans.summary()
    expected = workload.expected_calls()
    assert {fn: stats[fn]["calls"] if fn in stats else 0 for fn in expected} == expected
    golden = workloads.load_golden(ROOT, name)["entries"]["0"]
    assert workload.check(output, golden) is None


def test_markov_walk_keeps_one_traced_call_per_user(monkeypatch):
    # `audit-markov` expects U*T calls of sample_trajectory_markov, one per
    # user and trial, each made through the markov module's attribute (where
    # the tracer puts its wrapper), and reads the walk length from the
    # call's second positional argument
    from locpriv import markov

    params = list(inspect.signature(markov.sample_trajectory_markov).parameters)
    assert params[1] == "m"
    calls = []
    walk = markov.sample_trajectory_markov

    def counted(*args):
        calls.append(args[1])
        return walk(*args)

    monkeypatch.setattr(markov, "sample_trajectory_markov", counted)
    graph = markov.MobilityGraph(r=3, edges=[(0, 1), (1, 2), (2, 0), (2, 2)])
    law = markov.expand_free_params([0.5], graph)
    for n, m in ((1, 1), (5, 3), (7, 400)):
        calls.clear()
        walks = markov.MarkovModel(graph).sample_trajectories(
            np.stack([law] * n), m, np.random.default_rng(0)
        )
        assert calls == [m] * n and len(walks) == n


@pytest.mark.parametrize("trace", ["audit-markov", "demo_traces.csv"])
def test_trace_files_take_the_array_reader(tmp_path, monkeypatch, trace):
    # `audit-markov` times the array reader; a change that sent its file,
    # or the shipped demo file, to the csv row loop would show only as a
    # slower benchmark
    from locpriv import harness

    def row_loop(path):
        raise AssertionError(f"{path} went to the row loop")

    monkeypatch.setattr(harness, "_read_trace_rows", row_loop)
    if trace == "audit-markov":
        graph_path, path, _ = workloads.WORKLOADS[trace].prepare(ROOT, str(tmp_path), 0)
        graph = locpriv.markov.load_graph_csv(graph_path)
        dataset, _ = harness.ingest_traces(path, "markov", graph=graph)
        assert len(dataset.user_ids) == workloads.WORKLOADS[trace].users
    else:
        path = os.path.join(ROOT, "configs", trace)
        dataset, _ = harness.ingest_traces(path, "iid")
        assert len(dataset.user_ids) == 3
