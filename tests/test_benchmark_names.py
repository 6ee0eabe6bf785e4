"""The benchmark's per-layer metrics name locpriv entry points; keep them.

`bench/run.py --trace 1` wraps every function listed in a layer module's
``__all__`` and stops with SystemExit when a per-layer metric names an
entry point it did not wrap, so a refactor that drops or renames one of
these functions silently breaks the benchmark.
"""
import json
import os
import types

import locpriv

BENCHMARK = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")


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
