"""Spans around locpriv's public entry points, recorded from outside.

``Tracer.install`` replaces every public function of each layer module,
plus scipy's ``linear_sum_assignment`` as bound in ``adversary``, with a
timing wrapper. The modules import each other's functions by name
(``harness`` binds ``simulate_attack_trial``, ``metrics`` binds the
samplers, ...), so the wrapper is put at every binding site inside the
package, not only in the defining module. Nothing under ``src/`` changes.

Span stacks are thread-local. ``run_sweep`` runs its trials on pool
threads even at ``threads=1``; a span that starts on a thread with no open
span of its own is a child of the innermost span open on the thread that
installed the tracer (the benchmark's single caller).
"""
from __future__ import annotations

import itertools
import sys
import threading
import time
import types
from collections import defaultdict

LAYERS = (
    "mobility",
    "markov",
    "anonymization",
    "adversary",
    "metrics",
    "proofcheck",
    "harness",
)

# Entry points whose span also records a size: the crowd size n of the
# likelihood matrix, or the trajectory length m.
_SIZE_OF = {
    "adversary.posterior_pi1": lambda a, k: len(a[0]),
    "adversary.map_assignment": lambda a, k: len(a[0]),
    "markov.sample_trajectory_markov": lambda a, k: a[1] if len(a) > 1 else k["m"],
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or None, name, start, end, size)
        self._ids = itertools.count()
        self._local = threading.local()
        self._caller_stack = None
        self._patched = []  # (module, attribute, original)
        self.names = set()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        size_of = _SIZE_OF.get(name)
        spans = self.spans
        ids = self._ids
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._caller_stack:
                parent = self._caller_stack[-1]
            else:
                parent = None
            sid = next(ids)
            size = size_of(args, kwargs) if size_of else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, size))

        return traced

    def install(self, locpriv) -> None:
        """Wrap every layer's public functions at all their binding sites."""
        targets = {}
        for layer in LAYERS:
            module = getattr(locpriv, layer)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    targets[id(fn)] = (fn, f"{layer}.{attr}")
        lsa = locpriv.adversary.linear_sum_assignment
        targets[id(lsa)] = (lsa, "adversary.linear_sum_assignment")
        self.names = {name for _, name in targets.values()}
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        self._caller_stack = self._stack()
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "locpriv" or modname.startswith("locpriv.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is targets[id(value)][0]:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._caller_stack = None

    def summary(self):
        """Per entry point: self time, calls, inclusive time by size, and
        total recorded size; plus the summed duration of top-level spans.

        Self time is a span's duration minus the union of its children's
        intervals.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append((span[3], span[4]))
        stats = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0, "size_total": 0, "by_size": defaultdict(list)}
        )
        top_level = 0.0
        for sid, parent, name, start, end, size in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, reach)
                c_end = min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            entry = stats[name]
            entry["self_s"] += (end - start) - covered
            entry["calls"] += 1
            if size is not None:
                entry["size_total"] += size
                entry["by_size"][size].append(end - start)
            if parent is None:
                top_level += end - start
        return stats, top_level

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,size\n")
            for sid, parent, name, start, end, size in self.spans:
                fh.write(
                    f"{sid},{'' if parent is None else parent},{name},"
                    f"{start:.9f},{end:.9f},{'' if size is None else size}\n"
                )
