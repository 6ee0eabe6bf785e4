"""locpriv benchmark: attack trials per second, set-up time and memory per
workload; per-layer self time and call counts in a separate traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source tree that holds ``src/locpriv`` and
``configs/``; the package is imported from that ``src/`` only. One
process, one caller, closed loop: each timed call starts when the
previous one has returned. Every timed call's output is checked against
the goldens in ``bench/golden``; a call that raises or fails the check
counts in ``failed``. The last line of stdout is the result JSON; the
line before it, starting with ``meta``, records the machine, library
versions and the inputs used.

--trace 0 measures, alternating threads=1 and threads=2 calls, for S
seconds, and reports every ``end_to_end`` metric of BENCHMARK.json.
Trials per second are scaled to a reference machine speed: see measure().
--trace 1 runs each input at threads=1 once untraced and once with every
layer's public functions wrapped in spans, for S seconds in all, and
reports every ``per_layer`` metric: ``<layer>.<function>.self_s`` and
``.calls`` are per timed call, ``ms_per_call.n<N>`` is the mean inclusive
time of a call on an N-user matrix. Spans go to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from tracer import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# calibrate() takes about this much thread CPU time when the machine runs
# at full speed (Xeon 2.0 GHz vCPU); see measure().
CALIBRATION_REFERENCE_S = 0.015
_CALIBRATION_ARRAY = np.arange(64, dtype=float)

_SETUP_CHILD = """\
import os, sys
sys.path.insert(0, {src!r})
import locpriv
if not os.path.realpath(locpriv.__file__).startswith({src_real!r} + os.sep):
    raise SystemExit("locpriv imported from " + locpriv.__file__)
{setup}
print("ready", flush=True)
"""


def import_locpriv():
    """Import locpriv from this tree's src/ and refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "locpriv", "__init__.py")):
        raise SystemExit(f"bench: no locpriv package under {SRC}")
    sys.path.insert(0, SRC)
    import locpriv

    where = os.path.realpath(locpriv.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"bench: locpriv imported from {where}, not from {SRC}")
    return locpriv


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_metadata(workload, args, inputs_used, extra):
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "inputs": inputs_used,
        **extra,
    }


class Runner:
    """Prepares inputs on demand, runs timed calls and checks every output."""

    def __init__(self, workload, workdir, golden, seed):
        self.workload = workload
        self.workdir = workdir
        self.golden = golden
        self.order = [int(k) for k in np.random.default_rng(seed).permutation(workload.corpus)]
        self.prepared = {}
        self.used = []
        self.attempted = 0
        self.failed = 0

    def input_at(self, i):
        k = self.order[i % len(self.order)]
        if k not in self.prepared:
            self.prepared[k] = self.workload.prepare(ROOT, self.workdir, k)
        return k

    def timed_call(self, k, threads):
        """Wall seconds of one call, or None if it raised. A call that
        raises or whose output fails the check counts as failed."""
        self.attempted += 1
        self.used.append(k)
        try:
            start = time.perf_counter()
            output = self.workload.call(self.prepared[k], threads)
            wall = time.perf_counter() - start
            problem = self.workload.check(output, self.golden[str(k)])
        except Exception:  # a failed call is counted, the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        if problem is not None:
            print(f"bench: input {k}, threads={threads}: {problem}", file=sys.stderr)
            self.failed += 1
        return wall


def calibrate():
    """Thread CPU seconds for a fixed mix of interpreter and small-array
    numpy work, the kind of work a locpriv trial is made of."""
    start = time.thread_time()
    acc = 0.0
    for i in range(3000):
        acc += float(np.sum(_CALIBRATION_ARRAY * i))
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return time.thread_time() - start


def at_reference_speed(seconds, before, after):
    """Wall seconds scaled by the calibration taken around them."""
    return seconds * CALIBRATION_REFERENCE_S * 2 / (before + after)


def measure_setup(workload, inp):
    """Median seconds from spawning a fresh interpreter to 'ready', scaled
    to the reference machine speed like the trial rates (see measure()),
    and unscaled."""
    code = _SETUP_CHILD.format(
        src=SRC, src_real=os.path.realpath(SRC), setup=workload.setup_source(inp)
    )
    times = []
    scaled = []
    for rep in range(SETUP_REPEATS + 1):
        before = calibrate()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as child:
            line = child.stdout.readline().strip()
            ready = time.perf_counter() - start
            child.stdout.read()
        if line != "ready" or child.returncode != 0:
            raise SystemExit(f"bench: set-up child failed ({line!r}, exit {child.returncode})")
        after = calibrate()
        if rep:  # the first one may compile bytecode
            times.append(ready)
            scaled.append(at_reference_speed(ready, before, after))
    return statistics.median(scaled), statistics.median(times)


def measure(runner, seconds):
    """Alternate threads=1 and threads=2 calls for `seconds`; trials
    completed per second of wall time spent in each kind of call.

    The shared machine this was built on runs the same call at anything
    from full to half speed, drifting over minutes, so each call's wall
    time is scaled by CALIBRATION_REFERENCE_S over the mean of two
    calibrate() times taken just before and just after it. Thread CPU
    time is used for the calibration, so work the program leaves running
    on other threads cannot make it look faster. The unscaled figures go
    to the meta line.

    Throughput is total trials over total (scaled) wall time, not a median
    of per-call rates: call times are bimodal, and a median jumps between
    the modes where a total moves smoothly.
    """
    trials = runner.workload.trials_per_call()
    walls = {1: [], 2: []}
    scaled = {1: [], 2: []}
    calibrations = []
    i = 1
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        # Pairs alternate which thread count goes first, so drift during
        # the run does not favour either.
        for threads in ((1, 2) if i % 4 == 1 else (2, 1)):
            k = runner.input_at(i)
            i += 1
            before = calibrate()
            wall = runner.timed_call(k, threads)
            after = calibrate()
            calibrations += [before, after]
            if wall is not None:
                walls[threads].append(wall)
                scaled[threads].append(at_reference_speed(wall, before, after))
    if not walls[1] or not walls[2]:
        raise SystemExit("bench: every timed call raised")
    values = {
        "trials_per_s": trials * len(scaled[1]) / sum(scaled[1]),
        "trials_per_s_t2": trials * len(scaled[2]) / sum(scaled[2]),
    }
    unscaled = {
        "wall_trials_per_s": trials * len(walls[1]) / sum(walls[1]),
        "wall_trials_per_s_t2": trials * len(walls[2]) / sum(walls[2]),
        "calibration_s_median": statistics.median(calibrations),
    }
    return values, unscaled


def measure_traced(runner, seconds, locpriv):
    """threads=1 calls for `seconds`, each input once untraced and once
    traced, in alternating order so that drift cancels in the overhead.

    Returns the tracer, untraced and traced wall seconds, and the number
    of traced calls.
    """
    tracer = Tracer()
    walls = {False: [], True: []}
    i = 1
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        k = runner.input_at(i)
        for traced in ((False, True) if i % 2 else (True, False)):
            if traced:
                tracer.install(locpriv)
            try:
                walls[traced].append(runner.timed_call(k, 1))
            finally:
                tracer.uninstall()
        i += 1
    if None in walls[False] or None in walls[True]:
        raise SystemExit("bench: a call raised; no per-layer figures")
    return tracer, sum(walls[False]), sum(walls[True]), len(walls[True])


def layer_metrics(names, tracer, untraced_s, traced_s, calls):
    stats, top_level = tracer.summary()
    known = tracer.names

    def entry(fn):
        if fn not in known:
            raise SystemExit(f"bench: {fn} is not a traced entry point")
        return stats.get(fn) or {"self_s": 0.0, "calls": 0, "size_total": 0, "by_size": {}}

    def value(name):
        if name == "trace.overhead_ratio":
            return traced_s / untraced_s
        if name == "trace.coverage":
            return top_level / traced_s
        parts = name.split(".")
        if len(parts) == 2 and parts[1] == "self_s":
            return sum(e["self_s"] for fn, e in stats.items()
                       if fn.split(".")[0] == parts[0]) / calls
        e = entry(".".join(parts[:2]))
        stat = ".".join(parts[2:])
        if stat == "self_s":
            return e["self_s"] / calls
        if stat == "calls":
            return e["calls"] / calls
        if stat.startswith("ms_per_call.n"):
            walls = e["by_size"].get(int(stat[len("ms_per_call.n"):]), [])
            return 1e3 * sum(walls) / len(walls) if walls else 0.0
        if stat == "us_per_step":
            steps = e["size_total"] - e["calls"]
            return 1e6 * e["self_s"] / steps if steps else 0.0
        if stat == "lsa_per_call":
            solves = entry("adversary.linear_sum_assignment")["calls"]
            return solves / e["calls"] if e["calls"] else 0.0
        raise SystemExit(f"bench: unknown per-layer metric {name}")

    return {name: value(name) for name in names}, stats


def check_call_counts(workload, stats, calls):
    """Problems where traced call counts differ from the workload's shape."""
    problems = []
    for fn, per_call in workload.expected_calls().items():
        got = stats[fn]["calls"] if fn in stats else 0
        if got != per_call * calls:
            problems.append(f"{fn}: {got} calls, expected {per_call} x {calls}")
    return problems


def print_layer_table(stats, traced_s):
    rows = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])
    print(f"{'entry point':45s} {'self s':>9s} {'share':>6s} {'calls':>9s}")
    for fn, e in rows:
        print(f"{fn:45s} {e['self_s']:9.3f} {e['self_s'] / traced_s:6.1%} {e['calls']:9d}")


def main(argv=None):
    locpriv = import_locpriv()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workload = workloads.WORKLOADS[args.workload]
    golden = workloads.load_golden(ROOT, workload.name)["entries"]

    out_dir = os.path.join(BENCH, "out")
    workdir = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workload, workdir, golden, args.seed)
        k0 = runner.input_at(0)
        setup_s, wall_setup_s = measure_setup(workload, runner.prepared[k0])
        runner.timed_call(k0, 1)  # warm-up: lazy imports, mask caches
        correct = True
        extra = {}
        if args.trace:
            tracer, untraced_s, traced_s, calls = measure_traced(runner, args.seconds, locpriv)
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values, stats = layer_metrics(names, tracer, untraced_s, traced_s, calls)
            problems = check_call_counts(workload, stats, calls)
            for problem in problems:
                print(f"bench: call count: {problem}", file=sys.stderr)
            correct = not problems
            print_layer_table(stats, traced_s)
            tracer.write(os.path.join(out_dir, f"spans-{workload.name}-seed{args.seed}.csv"))
        else:
            values, extra = measure(runner, args.seconds)
            extra["wall_setup_s"] = wall_setup_s
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            names = [m["name"] for m in spec["end_to_end"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        inputs_used = [workload.seed_base + k for k in runner.used]
        print("meta " + json.dumps(run_metadata(workload, args, inputs_used, extra)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
