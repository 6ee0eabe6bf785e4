"""Check that the shipped configs still produce their golden result bytes.

    python3 bench/check_shipped.py

Runs ``configs/{iid2_sweep,markov_sweep,iid2_single_cell}.json`` through
``load_config``, ``run_sweep`` and ``write_results_csv`` at threads=1 and
threads=2, and compares the sha256 of each CSV with
``bench/golden/shipped.json``. Exits 1 on any mismatch. This is a check,
not a timed workload: a change that moves ``mi`` in the last digits (and
says so) changes these digests without failing the benchmark.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

from run import BENCH, ROOT, import_locpriv

CONFIGS = ("iid2_sweep", "markov_sweep", "iid2_single_cell")
GOLDEN = os.path.join(BENCH, "golden", "shipped.json")


def digests(workdir, threads):
    from locpriv import harness

    out = {}
    for name in CONFIGS:
        config = harness.load_config(os.path.join(ROOT, "configs", f"{name}.json"))
        path = os.path.join(workdir, f"{name}-t{threads}.csv")
        harness.write_results_csv(harness.run_sweep(config, threads=threads), path)
        with open(path, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main():
    import_locpriv()
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    workdir = os.path.join(BENCH, "out", f"shipped-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ok = True
    try:
        for threads in (1, 2):
            for name, digest in digests(workdir, threads).items():
                match = digest == golden[name]
                ok &= match
                print(f"{name:18s} threads={threads} {digest[:12]} "
                      f"{'ok' if match else 'MISMATCH, golden ' + golden[name][:12]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
