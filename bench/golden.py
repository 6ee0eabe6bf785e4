"""Regenerate the benchmark's golden outputs.

    python3 bench/golden.py [WORKLOAD ...]

For every input of each named workload's corpus, runs the timed call at
threads=1 and stores its digest in ``bench/golden/<workload>.json``. The
name ``shipped`` records the sha256 of each shipped config's result CSV
in ``bench/golden/shipped.json`` (see check_shipped.py). With no names,
all of them. Run it only at a commit whose outputs are known
good: every later run is checked against these files.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH, ROOT, import_locpriv


def write_json(path, payload):
    """One line per top-level key, or per entry under "entries"."""
    lines = []
    for key, value in sorted(payload.items()):
        if key == "entries":
            inner = ",\n".join(
                f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
                for k, v in value.items()
            )
            lines.append(f" {json.dumps(key)}: {{\n{inner}\n }}")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv):
    import_locpriv()
    import check_shipped
    import workloads

    names = argv or sorted(workloads.WORKLOADS) + ["shipped"]
    workdir = os.path.join(BENCH, "out", f"golden-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in names:
            if name == "shipped":
                digests = check_shipped.digests(workdir, threads=1)
                write_json(check_shipped.GOLDEN, digests)
                print(f"shipped: {digests}")
                continue
            workload = workloads.WORKLOADS[name]
            entries = {}
            for k in range(workload.corpus):
                inp = workload.prepare(ROOT, workdir, k)
                entries[str(k)] = workload.digest(workload.call(inp, threads=1))
            write_json(
                workloads.golden_path(ROOT, name),
                {"float_tolerance": workloads.FLOAT_TOLERANCE, "entries": entries},
            )
            print(f"{name}: {len(entries)} golden entries")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
