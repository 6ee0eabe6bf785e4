"""How locpriv loads scipy's assignment solver, each case in a fresh
interpreter: this process already holds scipy.optimize, which the test
helpers' scipy.stats imports.

``adversary`` loads the compiled solver from its own extension file, so
starting locpriv does not import scipy.optimize (most of the start-up time
and memory it once cost), and falls back to that import where the file is
not found.
"""
import os
import subprocess
import sys

import numpy as np

from locpriv import adversary

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def _imported(importtime_log: str) -> set[str]:
    # -X importtime lines read "import time: self | cumulative | name"
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_log.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def test_import_leaves_scipy_optimize_unloaded():
    done = _python(
        "-c",
        "import sys, locpriv; print('scipy.optimize' in sys.modules, "
        "'scipy.optimize._lsap' in sys.modules)",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_cli_help_leaves_scipy_optimize_unloaded():
    done = _python("-X", "importtime", "-m", "locpriv.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
    imported = _imported(done.stderr)
    assert "locpriv.adversary" in imported
    assert "scipy.optimize" not in imported


def test_later_scipy_optimize_import_shares_the_solver():
    done = _python(
        "-c",
        "import locpriv.adversary as a, scipy.optimize as o; "
        "print(a.linear_sum_assignment is o.linear_sum_assignment)",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"]


def test_fallback_imports_scipy_optimize_and_solves_alike():
    # no extension suffix matches, as where scipy lays out its files
    # otherwise: adversary falls back to importing scipy.optimize
    L = np.random.default_rng(5).normal(size=(6, 6))
    done = _python(
        "-c",
        "import importlib.machinery, sys\n"
        "importlib.machinery.EXTENSION_SUFFIXES[:] = []\n"
        "import numpy as np\n"
        "from locpriv import adversary\n"
        "print('scipy.optimize' in sys.modules)\n"
        f"L = np.array({L.tolist()!r})\n"
        "print(adversary.linear_sum_assignment(L, maximize=True)[1].tolist())\n"
        "print(adversary.map_assignment(L).forward.tolist())\n",
    )
    assert done.returncode == 0, done.stderr
    loaded, solved, forward = done.stdout.splitlines()
    assert loaded == "True"
    assert solved == str(adversary.linear_sum_assignment(L, maximize=True)[1].tolist())
    assert forward == str(adversary.map_assignment(L).forward.tolist())
