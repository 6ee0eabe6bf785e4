"""The benchmark's workloads: input generation, the timed call, expected
layer call counts and the output check.

Each workload owns a corpus of ``corpus`` inputs, numbered 0..corpus-1.
Input ``k`` is a pure function of (workload, k), and golden outputs for
every input are stored in ``bench/golden/<workload>.json``. A run's
``--seed`` fixes the order in which the corpus is visited, so the same
seed gives the same inputs and no input repeats within a run until the
corpus is used up.

The timed call of a sweep workload is what ``locpriv sweep`` does after
interpreter start: ``load_config``, ``run_sweep``, ``write_results_csv``.
The timed call of ``audit-markov`` is what ``locpriv audit --model
markov`` does: ``load_graph_csv``, ``ingest_traces``, ``audit``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

from locpriv import harness, markov

# mi and weight_* values may move by this much (absolute) from golden:
# an exact-posterior kernel that sums in another order changes them in
# the last digits. Every other CSV field must match exactly.
FLOAT_TOLERANCE = 1e-8
FLOAT_METRICS = ("mi", "weight_max_dev")
# Posterior metrics are computed only up to this crowd size
# (adversary.PERMANENT_FEASIBILITY_BOUND at the time the goldens were made).
POSTERIOR_MAX_N = 20

GRAPH_CSV = os.path.join("configs", "three_state_graph.csv")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class SweepWorkload:
    """A generated sweep config run through harness at a given thread count."""

    def __init__(self, name, config, corpus, seed_base):
        self.name = name
        self.config = config
        self.corpus = corpus
        self.seed_base = seed_base

    def trials_per_call(self) -> int:
        return self.config["trials"] * len(self.config["n_grid"])

    def prepare(self, root, workdir, k):
        """Write input k's config; returns (config_path, results_path)."""
        out = os.path.join(workdir, f"{self.name}-{k}.csv")
        raw = dict(self.config, seed=self.seed_base + k, out_path=out)
        path = os.path.join(workdir, f"{self.name}-{k}.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        return path, out

    def setup_source(self, inp) -> str:
        """Python statements a fresh interpreter runs to be ready for trial 1."""
        return f"from locpriv import harness; harness.load_config({inp[0]!r})"

    def call(self, inp, threads: int) -> str:
        """The timed call; returns the results CSV path."""
        config = harness.load_config(inp[0])
        rows = harness.run_sweep(config, threads=threads)
        harness.write_results_csv(rows, config.out_path)
        return inp[1]

    def digest(self, output) -> dict:
        """Exact part as a sha256, float part as a list (see FLOAT_METRICS)."""
        exact = []
        floats = []
        with open(output, newline="") as fh:
            reader = csv.reader(fh)
            exact.append(",".join(next(reader)))
            for rec in reader:
                rec = list(rec)
                if rec[6] in FLOAT_METRICS:
                    for col in (7, 8):
                        if rec[col] != "":
                            floats.append(round(float(rec[col]), 10))
                            rec[col] = "~"
                exact.append(",".join(rec))
        return {"exact": _sha256("\n".join(exact)), "floats": floats}

    def check(self, output, golden: dict) -> str | None:
        got = self.digest(output)
        if got["exact"] != golden["exact"]:
            return "discrete CSV fields differ from golden"
        if len(got["floats"]) != len(golden["floats"]):
            return "number of float fields differs from golden"
        worst = max(
            (abs(a - b) for a, b in zip(got["floats"], golden["floats"])),
            default=0.0,
        )
        if not worst <= FLOAT_TOLERANCE:
            return f"float field off golden by {worst:.3e} > {FLOAT_TOLERANCE:g}"
        return None

    def expected_calls(self) -> dict:
        """Calls of each traced entry point one timed call must make."""
        cfg = self.config
        T = cfg["trials"]
        grid = cfg["n_grid"]
        mets = cfg["metrics"]
        posterior_cells = [
            n for n in grid
            if n <= POSTERIOR_MAX_N and ("mi" in mets or "weights" in mets)
        ]
        mi_cells = [n for n in grid if n <= POSTERIOR_MAX_N and "mi" in mets]
        weight_cells = [n for n in grid if n <= POSTERIOR_MAX_N and "weights" in mets]
        return {
            "harness.load_config": 1,
            "harness.parse_config": 1,
            "harness.run_sweep": 1,
            "harness.write_results_csv": 1,
            "mobility.sample_profile": sum(1 + (n - 1) * T for n in grid),
            "mobility.sample_trajectory_iid": sum(n * T for n in grid),
            "markov.sample_trajectory_markov": 0,
            "anonymization.sample_permutation": T * len(grid),
            "anonymization.anonymize": T * len(grid),
            "adversary.count_stats": T * len(grid),
            "adversary.likelihood_matrix_iid": T * len(grid),
            "adversary.transition_stats": 0,
            "adversary.posterior_pi1": T * len(posterior_cells),
            "adversary.map_assignment": T * len(grid) if "accuracy" in mets else 0,
            "metrics.simulate_attack_trial": T * len(grid),
            "metrics.conditional_location_distribution": T * len(mi_cells),
            "metrics.entropy": (T + 1) * len(mi_cells),
            "proofcheck.critical_set": T * len(weight_cells),
        }


class AuditWorkload:
    """Synthetic Markov traces written as CSV, then ingest + audit."""

    REPORT_KEYS = (
        "n_users",
        "observations_per_user",
        "recommended_max_observations",
        "pi1_accuracy",
        "pi1_accuracy_fitted_attack",
        "trials",
        "seed",
    )

    def __init__(self, name, users, observations, trials, n_effective,
                 alpha_margin, corpus, seed_base):
        self.name = name
        self.users = users
        self.observations = observations
        self.trials = trials
        self.n_effective = n_effective
        self.alpha_margin = alpha_margin
        self.corpus = corpus
        self.seed_base = seed_base

    def trials_per_call(self) -> int:
        # The synthetic rerun and the attack on the fitted traces.
        return 2 * self.trials

    def prepare(self, root, workdir, k):
        """Write input k's trace CSV; returns (graph_path, trace_path, seed).

        The walks come from plain numpy, not from locpriv's samplers, so a
        change to the samplers cannot change the benchmark's input.
        """
        graph_path = os.path.join(root, GRAPH_CSV)
        with open(graph_path, newline="") as fh:
            edges = [(int(r["from"]) - 1, int(r["to"]) - 1) for r in csv.DictReader(fh)]
        r = max(max(e) for e in edges) + 1
        rng = np.random.default_rng([self.seed_base, k])
        cdfs = np.zeros((self.users, r, r))
        for u in range(self.users):
            for i in range(r):
                out = [j for a, j in edges if a == i]
                cdfs[u, i, out] = rng.dirichlet(np.ones(len(out)))
        cdfs = np.cumsum(cdfs, axis=2)
        for i in range(r):
            # From a state's last out-edge on, the cdf is exactly 1, so
            # rounding can never pick a state outside the graph.
            cdfs[:, i, max(j for a, j in edges if a == i):] = 1.0
        states = np.zeros((self.users, self.observations), dtype=np.int64)
        draws = rng.random((self.users, self.observations - 1))
        users = np.arange(self.users)
        for t in range(1, self.observations):
            rows = cdfs[users, states[:, t - 1]]
            states[:, t] = (rows <= draws[:, t - 1, None]).sum(axis=1)
        path = os.path.join(workdir, f"{self.name}-{k}.csv")
        with open(path, "w") as fh:
            fh.write("user_id,time,location\n")
            for u in range(self.users):
                for t in range(self.observations):
                    fh.write(f"u{u},{t + 1},{states[u, t] + 1}\n")
        return graph_path, path, self.seed_base + k

    def setup_source(self, inp) -> str:
        return f"from locpriv import markov; markov.load_graph_csv({inp[0]!r})"

    def call(self, inp, threads: int) -> dict:
        """The timed call; returns the audit report. audit takes no thread
        count, so a threads=2 call is the same call."""
        graph = markov.load_graph_csv(inp[0])
        dataset, population = harness.ingest_traces(inp[1], "markov", graph=graph)
        return harness.audit(
            dataset, population, self.n_effective, self.alpha_margin,
            trials=self.trials, seed=inp[2],
        )

    def digest(self, output) -> dict:
        return {key: output[key] for key in self.REPORT_KEYS}

    def check(self, output, golden: dict) -> str | None:
        got = self.digest(output)
        if got != golden:
            return f"audit report {got} differs from golden {golden}"
        return None

    def expected_calls(self) -> dict:
        U, T = self.users, self.trials
        return {
            "markov.load_graph_csv": 1,
            "harness.ingest_traces": 1,
            "harness.audit": 1,
            "markov.fit_markov_profile": U,
            "metrics.deanonymization_accuracy": 1,
            "metrics.simulate_attack_trial": T,
            "markov.sample_trajectory_markov": U * T,
            "mobility.sample_trajectory_iid": 0,
            "anonymization.sample_permutation": 2 * T,
            "anonymization.anonymize": 2 * T,
            "adversary.transition_stats": 2 * T,
            "adversary.likelihood_matrix_markov": 2 * T,
            "adversary.count_stats": 0,
            "adversary.posterior_pi1": 0,
            "adversary.map_assignment": 2 * T,
        }


# Why each workload: see BENCHMARK.json. Corpus sizes leave room for a
# several-fold speed-up before a run revisits an input.
WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "posterior-n20",
            {
                "model": "iid2",
                "density": {"kind": "uniform-simplex"},
                "n_grid": [16, 20],
                "schedule": {"c": 1.0, "beta": 1.2},
                "trials": 2,
                "k": "last",
                "metrics": ["mi", "accuracy", "weights"],
            },
            corpus=64,
            seed_base=1_000_000,
        ),
        SweepWorkload(
            "map-n64",
            {
                "model": "iid2",
                "density": {"kind": "uniform-simplex"},
                "n_grid": [64],
                "schedule": {"c": 1.0, "beta": 1.2},
                "trials": 8,
                "k": "last",
                "metrics": ["accuracy"],
            },
            corpus=64,
            seed_base=2_000_000,
        ),
        SweepWorkload(
            "small-n-trials",
            {
                "model": "iid2",
                "density": {
                    "kind": "bounded-mixture",
                    "bump_weight": 0.5,
                    "bump_alpha": 2.0,
                },
                "n_grid": [4, 8],
                "schedule": {"c": 1.0, "alpha": 0.8},
                "trials": 50,
                "k": "last",
                "metrics": ["mi", "accuracy", "weights"],
            },
            corpus=96,
            seed_base=3_000_000,
        ),
        AuditWorkload(
            "audit-markov",
            users=32,
            observations=400,
            trials=20,
            n_effective=1000,
            alpha_margin=0.166,
            corpus=48,
            seed_base=4_000_000,
        ),
    )
}


def golden_path(root: str, name: str) -> str:
    return os.path.join(root, "bench", "golden", f"{name}.json")


def load_golden(root: str, name: str) -> dict:
    with open(golden_path(root, name)) as fh:
        return json.load(fh)

