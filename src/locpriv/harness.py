"""Experiment orchestration: configs, sweeps, traces, audits.

Everything is a pure function of (config, master seed). Each trial draws
from its own substream seeded by a stable 64-bit hash of (master seed,
cell index, trial index), so no result depends on the order in which
trials run, and rerunning a sweep reproduces the output CSV byte for
byte. Sweeps run their trials serially on the calling thread.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import adversary, proofcheck
from .anonymization import (
    ObservationSchedule,
    schedule_observations,
    threshold_exponent,
)
from .markov import MarkovModel, MobilityGraph, load_graph_csv
from .metrics import (
    _naming,
    attack,
    deanonymization_accuracy,
    entropy,
    run_trials,
    score_trial,
)
from .mobility import IidModel, Population, ProfileDensity, _readonly

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultRow",
    "TraceDataset",
    "audit",
    "check_seed",
    "ingest_traces",
    "load_config",
    "load_graph",
    "parse_config",
    "run_lemma_battery",
    "run_sweep",
    "substream_seed",
    "write_results_csv",
]

# Reserved trial index for per-cell draws (user 1's profile).
_CELL_DRAW = 2**64 - 1

# Critical-set width exponent used by the sweep "weights" metric
# (eps = m^-(1/2 + phi), the proofcheck default).
SWEEP_WEIGHT_PHI = 0.1

# Largest i.i.d. location count r a config or an audit accepts: every
# profile holds r-entry arrays, and every trial an (n, r) count table.
MAX_IID_LOCATIONS = 10_000

_METRIC_CHOICES = ("mi", "accuracy", "weights")
_MODEL_CHOICES = ("iid2", "iidr", "markov")


class ConfigError(ValueError):
    """Invalid configuration or input file; maps to CLI exit code 2."""


def substream_seed(*parts: int) -> int:
    """Stable 64-bit stream seed from integer coordinates.

    SHA-256 over the domain tag and the 8-byte big-endian parts; the
    first 8 digest bytes are the seed. Stable across platforms and
    releases, so published (seed, cell, trial) triplets stay replayable.
    """
    h = hashlib.sha256()
    h.update(b"locpriv-v1")
    for p in parts:
        h.update((int(p) % 2**64).to_bytes(8, "big"))
    return int.from_bytes(h.digest()[:8], "big")


def _digest(payload: dict) -> str:
    """An experiment id: the first 12 hex digits of the SHA-256 of the
    payload as key-sorted JSON."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentConfig:
    model_name: str
    model: object  # IidModel | MarkovModel
    density: ProfileDensity | None
    n_grid: tuple
    schedule: ObservationSchedule
    trials: int
    k: object  # int or "last"
    metrics: tuple
    seed: int
    out_path: str

    def experiment_id(self) -> str:
        graph = self.model.graph if self.model_name == "markov" else None
        payload = {
            "model": self.model_name,
            "r": self.model.r,
            # The graph's content, not its file's path, so the id does not
            # depend on where the checkout lives. The key name and the None
            # for iid keep published iid ids unchanged.
            "graph_path": None
            if graph is None
            else {
                "edges": [list(e) for e in graph.edges],
                "free_edges": [list(e) for e in graph.free_edges],
            },
            "density": None
            if self.density is None
            else {
                "kind": self.density.kind,
                "bump_weight": self.density.bump_weight,
                "bump_alpha": self.density.bump_alpha,
            },
            "n_grid": list(self.n_grid),
            "schedule": {"c": self.schedule.c, "beta": self.schedule.beta},
            "trials": self.trials,
            "k": self.k,
            "metrics": list(self.metrics),
            "seed": self.seed,
        }
        return _digest(payload)


def _require_keys(obj: dict, allowed: set[str], context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def _number(value, what: str) -> float:
    """A finite JSON number, as a float: "1.5", true, NaN, Infinity and
    integers beyond float range are not (NaN fails every comparison)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _count(value, what: str, low: int) -> int:
    """A JSON integer >= low, taken as is: 3.9, "3" and true are not counts."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


def _locations(value) -> int:
    """An i.i.d. location count r: a JSON integer in 2..MAX_IID_LOCATIONS."""
    r = _count(value, "r", 2)
    if r > MAX_IID_LOCATIONS:
        raise ConfigError(f"r must be at most {MAX_IID_LOCATIONS}, got {r}")
    return r


def check_seed(value) -> int:
    """A master seed: an integer in [0, 2^64), the range substream_seed
    hashes without wrapping, so no two seeds replay the same streams."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**64:
        raise ConfigError(f"seed must be an integer in [0, 2^64), got {value!r}")
    return value


def _parse_density(spec: dict | None, r: int) -> ProfileDensity:
    if spec is None:
        spec = {"kind": "uniform-simplex"}
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("density must be an object with a 'kind' key")
    _require_keys(spec, {"kind", "bump_weight", "bump_alpha"}, "density")
    if spec["kind"] == "uniform-simplex" and len(spec) > 1:
        raise ConfigError("uniform-simplex takes no bump_weight or bump_alpha")
    try:
        return ProfileDensity(
            kind=spec["kind"],
            r=r,
            bump_weight=_number(spec.get("bump_weight", 0.5), "bump_weight"),
            bump_alpha=_number(spec.get("bump_alpha", 2.0), "bump_alpha"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(raw: dict, base_dir: str = ".") -> ExperimentConfig:
    """Validate a config document; unknown keys are rejected outright."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(
        raw,
        {
            "model",
            "r",
            "graph_path",
            "density",
            "n_grid",
            "schedule",
            "trials",
            "k",
            "metrics",
            "seed",
            "out_path",
        },
        "config",
    )
    model_name = raw.get("model")
    if model_name not in _MODEL_CHOICES:
        raise ConfigError(f"model must be one of {_MODEL_CHOICES}")

    graph_path = raw.get("graph_path")
    density = None
    if model_name == "markov":
        if not graph_path or not isinstance(graph_path, str):
            raise ConfigError("markov model requires graph_path, a nonempty string")
        if not os.path.isabs(graph_path):
            graph_path = os.path.join(base_dir, graph_path)
        graph = load_graph(graph_path)
        if graph.d < 1:
            raise ConfigError("markov sweeps need a graph with d = |E| - r >= 1")
        if "r" in raw and _count(raw["r"], "r", 1) != graph.r:
            raise ConfigError(f"config r={raw['r']} != graph r={graph.r}")
        dspec = raw.get("density")
        if dspec is not None and _parse_density(dspec, graph.r).kind != "uniform-simplex":
            raise ConfigError("markov model supports only the uniform-simplex prior")
        model: object = MarkovModel(graph=graph)
    else:
        if graph_path is not None:
            raise ConfigError("graph_path is only meaningful for the markov model")
        if model_name == "iid2":
            r = _count(raw.get("r", 2), "r", 2)
            if r != 2:
                raise ConfigError("iid2 fixes r = 2")
        else:
            if "r" not in raw:
                raise ConfigError("iidr requires r")
            r = _locations(raw["r"])
        model = IidModel(r=r)
        density = _parse_density(raw.get("density"), r)

    n_grid = raw.get("n_grid")
    if not isinstance(n_grid, list) or not n_grid:
        raise ConfigError("n_grid must be a nonempty list")
    for n in n_grid:
        _count(n, "n_grid entry", 1)
    if sorted(n_grid) != n_grid:
        raise ConfigError("n_grid must be ascending")

    sched_raw = raw.get("schedule")
    if not isinstance(sched_raw, dict):
        raise ConfigError("schedule must be an object")
    _require_keys(sched_raw, {"c", "beta", "alpha"}, "schedule")
    if "c" not in sched_raw or ("beta" in sched_raw) == ("alpha" in sched_raw):
        raise ConfigError("schedule needs c and exactly one of beta or alpha")
    c = _number(sched_raw["c"], "schedule c")
    if "beta" in sched_raw:
        beta = _number(sched_raw["beta"], "schedule beta")
    else:
        alpha = _number(sched_raw["alpha"], "schedule alpha")
        beta = threshold_exponent(model) - alpha
        if beta <= 0:
            raise ConfigError("alpha too large: derived beta must be positive")
    try:
        schedule = ObservationSchedule(c=c, beta=beta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # Every cell's m, so that no sweep fails sizing its m x n trajectories.
    ms = []
    for n in n_grid:
        where = f"schedule c={c}, beta={beta} at n={n}"
        try:
            m = schedule_observations(n, schedule)
        except OverflowError:
            raise ConfigError(f"{where}: c * n^beta is not finite") from None
        if m * n > np.iinfo(np.intp).max:
            raise ConfigError(f"{where}: m * n = {m * n} exceeds numpy's size limit")
        ms.append(m)

    trials = _count(raw.get("trials"), "trials", 1)

    k = raw.get("k", "last")
    if k != "last":
        _count(k, "k (a time index, or 'last')", 1)
        if k > min(ms):
            raise ConfigError(f"k={k} exceeds the smallest cell's m={min(ms)}")

    metrics = raw.get("metrics")
    if (
        not isinstance(metrics, list)
        or not metrics
        or any(met not in _METRIC_CHOICES for met in metrics)
        or len(set(metrics)) != len(metrics)
    ):
        raise ConfigError(f"metrics must be a nonempty subset of {_METRIC_CHOICES}")
    if "weights" in metrics and model_name != "iid2":
        raise ConfigError("the weights metric is defined for the iid2 model only")
    metrics = tuple(met for met in _METRIC_CHOICES if met in metrics)

    seed = check_seed(raw.get("seed"))

    out_path = raw.get("out_path", "results.csv")
    if not isinstance(out_path, str) or not out_path:
        raise ConfigError("out_path must be a nonempty string")

    return ExperimentConfig(
        model_name=model_name,
        model=model,
        density=density,
        n_grid=tuple(n_grid),
        schedule=schedule,
        trials=trials,
        k=k,
        metrics=metrics,
        seed=seed,
        out_path=out_path,
    )


def load_graph(path: str) -> MobilityGraph:
    """``markov.load_graph_csv``, failing with ConfigError("graph file: ...")."""
    try:
        return load_graph_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"graph file: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


@dataclass(frozen=True)
class ResultRow:
    experiment_id: str
    model: str
    n: int
    m: int
    beta: float
    trial: int  # -1 flags per-cell aggregates
    metric: str
    value: float
    std_error: float | None
    seed: int

    def to_csv_fields(self) -> list[str]:
        return [
            self.experiment_id,
            self.model,
            str(self.n),
            str(self.m),
            _fmt(self.beta),
            str(self.trial),
            self.metric,
            _fmt(self.value),
            "" if self.std_error is None else _fmt(self.std_error),
            str(self.seed),
        ]


RESULT_HEADER = ",".join(f.name for f in fields(ResultRow))


def _fmt(x: float) -> str:
    # 17 significant digits: enough for exact float round-trips.
    return format(float(x), ".17g")


def write_results_csv(rows, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(RESULT_HEADER + "\n")
        for row in rows:
            fh.write(",".join(row.to_csv_fields()) + "\n")


def run_sweep(config: ExperimentConfig, threads: int = 1) -> list[ResultRow]:
    """Execute the full grid; rows come back in deterministic
    (cell, trial, metric) order with per-cell aggregates (trial = -1) last.

    Trials run one after another on the calling thread. `threads` is
    accepted and validated (>= 1) for compatibility and has no effect.
    A ValueError inside a trial is re-raised as the same type, chained,
    with the cell, n, m, trial and seed appended to its message.
    """
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    exp_id, seed = config.experiment_id(), config.seed
    model = config.model
    sampler = model.profile_sampler(config.density)
    rows: list[ResultRow] = []
    for cell, n in enumerate(config.n_grid):
        m = schedule_observations(n, config.schedule)
        k_eff = m if config.k == "last" else int(config.k)
        cell_rng = np.random.default_rng(
            substream_seed(seed, cell, _CELL_DRAW)
        )
        profile1 = sampler(cell_rng)
        # The metrics this cell computes: those on the exact posterior (mi,
        # weights) only up to the feasibility bound, MAP (accuracy) at any
        # n. A cell that computes none runs no trials.
        active = tuple(
            met
            for met in config.metrics
            if met == "accuracy" or n <= adversary.PERMANENT_FEASIBILITY_BOUND
        )
        cell_trials = config.trials if active else 0
        h_marginal = entropy(model.marginal(profile1, k_eff)) if "mi" in active else 0.0
        eps = float(m) ** -(0.5 + SWEEP_WEIGHT_PHI)

        def draw(rng):
            laws = np.stack([profile1] + [sampler(rng) for _ in range(n - 1)])
            laws.flags.writeable = False
            crowd = None
            if "weights" in active:
                crowd = proofcheck.crowd(laws[:, 1], eps)
            return laws, crowd

        seeds = [substream_seed(seed, cell, t) for t in range(cell_trials)]
        named = (
            (np.random.default_rng(s), f"cell {cell}, n={n}, m={m}, trial {t}, seed {s}")
            for t, s in enumerate(seeds)
        )
        scores = run_trials(model, m, named, draw, active, k=k_eff, h_marginal=h_marginal)
        # The cell's (trial, metric, value, std_error, seed) records in row
        # order, and per-metric values for the aggregates, filled in the
        # CSV's metric order; a degenerate weight deviation is None.
        records = []
        values: dict[str, list] = {}
        for t, (trial_seed, out) in enumerate(zip(seeds, scores)):
            for metric, value in out.items():
                values.setdefault(metric, []).append(value)
                if value is not None:
                    records.append((t, metric, value, None, trial_seed))

        for met in config.metrics:
            if met not in active:
                records.append((-1, f"{met}_skipped", 1.0, None, seed))
        for metric, vals in values.items():
            if metric == "weight_max_dev":
                res = proofcheck.WeightUniformityResult.from_trials(vals)
                if res.median is not None:
                    records.append((-1, metric, res.median, None, seed))
                degenerate = float(res.degenerate_trials)
                records.append((-1, "weight_degenerate_count", degenerate, None, seed))
                continue
            mean = float(np.mean(vals))
            if metric != "mi":  # a hit rate: binomial standard error
                se = math.sqrt(mean * (1.0 - mean) / len(vals))
            elif len(vals) > 1:
                se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
            else:
                se = None
            records.append((-1, metric, mean, se, seed))
        beta = config.schedule.beta
        rows.extend(ResultRow(exp_id, config.model_name, n, m, beta, *r) for r in records)
    return rows


# ---------------------------------------------------------------------------
# Trace ingestion and audit


@dataclass(frozen=True)
class TraceDataset:
    """Real traces: per-user time-ordered read-only int64 state arrays."""

    user_ids: tuple
    trajectories: tuple
    label_map: dict


def ingest_traces(
    path: str,
    model_kind: str,
    *,
    r: int | None = None,
    graph: MobilityGraph | None = None,
) -> tuple[TraceDataset, Population]:
    """Read `user_id,time,location` rows and fit add-one smoothed profiles.

    For the iid model locations are arbitrary string labels, numbered from
    0 user by user: users in order of first appearance, each user's labels
    in time order. For the markov model they must be the graph's 1-based
    integer state labels, and r is the graph's. Per-user times must be
    strictly increasing in file order. Blank lines are skipped and extra
    columns ignored; a bad row's error names its line, and an error found
    after reading names the user. The file is read as UTF-8, with or
    without a byte-order mark.
    """
    if model_kind not in ("iid", "markov"):
        raise ConfigError("model must be iid or markov")
    if model_kind == "markov" and graph is None:
        raise ConfigError("markov traces need a graph")
    if model_kind == "markov" and r is not None:
        raise ConfigError("r is only meaningful for the iid model")
    if model_kind == "iid" and graph is not None:
        raise ConfigError("a graph is only meaningful for the markov model")
    if r is not None:
        _locations(r)
    per_user: dict[str, list[str]] = {}  # user -> locations in time order
    last_time: dict[str, int] = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            if [f.strip() for f in next(reader, [])] != ["user_id", "time", "location"]:
                raise ConfigError("trace file must have header 'user_id,time,location'")

            def bad(what: str) -> ConfigError:
                return ConfigError(f"{what} on line {reader.line_num} of the trace file")

            for row in reader:
                if not row:  # blank line
                    continue
                uid = row[0]
                try:
                    t = int(row[1])
                except IndexError:
                    raise bad("non-integer time: none given") from None
                except ValueError:
                    raise bad(f"non-integer time {row[1]!r}") from None
                if len(row) < 3 or row[2] == "":
                    raise bad("missing location")
                if uid in last_time:
                    if t <= last_time[uid]:
                        raise bad(
                            f"times for user {uid!r} must be strictly increasing "
                            f"({t} after {last_time[uid]})"
                        )
                    per_user[uid].append(row[2])
                else:
                    per_user[uid] = [row[2]]
                last_time[uid] = t
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read traces: {exc}") from exc
    if not per_user:
        raise ConfigError("trace file has no rows")

    # Errors past this point name the user whose trace caused them.
    label_map: dict[str, int] = {}
    for uid, seq in per_user.items():
        for loc in seq:
            if loc in label_map:
                continue
            if model_kind == "iid":
                label_map[loc] = len(label_map)
                continue
            try:
                state = int(loc) - 1
            except ValueError:
                raise ConfigError(
                    f"user {uid!r}: markov traces need 1-based integer state "
                    f"labels, got {loc!r}"
                ) from None
            if not 0 <= state < graph.r:
                raise ConfigError(f"user {uid!r}: state label {loc!r} outside 1..{graph.r}")
            label_map[loc] = state

    if model_kind == "markov":
        model: object = MarkovModel(graph=graph)
    else:
        r_eff = r if r is not None else max(2, len(label_map))
        if r_eff < max(2, len(label_map)):
            raise ConfigError(
                f"r={r_eff} too small for {len(label_map)} distinct locations"
            )
        model = IidModel(r=r_eff)
    trajectories = tuple(
        _readonly([label_map[loc] for loc in seq], np.int64)
        for seq in per_user.values()
    )
    profiles = []
    for uid, traj in zip(per_user, trajectories):
        try:
            profiles.append(model.fit_profile(traj))
        except ValueError as exc:
            raise ConfigError(f"user {uid!r}: {exc}") from exc
    dataset = TraceDataset(
        user_ids=tuple(per_user),
        trajectories=trajectories,
        label_map=label_map,
    )
    return dataset, Population(model=model, profiles=profiles)


def audit(
    dataset: TraceDataset,
    population: Population,
    n_effective: int,
    alpha_margin: float,
    trials: int = 200,
    seed: int = 0,
) -> dict:
    """Threshold recommendation plus a simulated attack on the dataset.

    Reports the observation budget m* = round(n_effective^(tau - margin))
    below which pseudonyms should rotate, and two accuracies at the
    dataset's actual observation count: a synthetic rerun where the
    adversary knows the generating (fitted) profiles exactly, and an
    attack on the real traces themselves using the fitted profiles.
    """
    try:
        margin = _number(alpha_margin, "alpha_margin")
    except ConfigError:
        margin = math.nan  # "0.1", True, NaN and inf all fail the check below
    if not margin > 0:
        raise ConfigError(
            f"alpha_margin must be positive and finite, got {alpha_margin!r}"
        )
    alpha_margin = margin
    _count(n_effective, "n_effective", 1)
    _count(trials, "trials", 1)
    check_seed(seed)
    model = population.model
    try:
        tau = threshold_exponent(model)
    except ValueError as exc:  # markov with d = 0
        raise ConfigError(str(exc)) from exc
    if alpha_margin > tau:
        raise ConfigError(
            f"alpha_margin must not exceed the threshold exponent {tau:g}, "
            f"got {alpha_margin!r}: the budget would fall below one observation"
        )
    exponent = tau - alpha_margin
    try:
        m_star = int(math.floor(float(n_effective) ** exponent + 0.5))
    except OverflowError:
        raise ConfigError(f"n_effective ** {exponent:g} overflows a float") from None

    lengths = [len(t) for t in dataset.trajectories]
    m_used = min(lengths)
    truncated = len(set(lengths)) > 1
    rng = np.random.default_rng(substream_seed(seed, 0, 0))
    with _naming(f"audit synthetic rerun, seed {seed}"):
        exact = deanonymization_accuracy(
            model, population.profiles, m_used, trials, rng
        )

    rng2 = np.random.default_rng(substream_seed(seed, 1, 0))
    truncated_trajs = [t[:m_used] for t in dataset.trajectories]
    hits = 0.0
    for t in range(trials):
        with _naming(f"audit fitted attack, trial {t}, seed {seed}"):
            trial = attack(model, population.profiles, truncated_trajs, rng2)
            hits += score_trial(model, trial, ("accuracy",))["pi1_accuracy"]

    return {
        "model": model.name,
        "r": model.r,
        "n_users": population.n,
        "n_effective": n_effective,
        "threshold_exponent": tau,
        "alpha_margin": alpha_margin,
        "recommended_max_observations": m_star,
        "observations_per_user": m_used,
        "unequal_lengths_truncated": truncated,
        "pi1_accuracy": exact,
        "pi1_accuracy_fitted_attack": hits / trials,
        "trials": trials,
        "seed": seed,
        "label_map": dict(dataset.label_map),
        "labeling_note": (
            "labels in this report and in all files are 1-based (internal "
            "state i is reported as i+1); the label_map gives "
            "file-label -> internal id"
        ),
        "d": model.d,
    }


# ---------------------------------------------------------------------------
# Lemma battery


def run_lemma_battery(
    alpha: float,
    theta: float,
    phi: float,
    m_grid,
    n_grid,
    trials: int,
    seed: int,
) -> list[ResultRow]:
    """Run the proof-machinery checks and flatten them to result rows.

    Sections: (a) the m*beta*eps = m^(theta-phi) identity per m, (b)
    crowd-size statistics per n with m = n^(2-alpha), (c) the likelihood
    ratio sweep per m over 10,000 pairs, (d) posterior flatness per n,
    with no median row where no trial formed a crowd. All rows carry
    trial = -1; n or m is 0 where it does not apply.
    """
    _count(trials, "trials", 1)
    check_seed(seed)
    for m in m_grid:
        _count(m, "m_grid entry", 1)
        # section (c) draws visit counts up to m as int64
        if m > np.iinfo(np.int64).max:
            raise ConfigError(f"m_grid entry m={m} exceeds numpy's int64 range")
    for n in n_grid:
        _count(n, "n_grid entry", 1)
        # section (b) draws n probabilities per trial
        if n > np.iinfo(np.intp).max:
            raise ConfigError(f"n_grid entry n={n} exceeds numpy's size limit")
    try:
        params = proofcheck.LemmaParams(alpha=alpha, theta=theta, phi=phi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    beta_exp = 2.0 - alpha  # positive: LemmaParams needs alpha < 2
    sched = ObservationSchedule(c=1.0, beta=beta_exp)
    payload = {
        "alpha": alpha,
        "theta": theta,
        "phi": phi,
        "m_grid": list(m_grid),
        "n_grid": list(n_grid),
        "trials": trials,
        "seed": seed,
    }
    exp_id = _digest(payload)
    rows = []  # (n, m, metric, value) per row, in CSV order

    rng = np.random.default_rng(substream_seed(seed, 2, 0))
    records = proofcheck.delta_uniformity_experiment(params, m_grid, 10_000, rng)
    for rec in records:
        gap = abs(rec.product_identity - rec.power_identity)
        rows.append((0, rec.m, "identity_product", rec.product_identity))
        rows.append((0, rec.m, "identity_power", rec.power_identity))
        rows.append((0, rec.m, "identity_gap", gap))

    for idx, n in enumerate(n_grid):
        m = schedule_observations(n, sched)
        eps = params.eps(m)
        rng = np.random.default_rng(substream_seed(seed, 1, idx))
        sizes = np.empty(trials)
        for t in range(trials):
            ps = np.empty(n)
            ps[0] = 0.5
            ps[1:] = rng.random(n - 1)
            sizes[t] = proofcheck.critical_set(ps, eps).size
        rows.append((n, m, "critical_set_mean", float(sizes.mean())))
        rows.append((n, m, "critical_set_predicted", 2.0 * n * eps))

    for rec in records:
        rows.append((0, rec.m, "delta_max_abs_log", rec.max_abs_log_delta))
        rows.append((0, rec.m, "delta_envelope", rec.envelope))

    for idx, n in enumerate(n_grid):
        m = schedule_observations(n, sched)
        if n > adversary.PERMANENT_FEASIBILITY_BOUND:
            rows.append((n, m, "weight_skipped", 1.0))
            continue
        rng = np.random.default_rng(substream_seed(seed, 3, idx))
        with _naming(f"lemma flatness check, n={n}, m={m}, seed {seed}"):
            res = proofcheck.weight_uniformity(params, n, m, trials, rng)
        if res.median is not None:
            rows.append((n, m, "weight_max_dev_median", res.median))
        rows.append((n, m, "weight_degenerate_count", float(res.degenerate_trials)))
    return [
        ResultRow(exp_id, "iid2", n, m, beta_exp, -1, metric, value, None, seed)
        for n, m, metric, value in rows
    ]
