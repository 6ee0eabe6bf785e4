import hashlib
import json
import os
import threading

import numpy as np
import pytest

from helpers import (
    assert_shared_solve_matches_standalone,
    deanonymization_accuracy_mc,
    read_results_csv,
    three_state_graph,
)
from locpriv import harness, metrics
from locpriv.adversary import PERMANENT_FEASIBILITY_BOUND, posterior_pi1
from locpriv.harness import (
    ConfigError,
    audit,
    ingest_traces,
    load_config,
    parse_config,
    run_lemma_battery,
    run_sweep,
    substream_seed,
    write_results_csv,
)
from locpriv.metrics import simulate_attack_trial
from locpriv.mobility import IidModel

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


BASE_CONFIG = {
    "model": "iid2",
    "density": {"kind": "uniform-simplex"},
    "n_grid": [2, 3],
    "schedule": {"c": 1.0, "beta": 1.2},
    "trials": 4,
    "k": "last",
    "metrics": ["mi", "accuracy"],
    "seed": 77,
    "out_path": "out.csv",
}


def make_config(**overrides):
    raw = dict(BASE_CONFIG)
    raw.update(overrides)
    return parse_config(raw)


THREE_USER_TRACES = (
    "user_id,time,location\n"
    "u1,1,1\nu1,2,2\nu1,3,3\nu1,4,4\n"
    "u2,1,2\nu2,2,1\nu2,3,3\nu2,4,5\n"
    "u3,1,4\nu3,2,5\nu3,3,1\nu3,4,3\n"
)


def write_three_state_graph(tmp_path):
    path = tmp_path / "graph3.csv"
    path.write_text(
        "from,to,free\n1,1,1\n1,2,1\n1,3,0\n2,3,0\n3,1,0\n3,2,1\n"
    )
    return str(path)


def test_substream_seed_is_pinned():
    # frozen values: published (seed, cell, trial) triplets must replay
    assert substream_seed(0, 0, 0) == substream_seed(0, 0, 0)
    assert substream_seed(1, 2, 3) != substream_seed(1, 3, 2)
    assert substream_seed(99, 0, 0) == 11612277645590977239


def test_parse_config_happy_path():
    cfg = make_config()
    assert cfg.model_name == "iid2"
    assert isinstance(cfg.model, IidModel) and cfg.model.r == 2
    assert cfg.n_grid == (2, 3)
    assert cfg.metrics == ("mi", "accuracy")
    assert len(cfg.experiment_id()) == 12
    assert cfg.experiment_id() == make_config().experiment_id()


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        make_config(extra_knob=1)
    with pytest.raises(ConfigError):
        make_config(density={"kind": "uniform-simplex", "w": 2})
    with pytest.raises(ConfigError):
        make_config(schedule={"c": 1.0, "beta": 1.2, "gamma": 3})


def test_parse_config_validates_fields(tmp_path):
    with pytest.raises(ConfigError):
        make_config(model="iid9")
    with pytest.raises(ConfigError):
        make_config(n_grid=[])
    with pytest.raises(ConfigError):
        make_config(n_grid=[4, 2])
    with pytest.raises(ConfigError):
        make_config(trials=0)
    with pytest.raises(ConfigError):
        make_config(seed=-1)
    with pytest.raises(ConfigError):
        make_config(schedule={"c": 1.0})
    with pytest.raises(ConfigError):
        make_config(schedule={"c": 1.0, "beta": 1.0, "alpha": 0.5})
    with pytest.raises(ConfigError):
        make_config(metrics=[])
    with pytest.raises(ConfigError):
        make_config(metrics=["mi", "mi"])
    with pytest.raises(ConfigError):
        make_config(k=0)
    with pytest.raises(ConfigError):
        make_config(k=99)  # exceeds the smallest cell's m
    with pytest.raises(ConfigError):
        make_config(model="iidr")  # r required
    with pytest.raises(ConfigError):
        make_config(model="iid2", r=3)
    with pytest.raises(ConfigError):
        make_config(schedule={"c": "x", "beta": 1.0})
    with pytest.raises(ConfigError):
        make_config(model="iidr", r="three")
    limit = harness.MAX_IID_LOCATIONS  # every profile holds r entries
    assert make_config(model="iidr", r=limit).model == IidModel(limit)
    with pytest.raises(ConfigError, match=f"r must be at most {limit}, got {limit + 1}"):
        make_config(model="iidr", r=limit + 1)
    # counts must be JSON integers: no truncated floats, strings or booleans
    with pytest.raises(ConfigError):
        make_config(model="iidr", r=3.9)
    with pytest.raises(ConfigError):
        make_config(model="iid2", r=2.7)
    with pytest.raises(ConfigError):
        make_config(model="iidr", r="3")
    with pytest.raises(ConfigError):
        make_config(n_grid=[True])
    with pytest.raises(ConfigError):
        make_config(trials=True)
    with pytest.raises(ConfigError):
        make_config(seed=True)
    with pytest.raises(ConfigError):
        make_config(k=True)
    with pytest.raises(ConfigError):
        make_config(
            model="markov",
            graph_path=write_three_state_graph(tmp_path),
            density="flat",
        )
    # schedule and density values must be JSON numbers: no strings or booleans
    with pytest.raises(ConfigError):
        make_config(schedule={"c": "1.5", "beta": 1.2})
    with pytest.raises(ConfigError):
        make_config(schedule={"c": 1.0, "beta": True})
    with pytest.raises(ConfigError):
        make_config(schedule={"c": 1.0, "alpha": "0.8"})
    with pytest.raises(ConfigError):
        make_config(density={"kind": "bounded-mixture", "bump_alpha": "3"})
    with pytest.raises(ConfigError):
        make_config(density={"kind": "bounded-mixture", "bump_weight": "0.5"})
    # bump fields belong to the bounded mixture only
    with pytest.raises(ConfigError):
        make_config(density={"kind": "uniform-simplex", "bump_alpha": 7})
    with pytest.raises(ConfigError):
        make_config(density={"kind": "uniform-simplex", "bump_weight": 0.5})
    with pytest.raises(ConfigError):
        make_config(
            model="markov",
            graph_path=write_three_state_graph(tmp_path),
            density={"kind": "uniform-simplex", "bump_alpha": 7},
        )
    # every cell's m must be finite and small enough to index m x n states
    with pytest.raises(ConfigError, match=r"c=1e\+300, beta=5.0 at n=100: .* not finite"):
        make_config(n_grid=[100], schedule={"c": 1e300, "beta": 5})
    with pytest.raises(ConfigError, match=r"c=1.0, beta=30.0 at n=100: .* size limit"):
        make_config(n_grid=[100], schedule={"c": 1.0, "beta": 30})
    # the document, the schedule and the model's own fields
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        parse_config([BASE_CONFIG])
    with pytest.raises(ConfigError, match="schedule must be an object"):
        make_config(schedule=[1.0, 1.2])
    with pytest.raises(ConfigError, match="only meaningful for the markov model"):
        make_config(graph_path=write_three_state_graph(tmp_path))
    # a graph path that is not a string is a config error, not a crash
    for bad_path in (5, ["graph3.csv"]):
        with pytest.raises(ConfigError, match="graph_path, a nonempty string"):
            make_config(model="markov", graph_path=bad_path, density=None)
    with pytest.raises(ConfigError, match="only the uniform-simplex prior"):
        make_config(
            model="markov",
            graph_path=write_three_state_graph(tmp_path),
            density={"kind": "bounded-mixture"},
        )
    cycle = tmp_path / "cycle.csv"
    cycle.write_text("from,to,free\n1,2,auto\n2,3,auto\n3,1,auto\n")
    with pytest.raises(ConfigError, match="d = "):
        make_config(model="markov", graph_path=str(cycle), density=None)
    for schedule in ({"c": 0, "beta": 1.2}, {"c": 1.0, "beta": -0.5}):
        with pytest.raises(ConfigError, match="schedule needs c > 0 and beta > 0"):
            make_config(schedule=schedule)
    for out_path in ("", 3, None):
        with pytest.raises(ConfigError, match="out_path must be a nonempty string"):
            make_config(out_path=out_path)
    # integers are JSON numbers too
    cfg = make_config(
        schedule={"c": 1, "beta": 1},
        density={"kind": "bounded-mixture", "bump_weight": 0.5, "bump_alpha": 3},
    )
    assert cfg.schedule.c == 1.0 and cfg.density.bump_alpha == 3.0


MIXTURE = "bounded-mixture"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 10**400])
@pytest.mark.parametrize(
    "field, doc",
    [
        ("schedule c", lambda v: {"schedule": {"c": v, "beta": 1.2}}),
        ("schedule beta", lambda v: {"schedule": {"c": 1.0, "beta": v}}),
        ("schedule alpha", lambda v: {"schedule": {"c": 1.0, "alpha": v}}),
        ("bump_weight", lambda v: {"density": {"kind": MIXTURE, "bump_weight": v}}),
        ("bump_alpha", lambda v: {"density": {"kind": MIXTURE, "bump_alpha": v}}),
    ],
)
def test_parse_config_rejects_non_finite_numbers(field, doc, bad):
    # json.load reads NaN, Infinity and -Infinity, and integers of any size;
    # none of these is a config number
    with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
        make_config(**doc(bad))


@pytest.mark.parametrize(
    "name, experiment_id",
    [
        ("iid2_single_cell.json", "c34fabd09416"),
        ("iid2_sweep.json", "83d035d5fc59"),
        ("markov_sweep.json", "ce2ad79da951"),
    ],
)
def test_shipped_config_experiment_ids_pinned(name, experiment_id):
    assert load_config(os.path.join(CONFIGS, name)).experiment_id() == experiment_id


def test_parse_config_alpha_derives_beta():
    cfg = make_config(schedule={"c": 2.0, "alpha": 0.8})
    assert cfg.schedule.beta == pytest.approx(2.0 - 0.8)
    with pytest.raises(ConfigError):
        make_config(schedule={"c": 1.0, "alpha": 2.5})


def test_parse_config_markov(tmp_path):
    graph_path = write_three_state_graph(tmp_path)
    cfg = parse_config(
        dict(
            BASE_CONFIG,
            model="markov",
            graph_path=graph_path,
            density=None,
            metrics=["mi", "accuracy"],
        )
    )
    assert cfg.model.r == 3
    assert cfg.model.graph.edges == three_state_graph().edges
    with pytest.raises(ConfigError):
        parse_config(dict(BASE_CONFIG, model="markov"))
    with pytest.raises(ConfigError):
        parse_config(
            dict(BASE_CONFIG, model="markov", graph_path=graph_path, r=5)
        )
    with pytest.raises(ConfigError):
        parse_config(
            dict(
                BASE_CONFIG,
                model="markov",
                graph_path=graph_path,
                metrics=["weights"],
            )
        )


def test_markov_experiment_id_ignores_checkout_path(tmp_path):
    def experiment_id(directory, graph_text=None):
        directory.mkdir()
        write_three_state_graph(directory)
        if graph_text is not None:
            (directory / "graph3.csv").write_text(graph_text)
        raw = dict(BASE_CONFIG, model="markov", graph_path="graph3.csv", density=None)
        (directory / "cfg.json").write_text(json.dumps(raw))
        return load_config(str(directory / "cfg.json")).experiment_id()

    first = experiment_id(tmp_path / "a")
    assert experiment_id(tmp_path / "b") == first
    # same edges, another free-edge choice: another experiment
    other = "from,to,free\n1,1,0\n1,2,1\n1,3,1\n2,3,0\n3,1,0\n3,2,1\n"
    assert experiment_id(tmp_path / "c", other) != first


def test_run_sweep_row_structure():
    cfg = make_config()
    rows = run_sweep(cfg)
    per_cell = cfg.trials * 3 + 3  # mi + two accuracies, plus aggregates
    assert len(rows) == len(cfg.n_grid) * per_cell
    for cell, n in enumerate(cfg.n_grid):
        cell_rows = [r for r in rows if r.n == n]
        assert len(cell_rows) == per_cell
        trials = [r for r in cell_rows if r.trial >= 0]
        aggregates = [r for r in cell_rows if r.trial == -1]
        assert {r.metric for r in aggregates} == {
            "mi",
            "pi1_accuracy",
            "full_perm_accuracy",
        }
        for agg in aggregates:
            per_trial = [r.value for r in trials if r.metric == agg.metric]
            assert agg.value == pytest.approx(float(np.mean(per_trial)))


def test_run_sweep_deterministic_and_thread_invariant():
    cfg = make_config(metrics=["mi", "accuracy", "weights"])
    rows1 = run_sweep(cfg, threads=1)
    rows2 = run_sweep(cfg, threads=3)
    assert rows1 == rows2
    with pytest.raises(ConfigError):
        run_sweep(cfg, threads=0)


def test_run_sweep_runs_trials_on_calling_thread(monkeypatch):
    idents = []

    def recording_trial(*args, **kwargs):
        idents.append(threading.get_ident())
        return simulate_attack_trial(*args, **kwargs)

    monkeypatch.setattr(metrics, "simulate_attack_trial", recording_trial)
    cfg = make_config()
    run_sweep(cfg, threads=3)
    assert idents == [threading.get_ident()] * (len(cfg.n_grid) * cfg.trials)


def test_run_sweep_idle_cell_runs_no_trials(monkeypatch):
    # Above the posterior bound, mi and weights are skipped, so the cell
    # has nothing to compute and must not simulate anything.
    calls = []

    def recording_trial(*args, **kwargs):
        calls.append(args)
        return simulate_attack_trial(*args, **kwargs)

    monkeypatch.setattr(metrics, "simulate_attack_trial", recording_trial)
    n_big = PERMANENT_FEASIBILITY_BOUND + 44
    rows = run_sweep(make_config(n_grid=[n_big], trials=50, metrics=["mi", "weights"]))
    assert calls == []
    assert [(r.n, r.trial, r.metric, r.value) for r in rows] == [
        (n_big, -1, "mi_skipped", 1.0),
        (n_big, -1, "weights_skipped", 1.0),
    ]


def test_run_sweep_one_trial_mi_aggregate_has_no_std_error():
    # one trial has no sample standard deviation, so the field stays empty
    rows = run_sweep(make_config(n_grid=[3], trials=1, metrics=["mi"]))
    assert [(r.trial, r.metric) for r in rows] == [(0, "mi"), (-1, "mi")]
    assert rows[1].value == rows[0].value
    assert rows[1].std_error is None and rows[1].to_csv_fields()[8] == ""


def test_run_sweep_skips_infeasible_mi():
    n_big = PERMANENT_FEASIBILITY_BOUND + 2
    cfg = make_config(n_grid=[n_big], trials=2, metrics=["mi", "accuracy"])
    rows = run_sweep(cfg)
    assert not [r for r in rows if r.metric == "mi" and r.trial >= 0]
    skipped = [r for r in rows if r.metric == "mi_skipped"]
    assert len(skipped) == 1 and skipped[0].trial == -1
    assert [r for r in rows if r.metric == "pi1_accuracy" and r.trial >= 0]


def test_sweep_error_names_the_failing_trial(tmp_path, monkeypatch):
    cfg = make_config(n_grid=[3], trials=3)
    path = tmp_path / "results.csv"
    write_results_csv(run_sweep(cfg), str(path))
    seed = next(r.seed for r in read_results_csv(str(path)) if r.trial == 1)
    calls = []

    def failing_posterior(L, solved=None):
        calls.append(L)
        if len(calls) == 2:
            raise ValueError("degenerate posterior: injected")
        return posterior_pi1(L, solved=solved)

    monkeypatch.setattr(harness.adversary, "posterior_pi1", failing_posterior)
    with pytest.raises(ValueError) as info:
        run_sweep(cfg)
    assert type(info.value) is ValueError
    assert str(info.value).startswith("degenerate posterior: injected")
    assert "cell 0, n=3, m=4, trial 1" in str(info.value)
    assert f"seed {seed}" in str(info.value)
    assert str(info.value.__cause__) == "degenerate posterior: injected"


@pytest.mark.parametrize(
    "fail_at, suffix",
    [
        (2, "(trial 1) (audit synthetic rerun, seed 3)"),
        (62, "(audit fitted attack, trial 1, seed 3)"),
    ],
    ids=["synthetic", "fitted"],
)
def test_audit_error_names_the_failing_trial(monkeypatch, fail_at, suffix):
    # 60 MAP calls for the synthetic rerun, then one per fitted-attack trial
    dataset, pop = ingest_traces(os.path.join(CONFIGS, "demo_traces.csv"), "iid")
    map_assignment = harness.adversary.map_assignment
    calls = []

    def failing_map(L, solved=None, sort_keys=None):
        calls.append(L)
        if len(calls) == fail_at:
            raise ValueError("no feasible permutation: injected")
        return map_assignment(L, solved=solved, sort_keys=sort_keys)

    monkeypatch.setattr(harness.adversary, "map_assignment", failing_map)
    with pytest.raises(ValueError) as info:
        audit(dataset, pop, n_effective=100, alpha_margin=0.5, trials=60, seed=3)
    assert type(info.value) is ValueError
    assert str(info.value) == f"no feasible permutation: injected {suffix}"
    root = info.value.__cause__
    while root.__cause__ is not None:  # the synthetic rerun names its trial first
        root = root.__cause__
    assert str(root) == "no feasible permutation: injected"


def test_lemma_error_names_the_failing_check(monkeypatch):
    def failing_posterior(L, solved=None):
        raise ValueError("degenerate posterior: injected")

    monkeypatch.setattr(harness.adversary, "posterior_pi1", failing_posterior)
    with pytest.raises(ValueError) as info:
        run_lemma_battery(
            alpha=0.5,
            theta=0.05,
            phi=0.1,
            m_grid=[100],
            n_grid=[3],
            trials=12,
            seed=12,
        )
    assert type(info.value) is ValueError
    assert str(info.value) == (
        "degenerate posterior: injected (trial 1) "
        "(lemma flatness check, n=3, m=5, seed 12)"
    )
    # trial 0 forms no crowd, so it never reaches the posterior
    assert str(info.value.__cause__) == "degenerate posterior: injected (trial 1)"
    assert str(info.value.__cause__.__cause__) == "degenerate posterior: injected"


def test_results_csv_round_trip(tmp_path):
    cfg = make_config(metrics=["mi", "accuracy", "weights"], trials=3)
    rows = run_sweep(cfg)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_results_csv(rows, str(p1))
    back = read_results_csv(str(p1))
    write_results_csv(back, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert back == rows


@pytest.mark.parametrize(
    "overrides, digest",
    [
        (
            dict(model="iid2", metrics=["mi", "accuracy", "weights"]),
            "ce5e02eadf40e72093dd09a02030d0558d69238065efea3b182b4b4ad2942cec",
        ),
        (
            dict(model="iidr", r=3, metrics=["mi", "accuracy"]),
            "c92b755c658f68f5262a43fdae02d66f528a40856845324eb4022ff22c79e845",
        ),
        (
            dict(
                model="markov",
                graph_path="three_state_graph.csv",
                metrics=["mi", "accuracy"],
            ),
            "eeb67110e566c5fe0efeb73c44b7441dd5a83809c7b26b725fa4f8b80a202268",
        ),
    ],
    ids=["iid2", "iidr3", "markov"],
)
def test_sweep_csv_bytes_pinned(tmp_path, overrides, digest):
    # Frozen results: a refactor of the trial pipeline must keep every
    # byte of the results CSV, for each model.
    raw = {
        "n_grid": [3, 5],
        "schedule": {"c": 1.0, "beta": 1.2},
        "trials": 3,
        "k": "last",
        "seed": 5,
        **overrides,
    }
    path = tmp_path / "results.csv"
    write_results_csv(run_sweep(parse_config(raw, base_dir=CONFIGS)), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "name, digest",
    [
        # Re-frozen when the minors' level loop began to run over tiles of a
        # 4096-row level table: only n = 16 mi and weight_max_dev values
        # moved, by at most 1.1e-14; every discrete field is unchanged.
        (
            "iid2_sweep.json",
            "f9f0e9e04747a7d85161ed85f3313d5f333695bf49a0788f66970812bf40e569",
        ),
        (
            "markov_sweep.json",
            "d0bb2f57e802ceb73c3ef6de5aa2284db484e7cf8cd27e805ad586dd83836ac1",
        ),
        (
            "iid2_single_cell.json",
            "e096dc1e770440f7906de7b9817dcdeefffe91fdd71909ba6d1584e7eddc4f99",
        ),
    ],
)
def test_shipped_config_csv_bytes_pinned(tmp_path, name, digest):
    # The full results of the shipped configs, as the README runs them.
    path = tmp_path / "results.csv"
    write_results_csv(run_sweep(load_config(os.path.join(CONFIGS, name))), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# The shipped configs with only beta raised to 2.8, cut at the trial the
# exact posterior once failed on (see the first test below).
_privacy_lost_cases = pytest.mark.parametrize(
    "name, overrides",
    [
        ("iid2_sweep.json", {"n_grid": [4, 8], "trials": 65}),
        ("markov_sweep.json", {"trials": 1}),
    ],
    ids=["iid2", "markov"],
)


@_privacy_lost_cases
def test_shipped_config_completes_where_privacy_is_lost(name, overrides):
    # The shipped configs with only beta raised to 2.8, above the paper's
    # threshold, and cut down to the trials the exact posterior failed on
    # when it balanced from row maxima: iid2 cell 1 trial 64 (cancelled
    # minors) and markov cell 2 trial 0 (a vanished permanent).
    config = _privacy_lost_config(name, overrides)
    rows = run_sweep(config)
    mi = [r.value for r in rows if r.metric == "mi" and r.trial >= 0]
    assert len(mi) == len(config.n_grid) * config.trials
    assert all(np.isfinite(mi))


def _privacy_lost_config(name, overrides):
    with open(os.path.join(CONFIGS, name)) as f:
        raw = json.load(f)
    raw["schedule"]["beta"] = 2.8
    raw.update(overrides)
    return parse_config(raw, base_dir=CONFIGS)


@_privacy_lost_cases
def test_shared_solve_matches_standalone_where_privacy_is_lost(
    monkeypatch, name, overrides
):
    # Every trial of the two beta = 2.8 reproducers, each cut ending at the
    # trial that once failed, attacked on its one shared solve and alone.
    config = _privacy_lost_config(name, overrides)
    solve = harness.adversary.solve_assignment
    seen = []

    def recording(L):
        seen.append(L)
        return solve(L)

    monkeypatch.setattr(harness.adversary, "solve_assignment", recording)
    run_sweep(config)
    monkeypatch.undo()
    assert len(seen) == len(config.n_grid) * config.trials
    for L in seen:
        assert_shared_solve_matches_standalone(L)


def test_sweep_trial_makes_one_assignment_solve(monkeypatch):
    # mi, accuracy and weights: the posterior and MAP share one solve
    cfg = make_config(
        n_grid=[3, 4, 8], trials=6, metrics=["mi", "accuracy", "weights"]
    )
    solve = harness.adversary.linear_sum_assignment
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness.adversary, "linear_sum_assignment", counting)
    rows = run_sweep(cfg)
    assert len(calls) == 3 * 6
    assert {r.metric for r in rows} >= {"mi", "pi1_accuracy", "weight_max_dev"}


@pytest.mark.parametrize(
    "overrides, solves_per_trial",
    [
        (dict(model="iid2"), 0),
        (dict(model="iidr", r=3), 1),
        (dict(model="markov", graph_path="three_state_graph.csv", density=None), 1),
    ],
    ids=["iid2", "iidr3", "markov"],
)
def test_accuracy_only_sweep_solves_only_without_sort_keys(
    monkeypatch, overrides, solves_per_trial
):
    # Accuracy alone runs no posterior: two-state i.i.d. MAP sorts and
    # makes no assignment solve, every other model solves once per trial.
    raw = dict(BASE_CONFIG, n_grid=[3, 8, 40], trials=5, metrics=["accuracy"])
    cfg = parse_config({**raw, **overrides}, base_dir=CONFIGS)
    solve = harness.adversary.linear_sum_assignment
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness.adversary, "linear_sum_assignment", counting)
    rows = run_sweep(cfg)
    assert len(calls) == solves_per_trial * 3 * 5
    assert sum(r.metric == "pi1_accuracy" and r.trial >= 0 for r in rows) == 3 * 5


def test_ingest_traces_three_user_example(tmp_path):
    path = tmp_path / "traces.csv"
    path.write_text(THREE_USER_TRACES)
    dataset, pop = ingest_traces(str(path), "iid")
    assert len(dataset.user_ids) == 3
    assert pop.model == IidModel(5)
    counts = [np.bincount(t, minlength=5).tolist() for t in dataset.trajectories]
    assert counts == [
        [1, 1, 1, 1, 0],
        [1, 1, 1, 0, 1],
        [1, 0, 1, 1, 1],
    ]
    # smoothing 1.0: (count + 1) / (4 + 5)
    assert np.allclose(pop.profiles[0], np.array([2, 2, 2, 2, 1]) / 9)


def test_ingest_traces_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("user_id,time,location\nu1,5,home\n")
    dataset, pop = ingest_traces(str(path), "iid")
    assert pop.profiles[0].tolist() == [2 / 3, 1 / 3]


def test_ingest_traces_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("user,time,loc\nu1,1,a\n")
    with pytest.raises(ConfigError):
        ingest_traces(str(bad_header), "iid")

    unsorted = tmp_path / "u.csv"
    unsorted.write_text("user_id,time,location\nu1,2,a\nu1,1,b\n")
    with pytest.raises(ConfigError):
        ingest_traces(str(unsorted), "iid")

    duplicate = tmp_path / "d.csv"
    duplicate.write_text("user_id,time,location\nu1,1,a\nu1,1,b\n")
    with pytest.raises(ConfigError):
        ingest_traces(str(duplicate), "iid")

    bad_time = tmp_path / "t.csv"
    bad_time.write_text("user_id,time,location\nu1,noon,a\n")
    with pytest.raises(ConfigError):
        ingest_traces(str(bad_time), "iid")


@pytest.mark.parametrize(
    "body, message",
    [
        ("", "trace file must have header 'user_id,time,location'"),
        ("user,time,loc\nu1,1,a\n", "trace file must have header 'user_id,time,location'"),
        ("\nuser_id,time,location\nu1,1,a\n", "trace file must have header 'user_id,time,location'"),
        ("user_id,time,location\n", "trace file has no rows"),
        ("user_id,time,location\n\n\n", "trace file has no rows"),
        (
            "user_id,time,location\nu1\n",
            "non-integer time: none given on line 2 of the trace file",
        ),
        (
            "user_id,time,location\nu1,5\n",
            "missing location on line 2 of the trace file",
        ),
        (
            "user_id,time,location\nu1,noon,a\n",
            "non-integer time 'noon' on line 2 of the trace file",
        ),
        (
            "user_id,time,location\nu1,1.5,a,extra,more\n",
            "non-integer time '1.5' on line 2 of the trace file",
        ),
        (
            "user_id,time,location\nu1,5,\n",
            "missing location on line 2 of the trace file",
        ),
        (
            "user_id,time,location\nu1,2,a\nu1,2,b\n",
            "times for user 'u1' must be strictly increasing (2 after 2) "
            "on line 3 of the trace file",
        ),
        (
            "user_id,time,location\nu1,2,a\nu2,1,a\nu1,1,b\n",
            "times for user 'u1' must be strictly increasing (1 after 2) "
            "on line 4 of the trace file",
        ),
        # the first failing row decides, and within a row the time check
        # runs before the location check, which runs before the order check
        (
            "user_id,time,location\nu1,x,\n",
            "non-integer time 'x' on line 2 of the trace file",
        ),
        (
            "user_id,time,location\nu1,2,a\nu1,1,\n",
            "missing location on line 3 of the trace file",
        ),
        (
            "user_id,time,location\nu1,2,a\nu1,1,b\nu1,x,c\n",
            "times for user 'u1' must be strictly increasing (1 after 2) "
            "on line 3 of the trace file",
        ),
    ],
)
def test_ingest_traces_error_messages_pinned(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ConfigError) as info:
        ingest_traces(str(path), "iid")
    assert str(info.value) == message


def test_bad_rows_name_their_line(tmp_path):
    # lines count from the header as line 1, blank lines included
    graph = tmp_path / "graph.csv"
    graph.write_text("from,to,free\n1,1,auto\n\n1,x,auto\n")
    with pytest.raises(ConfigError) as info:
        harness.load_graph(str(graph))
    assert str(info.value) == (
        "graph file: from and to must be integer labels, got ['1', 'x'] on line 4"
    )
    traces = tmp_path / "t.csv"
    traces.write_text("user_id,time,location\nu1,1,a\n\nu1,2,a\nu1,3,\n")
    with pytest.raises(ConfigError) as info:
        ingest_traces(str(traces), "iid")
    assert str(info.value) == "missing location on line 5 of the trace file"


def test_ingest_traces_skips_blank_lines_and_extra_columns(tmp_path):
    # the header check strips names, so padded ones must read too
    path = tmp_path / "ok.csv"
    path.write_text("user_id, time ,location\n\nu1,1,a,note\n\nu1, 2,b\n")
    dataset, pop = ingest_traces(str(path), "iid")
    assert dataset.user_ids == ("u1",)
    assert dataset.label_map == {"a": 0, "b": 1}
    assert dataset.trajectories[0].tolist() == [0, 1]


def test_ingest_traces_numbers_iid_labels_user_by_user(tmp_path):
    # users in order of first appearance, each user's labels in time
    # order: c (u1's second label) comes before b (u2's first), although
    # b is read first
    path = tmp_path / "interleaved.csv"
    path.write_text("user_id,time,location\nu1,1,a\nu2,1,b\nu1,2,c\n")
    dataset, _ = ingest_traces(str(path), "iid")
    assert dataset.label_map == {"a": 0, "c": 1, "b": 2}
    assert [t.tolist() for t in dataset.trajectories] == [[0, 1], [2]]


def test_ingest_traces_markov_contract(tmp_path):
    graph = three_state_graph()
    ok = tmp_path / "m.csv"
    ok.write_text(
        "user_id,time,location\n"
        "u1,1,1\nu1,2,1\nu1,3,2\nu1,4,3\nu1,5,1\n"
        "u2,1,1\nu2,2,3\nu2,3,2\nu2,4,3\nu2,5,2\n"
    )
    dataset, pop = ingest_traces(str(ok), "markov", graph=graph)
    assert pop.model.graph is graph
    assert dataset.trajectories[0].tolist() == [0, 0, 1, 2, 0]

    with pytest.raises(ConfigError):
        ingest_traces(str(ok), "markov")  # graph required

    off_graph = tmp_path / "og.csv"
    off_graph.write_text("user_id,time,location\nu1,1,2\nu1,2,1\n")
    with pytest.raises(ConfigError):
        ingest_traces(str(off_graph), "markov", graph=graph)

    labels = tmp_path / "lab.csv"
    labels.write_text("user_id,time,location\nu1,1,home\nu1,2,work\n")
    with pytest.raises(ConfigError):
        ingest_traces(str(labels), "markov", graph=graph)


def test_ingest_traces_markov_rejects_r(tmp_path):
    # markov takes r from the graph; a given r would be silently ignored
    path = tmp_path / "m.csv"
    path.write_text("user_id,time,location\nu1,1,1\nu1,2,2\nu1,3,3\n")
    with pytest.raises(ConfigError, match="only meaningful for the iid model"):
        ingest_traces(str(path), "markov", r=3, graph=three_state_graph())


def test_ingest_traces_iid_rejects_graph():
    # the iid model has no graph; a given one would be silently ignored
    path = os.path.join(CONFIGS, "demo_traces.csv")
    with pytest.raises(ConfigError, match="only meaningful for the markov model"):
        ingest_traces(path, "iid", graph=three_state_graph())


def test_trace_and_config_files_may_start_with_a_byte_order_mark(tmp_path):
    # spreadsheet exports often start with one; the headers must still match
    def with_bom(name):
        path = tmp_path / name
        with open(os.path.join(CONFIGS, name), "rb") as fh:
            path.write_bytes(b"\xef\xbb\xbf" + fh.read())
        return str(path)

    plain, bom = os.path.join(CONFIGS, "demo_traces.csv"), with_bom("demo_traces.csv")
    reports = [
        audit(*ingest_traces(path, "iid"), n_effective=100, alpha_margin=0.5, trials=20)
        for path in (plain, bom)
    ]
    assert reports[0] == reports[1]
    config = load_config(with_bom("iid2_sweep.json"))
    assert config == load_config(os.path.join(CONFIGS, "iid2_sweep.json"))


@pytest.mark.parametrize("r", [6.5, 7.0, True], ids=["6.5", "7.0", "true"])
def test_ingest_traces_rejects_r_that_is_not_a_count(r):
    # the same rule parse_config applies: 7.0 is not a count, and true is
    # not r = 1 (np.bincount once raised a bare TypeError on the floats)
    path = os.path.join(CONFIGS, "demo_traces.csv")
    with pytest.raises(ConfigError, match="r must be an integer >= 2"):
        ingest_traces(path, "iid", r=r)


def test_audit_iid_thresholds(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text(
        "user_id,time,location\n"
        "u1,1,a\nu1,2,a\nu1,3,b\nu1,4,a\n"
        "u2,1,b\nu2,2,b\nu2,3,b\nu2,4,a\n"
    )
    dataset, pop = ingest_traces(str(path), "iid")
    report = audit(dataset, pop, n_effective=100, alpha_margin=0.5, trials=50)
    assert report["threshold_exponent"] == 2.0
    assert report["recommended_max_observations"] == 1000
    assert report["observations_per_user"] == 4
    assert 0.0 <= report["pi1_accuracy"] <= 1.0
    assert 0.0 <= report["pi1_accuracy_fitted_attack"] <= 1.0
    assert report["label_map"] == {"a": 0, "b": 1}


def test_audit_markov_thresholds(tmp_path):
    graph = three_state_graph()
    path = tmp_path / "m.csv"
    path.write_text(
        "user_id,time,location\n"
        "u1,1,1\nu1,2,1\nu1,3,2\nu1,4,3\nu1,5,1\n"
        "u2,1,1\nu2,2,3\nu2,3,2\nu2,4,3\nu2,5,2\n"
    )
    dataset, pop = ingest_traces(str(path), "markov", graph=graph)
    report = audit(dataset, pop, n_effective=100, alpha_margin=1 / 6, trials=40)
    assert report["threshold_exponent"] == pytest.approx(2 / 3)
    assert report["recommended_max_observations"] == 10
    assert report["d"] == 3
    assert 0.0 <= report["pi1_accuracy"] <= 1.0


def test_audit_rejects_degenerate_markov(tmp_path):
    from locpriv.markov import MobilityGraph

    cycle = MobilityGraph(r=3, edges=[(0, 1), (1, 2), (2, 0)])
    path = tmp_path / "c.csv"
    path.write_text("user_id,time,location\nu1,1,1\nu1,2,2\nu1,3,3\n")
    dataset, pop = ingest_traces(str(path), "markov", graph=cycle)
    with pytest.raises(ConfigError):
        audit(dataset, pop, n_effective=10, alpha_margin=0.1)
    with pytest.raises(ConfigError):
        audit(dataset, pop, n_effective=10, alpha_margin=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": True},
        {"trials": 2.5},
        {"trials": 0},
        {"n_effective": 2.5},
        {"n_effective": True},
        {"n_effective": 0},
    ],
    ids=["trials-true", "trials-2.5", "trials-0", "n-2.5", "n-true", "n-0"],
)
def test_audit_rejects_bad_counts(kwargs):
    # a count is a plain integer: true is not one trial, and 2.5 users or
    # trials is a configuration error, not a TypeError or an echoed value
    dataset, pop = ingest_traces(os.path.join(CONFIGS, "demo_traces.csv"), "iid")
    args = {"n_effective": 100, "alpha_margin": 0.5, "trials": 2, **kwargs}
    name = next(iter(kwargs))
    with pytest.raises(ConfigError, match=f"{name} must be an integer >= 1"):
        audit(dataset, pop, **args)


@pytest.mark.parametrize("margin", [True, "0.1"], ids=["true", "str"])
def test_audit_rejects_alpha_margin_that_is_not_a_number(margin):
    # true is not a margin of 1.0, and "0.1" is a configuration error, not
    # a bare TypeError from the comparison
    dataset, pop = ingest_traces(os.path.join(CONFIGS, "demo_traces.csv"), "iid")
    with pytest.raises(ConfigError, match="alpha_margin must be positive and finite"):
        audit(dataset, pop, n_effective=100, alpha_margin=margin, trials=2)


def test_audit_truncates_unequal_lengths(tmp_path):
    path = tmp_path / "uneq.csv"
    path.write_text(
        "user_id,time,location\n"
        "u1,1,a\nu1,2,b\nu1,3,a\n"
        "u2,1,b\nu2,2,a\n"
    )
    dataset, pop = ingest_traces(str(path), "iid")
    report = audit(dataset, pop, n_effective=10, alpha_margin=0.5, trials=10)
    assert report["observations_per_user"] == 2
    assert report["unequal_lengths_truncated"] is True


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, n_grid=[2])))
    cfg = load_config(str(path))
    assert cfg.n_grid == (2,)
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_lemma_battery_rows():
    rows = run_lemma_battery(
        alpha=1.0,
        theta=0.05,
        phi=0.1,
        m_grid=[100, 1000],
        n_grid=[3, 4],
        trials=5,
        seed=11,
    )
    metrics = {r.metric for r in rows}
    assert {
        "identity_product",
        "identity_power",
        "identity_gap",
        "critical_set_mean",
        "critical_set_predicted",
        "delta_max_abs_log",
        "delta_envelope",
        "weight_max_dev_median",
        "weight_degenerate_count",
    } <= metrics
    for r in rows:
        if r.metric == "identity_gap":
            assert r.value <= 1e-12
    delta_max = {r.m: r.value for r in rows if r.metric == "delta_max_abs_log"}
    envelope = {r.m: r.value for r in rows if r.metric == "delta_envelope"}
    assert set(delta_max) == set(envelope) == {100, 1000}
    for m, value in delta_max.items():
        assert value <= envelope[m]
    again = run_lemma_battery(
        alpha=1.0,
        theta=0.05,
        phi=0.1,
        m_grid=[100, 1000],
        n_grid=[3, 4],
        trials=5,
        seed=11,
    )
    assert rows == again
    with pytest.raises(ConfigError):
        run_lemma_battery(1.0, 0.6, 0.8, [100], [4], 5, 0)


def test_sweep_and_lemma_agree_on_a_lone_user():
    # a lone user's crowd is itself: W = [1], so the deviation is exactly 0
    # in both the sweep's weights metric and the lemma battery's check
    rows = run_sweep(make_config(n_grid=[1], trials=3, metrics=["weights"]))
    sweep = {r.metric: r.value for r in rows if r.trial == -1}
    lemma_rows = run_lemma_battery(1.0, 0.05, 0.1, [100], [1], 3, 5)
    lemma = {r.metric: r.value for r in lemma_rows if r.n == 1}
    assert sweep["weight_max_dev"] == lemma["weight_max_dev_median"] == 0.0
    assert sweep["weight_degenerate_count"] == lemma["weight_degenerate_count"] == 0.0


def test_sweep_and_lemma_agree_when_no_crowd_forms():
    # both entry points count a trial without a crowd as degenerate and
    # leave the median row out when no trial formed one
    schedule = {"c": 1.0, "beta": 10.0}
    rows = run_sweep(
        make_config(n_grid=[2], schedule=schedule, trials=3, metrics=["weights"])
    )
    assert [(r.trial, r.metric, r.value) for r in rows] == [
        (-1, "weight_degenerate_count", 3.0)
    ]
    lemma_rows = run_lemma_battery(0.5, 0.05, 0.1, [100], [10], 1, 14)
    weight_rows = [r for r in lemma_rows if r.metric.startswith("weight")]
    assert [(r.n, r.metric, r.value) for r in weight_rows] == [
        (10, "weight_degenerate_count", 1.0)
    ]


def test_lemma_skips_weights_above_posterior_bound():
    n_big = PERMANENT_FEASIBILITY_BOUND + 1
    rows = run_lemma_battery(1.0, 0.05, 0.1, [100], [n_big], 1, 3)
    weight_rows = [r for r in rows if r.metric.startswith("weight")]
    assert [(r.n, r.metric, r.value) for r in weight_rows] == [
        (n_big, "weight_skipped", 1.0)
    ]


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, True])
def test_seed_outside_range_is_a_config_error(tmp_path, seed):
    # substream_seed reduces seeds modulo 2^64, so 2^64 + 1 would replay
    # seed 1's streams under another experiment id; every entry point
    # that takes a master seed rejects it
    with pytest.raises(ConfigError, match=r"seed must be an integer in \[0, 2\^64\)"):
        make_config(seed=seed)
    with pytest.raises(ConfigError, match="seed must be"):
        run_lemma_battery(1.0, 0.05, 0.1, [100], [3], 1, seed)
    path = tmp_path / "two.csv"
    path.write_text("user_id,time,location\nu1,1,a\nu1,2,b\nu2,1,b\nu2,2,a\n")
    dataset, pop = ingest_traces(str(path), "iid")
    with pytest.raises(ConfigError, match="seed must be"):
        audit(dataset, pop, n_effective=10, alpha_margin=0.5, trials=1, seed=seed)


def test_lemma_weight_rows_pinned():
    # Re-frozen when the posterior's balance began from the assignment's LP
    # duals: the posterior-flatness rows must replay bit for bit across
    # refactors.
    rows = run_lemma_battery(
        alpha=0.5,
        theta=0.05,
        phi=0.1,
        m_grid=[100],
        n_grid=[2, 3, 6],
        trials=12,
        seed=12,
    )
    got = [
        (r.n, r.m, r.metric, r.value)
        for r in rows
        if r.metric in ("weight_max_dev_median", "weight_degenerate_count")
    ]
    assert got == [
        (2, 3, "weight_max_dev_median", 0.09296584884879017),
        (2, 3, "weight_degenerate_count", 0.0),
        (3, 5, "weight_max_dev_median", 0.31681286666713626),
        (3, 5, "weight_degenerate_count", 1.0),
        (6, 15, "weight_max_dev_median", 0.7081071588048947),
        (6, 15, "weight_degenerate_count", 3.0),
    ]


def test_lemma_battery_csv_bytes_pinned(tmp_path):
    # The whole battery as written: all four sections, an n above the
    # posterior's feasibility bound (a weight_skipped row) and, at seed
    # 322, an n = 10 where neither trial forms a crowd (no median row).
    assert 21 > PERMANENT_FEASIBILITY_BOUND
    rows = run_lemma_battery(
        alpha=0.5,
        theta=0.05,
        phi=0.1,
        m_grid=[100, 1000],
        n_grid=[3, 10, 21],
        trials=2,
        seed=322,
    )
    weight_rows = [(r.n, r.metric) for r in rows if r.metric.startswith("weight_")]
    assert weight_rows == [
        (3, "weight_max_dev_median"),
        (3, "weight_degenerate_count"),
        (10, "weight_degenerate_count"),
        (21, "weight_skipped"),
    ]
    path = tmp_path / "lemma.csv"
    write_results_csv(rows, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "ecf1004ed0608921ed6a799e212f7ac8d1ad2ea42b78e05e650740fc212f5dc7"
    )


def test_audit_iid_demo_report_pinned():
    dataset, pop = ingest_traces(os.path.join(CONFIGS, "demo_traces.csv"), "iid")
    report = audit(dataset, pop, n_effective=100, alpha_margin=0.5, trials=60, seed=3)
    assert report == {
        "model": "iid",
        "r": 5,
        "n_users": 3,
        "n_effective": 100,
        "threshold_exponent": 0.5,
        "alpha_margin": 0.5,
        "recommended_max_observations": 1,
        "observations_per_user": 4,
        "unequal_lengths_truncated": False,
        "pi1_accuracy": 0.5,
        "pi1_accuracy_fitted_attack": 1.0,
        "trials": 60,
        "seed": 3,
        "label_map": {"1": 0, "2": 1, "3": 2, "4": 3, "5": 4},
        "labeling_note": (
            "labels in this report and in all files are 1-based (internal "
            "state i is reported as i+1); the label_map gives "
            "file-label -> internal id"
        ),
        "d": 4,
    }


def test_audit_synthetic_rerun_pinned():
    # The synthetic rerun is the fixed-profile accuracy estimate on the
    # fitted profiles, from the audit's first substream.
    dataset, pop = ingest_traces(os.path.join(CONFIGS, "demo_traces.csv"), "iid")
    report = audit(dataset, pop, n_effective=100, alpha_margin=0.5, trials=200, seed=34)
    rng = np.random.default_rng(substream_seed(34, 0, 0))
    acc = deanonymization_accuracy_mc(
        pop.model, pop.n, report["observations_per_user"], 200, rng,
        profiles=pop.profiles,
    )
    assert report["pi1_accuracy"] == acc.pi1_accuracy
    assert report["pi1_accuracy"].hex() == "0x1.23d70a3d70a3dp-1"
