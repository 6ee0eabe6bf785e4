import hashlib
import json
import os

import pytest

from locpriv import metrics
from locpriv.cli import main
from locpriv.harness import MAX_IID_LOCATIONS
from locpriv.markov import MAX_MARKOV_STATES

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


BASE = {
    "model": "iid2",
    "density": {"kind": "uniform-simplex"},
    "n_grid": [3],
    "schedule": {"c": 1.0, "beta": 1.2},
    "trials": 4,
    "k": "last",
    "metrics": ["mi", "accuracy"],
    "seed": 5,
    "out_path": "results.csv",
}


def write_config(tmp_path, name="cfg.json", **overrides):
    raw = dict(BASE)
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_simulate_success(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out


def test_simulate_rejects_multi_cell(tmp_path, capsys):
    cfg = write_config(tmp_path, n_grid=[2, 4])
    assert main(["simulate", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_deterministic_across_threads(tmp_path):
    # sweeps run serially: two runs of one config write the same bytes
    cfg = write_config(tmp_path, n_grid=[2, 4], metrics=["mi", "accuracy", "weights"])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    a, b, c = (tmp_path / f"{x}.csv" for x in "abc")
    assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(b), "--seed", "5"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(c), "--seed", "6"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_config_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["sweep", "--config", missing]) == 2
    cfg = write_config(tmp_path, name="bad.json", bogus_key=1)
    assert main(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") >= 1 and "config error" in err
    # a schedule whose m is not finite, or too large for m x n states
    for beta, c in ((5.0, 1e300), (30.0, 1.0)):
        schedule = {"c": c, "beta": beta}
        cfg = write_config(tmp_path, name="huge.json", n_grid=[100], schedule=schedule)
        assert main(["sweep", "--config", cfg]) == 2
        assert f"config error: schedule c={c}, beta={beta} at n=100" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep", "lemma", "audit"])
def test_empty_out_exits_2_before_running(tmp_path, capsys, monkeypatch, command):
    ran = []
    for work in ("run_sweep", "run_lemma_battery", "load_graph", "ingest_traces"):
        monkeypatch.setattr(f"locpriv.cli.{work}", lambda *a, **k: ran.append(1))
    args = {
        "simulate": ["--config", write_config(tmp_path)],
        "sweep": ["--config", write_config(tmp_path)],
        "lemma": ["--alpha", "1.0", "--theta", "0.05", "--phi", "0.1",
                  "--m-grid", "100", "--n-grid", "3", "--trials", "5", "--seed", "9"],
        "audit": ["--traces", "traces.csv", "--model", "markov", "--graph", "graph.csv",
                  "--n", "100", "--alpha-margin", "0.5"],
    }[command]
    assert main([command, *args, "--out", ""]) == 2
    assert not ran
    assert "config error: --out must be a nonempty path" in capsys.readouterr().err


def test_runtime_errors_exit_1(tmp_path):
    # an existing directory as the output file: writing it fails at run time
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_runtime_error_without_message_names_its_type(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("locpriv.cli.run_sweep", fail)
    assert main(["sweep", "--config", write_config(tmp_path)]) == 1
    assert "locpriv: error: MemoryError\n" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "sweep-config-out", "lemma", "audit"])
def test_out_in_missing_directory_exits_2_before_any_trial(
    tmp_path, capsys, monkeypatch, command
):
    trials = []
    simulate = metrics.simulate_attack_trial

    def counting(*args, **kwargs):
        trials.append(1)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(metrics, "simulate_attack_trial", counting)
    missing = tmp_path / "no_such_dir"
    out = ["--out", str(missing / "x.csv")]
    argv = {
        "sweep": ["sweep", "--config", write_config(tmp_path), *out],
        "sweep-config-out": [
            "sweep", "--config", write_config(tmp_path, out_path=str(missing / "x.csv"))
        ],
        "lemma": ["lemma", "--alpha", "1.0", "--theta", "0.05", "--phi", "0.1",
                  "--m-grid", "100", "--n-grid", "3", "--trials", "5", "--seed", "9",
                  *out],
        "audit": ["audit", "--traces", os.path.join(CONFIGS, "demo_traces.csv"),
                  "--model", "iid", "--n", "100", "--alpha-margin", "0.1", *out],
    }[command]
    assert main(argv) == 2
    assert f"config error: output directory {str(missing)!r} does not exist" in (
        capsys.readouterr().err
    )
    assert trials == [] and not missing.exists()


def test_argparse_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # --config is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["lemma", "--alpha", "1.0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # sweeps run serially
        main(["sweep", "--config", write_config(tmp_path), "--threads", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64 + 1)])
def test_seed_outside_range_exits_2(tmp_path, capsys, seed):
    # sweep's --seed override and lemma's --seed follow the config's rule
    out = tmp_path / "x.csv"
    sweep = ["sweep", "--config", write_config(tmp_path), "--seed", seed]
    lemma = [
        "lemma",
        "--alpha", "1.0",
        "--theta", "0.05",
        "--phi", "0.1",
        "--m-grid", "100",
        "--n-grid", "3",
        "--trials", "1",
        "--seed", seed,
    ]
    for argv in (sweep, lemma):
        assert main(argv + ["--out", str(out)]) == 2
        assert "seed must be an integer in [0, 2^64)" in capsys.readouterr().err
        assert not out.exists()


def test_lemma_command(tmp_path):
    out = tmp_path / "lemma.csv"
    code = main(
        [
            "lemma",
            "--alpha", "1.0",
            "--theta", "0.05",
            "--phi", "0.1",
            "--m-grid", "100,1000",
            "--n-grid", "3,4",
            "--trials", "5",
            "--seed", "9",
            "--out", str(out),
        ]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "experiment_id,model,n,m,beta,trial,metric,value,std_error,seed"


def test_lemma_csv_bytes_pinned(tmp_path):
    # Every section of the battery (identity, crowd size, likelihood ratio,
    # posterior flatness), 18 rows, must replay byte for byte.
    out = tmp_path / "lemma.csv"
    code = main(
        [
            "lemma",
            "--alpha", "1.0",
            "--theta", "0.05",
            "--phi", "0.1",
            "--m-grid", "100,1000",
            "--n-grid", "3,4",
            "--trials", "5",
            "--seed", "11",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 18
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "a315a59528550fcd373b032c061c02c982e02147a41b3cc86c2dca853f5aa0cc"
    )


def test_lemma_counts_an_n_where_no_crowd_forms(tmp_path):
    # at seed 14 the one trial at n = 10 draws nobody within eps of user 1:
    # the battery counts it and writes no median instead of failing
    out = tmp_path / "lemma.csv"
    code = main(
        [
            "lemma",
            "--alpha", "0.5",
            "--theta", "0.05",
            "--phi", "0.1",
            "--m-grid", "100",
            "--n-grid", "10",
            "--trials", "1",
            "--seed", "14",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    weight_rows = [line.split(",") for line in lines if ",weight_" in line]
    assert [(row[2], row[6], float(row[7])) for row in weight_rows] == [
        ("10", "weight_degenerate_count", 1.0)
    ]


def test_lemma_rejects_bad_exponents(tmp_path, capsys):
    code = main(
        [
            "lemma",
            "--alpha", "1.0",
            "--theta", "0.6",
            "--phi", "0.8",
            "--m-grid", "100",
            "--n-grid", "3",
            "--trials", "5",
            "--seed", "9",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_lemma_rejects_infinite_phi_before_any_section(tmp_path, capsys):
    # lambda is NaN at phi = inf, which no comparison rejects; the finite
    # check must stop it before the crowd-size section meets eps = m^-inf = 0
    code = main(
        [
            "lemma",
            "--alpha", "1",
            "--theta", "0.05",
            "--phi", "inf",
            "--m-grid", "10",
            "--n-grid", "4",
            "--trials", "2",
            "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    assert "config error: alpha, theta and phi must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "m_grid, n_grid, trials",
    [("100", "32", "0"), ("0", "3", "5"), ("-5", "3", "5"), ("100", "0", "5")],
    ids=["trials0", "m0", "m-5", "n0"],
)
def test_lemma_rejects_bad_numbers(tmp_path, capsys, m_grid, n_grid, trials):
    code = main(
        [
            "lemma",
            "--alpha", "1.0",
            "--theta", "0.05",
            "--phi", "0.1",
            "--m-grid", m_grid,
            "--n-grid", n_grid,
            "--trials", trials,
            "--seed", "9",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "m_grid, message",
    [("x", "not a comma-separated int list: 'x'"), (",", "empty int list")],
    ids=["x", "comma"],
)
def test_lemma_rejects_unparsable_grids(tmp_path, capsys, m_grid, message):
    argv = [
        "lemma",
        "--alpha", "1.0",
        "--theta", "0.05",
        "--phi", "0.1",
        "--m-grid", m_grid,
        "--n-grid", "3",
        "--trials", "1",
        "--seed", "1",
        "--out", str(tmp_path / "x.csv"),
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument --m-grid: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_lemma_rejects_n_beyond_numpy_size_limit(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(
        "locpriv.proofcheck.delta_uniformity_experiment", lambda *a: ran.append(1)
    )
    huge = 10**41
    code = main(
        [
            "lemma",
            "--alpha", "0.5",
            "--theta", "0.05",
            "--phi", "0.1",
            "--m-grid", "100",
            "--n-grid", str(huge),
            "--trials", "1",
            "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    assert f"config error: n_grid entry n={huge}" in capsys.readouterr().err
    assert not ran and not (tmp_path / "x.csv").exists()


def test_audit_markov_rejects_r(tmp_path, capsys):
    graph = tmp_path / "graph3.csv"
    graph.write_text("from,to,free\n1,1,1\n1,2,1\n1,3,0\n2,3,0\n3,1,0\n3,2,1\n")
    traces = tmp_path / "m.csv"
    traces.write_text("user_id,time,location\nu1,1,1\nu1,2,2\nu1,3,3\n")
    code = main(
        ["audit", "--traces", str(traces), "--model", "markov", "--graph",
         str(graph), "--r", "5", "--n", "100", "--alpha-margin", "0.1"]
    )
    assert code == 2
    assert "r is only meaningful" in capsys.readouterr().err


def test_audit_command(tmp_path, capsys):
    traces = tmp_path / "traces.csv"
    traces.write_text(
        "user_id,time,location\n"
        "u1,1,a\nu1,2,a\nu1,3,b\nu1,4,a\n"
        "u2,1,b\nu2,2,b\nu2,3,b\nu2,4,a\n"
    )
    code = main(
        [
            "audit",
            "--traces", str(traces),
            "--model", "iid",
            "--n", "100",
            "--alpha-margin", "0.5",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["recommended_max_observations"] == 1000
    assert report["threshold_exponent"] == 2.0

    out = tmp_path / "report.json"
    code = main(
        [
            "audit",
            "--traces", str(traces),
            "--model", "iid",
            "--n", "100",
            "--alpha-margin", "0.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["recommended_max_observations"] == 1000


def test_audit_markov_requires_graph(tmp_path, capsys):
    traces = tmp_path / "t.csv"
    traces.write_text("user_id,time,location\nu1,1,1\nu1,2,2\n")
    code = main(
        ["audit", "--traces", str(traces), "--model", "markov", "--n", "10",
         "--alpha-margin", "0.1"]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_audit_iid_rejects_graph(tmp_path, capsys):
    graph = tmp_path / "graph3.csv"
    graph.write_text("from,to,free\n1,1,1\n1,2,1\n1,3,0\n2,3,0\n3,1,0\n3,2,1\n")
    traces = tmp_path / "t.csv"
    traces.write_text("user_id,time,location\nu1,1,a\nu1,2,b\n")
    code = main(
        ["audit", "--traces", str(traces), "--model", "iid", "--graph", str(graph),
         "--n", "10", "--alpha-margin", "0.1"]
    )
    assert code == 2
    assert "only meaningful for the markov model" in capsys.readouterr().err


def test_audit_graph_with_a_mistyped_large_label_exits_2(tmp_path, capsys):
    # r is the largest label: the missing out-edges are reported before any
    # (r, r) array is built.
    graph = tmp_path / "graph.csv"
    graph.write_text("from,to,free\n1,1000000,auto\n")
    traces = tmp_path / "t.csv"
    traces.write_text("user_id,time,location\nu1,1,1\nu1,2,1000000\n")
    code = main(
        ["audit", "--traces", str(traces), "--model", "markov", "--graph", str(graph),
         "--n", "10", "--alpha-margin", "0.1"]
    )
    assert code == 2
    assert "config error: graph file: state 2 has no outgoing edge" in capsys.readouterr().err


def test_audit_graph_label_below_one_exits_2(tmp_path, capsys):
    # graph files count states from 1; the message names the file's labels
    graph = tmp_path / "graph.csv"
    graph.write_text("from,to,free\n0,1,auto\n")
    traces = tmp_path / "t.csv"
    traces.write_text("user_id,time,location\nu1,1,1\nu1,2,1\n")
    code = main(
        ["audit", "--traces", str(traces), "--model", "markov", "--graph", str(graph),
         "--n", "10", "--alpha-margin", "0.1"]
    )
    assert code == 2
    assert "config error: graph file: edge (0, 1) has a label below 1 on line 2" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "graph_rows, trace_rows, message",
    [
        # state 1's two out-edges are both free
        (
            "1,1,1\n1,2,1\n2,1,0\n2,2,0\n",
            "u1,1,1\nu1,2,2\n",
            "config error: graph file: state 1 must have exactly one dependent out-edge",
        ),
        # the shipped graph has no edge 2 -> 1
        (
            None,
            "u1,1,1\nu1,2,2\nu1,3,1\n",
            "config error: user 'u1': trace uses transition (2,1) not in the graph",
        ),
        (
            None,
            "u1,1,1\nu1,2,2\nu2,1,1\n",
            "config error: user 'u2': need at least two observations to fit transitions",
        ),
        (
            None,
            "u1,1,1\nu1,2,4\n",
            "config error: user 'u1': state label '4' outside 1..3",
        ),
    ],
    ids=[
        "graph-state", "off-graph-transition", "single-observation-user", "label-above-r"
    ],
)
def test_audit_errors_name_file_labels_and_the_user(
    tmp_path, capsys, graph_rows, trace_rows, message
):
    graph = os.path.join(CONFIGS, "three_state_graph.csv")
    if graph_rows is not None:
        graph = tmp_path / "graph.csv"
        graph.write_text("from,to,free\n" + graph_rows)
    traces = tmp_path / "t.csv"
    traces.write_text("user_id,time,location\n" + trace_rows)
    code = main(
        ["audit", "--traces", str(traces), "--model", "markov", "--graph", str(graph),
         "--n", "10", "--alpha-margin", "0.1"]
    )
    assert code == 2
    assert message in capsys.readouterr().err


def test_audit_iid_rejects_r_beyond_the_location_limit(tmp_path, capsys):
    # r sizes every fitted profile; past the limit it is a config error,
    # not an allocation failure
    huge = 10**11
    code = main(
        ["audit", "--traces", os.path.join(CONFIGS, "demo_traces.csv"), "--model", "iid",
         "--r", str(huge), "--n", "100", "--alpha-margin", "0.1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: r must be at most {MAX_IID_LOCATIONS}, got {huge}" in err


def test_audit_iid_rejects_r_below_the_distinct_label_count(tmp_path, capsys):
    # the demo traces use five locations; r = 4 cannot hold their counts
    code = main(
        ["audit", "--traces", os.path.join(CONFIGS, "demo_traces.csv"), "--model", "iid",
         "--r", "4", "--n", "100", "--alpha-margin", "0.1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: r=4 too small for 5 distinct locations" in err


def test_graph_beyond_the_state_limit_exits_2(tmp_path, capsys):
    # walks store states as bytes, so a graph has at most MAX_MARKOV_STATES
    # states, in an audit and in a sweep config alike
    r = MAX_MARKOV_STATES + 1
    graph = tmp_path / "graph.csv"
    rows = "".join(f"{i},{i},auto\n{i},{i % r + 1},auto\n" for i in range(1, r + 1))
    graph.write_text("from,to,free\n" + rows)
    traces = tmp_path / "t.csv"
    traces.write_text("user_id,time,location\nu1,1,1\nu1,2,2\n")
    message = f"config error: graph file: graph has {r} states, at most {r - 1} allowed"
    code = main(
        ["audit", "--traces", str(traces), "--model", "markov", "--graph", str(graph),
         "--n", "10", "--alpha-margin", "0.1"]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    cfg = write_config(tmp_path, model="markov", graph_path=str(graph))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_audit_graph_that_repeats_an_edge_exits_2(tmp_path, capsys):
    # the two rows' free flags contradict; neither may win silently
    graph = tmp_path / "graph.csv"
    graph.write_text("from,to,free\n1,2,1\n1,2,0\n1,1,0\n2,1,0\n2,2,1\n")
    traces = tmp_path / "t.csv"
    traces.write_text("user_id,time,location\nu1,1,1\nu1,2,2\n")
    code = main(
        ["audit", "--traces", str(traces), "--model", "markov", "--graph", str(graph),
         "--n", "10", "--alpha-margin", "0.1"]
    )
    assert code == 2
    assert "config error: graph file: edge (1, 2) is listed twice on line 3" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("from,to,free\n", "has no edges"),
        ("src,dst,free\n1,2,1\n", "must have header 'from,to,free'"),
        (
            "from,to,free\n1,1,auto\n1,2,1\n2,1,0\n2,2,0\n",
            "mixes auto with explicit free flags",
        ),
        (
            "from,to,free\n1,2,yes\n",
            "free flag must be 0, 1 or auto, got 'yes' on line 2",
        ),
    ],
    ids=["header-only", "bad-header", "mixed-flags", "bad-flag"],
)
def test_audit_graph_file_errors_name_the_file_once(tmp_path, capsys, text, message):
    graph = tmp_path / "graph.csv"
    graph.write_text(text)
    traces = tmp_path / "t.csv"
    traces.write_text("user_id,time,location\nu1,1,1\nu1,2,2\n")
    code = main(
        ["audit", "--traces", str(traces), "--model", "markov", "--graph", str(graph),
         "--n", "10", "--alpha-margin", "0.1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: graph file: {message}\n" in err
    assert err.count("graph file") == 1


@pytest.mark.parametrize("digits", [400, 300], ids=["n-beyond-float", "budget-beyond-float"])
def test_audit_rejects_n_effective_whose_budget_is_not_finite(tmp_path, capsys, digits):
    # two locations: tau = 2, so the budget is n_effective ** 1.5; 10^400
    # is no float at all, and 10^300 is one whose budget is not
    traces = tmp_path / "t.csv"
    traces.write_text("user_id,time,location\nu1,1,a\nu1,2,b\n")
    code = main(
        ["audit", "--traces", str(traces), "--model", "iid", "--n", "1" + "0" * digits,
         "--alpha-margin", "0.5"]
    )
    assert code == 2
    assert "config error: n_effective ** 1.5 overflows a float" in capsys.readouterr().err


@pytest.mark.parametrize("margin", ["nan", "inf"])
def test_audit_rejects_non_finite_alpha_margin(tmp_path, capsys, margin):
    traces = tmp_path / "t.csv"
    traces.write_text("user_id,time,location\nu1,1,a\nu1,2,b\n")
    code = main(
        ["audit", "--traces", str(traces), "--model", "iid", "--n", "10",
         "--alpha-margin", margin]
    )
    assert code == 2
    assert "alpha_margin must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("margin, code", [("0.6", 2), ("0.5", 0)])
def test_audit_rejects_alpha_margin_above_threshold_exponent(tmp_path, capsys, margin, code):
    # five locations: d = 4 and tau = 2/4 = 0.5, so a margin of 0.6 leaves
    # a budget of n^(-0.1), below one observation; 0.5 itself leaves n^0 = 1
    traces = tmp_path / "t.csv"
    traces.write_text("user_id,time,location\n" + "".join(
        f"u1,{t},{loc}\n" for t, loc in enumerate("abcde", 1)
    ))
    argv = ["audit", "--traces", str(traces), "--model", "iid", "--n", "1000000",
            "--alpha-margin", margin]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert "config error: alpha_margin must not exceed the threshold exponent 0.5" in err
    else:
        assert json.loads(out)["recommended_max_observations"] == 1


def test_audit_traces_that_are_not_utf8_exit_2(tmp_path, capsys):
    traces = tmp_path / "t.csv"
    traces.write_bytes(b"user_id,time,location\nu1,1,caf\xe9\n")
    argv = ["audit", "--traces", str(traces), "--model", "iid", "--n", "10",
            "--alpha-margin", "0.1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error: cannot read traces: 'utf-8' codec can't decode" in err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_bytes(b'{"model": "iid2", "note": "caf\xe9"}')
    assert main(["sweep", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config error: cannot read config: 'utf-8' codec can't decode" in err


def test_lemma_rejects_m_beyond_int64(tmp_path, capsys):
    # section (c) draws visit counts up to m as int64
    huge = 10**20
    code = main(
        [
            "lemma",
            "--alpha", "1.0",
            "--theta", "0.05",
            "--phi", "0.1",
            "--m-grid", str(huge),
            "--n-grid", "3",
            "--trials", "1",
            "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: m_grid entry m={huge} exceeds numpy's int64 range" in err
    assert not (tmp_path / "x.csv").exists()


def test_audit_markov_with_graph(tmp_path):
    graph = tmp_path / "graph3.csv"
    graph.write_text("from,to,free\n1,1,1\n1,2,1\n1,3,0\n2,3,0\n3,1,0\n3,2,1\n")
    traces = tmp_path / "m.csv"
    traces.write_text(
        "user_id,time,location\n"
        "u1,1,1\nu1,2,1\nu1,3,2\nu1,4,3\nu1,5,1\n"
        "u2,1,1\nu2,2,3\nu2,3,2\nu2,4,3\nu2,5,2\n"
    )
    out = tmp_path / "report.json"
    code = main(
        [
            "audit",
            "--traces", str(traces),
            "--model", "markov",
            "--graph", str(graph),
            "--n", "100",
            "--alpha-margin", str(1 / 6),
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["recommended_max_observations"] == 10
    assert report["d"] == 3
