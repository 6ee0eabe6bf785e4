"""Command-line front end.

Exit codes: 0 on success, 2 on configuration/validation problems,
1 on runtime failures. Errors go to stderr as single-line diagnostics.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .harness import (
    ConfigError,
    audit,
    check_seed,
    ingest_traces,
    load_config,
    load_graph,
    run_lemma_battery,
    run_sweep,
    write_results_csv,
)


def _csv_ints(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty int list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locpriv",
        description="Location-privacy simulation lab: anonymization, "
        "de-anonymization, and privacy-threshold experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("simulate", "single-cell run from a config file"),
        ("sweep", "full (n, beta) grid from a config file"),
    ):
        p_run = sub.add_parser(name, help=text)
        p_run.add_argument("--config", required=True)
        p_run.add_argument("--seed", type=int, default=None)
        p_run.add_argument("--out", default=None)
        p_run.set_defaults(func=_cmd_sweep)

    p_lemma = sub.add_parser("lemma", help="proof-machinery numerical battery")
    p_lemma.add_argument("--alpha", type=float, required=True)
    p_lemma.add_argument("--theta", type=float, required=True)
    p_lemma.add_argument("--phi", type=float, required=True)
    p_lemma.add_argument("--m-grid", type=_csv_ints, required=True)
    p_lemma.add_argument("--n-grid", type=_csv_ints, required=True)
    p_lemma.add_argument("--trials", type=int, required=True)
    p_lemma.add_argument("--seed", type=int, required=True)
    p_lemma.add_argument("--out", required=True)
    p_lemma.set_defaults(func=_cmd_lemma)

    p_audit = sub.add_parser("audit", help="fit traces and recommend a rotation budget")
    p_audit.add_argument("--traces", required=True)
    p_audit.add_argument("--model", choices=("iid", "markov"), required=True)
    p_audit.add_argument("--r", type=int, default=None)
    p_audit.add_argument("--graph", default=None)
    p_audit.add_argument("--n", type=int, required=True)
    p_audit.add_argument("--alpha-margin", type=float, required=True)
    p_audit.add_argument("--out", default=None)
    p_audit.set_defaults(func=_cmd_audit)
    return parser


def _check_out_dir(path: str) -> None:
    """Reject an output path in a missing directory before any work."""
    folder = os.path.dirname(path)
    if folder and not os.path.isdir(folder):
        raise ConfigError(f"output directory {folder!r} does not exist")


def _cmd_sweep(args) -> int:
    """Run ``sweep``, or ``simulate``, which takes a one-cell config."""
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=check_seed(args.seed))
    if args.out is not None:
        config = dataclasses.replace(config, out_path=args.out)
    if args.command == "simulate" and len(config.n_grid) != 1:
        raise ConfigError("simulate needs a config with exactly one n_grid entry")
    _check_out_dir(config.out_path)
    rows = run_sweep(config)
    write_results_csv(rows, config.out_path)
    print(f"wrote {len(rows)} rows to {config.out_path}")
    return 0


def _cmd_lemma(args) -> int:
    rows = run_lemma_battery(
        alpha=args.alpha,
        theta=args.theta,
        phi=args.phi,
        m_grid=args.m_grid,
        n_grid=args.n_grid,
        trials=args.trials,
        seed=args.seed,
    )
    write_results_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_audit(args) -> int:
    graph = None if args.graph is None else load_graph(args.graph)
    dataset, laws = ingest_traces(args.traces, args.model, r=args.r, graph=graph)
    report = audit(dataset, laws, args.n, args.alpha_margin)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote audit report to {args.out}")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out == "":  # every command takes --out; reject it before any work
            raise ConfigError("--out must be a nonempty path")
        if args.out is not None:
            _check_out_dir(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"locpriv: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"locpriv: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
