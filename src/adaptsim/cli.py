"""Command-line surface.

Exit codes: 0 success, 2 configuration or validation error, 3 runtime
or I/O error.  All diagnostics go to stderr; result summaries and the
phases listing go to stdout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

import numpy as np

from . import __version__
from .analysis import (
    CadenceSearch,
    classify_phases,
    finite_stretch,
    load_sweep_spec,
    optimize_cadence,
    run_sweep,
)
from .config import load_document, load_scenario, scenario_digest
from .engine import run
from .errors import ConfigurationError, DomainError
from .output import emit_run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptsim",
        description="Deterministic agent-based simulator of hedonic adaptation in technology adoption.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario and write its outputs")
    p_sim.add_argument("--config", required=True, help="scenario JSON file")
    p_sim.add_argument("--seed", type=int, default=None, help="override the document seed")
    p_sim.add_argument("--out", default="out", help="output directory (default: out)")
    p_sim.add_argument("--plots", action="store_true", help="also write SVG charts")
    p_sim.add_argument("--agent-traces", action="store_true", help="record and write per-agent traces")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="Latin-hypercube parameter sweep")
    p_sweep.add_argument("--config", required=True, help="base scenario JSON file")
    p_sweep.add_argument("--sweep", required=True, help="sweep spec JSON file")
    p_sweep.add_argument("--parallel", type=int, default=None, help="worker process count")
    p_sweep.add_argument("--out", required=True, help="output CSV file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cad = sub.add_parser("optimize-cadence", help="search release intervals for a fixed budget")
    p_cad.add_argument("--config", required=True, help="base scenario JSON file")
    p_cad.add_argument("--budget", type=float, required=True, help="total log-capability budget")
    p_cad.add_argument("--intervals", required=True, help="candidates: 'lo..hi' or 'a,b,c'")
    p_cad.add_argument("--out", required=True, help="output CSV file")
    p_cad.set_defaults(func=_cmd_cadence)

    p_ph = sub.add_parser("phases", help="label the phases of a column of a run.csv")
    p_ph.add_argument("--input", required=True, help="run.csv produced by simulate")
    p_ph.add_argument("--column", required=True, help="column to classify")
    p_ph.add_argument("--window", type=int, default=9, help="smoothing window (odd, default 9)")
    p_ph.set_defaults(func=_cmd_phases)

    p_val = sub.add_parser("validate", help="parse and validate a scenario without running")
    p_val.add_argument("--config", required=True, help="scenario JSON file")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def parse_intervals(text: str) -> tuple[int, ...]:
    """'lo..hi' inclusive range, or a comma-separated candidate list."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ConfigurationError(f"interval range {text!r} is empty")
            return tuple(range(lo, hi + 1))
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigurationError(f"cannot parse intervals {text!r}") from None


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.agent_traces and not scenario.trace_agents:
        overrides["trace_agents"] = True
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    out = run(scenario)
    for path in emit_run(out, args.out, plots=args.plots):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.parallel is not None and args.parallel < 1:
        raise ConfigurationError("--parallel must be >= 1")
    base = load_document(args.config)
    spec = load_sweep_spec(args.sweep)
    rows = run_sweep(spec, base, workers=args.parallel)
    header = ["sample"] + [d.name for d in spec.dimensions] + list(spec.metrics) + ["error"]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            cells = [str(row.index)]
            cells += [repr(v) for v in row.values]
            for m in spec.metrics:
                v = row.metrics[m]
                cells.append("" if v is None else repr(float(v)))
            cells.append(row.error or "")
            writer.writerow(cells)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_cadence(args) -> int:
    scenario = load_scenario(args.config)
    search = CadenceSearch(
        base=scenario, total_log_budget=args.budget, intervals=parse_intervals(args.intervals)
    )
    result = optimize_cadence(search)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["interval", "objective"])
        for interval, objective in result.table:
            writer.writerow([str(interval), repr(objective)])
        writer.writerow(["best", str(result.best_interval)])
    print(f"best interval: {result.best_interval}")
    print(f"wrote {args.out} ({len(result.table)} candidates)")
    return EXIT_OK


def _cmd_phases(args) -> int:
    with open(args.input, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or args.column not in reader.fieldnames:
            known = ", ".join(reader.fieldnames or ())
            raise ConfigurationError(f"column {args.column!r} not in {args.input} (columns: {known})")
        cells = [row[args.column] for row in reader]
    series = np.asarray([float(c) if c else np.nan for c in cells])
    first, stretch = finite_stretch(series)
    if stretch.size == 0:
        raise DomainError(f"column {args.column!r} has no values")
    for label in classify_phases(stretch, window=args.window):
        print(f"{label.kind.value}\t{first + label.start}\t{first + label.end}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.config)
    print(f"ok: digest {scenario_digest(scenario)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
