"""Command-line surface.

Exit codes: 0 success, 2 configuration or validation error, 3 runtime
or I/O error or out of memory.  All diagnostics go to stderr; result summaries and the
phases listing go to stdout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from collections.abc import Sequence

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
    p_sweep.add_argument("--parallel", type=int, default=1, help="process count, this one included")
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


def parse_intervals(text: str) -> Sequence[int]:
    """'lo..hi' inclusive range, or a comma-separated candidate list.

    A range stays a ``range``: its candidates are built one at a time, so
    a huge one fails at the first interval past the horizon, or runs out
    of memory first when the candidates before it do not fit."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ConfigurationError(f"interval range {text!r} is empty")
            return range(lo, hi + 1)
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigurationError(f"cannot parse intervals {text!r}") from None


def _write_csv(path, compute, table):
    """Return ``compute()`` and write ``table(result)``, its CSV rows, to path.

    The file is opened before ``compute()`` runs, so that a path that
    cannot be written fails first, and in append mode, truncated only once
    ``compute()`` has returned, so that a failed run leaves it as it was: absent if new.
    """
    made = not os.path.lexists(path)
    fh = open(path, "a", encoding="utf-8", newline="")
    try:
        with fh:
            result = compute()
            fh.seek(0)
            fh.truncate()
            csv.writer(fh, lineterminator="\n").writerows(table(result))
    except BaseException:
        if made:
            os.remove(path)
        raise
    return result


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
    if args.parallel < 1:
        raise ConfigurationError("--parallel must be >= 1")
    base = load_document(args.config)
    spec = load_sweep_spec(args.sweep)

    def table(rows):
        yield ["sample"] + [d.name for d in spec.dimensions] + list(spec.metrics) + ["error"]
        for row in rows:
            metrics = (row.metrics[m] for m in spec.metrics)
            cells = ["" if v is None else repr(float(v)) for v in metrics]
            yield [str(row.index), *map(repr, row.values), *cells, row.error or ""]

    rows = _write_csv(args.out, lambda: run_sweep(spec, base, workers=args.parallel), table)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_cadence(args) -> int:
    scenario = load_scenario(args.config)
    search = CadenceSearch(
        base=scenario, total_log_budget=args.budget, intervals=parse_intervals(args.intervals)
    )

    def table(result):
        yield ["interval", "objective"]
        yield from ([str(interval), repr(objective)] for interval, objective in result.table)
        yield ["best", str(result.best_interval)]

    result = _write_csv(args.out, lambda: optimize_cadence(search), table)
    print(f"best interval: {result.best_interval}")
    print(f"wrote {args.out} ({len(result.table)} candidates)")
    return EXIT_OK


def _cmd_phases(args) -> int:
    if args.window < 1 or args.window % 2 == 0:
        raise ConfigurationError("--window must be an odd integer >= 1")
    try:
        with open(args.input, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or args.column not in reader.fieldnames:
                known = ", ".join(reader.fieldnames or ())
                raise ConfigurationError(f"column {args.column!r} not in {args.input} (columns: {known})")
            cells = []
            for row in reader:  # an empty or missing cell is NaN
                try:
                    cells.append(float(row[args.column] or "nan"))
                except ValueError:
                    where = f"{args.input}: line {reader.line_num}, column {args.column!r}"
                    cell = row[args.column]
                    raise ConfigurationError(f"{where}: expected a number, got {cell!r}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigurationError(f"{args.input}: parse error: {exc}") from None
    first, stretch = finite_stretch(cells)
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
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
