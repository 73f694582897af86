"""Run persistence: CSV tables, manifest, and SVG plots.

The run.csv column order is part of the output contract and never
varies: t, the RUN_FLOAT_COLUMNS, one seg_<name>_mean_s column per
segment in declaration order, then interventions_applied.  Floats use
Python's shortest round-trip repr with '.' decimal points, rows end in
LF, and empty cells mean "no value" (no active agents that step).  A
header cell is quoted by the csv module's minimal rule when a segment
name needs it; no other cell ever does.

traces.csv, written for a run with trace_agents, has one row per step
and agent, ordered by step and then by agent id: t, agent, state,
satisfaction, log_reference.  state is 0 (potential), 1 (active) or 2
(churned) at the end of the step; satisfaction is empty unless the agent
was active when the step's satisfaction was computed (an agent that
churns at step t still has one at t).  Floats and line endings follow
the run.csv rule, and no cell is ever quoted.

Re-running an identical scenario rewrites every file with identical
bytes; only the manifest timestamp differs.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import pathlib

from . import __version__
from .analysis import classify_phases, finite_stretch
from .config import scenario_digest
from .engine import RunOutput
from .errors import DomainError
from .rng import RNG_ALGORITHMS
from .svgplot import LineChart

CSV_NAME = "run.csv"
MANIFEST_NAME = "manifest.json"

# run.csv's float columns in order, each named after the RunOutput field it holds
RUN_FLOAT_COLUMNS = (
    "capability",
    "capability_effective",
    "frac_potential",
    "frac_active",
    "frac_churned",
    "mean_log_reference",
    "mean_satisfaction",
    "s_q25",
    "s_q75",
)


def _cells(column) -> list[str]:
    """The cells of a float column: shortest round-trip repr, empty for NaN."""
    return ["" if v != v else repr(v) for v in column.tolist()]


def _write_rows(buf: io.StringIO, columns) -> None:
    """Write LF-terminated CSV rows from columns of cells that never need
    quoting (no delimiter, quote or line break in any of them)."""
    buf.write("\n".join(map(",".join, zip(*columns))))
    # a separate write: appending "\n" to the joined rows would copy them,
    # and those copies fragment the heap (18 MiB more peak RSS when writing
    # 2000 x 200 traces)
    buf.write("\n")


def run_csv_text(run_out: RunOutput) -> str:
    """The full run.csv contents as a string (LF line endings)."""
    seg_columns = [f"seg_{name}_mean_s" for name in run_out.segment_names]
    header = ["t", *RUN_FLOAT_COLUMNS, *seg_columns, "interventions_applied"]
    # segment names are free text, so the header keeps csv quoting
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    floats = [getattr(run_out, name) for name in RUN_FLOAT_COLUMNS]
    floats.extend(run_out.segment_mean_satisfaction)
    columns = [
        map(str, range(run_out.horizon)),
        *map(_cells, floats),
        map(";".join, run_out.interventions_applied),
    ]
    _write_rows(buf, columns)
    return buf.getvalue()


def traces_csv_text(run_out: RunOutput) -> str:
    """Long-form per-agent trace table; requires a traced run.

    Formatted a step at a time, so no list of every row is ever held."""
    if run_out.traces is None:
        raise DomainError("run was executed without trace_agents")
    tr = run_out.traces
    n = tr.state.shape[1]
    agents = [str(a) for a in range(n)]
    buf = io.StringIO()
    buf.write("t,agent,state,satisfaction,log_reference\n")
    for t in range(run_out.horizon):
        step = [str(t)] * n
        states = map(str, tr.state[t].tolist())
        sat, log_ref = _cells(tr.satisfaction[t]), _cells(tr.log_reference[t])
        _write_rows(buf, (step, agents, states, sat, log_ref))
    return buf.getvalue()


def satisfaction_chart(run_out: RunOutput) -> str:
    chart = LineChart(title="Capability and mean satisfaction")
    chart.add_series("mean satisfaction", run_out.mean_satisfaction)
    chart.add_series("capability", run_out.capability, axis="right")
    return chart.render()


def segments_chart(run_out: RunOutput) -> str:
    chart = LineChart(title="Segment mean satisfaction")
    for name, values in zip(run_out.segment_names, run_out.segment_mean_satisfaction):
        chart.add_series(name, values)
    return chart.render()


def phases_chart(run_out: RunOutput) -> str:
    """Mean satisfaction with its phase intervals shaded.

    Classification runs on the contiguous stretch of steps with active
    agents; a run too short to classify is plotted without shading.
    """
    chart = LineChart(title="Satisfaction phases")
    s = run_out.mean_satisfaction
    first, stretch = finite_stretch(s)
    try:
        phases = classify_phases(stretch)
    except DomainError:
        phases = []
    for ph in phases:
        chart.add_shade(first + ph.start, first + ph.end, ph.kind.value)
    chart.add_series("mean satisfaction", s)
    return chart.render()


def emit_run(run_out: RunOutput, out_dir, plots: bool = False) -> list[pathlib.Path]:
    """Write run.csv, optional plots, and the manifest into out_dir.

    Returns the written paths, manifest last.  I/O errors propagate as
    OSError with the failing path in the message.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []

    csv_path = out / CSV_NAME
    csv_path.write_text(run_csv_text(run_out), encoding="utf-8", newline="")
    written.append(csv_path)

    if run_out.traces is not None:
        traces_path = out / "traces.csv"
        traces_path.write_text(traces_csv_text(run_out), encoding="utf-8", newline="")
        written.append(traces_path)

    if plots:
        for name, text in (
            ("satisfaction.svg", satisfaction_chart(run_out)),
            ("segments.svg", segments_chart(run_out)),
            ("phases.svg", phases_chart(run_out)),
        ):
            path = out / name
            path.write_text(text, encoding="utf-8", newline="")
            written.append(path)

    manifest_path = out / MANIFEST_NAME
    manifest = {
        "tool_version": __version__,
        "scenario_digest": scenario_digest(run_out.scenario),
        "seed": run_out.scenario.seed,
        "rng_algorithms": list(RNG_ALGORITHMS),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "outputs": [p.name for p in written] + [MANIFEST_NAME],
    }
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline=""
    )
    written.append(manifest_path)
    return written
