"""Run persistence: CSV table, manifest, and SVG plots.

The CSV column order is part of the output contract and never varies:
t, capability, capability_effective, frac_potential, frac_active,
frac_churned, mean_log_reference, mean_satisfaction, s_q25, s_q75, one
seg_<name>_mean_s column per segment in declaration order, then
interventions_applied.  Floats use Python's shortest round-trip repr
with '.' decimal points, rows end in LF, and empty cells mean "no
value" (no active agents that step).  Re-running an identical scenario
rewrites every file with identical bytes; only the manifest timestamp
differs.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import math
import pathlib

from . import __version__
from .analysis import classify_phases, finite_stretch
from .config import scenario_digest
from .engine import RunOutput
from .errors import DomainError
from .rng import RNG_ALGORITHMS
from .svgplot import SHADE_PALETTE, LineChart

CSV_NAME = "run.csv"
MANIFEST_NAME = "manifest.json"


def _cell(value) -> str:
    if value is None:
        return ""
    f = float(value)
    return "" if math.isnan(f) else repr(f)


def run_csv_text(run_out: RunOutput) -> str:
    """The full run.csv contents as a string (LF line endings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [
        "t",
        "capability",
        "capability_effective",
        "frac_potential",
        "frac_active",
        "frac_churned",
        "mean_log_reference",
        "mean_satisfaction",
        "s_q25",
        "s_q75",
    ]
    header += [f"seg_{name}_mean_s" for name in run_out.segment_names]
    header.append("interventions_applied")
    writer.writerow(header)
    for t in range(run_out.horizon):
        row = [
            str(t),
            _cell(run_out.capability[t]),
            _cell(run_out.capability_effective[t]),
            _cell(run_out.frac_potential[t]),
            _cell(run_out.frac_active[t]),
            _cell(run_out.frac_churned[t]),
            _cell(run_out.mean_log_reference[t]),
            _cell(run_out.mean_satisfaction[t]),
            _cell(run_out.s_q25[t]),
            _cell(run_out.s_q75[t]),
        ]
        row += [_cell(v) for v in run_out.segment_mean_satisfaction[:, t]]
        row.append(";".join(run_out.interventions_applied[t]))
        writer.writerow(row)
    return buf.getvalue()


def traces_csv_text(run_out: RunOutput) -> str:
    """Long-form per-agent trace table; requires a traced run."""
    if run_out.traces is None:
        raise DomainError("run was executed without trace_agents")
    tr = run_out.traces
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "agent", "state", "satisfaction", "log_reference"])
    n = tr.state.shape[1]
    for t in range(run_out.horizon):
        for a in range(n):
            writer.writerow(
                [
                    str(t),
                    str(a),
                    str(int(tr.state[t, a])),
                    _cell(tr.satisfaction[t, a]),
                    _cell(tr.log_reference[t, a]),
                ]
            )
    return buf.getvalue()


def satisfaction_chart(run_out: RunOutput) -> str:
    chart = LineChart(
        title="Capability and mean satisfaction",
        y_label="mean satisfaction",
        y_right_label="capability",
    )
    chart.add_series("mean satisfaction", run_out.mean_satisfaction, "#1f77b4")
    chart.add_series("capability", run_out.capability, "#d62728", axis="right")
    return chart.render()


def segments_chart(run_out: RunOutput) -> str:
    chart = LineChart(title="Segment mean satisfaction", y_label="mean satisfaction")
    for i, name in enumerate(run_out.segment_names):
        chart.add_series(name, run_out.segment_mean_satisfaction[i])
    return chart.render()


def phases_chart(run_out: RunOutput) -> str:
    """Mean satisfaction with its phase intervals shaded.

    Classification runs on the contiguous stretch of steps with active
    agents; a run too short to classify is plotted without shading.
    """
    chart = LineChart(title="Satisfaction phases", y_label="mean satisfaction")
    s = run_out.mean_satisfaction
    first, stretch = finite_stretch(s)
    try:
        phases = classify_phases(stretch)
    except DomainError:
        phases = []
    for i, ph in enumerate(phases):
        chart.add_shade(
            first + ph.start,
            first + ph.end,
            SHADE_PALETTE[i % len(SHADE_PALETTE)],
            ph.kind.value,
        )
    chart.add_series("mean satisfaction", s, "#1f77b4")
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
