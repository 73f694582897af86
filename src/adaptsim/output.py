"""Run persistence: CSV tables, manifest, and SVG plots.

The run.csv column order is part of the output contract and never
varies: t, the RUN_FLOAT_COLUMNS, one seg_<name>_mean_s column per
segment in declaration order, then interventions_applied.  Floats are
the bytes of Python's shortest round-trip repr, with '.' decimal points,
formatted a whole array at a time by `shortest.cells`; rows end in LF,
and empty cells mean "no value" (no active agents that step).  A header
cell is quoted by the csv module's minimal rule when a segment name needs
it; no other cell ever does.

traces.csv, written for a run with trace_agents, has one row per step
and agent, ordered by step and then by agent id: t, agent, state,
satisfaction, log_reference.  state is 0 (potential), 1 (active) or 2
(churned) at the end of the step; satisfaction is empty unless the agent
was active when the step's satisfaction was computed (an agent that
churns at step t still has one at t).  Floats and line endings follow
the run.csv rule, and no cell is ever quoted.  It is formatted a block of
steps at a time: each block's rows are one byte matrix of 0-padded cells
and separators, from which the padding is dropped.  The blocks are
formatted by ``engine.map_ordered`` on the calling thread and, when the
process's affinity mask holds two or more CPUs, one helper thread, whose
numpy work runs without the GIL; they are joined in step order, so the
bytes are the same at any CPU count.

Re-running an identical scenario rewrites every file with identical
bytes; only the manifest timestamp differs.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import pathlib

import numpy as np

from . import __version__
from .analysis import classify_phases, finite_stretch
from .config import scenario_digest
from .engine import RunOutput, map_ordered
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

# rows of traces.csv formatted at once: enough that numpy's per-call cost
# is small, few enough that a block's temporaries add little to peak memory
# (map_ordered's two threads each keep their own: simulate_emit peaked at
# 83.6-86.9 MiB with 16384 rows, 82.9-83.8 MiB with 8192)
_BLOCK_ROWS = 8192


def _int_cells(values) -> np.ndarray:
    """Decimal text of non-negative ints as a 0-padded uint8 matrix."""
    text = np.array([b"%d" % v for v in values])
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _rows(columns) -> np.ndarray:
    """The bytes of LF-terminated CSV rows, from columns of cells given as
    0-padded uint8 matrices of one row per CSV row; no cell needs quoting."""
    widths = [col.shape[1] for col in columns]
    rows = np.zeros((len(columns[0]), sum(widths) + len(columns)), dtype=np.uint8)
    end = -1
    for col, width in zip(columns, widths):
        rows[:, end] = ord(",")
        rows[:, end + 1 : end + 1 + width] = col
        end += 1 + width
    rows[:, -1] = ord("\n")
    return rows[rows != 0]


def _require_report(run_out: RunOutput, names) -> None:
    """DomainError naming those statistics of ``names`` that a run without report left None."""
    missing = [name for name in names if getattr(run_out, name) is None]
    if missing:
        raise DomainError(f"run was executed without report: it has no {', '.join(missing)}")


def run_csv_text(run_out: RunOutput) -> str:
    """The full run.csv contents as a string (LF line endings); requires a
    run with report."""
    _require_report(run_out, (*RUN_FLOAT_COLUMNS, "segment_mean_satisfaction"))
    from . import shortest  # its tables are built on first use, not at CLI start

    seg_columns = [f"seg_{name}_mean_s" for name in run_out.segment_names]
    header = ["t", *RUN_FLOAT_COLUMNS, *seg_columns, "interventions_applied"]
    # segment names are free text, so the header keeps csv quoting
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    floats = np.vstack([getattr(run_out, name) for name in RUN_FLOAT_COLUMNS]
                       + [run_out.segment_mean_satisfaction])
    cells = shortest.cells(floats)
    applied = np.array([";".join(kinds).encode() for kinds in run_out.interventions_applied])
    applied = applied.view(np.uint8).reshape(run_out.horizon, applied.itemsize)
    buf.write(str(_rows([_int_cells(range(run_out.horizon)), *cells, applied]), "ascii"))
    return buf.getvalue()


def traces_csv_text(run_out: RunOutput) -> str:
    """Long-form per-agent trace table; requires a traced run.

    Formatted a block of steps at a time, each block one byte matrix of
    whole rows, so the text is held only as the blocks and their join.
    ``map_ordered`` formats them on this thread and, with two or more CPUs
    in the affinity mask, one helper thread, and joins them in block order:
    the text is the same at any CPU count."""
    if run_out.traces is None:
        if run_out.scenario.trace_agents:
            raise DomainError("run was executed without report: it has no traces")
        raise DomainError("run was executed without trace_agents")
    from . import shortest

    tr = run_out.traces
    n = tr.state.shape[1]
    agents = _int_cells(range(n))
    steps = _int_cells(range(run_out.horizon))
    per_block = max(1, _BLOCK_ROWS // n)

    def block_text(t0: int) -> str:
        block = slice(t0, t0 + per_block)
        rows = tr.state[block].size
        floats = np.stack([tr.satisfaction[block], tr.log_reference[block]]).reshape(2, rows)
        satisfaction, log_reference = shortest.cells(floats)
        columns = [
            np.repeat(steps[block], n, axis=0),
            np.tile(agents, (rows // n, 1)),
            (tr.state[block].reshape(rows, 1) + ord("0")).astype(np.uint8),
            satisfaction,
            log_reference,
        ]
        return str(_rows(columns), "ascii")

    # map_ordered takes no helper on one CPU, where it would only add GIL hand-offs
    # and an arena (simulate_emit: 6.1% slower in wall_s, 1.7-3.0 MiB more peak RSS)
    pieces = map_ordered(block_text, range(0, run_out.horizon, per_block), 2, threads=True)
    return "".join(["t,agent,state,satisfaction,log_reference\n", *pieces])


def satisfaction_chart(run_out: RunOutput) -> str:
    chart = LineChart(title="Capability and mean satisfaction")
    chart.add_series("mean satisfaction", run_out.mean_satisfaction)
    chart.add_series("capability", run_out.capability, axis="right")
    return chart.render()


def segments_chart(run_out: RunOutput) -> str:
    _require_report(run_out, ("segment_mean_satisfaction",))
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
    OSError with the failing path in the message.  A run without report
    raises DomainError before out_dir is created.
    """
    run_csv = run_csv_text(run_out)  # first: it rejects a run without report
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []

    def write(name: str, text: str) -> None:
        path = out / name
        path.write_text(text, encoding="utf-8", newline="")
        written.append(path)

    write(CSV_NAME, run_csv)
    if run_out.traces is not None:
        write("traces.csv", traces_csv_text(run_out))
    if plots:
        write("satisfaction.svg", satisfaction_chart(run_out))
        write("segments.svg", segments_chart(run_out))
        write("phases.svg", phases_chart(run_out))
    manifest = {
        "tool_version": __version__,
        "scenario_digest": scenario_digest(run_out.scenario),
        "seed": run_out.scenario.seed,
        "rng_algorithms": list(RNG_ALGORITHMS),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "outputs": [p.name for p in written] + [MANIFEST_NAME],
    }
    write(MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return written
