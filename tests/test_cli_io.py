"""Document intake, digests, file emission, SVG rendering, and the CLI."""

import concurrent.futures
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import adaptsim
from adaptsim import (
    CapabilitySchedule,
    ConfigurationError,
    DomainError,
    EventSchedule,
    NoveltyReset,
    SatisfactionParams,
    Scenario,
    Segment,
    BassParams,
    optimize_cadence,
    CadenceSearch,
    output,
    run,
    shortest,
)
from adaptsim.analysis import load_sweep_spec
from adaptsim.cli import main, parse_intervals
from adaptsim.config import (
    canonical_json,
    load_scenario,
    parse_scenario_document,
    scenario_digest,
    scenario_to_document,
)
from adaptsim.engine import NO_CHURN, AgentTraces, RunOutput
from adaptsim.interventions import INTERVENTION_KINDS
from adaptsim.output import emit_run, run_csv_text, traces_csv_text
from adaptsim.svgplot import PALETTE, SHADE_PALETTE, LineChart, _axis_range, _ticks


def valid_document():
    return {
        "horizon": 40,
        "seed": 11,
        "population": {
            "size": 25,
            "segments": [
                {
                    "name": "all",
                    "fraction": 1.0,
                    "gamma_range": [0.1, 0.3],
                    "bass": {"p": 0.2, "q": 0.3},
                    "initial_headroom": 0.5,
                    "headroom_jitter": 0.05,
                }
            ],
        },
        "schedule": {"kind": "continuous", "c0": 1.0, "resource_growth": 0.2, "alpha": 0.08},
        "satisfaction": {"k": 1.0, "b": 0.0},
    }


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestParseScenario:
    def test_valid_document_round_trip(self):
        sc = parse_scenario_document(valid_document())
        assert sc.horizon == 40
        assert sc.seed == 11
        assert sc.population_size == 25
        assert sc.segments[0].gamma_range == (0.1, 0.3)
        # Optional blocks default quietly.
        assert sc.satisfaction.loss_aversion == 2.25
        assert sc.churn == NO_CHURN
        assert sc.interventions == ()
        assert sc.trace_agents is False

    def test_unknown_top_key_suggests_nearest(self):
        doc = valid_document()
        doc["scheddule"] = doc.pop("schedule")
        with pytest.raises(ConfigurationError, match="did you mean 'schedule'"):
            parse_scenario_document(doc)

    def test_missing_required_key_names_path(self):
        doc = valid_document()
        del doc["satisfaction"]["k"]
        with pytest.raises(ConfigurationError, match="satisfaction.k"):
            parse_scenario_document(doc)

    def test_nested_error_names_segment_path(self):
        doc = valid_document()
        doc["population"]["segments"][0]["fraction"] = "lots"
        with pytest.raises(ConfigurationError, match=r"population.segments\[0\]"):
            parse_scenario_document(doc)

    def test_fraction_sum_error_names_path(self):
        doc = valid_document()
        doc["population"]["segments"][0]["fraction"] = 0.7
        with pytest.raises(ConfigurationError, match=r"segments\[\*\].fraction"):
            parse_scenario_document(doc)

    def test_unknown_intervention_kind_suggests(self):
        doc = valid_document()
        doc["interventions"] = [
            {"kind": "novelty_rest", "rho": 0.3, "decay_delta": 0.6, "schedule": {"at": 5}}
        ]
        with pytest.raises(ConfigurationError, match="did you mean 'novelty_reset'"):
            parse_scenario_document(doc)

    def test_intervention_round_trip(self):
        doc = valid_document()
        doc["interventions"] = [
            {"kind": "novelty_reset", "rho": 0.3, "decay_delta": 0.6, "schedule": {"start": 10, "period": 10}},
            {"kind": "strategic_dip", "depth": 0.2, "duration": 3, "schedule": {"at": 5}},
        ]
        sc = parse_scenario_document(doc)
        assert isinstance(sc.interventions[0], NoveltyReset)
        assert sc.interventions[0].schedule.period == 10
        assert sc.interventions[1].duration == 3

    def test_churn_value_error_prefixed_with_path(self):
        doc = valid_document()
        doc["churn"] = {"s_churn": 0.1, "eta": -1.0, "cap": 0.5}
        with pytest.raises(ConfigurationError, match="churn"):
            parse_scenario_document(doc)

    def test_float_horizon_rejected(self):
        doc = valid_document()
        doc["horizon"] = 40.0
        with pytest.raises(ConfigurationError, match="scenario.horizon"):
            parse_scenario_document(doc)

    def test_table_schedule_document(self):
        doc = valid_document()
        doc["horizon"] = 3
        doc["schedule"] = {"kind": "table", "values": [1.0, 2.0, 4.0]}
        sc = parse_scenario_document(doc)
        assert sc.schedule.values == (1.0, 2.0, 4.0)

    def test_loader_reports_parse_errors_and_missing_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="parse error"):
            load_scenario(bad)
        with pytest.raises(OSError):
            load_scenario(tmp_path / "absent.json")


class TestDigest:
    def test_reorder_and_whitespace_invariant(self, tmp_path):
        doc = valid_document()
        shuffled = {k: doc[k] for k in reversed(list(doc))}
        a = scenario_digest(parse_scenario_document(doc))
        b = scenario_digest(parse_scenario_document(shuffled))
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(doc, indent=4), encoding="utf-8")
        c = scenario_digest(load_scenario(pretty))
        assert a == b == c
        assert len(a) == 64 and set(a) <= set("0123456789abcdef")

    def test_default_materialization_invariant(self):
        # Spelling out the defaults changes the file but not the digest.
        doc = valid_document()
        explicit = copy.deepcopy(doc)
        explicit["satisfaction"]["lambda"] = 2.25
        explicit["churn"] = {"s_churn": 0.0, "eta": 0.0, "cap": 0.0}
        explicit["interventions"] = []
        explicit["trace_agents"] = False
        assert scenario_digest(parse_scenario_document(doc)) == scenario_digest(
            parse_scenario_document(explicit)
        )

    def test_any_value_change_moves_digest(self):
        base = scenario_digest(parse_scenario_document(valid_document()))
        seen = {base}
        for mutate in (
            lambda d: d.update(seed=12),
            lambda d: d.update(horizon=41),
            lambda d: d["satisfaction"].update(k=1.1),
            lambda d: d["population"]["segments"][0].update(fraction=1.0, initial_headroom=0.6),
            lambda d: d["schedule"].update(alpha=0.09),
        ):
            doc = valid_document()
            mutate(doc)
            digest = scenario_digest(parse_scenario_document(doc))
            assert digest not in seen
            seen.add(digest)

    def test_document_round_trip_parses_back(self):
        sc = parse_scenario_document(valid_document())
        again = parse_scenario_document(scenario_to_document(sc))
        assert again == sc
        assert scenario_digest(again) == scenario_digest(sc)

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_json({"b": 1, "a": {"d": 2.5, "c": [1, 2]}})
        assert text == '{"a":{"c":[1,2],"d":2.5},"b":1}'
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


def small_run(tmp_path=None, horizon=3, trace=False, interventions=(), report=True):
    sc = Scenario(
        horizon=horizon,
        population_size=4,
        segments=(
            Segment(
                name="all",
                fraction=1.0,
                gamma_range=(0.2, 0.2),
                bass=BassParams(1.0, 0.0),
                initial_headroom=0.5,
                headroom_jitter=0.0,
            ),
        ),
        schedule=CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=0.2, alpha=0.1),
        satisfaction=SatisfactionParams(k=1.0, b=0.0),
        interventions=interventions,
        seed=5,
        trace_agents=trace,
    )
    return run(sc, report=report)


class TestEmitRun:
    def test_csv_line_count_and_header(self):
        text = run_csv_text(small_run(horizon=3))
        lines = text.split("\n")
        assert lines[-1] == ""
        assert len(lines) == 5  # header + 3 rows + trailing newline
        assert lines[0] == (
            "t,capability,capability_effective,frac_potential,frac_active,"
            "frac_churned,mean_log_reference,mean_satisfaction,s_q25,s_q75,"
            "seg_all_mean_s,interventions_applied"
        )

    def test_rows_reparse_and_conserve_fractions(self):
        out = small_run(horizon=10)
        rows = list(csv.DictReader(run_csv_text(out).splitlines()))
        assert len(rows) == 10
        for t, row in enumerate(rows):
            assert int(row["t"]) == t
            assert float(row["capability"]) == out.capability[t]
            total = (
                float(row["frac_potential"])
                + float(row["frac_active"])
                + float(row["frac_churned"])
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_empty_cells_for_inactive_steps(self):
        out = run(
            Scenario(
                horizon=4,
                population_size=3,
                segments=(
                    Segment(
                        name="all",
                        fraction=1.0,
                        gamma_range=(0.1, 0.1),
                        bass=BassParams(0.0, 0.0),
                        initial_headroom=0.5,
                    ),
                ),
                schedule=CapabilitySchedule(kind="table", values=(1.0, 1.0, 1.0, 1.0)),
                satisfaction=SatisfactionParams(k=1.0, b=0.0),
                seed=1,
            )
        )
        rows = list(csv.DictReader(run_csv_text(out).splitlines()))
        for row in rows:
            assert row["mean_satisfaction"] == ""
            assert row["seg_all_mean_s"] == ""
            assert row["frac_potential"] == "1.0"

    def test_interventions_column_joins_kinds(self):
        out = small_run(
            horizon=12,
            interventions=(NoveltyReset(rho=0.3, decay_delta=0.5, schedule=EventSchedule(at=6)),),
        )
        rows = list(csv.DictReader(run_csv_text(out).splitlines()))
        assert rows[6]["interventions_applied"] == "novelty_reset"
        assert all(rows[t]["interventions_applied"] == "" for t in range(12) if t != 6)

    def test_emit_writes_expected_files(self, tmp_path):
        out = small_run(horizon=5, trace=True)
        written = emit_run(out, tmp_path / "o", plots=True)
        names = [p.name for p in written]
        assert names == [
            "run.csv",
            "traces.csv",
            "satisfaction.svg",
            "segments.svg",
            "phases.svg",
            "manifest.json",
        ]
        for p in written:
            assert p.exists() and p.stat().st_size > 0

    def test_reemit_is_byte_identical_except_timestamp(self, tmp_path):
        out = small_run(horizon=6, trace=True)
        first = emit_run(out, tmp_path / "a", plots=True)
        second = emit_run(out, tmp_path / "b", plots=True)
        for pa, pb in zip(first, second):
            if pa.name == "manifest.json":
                ma = json.loads(pa.read_text())
                mb = json.loads(pb.read_text())
                ma.pop("timestamp")
                mb.pop("timestamp")
                assert ma == mb
            else:
                assert pa.read_bytes() == pb.read_bytes()

    def test_manifest_contents(self, tmp_path):
        out = small_run(horizon=5)
        emit_run(out, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["tool_version"] == adaptsim.__version__
        assert manifest["scenario_digest"] == scenario_digest(out.scenario)
        assert manifest["seed"] == 5
        assert manifest["rng_algorithms"] == ["splitmix64", "xoshiro256++"]
        assert manifest["outputs"] == ["run.csv", "manifest.json"]
        assert "timestamp" in manifest

    def test_traces_csv_shape(self):
        out = small_run(horizon=3, trace=True)
        lines = traces_csv_text(out).splitlines()
        assert lines[0] == "t,agent,state,satisfaction,log_reference"
        assert len(lines) == 1 + 3 * 4
        with pytest.raises(DomainError):
            traces_csv_text(small_run(horizon=3, trace=False))

    def test_a_run_without_report_writes_nothing(self, tmp_path):
        out = small_run(horizon=5, trace=True, report=False)
        report = "mean_log_reference, s_q25, s_q75, segment_mean_satisfaction"
        with pytest.raises(DomainError, match=f"^run was executed without report: it has no {report}$"):
            run_csv_text(out)
        with pytest.raises(DomainError, match="^run was executed without report: it has no segment_mean_satisfaction$"):
            output.segments_chart(out)
        with pytest.raises(DomainError, match="^run was executed without report: it has no traces$"):
            traces_csv_text(out)
        with pytest.raises(DomainError, match=f"it has no {report}$"):
            emit_run(out, tmp_path / "o", plots=True)
        assert not (tmp_path / "o").exists()


# The per-row formatter the CSV writers used before they formatted whole
# columns; kept as the reference their bytes must match.
def oracle_cell(value) -> str:
    f = float(value)
    return "" if math.isnan(f) else repr(f)


def oracle_run_csv_text(run_out) -> str:
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
            oracle_cell(run_out.capability[t]),
            oracle_cell(run_out.capability_effective[t]),
            oracle_cell(run_out.frac_potential[t]),
            oracle_cell(run_out.frac_active[t]),
            oracle_cell(run_out.frac_churned[t]),
            oracle_cell(run_out.mean_log_reference[t]),
            oracle_cell(run_out.mean_satisfaction[t]),
            oracle_cell(run_out.s_q25[t]),
            oracle_cell(run_out.s_q75[t]),
        ]
        row += [oracle_cell(v) for v in run_out.segment_mean_satisfaction[:, t]]
        row.append(";".join(run_out.interventions_applied[t]))
        writer.writerow(row)
    return buf.getvalue()


def oracle_traces_csv_text(run_out) -> str:
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
                    oracle_cell(tr.satisfaction[t, a]),
                    oracle_cell(tr.log_reference[t, a]),
                ]
            )
    return buf.getvalue()


EDGE_FLOATS = [math.nan, -0.0, 0.0, 5e-324, 1e16, 1e-7, 1e308, -1e308, math.inf, -1.5]
CELL_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
ORACLE = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def hand_built_run(horizon, names=("all",), columns=None, applied=None, traces=None):
    """A RunOutput with the given columns; cells not given are NaN."""
    names = tuple(names)
    segments = tuple(
        Segment(name, 1.0 if i == 0 else 0.0, (0.0, 0.0), BassParams(0.0, 0.0))
        for i, name in enumerate(names)
    )
    scenario = Scenario(
        horizon=horizon,
        population_size=1,
        segments=segments,
        schedule=CapabilitySchedule(kind="table", values=(1.0,) * horizon),
        satisfaction=SatisfactionParams(k=1.0, b=0.0),
    )
    if columns is None:
        columns = np.full((9 + len(names), horizon), np.nan)
    return RunOutput(
        scenario,
        *columns[:9],
        segment_mean_satisfaction=columns[9:],
        participants=np.zeros(horizon, dtype=np.int64),
        interventions_applied=applied or ((),) * horizon,
        traces=traces,
    )


@st.composite
def agent_traces(draw):
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    return AgentTraces(
        satisfaction=draw(hnp.arrays(np.float64, shape, elements=CELL_FLOATS)),
        log_reference=draw(hnp.arrays(np.float64, shape, elements=CELL_FLOATS)),
        state=draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 2))),
    )


@st.composite
def run_tables(draw):
    horizon = draw(st.integers(1, 6))
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3, unique=True))
    columns = draw(hnp.arrays(np.float64, (9 + len(names), horizon), elements=CELL_FLOATS))
    kinds = st.lists(st.sampled_from(sorted(INTERVENTION_KINDS)), max_size=3, unique=True)
    applied = tuple(tuple(draw(kinds)) for _ in range(horizon))
    return hand_built_run(horizon, names, columns, applied)


def traces_of(satisfaction, log_reference):
    """Hand-built traces whose states cycle through 0, 1 and 2."""
    satisfaction = np.array(satisfaction, dtype=np.float64)
    state = (np.arange(satisfaction.size) % 3).astype(np.int8).reshape(satisfaction.shape)
    return AgentTraces(satisfaction, np.array(log_reference, dtype=np.float64), state)


def traced_run(traces):
    return hand_built_run(traces.state.shape[0], traces=traces)


class TestCsvOracle:
    @ORACLE
    @given(agent_traces())
    @example(traces_of(np.reshape(EDGE_FLOATS[:9], (3, 3)), np.reshape(EDGE_FLOATS[1:], (3, 3))))
    @example(traces_of([[math.nan]], [[-0.0]]))
    @example(traces_of([[1e16, 1e-7]], [[5e-324, 1e308]]))
    @example(traces_of([[math.nan]] * 3, [[-1e308]] * 3))
    def test_traces_match_per_row_oracle(self, traces):
        out = traced_run(traces)
        want = oracle_traces_csv_text(out)
        # one block, then one step a block, then up to three (where one step has one agent)
        for block_rows in (output._BLOCK_ROWS, 1, 3):
            with mock.patch.object(output, "_BLOCK_ROWS", block_rows):
                assert traces_csv_text(out) == want

    @ORACLE
    @given(run_tables())
    def test_run_csv_matches_per_row_oracle(self, out):
        assert run_csv_text(out) == oracle_run_csv_text(out)

    @pytest.mark.parametrize("name", ['a,b', 'say "hi"', "line\nbreak", "plain"])
    def test_segment_name_header_keeps_csv_quoting(self, name):
        out = hand_built_run(2, names=(name, "other"))
        text = run_csv_text(out)
        assert text == oracle_run_csv_text(out)
        header = next(csv.reader(io.StringIO(text)))
        assert header[-3:] == [f"seg_{name}_mean_s", "seg_other_mean_s", "interventions_applied"]


class TestTracesOnTwoThreads:
    """traces.csv blocks are formatted on the calling thread and, when the
    process may run on two or more CPUs, one helper thread."""

    def test_the_same_bytes_on_one_and_two_cpus(self, monkeypatch):
        sc = load_scenario(Path(__file__).resolve().parents[1] / "configs" / "interventions.json")
        out = run(dataclasses.replace(sc, trace_agents=True))
        cells = shortest.cells
        texts, threads = [], set()

        def recording_cells(values):
            threads.add(threading.current_thread())
            return cells(values)

        monkeypatch.setattr(shortest, "cells", recording_cells)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        texts.append(traces_csv_text(out))
        assert threads == {threading.main_thread()}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads trade the GIL as often as they can
        try:
            texts.append(traces_csv_text(out))
        finally:
            sys.setswitchinterval(interval)
        assert texts[0] == texts[1]

    def test_an_error_on_the_helper_surfaces_from_simulate(self, tmp_path, monkeypatch, capsys):
        cells = shortest.cells
        threads = threading.active_count()
        helper_started = threading.Event()

        def cells_failing_on_the_helper(values):
            if threading.current_thread() is not threading.main_thread():
                helper_started.set()
                raise MemoryError
            if threading.active_count() > threads:  # so that the helper takes a block
                assert helper_started.wait(timeout=60)
            return cells(values)

        monkeypatch.setattr(shortest, "cells", cells_failing_on_the_helper)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(output, "_BLOCK_ROWS", 1)
        argv = ["simulate", "--config", write_config(tmp_path), "--out", str(tmp_path / "out"), "--agent-traces"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: out of memory in simulate\n"
        assert helper_started.is_set()
        assert threading.active_count() == threads

    def test_an_error_on_this_thread_cancels_the_helpers_pending_blocks(self, monkeypatch):
        out = small_run(horizon=40, trace=True)
        cells = shortest.cells
        threads = threading.active_count()
        raised = threading.Event()
        calls = []

        def cells_failing_on_this_thread(values):
            calls.append(threading.current_thread())
            if threading.current_thread() is threading.main_thread():
                raised.set()
                raise MemoryError
            assert raised.wait(timeout=60)
            return cells(values)

        monkeypatch.setattr(shortest, "cells", cells_failing_on_this_thread)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(output, "_BLOCK_ROWS", 1)
        with pytest.raises(MemoryError):
            traces_csv_text(out)
        assert threading.active_count() == threads
        # 40 blocks: this thread formatted one, the helper at most the one it had started
        assert calls.count(threading.main_thread()) == 1
        assert len(calls) < 10


class TestSvg:
    def test_charts_are_well_formed_xml(self, tmp_path):
        out = small_run(horizon=30, trace=False)
        emit_run(out, tmp_path, plots=True)
        for name in ("satisfaction.svg", "segments.svg", "phases.svg"):
            root = ET.fromstring((tmp_path / name).read_text())
            assert root.tag.endswith("svg")

    def test_labels_are_escaped(self):
        chart = LineChart(title="a<b & c>")
        chart.add_series("s<1>&", [0.0, 1.0, 2.0])
        text = chart.render()
        ET.fromstring(text)
        assert "a&lt;b &amp; c&gt;" in text

    def test_nan_gap_splits_polyline(self):
        chart = LineChart(title="gap")
        chart.add_series("s", [0.0, 1.0, float("nan"), 2.0, 3.0])
        split = chart.render()
        solid = LineChart(title="gap")
        solid.add_series("s", [0.0, 1.0, 1.5, 2.0, 3.0])
        assert split.count("<polyline") == solid.render().count("<polyline") + 1

    @pytest.mark.parametrize(
        "values",
        [
            [1e300, 1.0000000000000002e300, 1e300],  # a tick step below half an ulp looped forever
            [1.0, 1.7976931348623157e308, 1.0],  # the padded axis overflowed
            [5e-324, 1e-323, 5e-324],  # the tick span underflowed to 0
            [5e-324, 5e-324, 5e-324],  # the pad underflowed, leaving no span
        ],
    )
    def test_extreme_capability_tables_plot(self, values, tmp_path):
        # in a child whose address space is capped, so a runaway fails fast
        doc = valid_document()
        doc.update(horizon=3, schedule={"kind": "table", "values": values})
        doc["population"]["size"] = 5
        cfg = write_config(tmp_path, doc)
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from adaptsim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--plots"]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")  # BLAS threads reserve address space
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        for name in ("satisfaction.svg", "segments.svg", "phases.svg"):
            text = (tmp_path / "out" / name).read_text()
            ET.fromstring(text)
            assert "nan" not in text and "inf" not in text, name

    @pytest.mark.parametrize(
        "values",
        [
            [1.5],  # one step: the x span is empty
            [1e17, float(np.nextafter(1e17, math.inf))],  # a tick step below half an ulp
            [2.0] * 3,  # a constant series is padded by 5% of its value
            [0.0] * 3,  # a zero one by 0.5
            [-1.7e308, 1.7e308],  # the y span overflows, so it is halved
            [math.nan, 1.0, math.nan, 2.0, 3.0],  # an isolated finite point
        ],
    )
    def test_edge_series_plot_inside_the_chart(self, values):
        chart = LineChart(title="t")
        chart.add_series("s", values)
        root = ET.fromstring(chart.render())
        for el in root.iter():
            coords = [el.get(a) for a in ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy", "width", "height")]
            coords += re.split("[ ,]", el.get("points", ""))
            assert all(math.isfinite(float(v)) for v in coords if v), el.attrib
        plotted = [el for el in root.iter() if el.tag.endswith(("polyline", "circle"))]
        ys = [float(el.get("cy")) for el in plotted if el.get("cy")]
        ys += [float(p.split(",")[1]) for el in plotted for p in el.get("points", "").split()]
        assert len(ys) == sum(map(math.isfinite, values))
        assert all(48.0 <= y <= 376.0 for y in ys), ys  # between the plot's top and bottom

    def test_a_one_step_chart_has_one_x_tick(self):
        chart = LineChart(title="t")
        chart.add_series("s", [1.5])
        root = ET.fromstring(chart.render())
        labels = [(el.get("text-anchor"), el.get("font-size"), el.text) for el in root.iter()]
        assert [text for anchor, size, text in labels if (anchor, size) == ("middle", "10")] == ["0"]

    def test_an_isolated_point_is_one_circle(self):
        chart = LineChart(title="t")
        chart.add_series("s", [math.nan, 1.0, math.nan, 2.0, 3.0])
        text = chart.render()
        assert text.count("<circle") == 1 and text.count("<polyline") == 1

    def test_tick_and_axis_edges(self):
        assert _ticks(1e17, float(np.nextafter(1e17, math.inf))) == [1e17]  # the next tick rounds back
        assert _axis_range([np.array([0.0] * 3)]) == (-0.5, 0.5)
        lo, hi = _axis_range([np.array([2.0] * 3)])
        assert lo == pytest.approx(1.9) and hi == pytest.approx(2.1)

    def test_render_is_deterministic(self):
        def build():
            chart = LineChart(title="t")
            chart.add_series("a", [1.0, 2.0, 1.5])
            chart.add_shade(0, 2, "zone")
            return chart.render()

        assert build() == build()

    def test_a_chart_keeps_its_series_and_shades_as_tuples_in_order(self):
        chart = LineChart(title="t")
        chart.add_series("a", [1, 2, 3])
        chart.add_series("b", (0.5, 1.5), axis="right")
        chart.add_shade(0, 2, "zone")
        (label, values, color, axis), second = chart.series
        assert (label, color, axis) == ("a", PALETTE[0], "left")
        assert values.dtype == np.float64 and values.tolist() == [1.0, 2.0, 3.0]
        assert second[0] == "b" and second[2:] == (PALETTE[1], "right")
        assert chart.shades == [(0, 2, "zone")]

    def test_series_colors_cycle_through_the_palette(self):
        chart = LineChart(title="t")
        for i in range(len(PALETTE) + 2):
            chart.add_series(f"s{i}", [float(i), float(i + 1)])
        colors = [PALETTE[i % len(PALETTE)] for i in range(len(PALETTE) + 2)]
        assert [color for _, _, color, _ in chart.series] == colors
        root = ET.fromstring(chart.render())
        strokes = [el.get("stroke") for el in root.iter() if el.tag.endswith("polyline")]
        assert strokes == colors

    def test_a_right_series_titles_the_right_axis_and_marks_its_legend(self):
        chart = LineChart(title="t")
        chart.add_series("left one", [0.0, 1.0])
        chart.add_series("capability", [10.0, 20.0], axis="right")
        chart.add_series("other", [5.0, 6.0], axis="right")
        root = ET.fromstring(chart.render())
        texts = [el for el in root.iter() if el.tag.endswith("text")]
        titles = [el.text for el in texts if "rotate(90 " in (el.get("transform") or "")]
        assert titles == ["capability"]  # the first right series names the axis
        legend = [el.text for el in texts if el.get("y") == "43.00"]
        assert legend == ["left one", "capability (right)", "other (right)"]
        assert any(el.get("text-anchor") == "start" for el in texts)  # the right axis' tick labels

    def test_a_chart_without_a_right_series_has_no_right_axis(self):
        chart = LineChart(title="t")
        chart.add_series("a", [0.0, 1.0])
        root = ET.fromstring(chart.render())
        texts = [el for el in root.iter() if el.tag.endswith("text")]
        assert not any("rotate(90 " in (el.get("transform") or "") for el in texts)
        assert not any(el.get("text-anchor") == "start" for el in texts)

    def test_shades_cycle_their_palette_and_alternate_their_label_rows(self):
        chart = LineChart(title="t")
        chart.add_series("s", [0.0] * 11)
        for i in range(len(SHADE_PALETTE) + 1):
            chart.add_shade(2 * i, 2 * i + 2, f"z{i}")
        root = ET.fromstring(chart.render())
        fills = [el.get("fill") for el in root.iter() if el.get("fill-opacity") == "0.55"]
        assert fills == [SHADE_PALETTE[i % len(SHADE_PALETTE)] for i in range(len(SHADE_PALETTE) + 1)]
        rows = [el.get("y") for el in root.iter() if el.get("font-size") == "9"]
        assert rows == ["60.00", "71.00", "60.00", "71.00", "60.00"]

    @pytest.mark.parametrize(
        "start, end, x, width",
        [
            (1, 4, "242.00", "356.00"),  # steps 1 to 3 of 5
            (2, 3, "420.00", "0.00"),  # one step
            (4, 4, "776.00", "0.00"),  # no step: drawn at its start
        ],
    )
    def test_a_shade_spans_its_first_to_its_last_step(self, start, end, x, width):
        chart = LineChart(title="t")
        chart.add_series("s", [0.0] * 5)  # x = 64 + 178 * step
        chart.add_shade(start, end, "z")
        root = ET.fromstring(chart.render())
        (shade,) = [el for el in root.iter() if el.get("fill-opacity") == "0.55"]
        assert (shade.get("x"), shade.get("width")) == (x, width)


def write_config(tmp_path, doc=None, name="scenario.json"):
    return write_json(tmp_path / name, doc or valid_document())


# Edits of configs/interventions.json that validate once accepted: the first
# three ran to inf or nan cells in run.csv, the last stopped with exit 3.
OVERFLOWS = {
    "initial_headroom": lambda doc: doc["population"]["segments"][0].update(initial_headroom=1e308),
    "social_benchmark.beta0": lambda doc: doc["interventions"].append(
        {"kind": "social_benchmark", "beta0": 1e308, "tau": 100, "schedule": {"start": 10, "period": 60}}
    ),
    "personalization.max_log_mult": lambda doc: doc["interventions"].append(
        {"kind": "personalization", "max_log_mult": 1e308, "gamma_damp_omega": 0.5, "schedule": {"at": 50}}
    ),
    "satisfaction.k": lambda doc: doc["satisfaction"].update(k=1e308),
}


def validate_edited(edit):
    """argv of ``validate`` on the valid document after ``edit(document)``."""

    def argv(tmp_path):
        doc = valid_document()
        edit(doc)
        return ["validate", "--config", write_config(tmp_path, doc)]

    return argv


def sweep_edited(edit, *flags):
    """argv of ``sweep`` on the valid document, with a sweep spec after ``edit(spec)``."""

    def argv(tmp_path):
        spec = {
            "samples": 4,
            "seed": 9,
            "metrics": ["churn_total"],
            "dimensions": [{"name": "k", "lo": 0.5, "hi": 1.5, "paths": [["satisfaction", "k"]]}],
        }
        edit(spec)
        spec_path = write_json(tmp_path / "sweep.json", spec)
        out = str(tmp_path / "sweep.csv")
        return ["sweep", "--config", write_config(tmp_path), "--sweep", spec_path, "--out", out, *flags]

    return argv


def cadence_over(intervals):
    """argv of ``optimize-cadence`` on the valid document over ``intervals``."""

    def argv(tmp_path):
        out = str(tmp_path / "cadence.csv")
        return ["optimize-cadence", "--config", write_config(tmp_path), "--budget", "1.0", "--intervals", intervals,
                "--out", out]

    return argv


def phases_of_an_empty_column(tmp_path):
    src = tmp_path / "run.csv"
    src.write_text("t,x\n0,\n1,\n", encoding="utf-8")
    return ["phases", "--input", str(src), "--column", "x"]


def first_segment(doc) -> dict:
    return doc["population"]["segments"][0]


# One row per rejection: the argv its command line is built by, the exit
# code and the message.
REJECTIONS = {
    "object": (validate_edited(lambda d: d.update(satisfaction=[])), 2, "satisfaction: expected an object"),
    "list": (
        validate_edited(lambda d: d["population"].update(segments={})),
        2,
        "population.segments: expected a list",
    ),
    "string": (
        validate_edited(lambda d: first_segment(d).update(name=1)),
        2,
        "population.segments[0].name: expected a string",
    ),
    "range": (
        validate_edited(lambda d: first_segment(d).update(gamma_range=[0.1])),
        2,
        "population.segments[0].gamma_range: expected [lo, hi] numbers",
    ),
    "range_string": (
        validate_edited(lambda d: first_segment(d).update(gamma_range="0.1,0.3")),
        2,
        "population.segments[0].gamma_range: expected [lo, hi] numbers",
    ),
    "float_string": (
        validate_edited(lambda d: d["satisfaction"].update(k="1.0")),
        2,
        "satisfaction: satisfaction.k must be a positive finite number",
    ),
    "event_null": (
        validate_edited(
            lambda d: d.update(
                interventions=[
                    {"kind": "social_benchmark", "beta0": 0.5, "tau": 5, "schedule": {"at": 5, "period": None}}
                ]
            )
        ),
        2,
        "interventions[0].schedule.period: expected an integer",
    ),
    "kind": (validate_edited(lambda d: d["schedule"].pop("kind")), 2, "schedule.kind: missing required key"),
    "trace_agents": (
        validate_edited(lambda d: d.update(trace_agents=1)),
        2,
        "scenario.trace_agents: expected a boolean",
    ),
    "values": (
        validate_edited(lambda d: d.update(schedule={"kind": "table", "values": []})),
        2,
        "schedule: schedule.values must be a non-empty list",
    ),
    "resource_growth": (
        validate_edited(lambda d: d["schedule"].update(resource_growth=-0.5)),
        2,
        "schedule: schedule.resource_growth must be >= 0",
    ),
    "s_churn": (
        validate_edited(lambda d: d.update(churn={"s_churn": math.inf, "eta": 0.5, "cap": 0.05})),
        2,
        "churn: churn.s_churn must be finite",
    ),
    "beta0": (
        validate_edited(
            lambda d: d.update(
                interventions=[{"kind": "social_benchmark", "beta0": -2, "tau": 5, "schedule": {"at": 3}}]
            )
        ),
        2,
        "interventions[0]: social_benchmark.beta0 must be finite and >= -1",
    ),
    "segment_name": (
        validate_edited(lambda d: first_segment(d).update(name="")),
        2,
        "population.segments[0]: segment.name must be non-empty",
    ),
    "fraction": (
        validate_edited(lambda d: first_segment(d).update(fraction=1.5)),
        2,
        "population.segments[0]: segment 'all': fraction must lie in [0, 1]",
    ),
    "dimension_name": (
        sweep_edited(lambda s: s["dimensions"][0].update(name="")),
        2,
        "sweep.dimensions[0]: sweep dimension name must be non-empty",
    ),
    "paths": (
        sweep_edited(lambda s: s["dimensions"][0].update(paths=[])),
        2,
        "sweep.dimensions[0]: dimension 'k': needs at least one non-empty path",
    ),
    "dimension_repeat": (
        sweep_edited(lambda s: s["dimensions"].append(dict(s["dimensions"][0], lo=0.7))),
        2,
        "sweep: sweep.dimensions[1].name: sweep dimension names must be unique",
    ),
    "metrics": (sweep_edited(lambda s: s.update(metrics=[])), 2, "sweep: sweep.metrics must be non-empty"),
    "metric_repeat": (
        sweep_edited(lambda s: s["metrics"].append("churn_total")),
        2,
        "sweep: sweep.metrics[1]: 'churn_total' repeats a column name of sweep.csv",
    ),
    **{
        f"dimension_named_{name}": (
            sweep_edited(lambda s, name=name: s["dimensions"][0].update(name=name)),
            2,
            f"sweep: sweep.dimensions[0].name: {name!r} repeats a column name of sweep.csv",
        )
        for name in ("sample", "error", "churn_total")
    },
    "seed_path": (
        sweep_edited(lambda s: s["dimensions"][0].update(paths=[["satisfaction", "b"], ["seed"]], lo=0.0, hi=100.0)),
        2,
        "sweep: sweep.dimensions[0].paths[1]: ['seed'] is derived from sweep.seed and the sample index",
    ),
    "path_repeat": (
        sweep_edited(lambda s: s["dimensions"].append(dict(s["dimensions"][0], name="k2"))),
        2,
        "sweep: sweep.dimensions[1].paths[0]: ['satisfaction', 'k'] is also written by sweep.dimensions[0]",
    ),
    "negative_index": (
        sweep_edited(lambda s: s.update(dimensions=[
            {"name": "lo", "lo": 0.05, "hi": 0.1, "paths": [["population", "segments", 0, "gamma_range", 0]]},
            {"name": "lo_again", "lo": 0.6, "hi": 0.7, "paths": [["population", "segments", -1, "gamma_range", 0]]},
        ])),
        2,
        "sweep: sweep.dimensions[1].paths[0]: ['population', 'segments', -1, 'gamma_range', 0] has a negative "
        "index; count list items from 0",
    ),
    "range_too_wide": (
        sweep_edited(lambda s: s["dimensions"][0].update(lo=0.0, hi=1e308)),
        2,
        "sweep: sweep.dimensions[0]: samples * (hi - lo) could leave the float range",
    ),
    "integer_path": (
        sweep_edited(lambda s: s["dimensions"][0].update(paths=[["horizon"]], lo=100.0, hi=200.0)),
        2,
        "sweep path horizon: an integer field; sweep values are reals",
    ),
    "parallel": (sweep_edited(lambda s: None, "--parallel", "0"), 2, "--parallel must be >= 1"),
    "interval_repeat": (cadence_over("1,1"), 2, "intervals[1]: 1 repeats intervals[0]"),
    "empty_column": (phases_of_an_empty_column, 3, "column 'x' has no values"),
}


class TestCli:
    def test_validate_prints_digest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", cfg]) == 0
        printed = capsys.readouterr().out
        want = scenario_digest(parse_scenario_document(valid_document()))
        assert want in printed

    def test_negative_zero_intercept_is_zero(self, tmp_path, capsys):
        base = json.loads((Path(__file__).resolve().parents[1] / "configs" / "baseline.json").read_text())
        seen = []
        for b in (-0.0, 0.0):
            base["satisfaction"]["b"] = b
            cfg = write_config(tmp_path, base, name=f"b{b}.json")
            assert main(["validate", "--config", cfg]) == 0
            seen.append((capsys.readouterr().out, run_csv_text(run(load_scenario(cfg)))))
        assert seen[0] == seen[1]

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        doc = valid_document()
        doc["horizon"] = 0
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 2
        assert "error" in capsys.readouterr().err

    def test_capability_overflow_is_rejected_before_running(self, tmp_path, capsys):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "continuous.json"
        doc = json.loads(cfg.read_text())
        doc["schedule"]["resource_growth"] = 1e300
        doc["horizon"] = 2000  # ln C(t) grows 55.3 per step and passes 709.8 at step 13
        over = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", over]) == 2
            assert main(["simulate", "--config", over, "--out", str(tmp_path / "out")]) == 2
            # a budget of e**1000 overflows every candidate's last release
            cadence = ["--budget", "1000", "--intervals", "5..6", "--out", str(tmp_path / "c.csv")]
            assert main(["optimize-cadence", "--config", str(cfg), *cadence]) == 2
        err = capsys.readouterr().err
        assert "Warning" not in err
        assert err.count("error: schedule: C(t) overflows at step 13 of horizon 2000") == 2
        assert "error: schedule: C(t) overflows at step" in err.splitlines()[-1]

    def test_satisfaction_overflow_stops_the_run_without_churn(self, tmp_path, capsys):
        # k * gap would overflow on the first loss: the build rejects it
        cfg = Path(__file__).resolve().parents[1] / "configs" / "continuous.json"
        doc = json.loads(cfg.read_text())
        assert "churn" not in doc
        doc["satisfaction"]["k"] = 1e308
        doc["population"]["size"] = 20
        for seg in doc["population"]["segments"]:
            seg["initial_headroom"] = 2
        over = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", over]) == 2
            assert main(["simulate", "--config", over, "--out", str(tmp_path / "out")]) == 2
        err = "error: satisfaction.k, lambda and b: satisfaction could leave the float range\n"
        assert capsys.readouterr().err == err * 2
        assert not (tmp_path / "out" / "run.csv").exists()

    @pytest.mark.parametrize("field", list(OVERFLOWS))
    def test_a_run_that_could_overflow_is_rejected_naming_the_field(self, field, tmp_path, capsys):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "interventions.json"
        doc = json.loads(cfg.read_text())
        OVERFLOWS[field](doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", write_config(tmp_path, doc)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert field in lines[0]
        assert "could leave the float range" in lines[0]

    def test_dip_to_zero_capability_is_rejected_before_running(self, tmp_path, capsys):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "continuous.json"
        doc = json.loads(cfg.read_text())
        doc["schedule"].update(c0=5e-324, resource_growth=0.0)  # the smallest subnormal
        doc["interventions"] = [
            {"kind": "strategic_dip", "depth": 0.9, "duration": 3, "schedule": {"at": 10}}
        ]
        zero = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", zero]) == 2
            assert main(["simulate", "--config", zero, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: effective C(t) is 0 at step 11 of horizon 200\n" * 2

    @pytest.mark.parametrize("horizon", [10**30, 2**50])  # beyond numpy's size limit; 8 PiB
    def test_unallocatable_horizon_is_config_error(self, horizon, tmp_path, capsys):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "baseline.json"
        doc = json.loads(cfg.read_text())
        doc["horizon"] = horizon
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 2
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        want = f"error: horizon {horizon}: its per-step arrays cannot be allocated\n"
        assert err == want * 2

    @pytest.mark.parametrize("size", [2**60, 2**63])  # past numpy's size limit for 8-byte items
    def test_unallocatable_population_is_config_error(self, size, tmp_path, capsys):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "baseline.json"
        doc = json.loads(cfg.read_text())
        doc["population"]["size"] = size
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 2
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: population.size {size}: its per-agent arrays cannot be allocated\n" * 2

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "none.json")]) == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "text", ["[" * 200_000 + "]" * 200_000, '{"seed": ' + "1" * 5001 + "}"], ids=["deep", "digits"]
    )
    @pytest.mark.parametrize("command", ["validate", "simulate", "optimize-cadence", "sweep", "sweep-spec"])
    def test_json_past_the_parsers_limits_is_config_error(self, command, text, tmp_path, capsys):
        # nesting past the recursion limit, or an integer past Python's
        # 4,300-digit limit, is one error line and exit 2, never a traceback
        configs = Path(__file__).resolve().parents[1] / "configs"
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        config = str(configs / "baseline.json") if command == "sweep-spec" else str(bad)
        spec = str(bad) if command == "sweep-spec" else str(configs / "sweep_gamma.json")
        argv = {
            "validate": ["validate", "--config", config],
            "simulate": ["simulate", "--config", config, "--out", str(out)],
            "optimize-cadence": ["optimize-cadence", "--config", config, "--budget", "1", "--intervals", "5..8"],
        }.get(command, ["sweep", "--config", config, "--sweep", spec])
        argv += ["--out", str(out)] if command in ("optimize-cadence", "sweep", "sweep-spec") else []
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: parse error: ")
        assert not out.exists()

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["simulate", "--nope"]) == 2
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_simulate_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(
            ["simulate", "--config", cfg, "--out", str(out_dir), "--plots", "--agent-traces"]
        )
        assert code == 0
        for name in ("run.csv", "traces.csv", "satisfaction.svg", "manifest.json"):
            assert (out_dir / name).exists()
        assert "wrote" in capsys.readouterr().out

    def test_simulate_seed_override_lands_in_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--seed", "123", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 123
        sc = dataclasses.replace(parse_scenario_document(valid_document()), seed=123)
        assert manifest["scenario_digest"] == scenario_digest(sc)

    def test_simulate_overrides_rebuild_the_scenario_once(self, tmp_path, monkeypatch, capsys):
        # C(t) is computed once per Scenario build, and a rebuild that keeps the
        # schedule, interventions and horizon reuses it; run() reads the regimes
        calls = []
        real = adaptsim.engine.capability_series
        monkeypatch.setattr(
            adaptsim.engine, "capability_series", lambda *args: calls.append(args) or real(*args)
        )
        cfg = str(Path(__file__).resolve().parents[1] / "configs" / "interventions.json")
        out = ["--out", str(tmp_path / "out")]
        assert main(["simulate", "--config", cfg, *out]) == 0
        assert len(calls) == 1
        calls.clear()
        assert main(["simulate", "--config", cfg, "--seed", "5", "--agent-traces", *out]) == 0
        assert len(calls) == 1
        capsys.readouterr()

    def test_phases_command_partitions_horizon(self, tmp_path, capsys):
        doc = valid_document()
        doc["horizon"] = 120
        doc["population"]["segments"][0]["bass"] = {"p": 1.0, "q": 0.0}
        doc["schedule"] = {
            "kind": "table",
            "values": [math.exp(min(t, 40) * 0.05) for t in range(120)],
        }
        doc["population"]["segments"][0]["gamma_range"] = [0.0, 0.0]
        cfg = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["phases", "--input", str(out_dir / "run.csv"), "--column", "mean_satisfaction"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        parsed = [line.split("\t") for line in lines]
        kinds = {p[0] for p in parsed}
        assert kinds <= {"rapid_gain", "diminishing_returns", "stabilization", "resurgence"}
        assert parsed[0][1] == "0"
        assert int(parsed[-1][2]) == 120
        for a, b in zip(parsed, parsed[1:]):
            assert a[2] == b[1]

    def test_phases_unknown_column(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out_dir)])
        capsys.readouterr()
        assert main(["phases", "--input", str(out_dir / "run.csv"), "--column", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_phases_rejects_a_series_too_large_to_smooth(self, tmp_path, capsys):
        # every cell is finite, but the running sums behind the smoothing overflow
        walk = np.cumsum(np.random.default_rng(3).normal(size=40)) * 1e307
        assert np.all(np.isfinite(walk))
        src = tmp_path / "run.csv"
        src.write_text("x\n" + "".join(f"{v!r}\n" for v in walk.tolist()), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["phases", "--input", str(src), "--column", "x"]) == 3
        message = "series is too large to smooth: its smoothed slopes are not finite"
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "window, code, message",
        [
            ("4", 2, "--window must be an odd integer >= 1"),
            ("0", 2, "--window must be an odd integer >= 1"),
            ("-3", 2, "--window must be an odd integer >= 1"),
            ("21", 3, "series of length 20 is too short for window 21"),  # depends on the data
        ],
    )
    def test_phases_window_errors(self, window, code, message, tmp_path, capsys):
        src = tmp_path / "run.csv"
        src.write_text("x\n" + "".join(f"{t}\n" for t in range(20)), encoding="utf-8")
        assert main(["phases", "--input", str(src), "--column", "x", "--window", window]) == code
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("argv, code, message", REJECTIONS.values(), ids=REJECTIONS)
    def test_rejection_exit_code_and_message(self, argv, code, message, tmp_path, capsys):
        assert main(argv(tmp_path)) == code
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_a_repeated_segment_name_or_intervention_kind_names_its_path(self, tmp_path, capsys):
        configs = Path(__file__).resolve().parents[1] / "configs"
        doc = json.loads((configs / "interventions.json").read_text(encoding="utf-8"))
        doc["interventions"].append(copy.deepcopy(doc["interventions"][0]))
        assert main(["validate", "--config", write_config(tmp_path, doc, "kinds.json")]) == 2
        doc = json.loads((configs / "baseline.json").read_text(encoding="utf-8"))
        segments = doc["population"]["segments"]
        segments[0]["fraction"] = 0.5
        segments.append(copy.deepcopy(segments[0]))
        assert main(["validate", "--config", write_config(tmp_path, doc, "names.json")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: interventions[3]: at most one intervention of each kind per scenario",
            "error: population.segments[1].name: segment names must be unique",
        ]

    @pytest.mark.parametrize(
        "command, culprit",
        [
            ("validate", "binary"),
            ("sweep", "binary"),
            ("phases", "interventions_applied"),
            ("phases", "abc"),
            ("phases", "1.0\x00"),
            ("phases", "binary"),
        ],
    )
    def test_unreadable_input_is_config_error(self, command, culprit, tmp_path, capsys):
        # a file that is not UTF-8, or a phases cell that is not a number,
        # is one error line and exit 2, never a traceback
        configs = Path(__file__).resolve().parents[1] / "configs"
        binary = tmp_path / "binary"
        binary.write_bytes(b"{\"horizon\": \xff\xfe}\n")
        column = "mean_satisfaction"
        if command == "validate":
            argv = ["validate", "--config", str(binary)]
        elif command == "sweep":
            argv = ["sweep", "--config", str(configs / "baseline.json"), "--sweep", str(binary)]
            argv += ["--out", str(tmp_path / "sweep.csv")]
        else:
            assert main(["simulate", "--config", str(configs / "interventions.json"), "--out", str(tmp_path)]) == 0
            table = tmp_path / "run.csv"
            if culprit == "interventions_applied":
                column = culprit
            elif culprit == "binary":
                table = binary
            else:
                lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
                row = lines[5].split(",")
                row[lines[0].split(",").index(column)] = culprit
                lines[5] = ",".join(row)
                table.write_text("".join(lines), encoding="utf-8")
            argv = ["phases", "--input", str(table), "--column", column]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(binary if culprit == "binary" else table) in err[0]
        if command == "phases" and culprit != "binary":
            assert f"column {column!r}: expected a number, got" in err[0]
        if culprit in ("abc", "1.0\x00"):
            assert "line 6, column" in err[0]

    @pytest.mark.parametrize("command", ["sweep", "optimize-cadence"])
    def test_unwritable_out_fails_before_any_run(self, command, tmp_path, monkeypatch, capsys):
        def no_run(scenario, report=True):
            raise AssertionError("ran before opening --out")

        monkeypatch.setattr(adaptsim.engine, "run", no_run)
        monkeypatch.setattr(adaptsim.analysis, "run", no_run)
        configs = Path(__file__).resolve().parents[1] / "configs"
        out = tmp_path / "missing" / "x.csv"
        argv = [command, "--config", str(configs / "baseline.json"), "--out", str(out)]
        if command == "sweep":
            argv += ["--sweep", str(configs / "sweep_gamma.json")]
        else:
            argv += ["--budget", "1.0", "--intervals", "5..8"]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    def test_unwritable_out_fails_before_a_broken_base(self, tmp_path, capsys):
        # run_sweep parses the base, so it fails on the out path first, as a bad sweep path does
        doc = valid_document()
        doc["horizon"] = 0
        spec = Path(__file__).resolve().parents[1] / "configs" / "sweep_gamma.json"
        out = tmp_path / "missing" / "x.csv"
        argv = ["sweep", "--config", write_config(tmp_path, doc), "--sweep", str(spec), "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    @pytest.mark.parametrize(
        "command, breakage, code, message",
        [
            ("sweep", "base", 2, "error: horizon must be an integer >= 1\n"),
            ("sweep", "path", 2, "error: sweep path population.nowhere: missing leaf\n"),
            ("optimize-cadence", "nobody", 3, "error: interval 5: no active agent-steps to average\n"),
            ("optimize-cadence", "repeat", 2, "error: intervals[1]: 5 repeats intervals[0]\n"),
        ],
    )
    def test_failed_command_leaves_an_existing_out_as_it_was(
        self, command, breakage, code, message, tmp_path, capsys
    ):
        def write_sweep(path):
            dim = {"name": "gamma", "lo": 0.1, "hi": 0.2, "paths": [path]}
            spec = {"samples": 2, "seed": 3, "metrics": ["peak_satisfaction"], "dimensions": [dim]}
            return write_json(tmp_path / "sweep.json", spec)

        doc = valid_document()
        if breakage == "base":
            doc["horizon"] = 0
        if breakage == "nobody":
            doc["population"]["segments"][0]["bass"] = {"p": 0.0, "q": 0.0}
        gamma_lo = ["population", "segments", 0, "gamma_range", 0]
        previous = "a previous result, longer than the next one\n" * 20
        out = tmp_path / "result.csv"
        out.write_text(previous, encoding="utf-8")
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out)]
        if command == "sweep":
            argv += ["--sweep", write_sweep(["population", "nowhere"] if breakage == "path" else gamma_lo)]
        else:
            argv += ["--budget", "1.0", "--intervals", "5,5" if breakage == "repeat" else "5,6"]
        assert main(argv) == code
        assert capsys.readouterr().err == message
        assert out.read_text(encoding="utf-8") == previous
        # a new --out path is left absent, whether or not it was opened
        assert main(argv[:4] + [str(tmp_path / "new.csv")] + argv[5:]) == code
        assert capsys.readouterr().err == message
        assert not (tmp_path / "new.csv").exists()
        # once the command succeeds, the file holds its result and nothing of the old one
        write_config(tmp_path)
        if command == "sweep":
            write_sweep(gamma_lo)
        else:
            argv[-1] = "5,6"
        assert main(argv) == 0
        written = out.read_text(encoding="utf-8")
        assert written.startswith("sample,gamma," if command == "sweep" else "interval,objective\n")
        assert "previous" not in written

    def test_optimize_cadence_matches_library(self, tmp_path, capsys):
        doc = valid_document()
        doc["horizon"] = 80
        doc["population"]["segments"][0]["bass"] = {"p": 1.0, "q": 0.0}
        cfg = write_config(tmp_path, doc)
        out_csv = tmp_path / "cadence.csv"
        code = main(
            [
                "optimize-cadence",
                "--config",
                cfg,
                "--budget",
                str(math.log(8.0)),
                "--intervals",
                "5,10,20,40",
                "--out",
                str(out_csv),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        search = CadenceSearch(
            base=parse_scenario_document(doc),
            total_log_budget=math.log(8.0),
            intervals=(5, 10, 20, 40),
        )
        want = optimize_cadence(search)
        assert f"best interval: {want.best_interval}" in printed
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        assert rows[0] == ["interval", "objective"]
        assert rows[-1] == ["best", str(want.best_interval)]
        got_table = {int(r[0]): float(r[1]) for r in rows[1:-1]}
        assert got_table == pytest.approx(dict(want.table))

    def test_parse_intervals_forms(self):
        assert parse_intervals("3..6") == range(3, 7)
        assert parse_intervals("5,2,9") == (5, 2, 9)
        with pytest.raises(ConfigurationError):
            parse_intervals("6..3")
        with pytest.raises(ConfigurationError):
            parse_intervals("five")

    @pytest.mark.parametrize("hi", ["1000000000000", "1" + "0" * 400], ids=["1e12", "1e400"])
    def test_a_huge_interval_range_stops_at_the_first_interval_past_the_horizon(self, hi, tmp_path):
        # in a child whose address space is capped: the range must not be materialized
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from adaptsim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        configs = Path(__file__).resolve().parents[1] / "configs"
        out = tmp_path / "cadence.csv"
        argv = ["optimize-cadence", "--config", str(configs / "baseline.json"), "--budget", "1.5"]
        argv += ["--intervals", f"1..{hi}", "--out", str(out)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")  # BLAS threads reserve address space
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: cadence.interval 150 admits no release within horizon 150\n"
        assert not out.exists()

    def test_candidates_that_do_not_fit_in_memory_exit_3(self, tmp_path):
        # every interval below a horizon of 20000 admits a release, so the
        # candidates exhaust a 512 MiB address space long before the first
        # interval past the horizon
        doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / "baseline.json").read_text())
        doc["horizon"] = 20000
        doc["population"]["size"] = 10
        cfg = write_config(tmp_path, doc)
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
            "from adaptsim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        out = tmp_path / "cadence.csv"
        argv = ["optimize-cadence", "--config", cfg, "--budget", "2", "--intervals", "1..1000000000000"]
        argv += ["--out", str(out)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")  # BLAS threads reserve address space
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "error: out of memory in optimize-cadence\n"
        assert not out.exists()

    def test_sweep_command_and_parallel_equality(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        sweep_doc = {
            "samples": 6,
            "seed": 3,
            "metrics": ["time_avg_active_satisfaction", "final_adopted_fraction"],
            "dimensions": [
                {
                    "name": "gamma",
                    "lo": 0.05,
                    "hi": 0.4,
                    "paths": [
                        ["population", "segments", 0, "gamma_range", 0],
                        ["population", "segments", 0, "gamma_range", 1],
                    ],
                }
            ],
        }
        spec_path = write_json(tmp_path / "sweep.json", sweep_doc)
        seq_csv = tmp_path / "seq.csv"
        par_csv = tmp_path / "par.csv"
        assert main(["sweep", "--config", cfg, "--sweep", spec_path, "--out", str(seq_csv)]) == 0
        assert (
            main(
                ["sweep", "--config", cfg, "--sweep", spec_path, "--parallel", "2", "--out", str(par_csv)]
            )
            == 0
        )
        # under a one-CPU affinity mask, --parallel 2 starts no pool, whatever
        # the machine's CPU count
        def no_pool(max_workers):
            raise AssertionError("a process pool on one CPU")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        one_cpu_csv = tmp_path / "one_cpu.csv"
        argv = ["sweep", "--config", cfg, "--sweep", spec_path, "--parallel", "2", "--out", str(one_cpu_csv)]
        assert main(argv) == 0
        capsys.readouterr()
        assert seq_csv.read_bytes() == par_csv.read_bytes() == one_cpu_csv.read_bytes()
        rows = list(csv.reader(seq_csv.read_text().splitlines()))
        assert rows[0] == [
            "sample",
            "gamma",
            "time_avg_active_satisfaction",
            "final_adopted_fraction",
            "error",
        ]
        assert len(rows) == 7
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i
            assert 0.05 <= float(row[1]) < 0.4
            assert row[4] == ""

    def test_shipped_documents_validate(self, capsys):
        root = Path(__file__).resolve().parents[1] / "configs"
        scenarios = sorted(p for p in root.glob("*.json") if not p.name.startswith("sweep"))
        assert len(scenarios) >= 5
        for cfg in scenarios:
            assert main(["validate", "--config", str(cfg)]) == 0, cfg.name
        capsys.readouterr()
        spec = load_sweep_spec(root / "sweep_gamma.json")
        assert spec.samples == 64
        # the paired delivery-style documents end on the same capability
        cont = parse_scenario_document(json.loads((root / "continuous.json").read_text()))
        punc = parse_scenario_document(json.loads((root / "punctuated.json").read_text()))
        from adaptsim.schedule import capability_series

        end_c = capability_series(cont.schedule, cont.horizon)[-1]
        end_p = capability_series(punc.schedule, punc.horizon)[-1]
        assert end_p == pytest.approx(end_c, rel=1e-12)

    # only a run across worker processes imports the process pool, and only
    # writing a CSV builds the float formatter's tables
    @pytest.mark.parametrize("module", ["concurrent.futures.process", "adaptsim.shortest"])
    def test_cli_import_leaves_unneeded_modules_unloaded(self, module):
        code = f"import sys, adaptsim.cli; print({module!r} in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_traces_on_two_cpus_import_the_thread_pool_alone(self, tmp_path):
        code = (
            "import os, sys, adaptsim.cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "assert adaptsim.cli.main(sys.argv[1:]) == 0\n"
            "print(*(f'concurrent.futures.{m}' in sys.modules for m in ('thread', 'process')), file=sys.stderr)\n"
        )
        config = Path(__file__).resolve().parents[1] / "configs" / "interventions.json"  # many blocks
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "out"), "--agent-traces"]
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "True False\n"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "adaptsim", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert adaptsim.__version__ in proc.stdout
