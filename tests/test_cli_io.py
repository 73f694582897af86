"""Document intake, digests, file emission, SVG rendering, and the CLI."""

import copy
import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

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
    NoveltyReset,
    SatisfactionParams,
    Scenario,
    Segment,
    BassParams,
    optimize_cadence,
    CadenceSearch,
    run,
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
from adaptsim.engine import NO_CHURN, AgentTraces, RunOutput, one_shot
from adaptsim.interventions import INTERVENTION_KINDS
from adaptsim.output import emit_run, run_csv_text, traces_csv_text
from adaptsim.svgplot import LineChart


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


def small_run(tmp_path=None, horizon=3, trace=False, interventions=()):
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
    return run(sc)


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
            interventions=(NoveltyReset(rho=0.3, decay_delta=0.5, schedule=one_shot(6)),),
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
        assert traces_csv_text(out) == oracle_traces_csv_text(out)

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


class TestSvg:
    def test_charts_are_well_formed_xml(self, tmp_path):
        out = small_run(horizon=30, trace=False)
        emit_run(out, tmp_path, plots=True)
        for name in ("satisfaction.svg", "segments.svg", "phases.svg"):
            root = ET.fromstring((tmp_path / name).read_text())
            assert root.tag.endswith("svg")

    def test_labels_are_escaped(self):
        chart = LineChart(title="a<b & c>", y_label="x")
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

    def test_render_is_deterministic(self):
        def build():
            chart = LineChart(title="t", y_label="y")
            chart.add_series("a", [1.0, 2.0, 1.5])
            chart.add_shade(0, 2, "#c6dbef", "zone")
            return chart.render()

        assert build() == build()


def write_config(tmp_path, doc=None, name="scenario.json"):
    return write_json(tmp_path / name, doc or valid_document())


class TestCli:
    def test_validate_prints_digest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", cfg]) == 0
        printed = capsys.readouterr().out
        want = scenario_digest(parse_scenario_document(valid_document()))
        assert want in printed

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

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "none.json")]) == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 2
        capsys.readouterr()

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
        # C(t) is computed once per Scenario build and once by run()
        calls = []
        real = adaptsim.engine.capability_series
        monkeypatch.setattr(
            adaptsim.engine, "capability_series", lambda *args: calls.append(args) or real(*args)
        )
        cfg = str(Path(__file__).resolve().parents[1] / "configs" / "interventions.json")
        out = ["--out", str(tmp_path / "out")]
        assert main(["simulate", "--config", cfg, *out]) == 0
        assert len(calls) == 2
        calls.clear()
        assert main(["simulate", "--config", cfg, "--seed", "5", "--agent-traces", *out]) == 0
        assert len(calls) == 3
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
        assert parse_intervals("3..6") == (3, 4, 5, 6)
        assert parse_intervals("5,2,9") == (5, 2, 9)
        with pytest.raises(ConfigurationError):
            parse_intervals("6..3")
        with pytest.raises(ConfigurationError):
            parse_intervals("five")

    def test_sweep_command_and_parallel_equality(self, tmp_path, capsys):
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
        capsys.readouterr()
        assert seq_csv.read_bytes() == par_csv.read_bytes()
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

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "adaptsim", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert adaptsim.__version__ in proc.stdout
