"""Document intake, digests, file emission, SVG rendering, and the CLI."""

import copy
import csv
import dataclasses
import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

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
from adaptsim.engine import NO_CHURN, one_shot
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
