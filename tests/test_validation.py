"""Each validation rule is applied the same way on every path to it:
documents, Scenario.validate, and SweepSpec.validate."""

import dataclasses
from pathlib import Path

import pytest

from adaptsim import (
    BassParams,
    CapabilitySchedule,
    ConfigurationError,
    SatisfactionParams,
    Scenario,
    Segment,
    SweepDimension,
    SweepSpec,
    analysis,
    config,
)
from adaptsim.analysis import parse_sweep_document
from adaptsim.config import parse_scenario_document, scenario_to_document

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Both sum to 1 + 1e-9 give or take one rounding step; math.fsum and a
# plain left-to-right sum land on opposite sides of the 1e-9 tolerance.
FSUM_ACCEPTS = [
    0.025176803143733023,
    0.19326662135993372,
    0.03142638807681258,
    0.047664097629686625,
    0.24456902073294204,
    0.10788523072316815,
    0.21335970907595733,
    0.13665213025776646,
]
FSUM_REJECTS = [
    0.14371508487236664,
    0.13983066680600537,
    0.06281090374625205,
    0.1382857054484975,
    0.13917897433277157,
    0.015092287771257793,
    0.09498349399271036,
    0.10921338579227163,
    0.04473196973912789,
    0.1121575284987392,
]


def scenario(fractions=(1.0,)) -> Scenario:
    return Scenario(
        horizon=10,
        population_size=50,
        segments=tuple(
            Segment(name=f"s{i}", fraction=f, gamma_range=(0.1, 0.2), bass=BassParams(p=0.1, q=0.2))
            for i, f in enumerate(fractions)
        ),
        schedule=CapabilitySchedule(kind="continuous", resource_growth=0.1),
        satisfaction=SatisfactionParams(k=1.0, b=0.0),
        seed=3,
    )


def sweep_document() -> dict:
    return {
        "samples": 4,
        "seed": 9,
        "metrics": ["churn_total"],
        "dimensions": [{"name": "k", "lo": 0.5, "hi": 1.5, "paths": [["satisfaction", "k"]]}],
    }


class TestSeed:
    def test_scenario_rejects_bool_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            dataclasses.replace(scenario(), seed=True).validate()

    def test_scenario_document_rejects_bool_seed(self):
        doc = scenario_to_document(scenario())
        doc["seed"] = True
        with pytest.raises(ConfigurationError, match="scenario.seed"):
            parse_scenario_document(doc)

    def test_sweep_spec_rejects_bool_seed(self):
        dim = SweepDimension(name="k", paths=(("satisfaction", "k"),), lo=0.5, hi=1.5)
        spec = SweepSpec(dimensions=(dim,), samples=4, seed=True, metrics=("churn_total",))
        with pytest.raises(ConfigurationError, match="sweep.seed"):
            spec.validate()

    def test_sweep_document_rejects_bool_seed(self):
        doc = sweep_document()
        assert parse_sweep_document(doc).seed == 9
        doc["seed"] = True
        with pytest.raises(ConfigurationError, match="sweep.seed"):
            parse_sweep_document(doc)


class TestFractionSum:
    def test_document_accepts_what_scenario_accepts(self):
        sc = scenario(FSUM_ACCEPTS)
        sc.validate()
        assert parse_scenario_document(scenario_to_document(sc)) == sc

    def test_document_rejects_what_scenario_rejects_and_names_path(self):
        with pytest.raises(ConfigurationError, match="fractions sum"):
            scenario(FSUM_REJECTS).validate()
        doc = scenario_to_document(scenario([1.0] * len(FSUM_REJECTS)))
        for seg, f in zip(doc["population"]["segments"], FSUM_REJECTS):
            seg["fraction"] = f
        with pytest.raises(ConfigurationError, match=r"^population\.segments\[\*\]\.fraction: "):
            parse_scenario_document(doc)


def test_config_and_analysis_load_the_same_sweep_spec():
    path = CONFIGS / "sweep_gamma.json"
    assert config.load_sweep_spec(path) == analysis.load_sweep_spec(path)
