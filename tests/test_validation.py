"""Each validation rule is applied the same way on every path to it:
documents and the Scenario and SweepSpec constructors."""

import dataclasses
import json
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest
import same_bytes

import adaptsim
from adaptsim import (
    BassParams,
    BudgetedCadence,
    CadenceSearch,
    CapabilitySchedule,
    ChurnParams,
    ConfigurationError,
    EventSchedule,
    ExpectationManagement,
    NoveltyReset,
    Personalization,
    Release,
    SatisfactionParams,
    Scenario,
    Segment,
    SocialBenchmark,
    StrategicDip,
    SweepDimension,
    SweepSpec,
    analysis,
    config,
)
from adaptsim.analysis import parse_sweep_document
from adaptsim.config import parse_scenario_document, scenario_to_document
from adaptsim.errors import FieldError, fields, is_record
from adaptsim.interventions import INTERVENTION_KINDS
from adaptsim.output import run_csv_text
from adaptsim.schedule import SCHEDULE_KEYS

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
            dataclasses.replace(scenario(), seed=True)

    def test_scenario_document_rejects_bool_seed(self):
        doc = scenario_to_document(scenario())
        doc["seed"] = True
        with pytest.raises(ConfigurationError, match="scenario.seed"):
            parse_scenario_document(doc)

    def test_sweep_spec_rejects_bool_seed(self):
        dim = SweepDimension(name="k", paths=(("satisfaction", "k"),), lo=0.5, hi=1.5)
        with pytest.raises(ConfigurationError, match="^seed: expected an integer$"):
            SweepSpec(dimensions=(dim,), samples=4, seed=True, metrics=("churn_total",))

    def test_sweep_document_rejects_bool_seed(self):
        doc = sweep_document()
        assert parse_sweep_document(doc).seed == 9
        doc["seed"] = True
        with pytest.raises(ConfigurationError, match="sweep.seed"):
            parse_sweep_document(doc)


class TestFractionSum:
    def test_document_accepts_what_scenario_accepts(self):
        sc = scenario(FSUM_ACCEPTS)
        assert parse_scenario_document(scenario_to_document(sc)) == sc

    def test_document_rejects_what_scenario_rejects_and_names_path(self):
        with pytest.raises(ConfigurationError, match="fractions sum"):
            scenario(FSUM_REJECTS)
        doc = scenario_to_document(scenario([1.0] + [0.0] * (len(FSUM_REJECTS) - 1)))
        for seg, f in zip(doc["population"]["segments"], FSUM_REJECTS):
            seg["fraction"] = f
        with pytest.raises(ConfigurationError, match=r"^population\.segments\[\*\]\.fraction: "):
            parse_scenario_document(doc)


def test_a_tuple_parses_as_its_list():
    doc = json.loads((CONFIGS / "interventions.json").read_text(encoding="utf-8"))
    population = {**doc["population"], "segments": tuple(doc["population"]["segments"])}
    tupled = {**doc, "population": population, "interventions": tuple(doc["interventions"])}
    assert parse_scenario_document(tupled) == parse_scenario_document(doc)


def test_config_and_analysis_load_the_same_sweep_spec():
    path = CONFIGS / "sweep_gamma.json"
    assert config.load_sweep_spec(path) == analysis.load_sweep_spec(path)


AT = EventSchedule(at=0)
PATHS = (("satisfaction", "k"),)
# One row per real-valued record field: the record built with ``v`` in that
# field, its rejection message, and an in-range float and integer (None
# where no integer is in range).
REAL_FIELDS = {
    "SatisfactionParams.k": (
        lambda v: SatisfactionParams(k=v, b=0.0),
        "satisfaction.k must be a positive finite number", 1.5, 1,
    ),
    "SatisfactionParams.b": (
        lambda v: SatisfactionParams(k=1.0, b=v), "satisfaction.b must be finite", -0.5, 0,
    ),
    "SatisfactionParams.loss_aversion": (
        lambda v: SatisfactionParams(k=1.0, b=0.0, loss_aversion=v),
        "satisfaction.lambda must be finite and >= 1", 2.25, 1,
    ),
    "BassParams.p": (lambda v: BassParams(p=v, q=0.0), "bass.p must lie in [0, 1]", 0.5, 1),
    "BassParams.q": (lambda v: BassParams(p=0.0, q=v), "bass.q must be >= 0", 0.5, 1),
    "ChurnParams.s_churn": (
        lambda v: ChurnParams(s_churn=v, eta=0.5, cap=0.05), "churn.s_churn must be finite", -0.1, -1,
    ),
    "ChurnParams.eta": (
        lambda v: ChurnParams(s_churn=0.0, eta=v, cap=0.05), "churn.eta must be >= 0", 0.5, 2,
    ),
    "ChurnParams.cap": (
        lambda v: ChurnParams(s_churn=0.0, eta=0.5, cap=v), "churn.cap must lie in [0, 1]", 0.5, 1,
    ),
    "Segment.fraction": (
        lambda v: Segment(name="s", fraction=v, gamma_range=(0.1, 0.2), bass=BassParams(0.1, 0.2)),
        "segment 's': fraction must lie in [0, 1]", 0.5, 1,
    ),
    "Segment.gamma_range[0]": (
        lambda v: Segment(name="s", fraction=1.0, gamma_range=(v, 1.0), bass=BassParams(0.1, 0.2)),
        "segment 's': gamma_range must satisfy 0 <= lo <= hi <= 1", 0.5, 0,
    ),
    "Segment.gamma_range[1]": (
        lambda v: Segment(name="s", fraction=1.0, gamma_range=(0.0, v), bass=BassParams(0.1, 0.2)),
        "segment 's': gamma_range must satisfy 0 <= lo <= hi <= 1", 0.5, 1,
    ),
    "Segment.initial_headroom": (
        lambda v: Segment(
            name="s", fraction=1.0, gamma_range=(0.1, 0.2), bass=BassParams(0.1, 0.2), initial_headroom=v
        ),
        "segment 's': initial_headroom must be >= 0", 0.5, 2,
    ),
    "Segment.headroom_jitter": (
        lambda v: Segment(
            name="s", fraction=1.0, gamma_range=(0.1, 0.2), bass=BassParams(0.1, 0.2), headroom_jitter=v
        ),
        "segment 's': headroom_jitter must be >= 0", 0.5, 2,
    ),
    "CapabilitySchedule.c0": (
        lambda v: CapabilitySchedule(kind="continuous", c0=v),
        "schedule.c0 must be a positive finite number", 0.5, 2,
    ),
    "CapabilitySchedule.resource_growth": (
        lambda v: CapabilitySchedule(kind="hybrid", resource_growth=v),
        "schedule.resource_growth must be >= 0", 0.5, 2,
    ),
    "CapabilitySchedule.alpha": (
        lambda v: CapabilitySchedule(kind="continuous", alpha=v),
        "schedule.alpha must lie in (0, 1]", 0.5, 1,
    ),
    "CapabilitySchedule.values": (
        lambda v: CapabilitySchedule(kind="table", values=(1.0, v)),
        "schedule.values[1] must be a positive finite number", 0.5, 2,
    ),
    "Release.log_jump": (
        lambda v: Release(time=1, log_jump=v), "release.log_jump must be a positive finite number", 0.5, 2,
    ),
    "BudgetedCadence.total_log_budget": (
        lambda v: BudgetedCadence(total_log_budget=v, interval=2),
        "cadence.total_log_budget must be a positive finite number", 0.5, 2,
    ),
    "CadenceSearch.total_log_budget": (
        lambda v: CadenceSearch(base=scenario(), total_log_budget=v, intervals=(2, 3)),
        "cadence.total_log_budget must be a positive finite number", 0.5, 2,
    ),
    "NoveltyReset.rho": (
        lambda v: NoveltyReset(rho=v, decay_delta=0.5, schedule=AT),
        "novelty_reset.rho must lie in (0.0, 1.0)", 0.5, None,
    ),
    "NoveltyReset.decay_delta": (
        lambda v: NoveltyReset(rho=0.5, decay_delta=v, schedule=AT),
        "novelty_reset.decay_delta must lie in (0.0, 1.0]", 0.5, 1,
    ),
    "Personalization.max_log_mult": (
        lambda v: Personalization(max_log_mult=v, gamma_damp_omega=0.5, schedule=AT),
        "personalization.max_log_mult must be >= 0", 0.5, 2,
    ),
    "Personalization.gamma_damp_omega": (
        lambda v: Personalization(max_log_mult=0.5, gamma_damp_omega=v, schedule=AT),
        "personalization.gamma_damp_omega must lie in [0.0, 1.0)", 0.5, 0,
    ),
    "ExpectationManagement.weight_w": (
        lambda v: ExpectationManagement(weight_w=v, announce_discount_a=0.5, schedule=AT),
        "expectation_management.weight_w must lie in [0.0, 1.0]", 0.5, 1,
    ),
    "ExpectationManagement.announce_discount_a": (
        lambda v: ExpectationManagement(weight_w=0.5, announce_discount_a=v, schedule=AT),
        "expectation_management.announce_discount_a must lie in (0.0, 1.0]", 0.5, 1,
    ),
    "SocialBenchmark.beta0": (
        lambda v: SocialBenchmark(beta0=v, tau=5.0, schedule=AT),
        "social_benchmark.beta0 must be finite and >= -1", -0.5, -1,
    ),
    "SocialBenchmark.tau": (
        lambda v: SocialBenchmark(beta0=0.5, tau=v, schedule=AT),
        "social_benchmark.tau must be positive", 0.5, 2,
    ),
    "StrategicDip.depth": (
        lambda v: StrategicDip(depth=v, duration=2, schedule=AT),
        "strategic_dip.depth must lie in (0.0, 1.0)", 0.5, None,
    ),
    "SweepDimension.lo": (
        lambda v: SweepDimension(name="k", paths=PATHS, lo=v, hi=2.0),
        "dimension 'k': need lo < hi, both finite", 0.5, 1,
    ),
    "SweepDimension.hi": (
        lambda v: SweepDimension(name="k", paths=PATHS, lo=0.0, hi=v),
        "dimension 'k': need lo < hi, both finite", 0.5, 1,
    ),
}
NOT_FINITE_REALS = ["1", None, True, np.True_, 10**400, math.nan, math.inf]


def test_the_table_names_every_real_valued_record_field():
    named = set()
    for cls in map(adaptsim.__dict__.get, adaptsim.__all__):
        if dataclasses.is_dataclass(cls):
            hints = typing.get_type_hints(cls)
            for f in dataclasses.fields(cls):
                key = f"{cls.__name__}.{f.name}"
                if hints[f.name] in (float, tuple[float, ...]):
                    named.add(key)
                elif hints[f.name] == tuple[float, float]:
                    named |= {f"{key}[0]", f"{key}[1]"}
    assert named == set(REAL_FIELDS)


@pytest.mark.parametrize("field", REAL_FIELDS)
def test_every_real_field_rejects_what_is_not_a_finite_real_in_range(field):
    build, message, good_float, good_int = REAL_FIELDS[field]
    for value in NOT_FINITE_REALS:
        with pytest.raises(ConfigurationError) as caught:
            build(value)
        assert str(caught.value) == message, value
    build(np.float32(good_float))
    if good_int is not None:
        build(np.int64(good_int))


# The dataclasses in adaptsim.__all__ that a run or an analysis returns;
# every other one is a parameter record.
OUTPUTS = {adaptsim.RunOutput, adaptsim.CadenceResult, adaptsim.PhaseLabel}
RECORDS = [
    cls
    for cls in map(adaptsim.__dict__.get, adaptsim.__all__)
    if dataclasses.is_dataclass(cls) and cls not in OUTPUTS
]
PERIODIC = EventSchedule(start=1, period=2)
# A valid instance of each record in which every field's own check runs: a
# hybrid schedule checks c0, growth, alpha and releases, a table its values.
VALID = {
    BassParams: BassParams(p=0.1, q=0.2),
    BudgetedCadence: BudgetedCadence(total_log_budget=1.0, interval=2),
    CadenceSearch: CadenceSearch(base=scenario(), total_log_budget=1.0, intervals=(2, 3)),
    CapabilitySchedule: CapabilitySchedule(kind="hybrid", resource_growth=0.1, releases=(Release(1, 0.5),)),
    ChurnParams: ChurnParams(s_churn=0.0, eta=0.5, cap=0.05),
    EventSchedule: PERIODIC,
    ExpectationManagement: ExpectationManagement(weight_w=0.5, announce_discount_a=0.5, schedule=PERIODIC),
    NoveltyReset: NoveltyReset(rho=0.5, decay_delta=0.5, schedule=PERIODIC),
    Personalization: Personalization(max_log_mult=0.5, gamma_damp_omega=0.5, schedule=PERIODIC),
    Release: Release(time=1, log_jump=0.5),
    SatisfactionParams: SatisfactionParams(k=1.0, b=0.0),
    Scenario: dataclasses.replace(scenario(), interventions=(NoveltyReset(0.5, 0.5, PERIODIC),)),
    Segment: Segment(name="s", fraction=1.0, gamma_range=(0.1, 0.2), bass=BassParams(0.1, 0.2)),
    SocialBenchmark: SocialBenchmark(beta0=0.5, tau=5.0, schedule=PERIODIC),
    StrategicDip: StrategicDip(depth=0.5, duration=2, schedule=PERIODIC),
    SweepDimension: SweepDimension(name="k", paths=PATHS, lo=0.5, hi=1.5),
    SweepSpec: SweepSpec(
        dimensions=(SweepDimension(name="k", paths=PATHS, lo=0.5, hi=1.5),),
        samples=4,
        seed=9,
        metrics=("churn_total",),
    ),
}
VALID_FOR = {"CapabilitySchedule.values": CapabilitySchedule(kind="table", values=(1.0, 2.0))}
# A wrong type and a wrong shape per annotation; records and tuples of them
# take None or 5, and a list holding a valid value.
WRONG = {
    str: (5, ["s"]),
    int: ("1", [1]),
    bool: (1, [True]),
    float: ("1", [0.5]),
    int | None: ("1", [1]),
    tuple[float, float]: (None, (0.1,)),
    tuple[float, ...]: (5, [[1.0]]),
    tuple[str, ...]: ("churn_total", [["churn_total"]]),
    tuple[tuple[str | int, ...], ...]: ("ab", ("ab",)),
    range | tuple[int, ...]: (5, ((2, 3),)),
}
FIELDS = {
    f"{cls.__name__}.{name}": (cls, name, key, hint) for cls in RECORDS for name, key, _, hint, *_ in fields(cls)
}


def test_every_parameter_record_is_built_by_record():
    assert set(RECORDS) == set(VALID)
    assert [cls.__name__ for cls in RECORDS if not is_record(cls)] == []


@pytest.mark.parametrize("name", FIELDS)
def test_every_field_rejects_a_wrong_type_and_a_wrong_shape_naming_its_key(name):
    cls, field, key, hint = FIELDS[name]
    valid = VALID_FOR.get(name, VALID[cls])
    wrong = WRONG.get(hint) or ((None if is_record(hint) else 5), [getattr(valid, field)])
    for value in wrong:
        with pytest.raises(ConfigurationError) as caught:
            dataclasses.replace(valid, **{field: value})
        message = str(caught.value)
        if caught.type is FieldError:
            assert message.startswith(key), (value, message)
        else:  # a real-valued field: its value message, as in REAL_FIELDS
            assert hint in (float, tuple[float, ...]), (value, message)
            assert re.search(rf"\b{key}\b", message), (value, message)


def interventions_document(edit) -> dict:
    """configs/interventions.json after ``edit`` of its first intervention."""
    document = json.loads((CONFIGS / "interventions.json").read_text(encoding="utf-8"))
    edit(document["interventions"][0])
    return document


# The whole text of a field error below the top level, an item's index or a
# null field's path joined to its key, and of a document's missing key.
FIELD_MESSAGES = {
    "item of a record tuple": (
        lambda: CapabilitySchedule(kind="punctuated", c0=1.0, releases=[Release(1, 0.1), 5]),
        "releases[1]: expected a Release",
    ),
    "item of an item": (
        lambda: SweepDimension(name="x", paths=[["a"], ["b", 1.5]], lo=0.0, hi=1.0),
        "paths[1][1]: expected a string or an integer",
    ),
    "null in a document": (
        lambda: parse_scenario_document(interventions_document(lambda iv: iv["schedule"].update(period=None))),
        "interventions[0].schedule.period: expected an integer",
    ),
    "intervention without schedule and decay_delta": (
        lambda: parse_scenario_document(interventions_document(lambda iv: (iv.pop("schedule"), iv.pop("decay_delta")))),
        "interventions[0].schedule: missing required key",
    ),
}


@pytest.mark.parametrize("case", FIELD_MESSAGES)
def test_a_nested_field_error_reads_in_full(case):
    build, message = FIELD_MESSAGES[case]
    with pytest.raises(ConfigurationError) as caught:
        build()
    assert str(caught.value) == message


def test_an_int_in_a_float_field_runs_as_its_float():
    def run_csv(c0):
        schedule = CapabilitySchedule(kind="continuous", c0=c0, resource_growth=0.1)
        return run_csv_text(adaptsim.run(dataclasses.replace(scenario(), schedule=schedule))).encode()

    assert run_csv(10**20) == run_csv(1e20)


def test_an_instance_of_a_subclass_of_the_fields_class_is_stored_as_given():
    class Name(str):
        pass

    name = Name("s")
    assert dataclasses.replace(VALID[Segment], name=name).name is name


SCHEDULES = {
    "continuous": CapabilitySchedule(kind="continuous", resource_growth=0.1),
    "punctuated": CapabilitySchedule(kind="punctuated", releases=(Release(1, 0.5),)),
    "hybrid": VALID[CapabilitySchedule],
    "table": VALID_FOR["CapabilitySchedule.values"],
}


@pytest.mark.parametrize("kind", SCHEDULE_KEYS)
def test_a_written_schedule_holds_its_kind_and_the_keys_of_its_kind(kind):
    document = config.write_record(SCHEDULES[kind])
    assert list(document) == ["kind", *SCHEDULE_KEYS[kind]] and document["kind"] == kind


@pytest.mark.parametrize("kind", INTERVENTION_KINDS)
def test_a_written_intervention_leads_with_its_kind(kind):
    cls = INTERVENTION_KINDS[kind]
    document = config.write_record(VALID[cls])
    assert list(document) == ["kind", *(key for _, key, *_ in fields(cls))] and document["kind"] == kind


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_validate_of_any_value_at_any_leaf_of_a_shipped_config_is_ok_or_one_error(name):
    recorded = same_bytes.VALIDATE.read_text(encoding="utf-8").splitlines()
    want = [(number, line) for number, line in enumerate(recorded, 1) if line.startswith(name + "\t")]
    got = []
    for line, code, out, err in same_bytes.validate_leaves(name):
        lines = (out + err).splitlines()
        assert len(lines) == 1, line
        if code == 0:
            assert lines[0].startswith("ok: digest ") and not err, line
        else:
            assert code == 2 and lines[0].startswith("error: ") and not out, line
        got.append(line)
    for a, (number, b) in zip(got, want):
        assert a == b, f"validate.txt line {number} validates differently:\n  got  {a}\n  want {b}"
    assert len(got) == len(want), f"{name}: {len(got)} documents, {len(want)} recorded"


def dimension(name: str, i: int = 0) -> SweepDimension:
    return SweepDimension(name=name, paths=(("x", i),), lo=0.0, hi=1.0)


def named_segments(names) -> tuple[Segment, ...]:
    fraction = 1.0 / len(names)
    bass = BassParams(p=0.1, q=0.2)
    return tuple(Segment(name=name, fraction=fraction, gamma_range=(0.1, 0.2), bass=bass) for name in names)


# Specs with more than one fault, and the one message each reports: the
# first check that fails, at its first repeat.
REPEAT_MESSAGES = {
    "a dimension named as a metric, then a repeated metric": (
        lambda: SweepSpec(
            dimensions=(dimension("peak_satisfaction"),),
            samples=4,
            seed=0,
            metrics=("churn_total", "churn_total", "peak_satisfaction"),
        ),
        "sweep.dimensions[0].name: 'peak_satisfaction' repeats a column name of sweep.csv",
    ),
    "a repeated dimension, then a dimension named as a column": (
        lambda: SweepSpec(
            dimensions=tuple(dimension(name, i) for i, name in enumerate(["a", "a", "sample"])),
            samples=4,
            seed=0,
            metrics=("churn_total",),
        ),
        "sweep.dimensions[1].name: sweep dimension names must be unique",
    ),
    "a repeated segment name, then a repeated intervention kind": (
        lambda: dataclasses.replace(
            scenario(),
            segments=named_segments(["x", "x", "y"]),
            interventions=(VALID[NoveltyReset], VALID[NoveltyReset]),
        ),
        "population.segments[1].name: segment names must be unique",
    ),
    "intervals repeating two values": (
        lambda: CadenceSearch(base=scenario(), total_log_budget=1.0, intervals=(5, 6, 6, 5)),
        "intervals[2]: 6 repeats intervals[1]",
    ),
}


@pytest.mark.parametrize("case", REPEAT_MESSAGES)
def test_a_spec_with_several_faults_reports_the_first_check_at_its_first_repeat(case):
    build, message = REPEAT_MESSAGES[case]
    with pytest.raises(ConfigurationError) as caught:
        build()
    assert str(caught.value) == message


class CountedName(str):
    """A name that counts the comparisons it makes; it hashes as its str."""

    comparisons = 0
    __hash__ = str.__hash__

    def __eq__(self, other):
        CountedName.comparisons += 1
        return str.__eq__(self, other)


def test_a_repeat_check_compares_each_name_at_most_once():
    n = 3000
    names = [CountedName(f"n{i}") for i in range(n)]
    segments = named_segments(names)
    CountedName.comparisons = 0
    dataclasses.replace(scenario(), segments=segments)
    assert CountedName.comparisons <= n
    dimensions = tuple(dimension(name, i) for i, name in enumerate(names))
    CountedName.comparisons = 0
    SweepSpec(dimensions=dimensions, samples=4, seed=0, metrics=("churn_total",))
    assert CountedName.comparisons <= n
