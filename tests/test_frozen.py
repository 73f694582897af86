"""The contract of ``errors.frozen``, which builds every dataclass of the
package: it builds and replaces, compares, hashes, prints and refuses
assignment as ``dataclass(frozen=True)`` does, it pickles, and every class
shares one set of methods and compiles only its ``__init__``."""

import dataclasses
import importlib
import json
import pickle
import pkgutil
import types
from pathlib import Path

import numpy as np
import pytest

import adaptsim
from adaptsim import (
    BudgetedCadence,
    CadenceSearch,
    CapabilitySchedule,
    EventSchedule,
    Personalization,
    Release,
    SocialBenchmark,
    classify_phases,
    optimize_cadence,
    run,
    run_sweep,
)
from adaptsim.analysis import load_sweep_spec
from adaptsim.config import parse_scenario_document
from adaptsim.output import run_csv_text
from adaptsim.population import build_population
from adaptsim.schedule import capability_series
from adaptsim.svgplot import LineChart

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MODULES = [
    importlib.import_module(f"adaptsim.{m.name}") for m in pkgutil.iter_modules(adaptsim.__path__) if m.name != "__main__"
]
CLASSES = [
    value
    for module in MODULES
    for value in vars(module).values()
    if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value)
]


def _examples() -> list:
    document = json.loads((CONFIGS / "interventions.json").read_text())
    document["population"]["size"] = 40
    scenario = dataclasses.replace(parse_scenario_document(document), trace_agents=True)
    out = run(scenario)
    spec = dataclasses.replace(load_sweep_spec(CONFIGS / "sweep_gamma.json"), samples=2)
    search = CadenceSearch(base=scenario, total_log_budget=1.0, intervals=(50, 100))
    chart = LineChart("t")  # empty, so that a build from its title equals it
    periodic = EventSchedule(start=1, period=2)
    return [
        scenario,
        scenario.regimes,
        out,
        out.traces,
        classify_phases(np.log(out.capability))[0],
        search,
        optimize_cadence(search),
        spec,
        spec.dimensions[0],
        run_sweep(spec, document)[0],
        *scenario.interventions,
        *(i.schedule for i in scenario.interventions),
        periodic,
        Personalization(max_log_mult=0.5, gamma_damp_omega=0.5, schedule=periodic),
        SocialBenchmark(beta0=0.5, tau=5.0, schedule=periodic),
        scenario.satisfaction,
        scenario.churn,
        scenario.segments[0],
        scenario.segments[0].bass,
        scenario.schedule,
        build_population(scenario.segments, 40, 7, 0.0),
        Release(3, 0.5),
        Release(4, 0.5),
        CapabilitySchedule(kind="punctuated", releases=(Release(3, 0.5),)),
        BudgetedCadence(1.0, 2),
        chart,
    ]


EXAMPLES = _examples()
NAMES = [f"{type(x).__name__}{i}" for i, x in enumerate(EXAMPLES)]


def _holds_default(f: dataclasses.Field, value) -> bool:
    if f.default_factory is not dataclasses.MISSING:
        return value == f.default_factory()
    return f.default is not dataclasses.MISSING and value == f.default


def _key(x) -> tuple:
    return tuple(getattr(x, f.name) for f in dataclasses.fields(x) if f.compare)


def _twin(x):
    """``x`` as an instance of a ``dataclass(frozen=True)`` with the same fields and name."""
    cls = type(x)
    specs = [(f.name, f.type, dataclasses.field(init=f.init, repr=f.repr, compare=f.compare)) for f in dataclasses.fields(cls)]
    twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
    twin.__qualname__ = cls.__qualname__
    instance = object.__new__(twin)
    instance.__dict__.update(vars(x))
    return instance


def test_there_is_an_example_of_every_dataclass():
    assert len(CLASSES) == 25
    assert {type(x) for x in EXAMPLES} == set(CLASSES)


def test_every_dataclass_shares_the_frozen_methods_and_compiles_only_its_init():
    for name in ("__setattr__", "__delattr__", "__eq__", "__hash__", "__repr__"):
        assert len({vars(cls)[name] for cls in CLASSES}) == 1, name
    for cls in CLASSES:
        compiled = [
            value
            for value in vars(cls).values()
            if isinstance(value, types.FunctionType) and value.__code__.co_filename == "<string>"
        ]
        assert compiled == [cls.__init__], cls.__name__


@pytest.mark.parametrize("x", EXAMPLES, ids=NAMES)
def test_builds_by_position_and_by_keyword_with_defaults(x):
    cls = type(x)
    values = {f.name: getattr(x, f.name) for f in dataclasses.fields(cls) if f.init}
    assert cls(*values.values()) == x
    assert cls(**values) == x
    # leave out each field that holds its default: by keyword all of them, by position the trailing ones
    given = [f.name for f in dataclasses.fields(cls) if f.init and not _holds_default(f, values[f.name])]
    by_keyword = cls(**{name: values[name] for name in given})
    by_position = cls(*list(values.values())[: list(values).index(given[-1]) + 1 if given else 0])
    assert by_keyword == x and by_position == x
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            assert getattr(by_keyword, f.name) is not getattr(by_position, f.name)


@pytest.mark.parametrize("x", EXAMPLES, ids=NAMES)
def test_replace_builds_an_equal_instance(x):
    again = dataclasses.replace(x)
    assert again is not x and again == x


def test_replace_recomputes_a_scenarios_regimes():
    scenario = EXAMPLES[0]
    schedule = CapabilitySchedule(kind="continuous", resource_growth=0.2)
    changed = dataclasses.replace(scenario, schedule=schedule)
    assert np.array_equal(changed.regimes.capability, capability_series(schedule, scenario.horizon))
    assert not np.array_equal(changed.regimes.capability, scenario.regimes.capability)


@pytest.mark.parametrize("x", EXAMPLES, ids=NAMES)
def test_equality_and_hash_are_those_of_the_compared_fields(x):
    for y in EXAMPLES:
        if type(y) is type(x):
            assert (x == y) is (_key(x) == _key(y))
    assert x.__eq__(object()) is NotImplemented
    try:
        expected = hash(_key(x))
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected


@pytest.mark.parametrize("x", EXAMPLES, ids=NAMES)
def test_repr_and_frozen_errors_are_those_of_a_frozen_dataclass(x):
    twin = _twin(x)
    assert repr(x) == repr(twin)
    for f in dataclasses.fields(x):
        for act in (lambda o: setattr(o, f.name, 1), lambda o: delattr(o, f.name)):
            with pytest.raises(dataclasses.FrozenInstanceError) as ours:
                act(x)
            with pytest.raises(dataclasses.FrozenInstanceError) as theirs:
                act(twin)
            assert str(ours.value) == str(theirs.value)


def test_a_scenario_and_a_sweep_row_survive_a_pickle_round_trip():
    scenario, row = EXAMPLES[0], EXAMPLES[9]
    assert type(row).__name__ == "SweepRow"
    for x in (scenario, row):
        again = pickle.loads(pickle.dumps(x))
        assert again == x and repr(again) == repr(x)
    again = pickle.loads(pickle.dumps(scenario))
    assert run_csv_text(run(again)) == run_csv_text(run(scenario))
