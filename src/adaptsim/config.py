"""Scenario document intake, normalization, and digests.

Documents are JSON.  Validation is strict: unknown keys are fatal (with
a nearest-key suggestion), and every error message names the offending
key path.  A scenario's digest is the SHA-256 of its canonicalized
normalized document -- sorted keys, no insignificant whitespace,
shortest round-trip numbers, defaults materialized -- so reformatting or
reordering a file never changes the digest, while any value change does.
Document keys come from the parameter dataclasses: each field is read and
written under its name (or the ``key`` in its metadata) by the reader and
writer its type annotation selects.
"""

from __future__ import annotations

import contextlib
import dataclasses
import difflib
import functools
import hashlib
import json
import typing
from typing import Callable, NamedTuple

from .engine import NO_CHURN, Scenario
from .errors import ConfigurationError
from .interventions import INTERVENTION_KINDS, Intervention
from .kernels import ChurnParams, SatisfactionParams
from .population import Segment, check_fractions
from .schedule import SCHEDULE_KEYS, CapabilitySchedule


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _require_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{path}: expected an object")
    return value


def _require_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigurationError(f"{path}: expected a list")
    return value


def _suggestion(word: str, known) -> str:
    hint = difflib.get_close_matches(word, known, n=1, cutoff=0.6)
    return f" (did you mean {hint[0]!r}?)" if hint else ""


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    known = required + optional
    for key in obj:
        if key not in known:
            raise ConfigurationError(f"{path}.{key}: unknown key{_suggestion(str(key), known)}")
    for key in required:
        if key not in obj:
            raise ConfigurationError(f"{path}.{key}: missing required key")


@contextlib.contextmanager
def rewrap(path: str):
    """Re-raise a ConfigurationError from the block with a path prefix."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


# Readers take (value, key path) and return the checked value.


def _number(v, path: str) -> float:
    if not _is_number(v):
        raise ConfigurationError(f"{path}: expected a number")
    return float(v)


def _integer(v, path: str) -> int:
    if not _is_int(v):
        raise ConfigurationError(f"{path}: expected an integer")
    return v


def _string(v, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigurationError(f"{path}: expected a string")
    return v


def _path_element(v, path: str) -> str | int:
    if not (isinstance(v, str) or _is_int(v)):
        raise ConfigurationError(f"{path}: expected a string or an integer")
    return v


def _range(v, path: str) -> tuple[float, float]:
    v = _require_list(v, path)
    if len(v) != 2 or not all(_is_number(x) for x in v):
        raise ConfigurationError(f"{path}: expected [lo, hi] numbers")
    return float(v[0]), float(v[1])


def _same(v):
    return v


def _floats(v) -> list[float]:
    return [float(x) for x in v]


# (reader, writer) per annotated type; the writer gives float fields floats
# even when the record holds an int, so the digest sees one spelling.
_CODECS: dict = {
    float: (_number, float),
    int: (_integer, _same),
    int | None: (_integer, _same),
    str: (_string, _same),
    str | int: (_path_element, _same),
    tuple[float, float]: (_range, _floats),
}


def _codec(typ) -> tuple[Callable, Callable]:
    if typ in _CODECS:
        return _CODECS[typ]
    if dataclasses.is_dataclass(typ):
        return functools.partial(read_record, typ), write_record
    item, _ = typing.get_args(typ)  # tuple[item, ...]
    read, write = _codec(item)

    def read_items(v, path: str) -> tuple:
        return tuple(read(x, f"{path}[{i}]") for i, x in enumerate(_require_list(v, path)))

    return read_items, lambda v: [write(x) for x in v]


class _Field(NamedTuple):
    name: str
    key: str
    required: bool
    read: Callable
    write: Callable


@functools.cache
def _fields(cls) -> dict[str, _Field]:
    """Document key, reader and writer of each field of a parameter dataclass."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: _Field(
            f.name,
            f.metadata.get("key", f.name),
            f.default is dataclasses.MISSING,
            *_codec(hints[f.name]),
        )
        for f in dataclasses.fields(cls)
    }


@functools.cache
def _keys(cls) -> tuple[tuple[str, ...], tuple[str, ...]]:
    fields = _fields(cls).values()
    return tuple(f.key for f in fields if f.required), tuple(f.key for f in fields if not f.required)


def read_record(cls, obj, path: str, lead: tuple[str, ...] = ()):
    """Build parameter dataclass ``cls`` from the document object at ``path``.

    Fields without a default are required keys, the others optional.
    ``lead`` names required keys checked before the fields' own, such as
    an intervention's ``kind`` and ``schedule``.
    """
    obj = _require_object(obj, path)
    required, optional = _keys(cls)
    _check_keys(obj, path, lead + required, optional)
    kwargs = {
        f.name: f.read(obj[f.key], f"{path}.{f.key}")
        for f in _fields(cls).values()
        if f.key in obj
    }
    with rewrap(path):
        return cls(**kwargs)


def write_record(record) -> dict:
    """Document form of a parameter dataclass; fields holding None are left out."""
    doc = {}
    for f in _fields(type(record)).values():
        value = getattr(record, f.name)
        if value is not None:
            doc[f.key] = f.write(value)
    return doc


def _kind(obj: dict, path: str, kinds, noun: str) -> str:
    if "kind" not in obj:
        raise ConfigurationError(f"{path}.kind: missing required key")
    kind = _string(obj["kind"], f"{path}.kind")
    if kind not in kinds:
        raise ConfigurationError(f"{path}.kind: unknown {noun} {kind!r}{_suggestion(kind, kinds)}")
    return kind


def _parse_intervention(obj, path: str) -> Intervention:
    obj = _require_object(obj, path)
    cls = INTERVENTION_KINDS[_kind(obj, path, INTERVENTION_KINDS, "intervention")]
    return read_record(cls, obj, path, lead=("kind", "schedule"))


def _parse_schedule(obj, path: str) -> CapabilitySchedule:
    obj = _require_object(obj, path)
    kind = _kind(obj, path, SCHEDULE_KEYS, "schedule kind")
    keys = SCHEDULE_KEYS[kind]
    _check_keys(obj, path, ("kind",) + keys)
    fields = _fields(CapabilitySchedule)
    kwargs = {key: fields[key].read(obj[key], f"{path}.{key}") for key in keys}
    with rewrap(path):
        return CapabilitySchedule(kind=kind, **kwargs)


def _schedule_to_document(schedule: CapabilitySchedule) -> dict:
    fields = _fields(CapabilitySchedule)
    doc = {"kind": schedule.kind}
    for key in SCHEDULE_KEYS[schedule.kind]:
        doc[key] = fields[key].write(getattr(schedule, key))
    return doc


def parse_scenario_document(document: dict) -> Scenario:
    """Validate a scenario document and build the runnable Scenario."""
    doc = _require_object(document, "scenario")
    _check_keys(
        doc,
        "scenario",
        ("horizon", "seed", "population", "schedule", "satisfaction"),
        ("churn", "interventions", "trace_agents"),
    )
    horizon = _integer(doc["horizon"], "scenario.horizon")
    seed = _integer(doc["seed"], "scenario.seed")

    pop = _require_object(doc["population"], "population")
    _check_keys(pop, "population", ("size", "segments"))
    size = _integer(pop["size"], "population.size")
    seg_list = _require_list(pop["segments"], "population.segments")
    if not seg_list:
        raise ConfigurationError("population.segments: must be non-empty")
    segments = tuple(
        read_record(Segment, seg, f"population.segments[{i}]") for i, seg in enumerate(seg_list)
    )
    with rewrap("population.segments[*].fraction"):
        check_fractions(segments)

    schedule = _parse_schedule(doc["schedule"], "schedule")
    satisfaction = read_record(SatisfactionParams, doc["satisfaction"], "satisfaction")
    churn = read_record(ChurnParams, doc["churn"], "churn") if "churn" in doc else NO_CHURN

    interventions: tuple[Intervention, ...] = ()
    if "interventions" in doc:
        ivs = _require_list(doc["interventions"], "interventions")
        interventions = tuple(
            _parse_intervention(iv, f"interventions[{i}]") for i, iv in enumerate(ivs)
        )

    trace = False
    if "trace_agents" in doc:
        if not isinstance(doc["trace_agents"], bool):
            raise ConfigurationError("scenario.trace_agents: expected a boolean")
        trace = doc["trace_agents"]

    scenario = Scenario(
        horizon=horizon,
        population_size=size,
        segments=segments,
        schedule=schedule,
        satisfaction=satisfaction,
        churn=churn,
        interventions=interventions,
        seed=seed,
        trace_agents=trace,
    )
    with rewrap("scenario"):
        scenario.validate()
    return scenario


def load_json(path):
    """The JSON value stored in a file; malformed JSON is a ConfigurationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: parse error: {exc}") from None


def load_scenario(path) -> Scenario:
    """Read, parse, and fully validate a scenario file."""
    return parse_scenario_document(load_json(path))


def load_sweep_spec(path):
    """Read and validate a sweep spec file with analysis.load_sweep_spec.

    Kept for callers that look the loader up on this module, as
    perfbench/worker.py does.  Sweep documents are parsed in analysis, next
    to SweepSpec, and analysis imports this module, so the import waits for
    the call: importing config never imports analysis.
    """
    from .analysis import load_sweep_spec

    return load_sweep_spec(path)


def load_document(path) -> dict:
    """Raw JSON object from a file, for sweep base-document patching."""
    return _require_object(load_json(path), str(path))


def scenario_to_document(scenario: Scenario) -> dict:
    """Normalized document form: every default materialized, floats as floats."""
    return {
        "horizon": scenario.horizon,
        "seed": scenario.seed,
        "trace_agents": scenario.trace_agents,
        "population": {
            "size": scenario.population_size,
            "segments": [write_record(s) for s in scenario.segments],
        },
        "schedule": _schedule_to_document(scenario.schedule),
        "satisfaction": write_record(scenario.satisfaction),
        "churn": write_record(scenario.churn),
        "interventions": [{"kind": iv.kind, **write_record(iv)} for iv in scenario.interventions],
    }


def canonical_json(document: dict) -> str:
    """Sorted keys, minimal separators, shortest round-trip numbers."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)


def scenario_digest(scenario: Scenario) -> str:
    """SHA-256 over the canonicalized normalized document."""
    payload = canonical_json(scenario_to_document(scenario))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
