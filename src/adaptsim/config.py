"""Scenario document intake, normalization, and digests.

Documents are JSON.  Validation is strict: unknown keys are fatal (with
a nearest-key suggestion), and every error message names the offending
key path.  A scenario's digest is the SHA-256 of its canonicalized
normalized document -- sorted keys, no insignificant whitespace,
shortest round-trip numbers, defaults materialized -- so reformatting or
reordering a file never changes the digest, while any value change does.
Document keys come from the parameter records: each field is read and
written under its name (or the ``key`` in its metadata) by a reader that
its annotation chooses; ``Scenario``'s fields, in declaration order, map the
scenario document for parsing, writing and sweep rebuilds alike.  This module
checks the keys and builds nested records; each record checks its fields
itself.  ``leaf_plan`` checks each sweep path against the document and the
parsed scenario, and ``rebuild`` sets numeric leaves of a parsed scenario by
their document paths as a parse of the edited document would, rebuilding
only the records on the paths, which is how a sweep builds its samples.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator
import typing

from .engine import Scenario
from .errors import ConfigurationError, checked, fields, is_record, rewrap
from .interventions import INTERVENTION_KINDS, Intervention
from .schedule import SCHEDULE_KEYS, CapabilitySchedule


def _require_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{path}: expected an object")
    return value


def _suggestion(word: str, known) -> str:
    import difflib  # only a rejected key needs it, and it costs every process 1 ms to import

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


def _read_items(read, value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{path}: expected a list")
    return tuple(read(x, f"{path}[{i}]") for i, x in enumerate(value))


def _reader(hint):
    """How a document value of annotation ``hint`` is read: a schedule, an
    intervention of any kind or another record from an object, a tuple of
    such from a list; None hands the value to the record, which checks it."""
    if hint is CapabilitySchedule:
        return _parse_schedule
    if hint == Intervention:
        return _parse_intervention
    if is_record(hint):
        return functools.partial(read_record, hint)
    if typing.get_origin(hint) is tuple and (item := _reader(typing.get_args(hint)[0])):
        return functools.partial(_read_items, item)
    return None


@functools.cache
def _layout(cls) -> tuple:
    """The required keys, the optional keys, and the (name, key, check,
    reader) of each init field of record ``cls``."""
    rows = fields(cls)
    required = tuple(key for _, key, req, *_ in rows if req)
    optional = tuple(key for _, key, req, *_ in rows if not req)
    readers = tuple((name, key, check, _reader(hint)) for name, key, _, hint, _, check in rows)
    return required, optional, readers


def _build(cls, obj: dict, path: str):
    """Record ``cls`` from the fields that the checked object ``obj`` sets."""
    kwargs = {}
    for name, key, check, read in _layout(cls)[2]:
        if key in obj:
            value = obj[key]
            if read is not None:
                value = read(value, f"{path}.{key}")
            elif value is None:  # null is no value, even where the record's default is None
                checked(check, f"{path}.{key}", value)
            kwargs[name] = value
    with rewrap(path):
        return cls(**kwargs)


def read_record(cls, obj, path: str):
    """Build record ``cls`` from the document object at ``path``.

    Fields without a default are required keys, the others optional.
    """
    obj = _require_object(obj, path)
    required, optional, _ = _layout(cls)
    _check_keys(obj, path, required, optional)
    return _build(cls, obj, path)


def _plain(value):
    """The document form of a field value: a record as an object, a tuple as a list."""
    if is_record(type(value)):
        return write_record(value)
    return [_plain(x) for x in value] if isinstance(value, tuple) else value


def write_record(record) -> dict:
    """Document form of a record; fields holding None are left out, a schedule
    keeps the keys of its kind and an intervention leads with its kind."""
    values = {key: getattr(record, name) for name, key, *_ in fields(type(record))}
    if type(record) is CapabilitySchedule:
        values = {key: values[key] for key in ("kind",) + SCHEDULE_KEYS[record.kind]}
    elif isinstance(record, typing.get_args(Intervention)):
        values = {"kind": record.kind, **values}
    return {key: _plain(value) for key, value in values.items() if value is not None}


def _kind(obj, path: str, kinds, noun: str) -> str:
    if "kind" not in _require_object(obj, path):
        raise ConfigurationError(f"{path}.kind: missing required key")
    kind = obj["kind"]
    if not isinstance(kind, str):
        raise ConfigurationError(f"{path}.kind: expected a string")
    if kind not in kinds:
        raise ConfigurationError(f"{path}.kind: unknown {noun} {kind!r}{_suggestion(kind, kinds)}")
    return kind


def _parse_intervention(obj, path: str) -> Intervention:
    """An intervention's keys are its kind, its schedule and its fields."""
    cls = INTERVENTION_KINDS[_kind(obj, path, INTERVENTION_KINDS, "intervention")]
    required, optional, _ = _layout(cls)
    _check_keys(obj, path, ("kind", "schedule") + required, optional)
    return _build(cls, obj, path)


def _parse_schedule(obj, path: str) -> CapabilitySchedule:
    """A schedule's keys are its kind and the fields that kind reads."""
    kind = _kind(obj, path, SCHEDULE_KEYS, "schedule kind")
    _check_keys(obj, path, ("kind",) + SCHEDULE_KEYS[kind])
    return _build(CapabilitySchedule, obj, path)


# The (name, path, reader) of each Scenario field, in declaration order, which
# is the order a parse reads them and finds their errors.  A field's document
# path is its key less a leading "scenario.", split on dots; a field whose key
# is absent takes its default.
_SCENARIO_LAYOUT = tuple(
    (name, tuple(key.removeprefix("scenario.").split(".")), read)
    for name, key, _, read in _layout(Scenario)[2]
)


def parse_scenario_document(document: dict) -> Scenario:
    """Validate a scenario document and build the runnable Scenario."""
    doc = _require_object(document, "scenario")
    required = ("horizon", "seed", "population", "schedule", "satisfaction")
    _check_keys(doc, "scenario", required, ("churn", "interventions", "trace_agents"))
    pop = _require_object(doc["population"], "population")
    _check_keys(pop, "population", ("size", "segments"))
    kwargs = {}
    for name, (*parents, key), read in _SCENARIO_LAYOUT:
        obj = functools.reduce(operator.getitem, parents, doc)
        if key in obj:
            kwargs[name] = obj[key] if read is None else read(obj[key], ".".join((*parents, key)))
    return Scenario(**kwargs)


def path_text(path: tuple[str | int, ...]) -> str:
    """A document path as messages name it, such as ``population.segments[0].bass``."""
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else (f".{key}" if out else str(key))
    return out


def _route(scenario: Scenario, document: dict, path: tuple[str | int, ...]) -> list[tuple]:
    """(attr, where) of each step from ``scenario`` to the field or item at
    document path ``path``: the field's name, or the item's index, and its
    document path; a path that ``leaf_plan`` rejects raises ConfigurationError."""
    where = f"sweep path {path_text(path)}"
    node = document
    for k, key in enumerate(path, 1):
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            missing = "missing leaf" if k == len(path) else f"missing at {path_text(path[:k])}"
            raise ConfigurationError(f"{where}: {missing}") from None
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        raise ConfigurationError(f"{where}: target is not numeric")
    name, prefix = next((name, prefix) for name, prefix, _ in _SCENARIO_LAYOUT if path[: len(prefix)] == prefix)
    steps = [(name, path_text(prefix))]
    value = getattr(scenario, name)
    for k in range(len(prefix), len(path)):
        if type(value) is tuple:
            attr = path[k]
            value = value[attr]
        else:
            attr = next(row[0] for row in fields(type(value)) if row[1] == path[k])
            value = getattr(value, attr)
        steps.append((attr, path_text(path[: k + 1])))
    if type(value) is int:
        raise ConfigurationError(f"{where}: an integer field; sweep values are reals")
    return steps


def leaf_plan(scenario: Scenario, document: dict, leaves: list[tuple[tuple[str | int, ...], int]]) -> dict:
    """What ``rebuild`` changes to set each (path, slot) of ``leaves``: a numeric
    leaf of ``document``, the document that ``scenario`` was parsed from, by
    its path, to the value at that slot.  Each path is checked in turn: it
    must end at a number of ``document`` and at a real-valued field, or
    ConfigurationError names it.  A tree ``{attr: (where, child)}`` of the
    fields (by name) and items (by index) on the paths, where a child is a
    subtree, or at a leaf its slot, in the order of ``leaves``."""
    plan = {}
    for path, slot in leaves:
        *steps, (attr, where) = _route(scenario, document, path)
        node = plan
        for step, at in steps:
            node = node.setdefault(step, (at, {}))[1]
        node[attr] = (where, slot)
    return plan


def _rebuilt(value, plan: dict, values) -> dict:
    """The fields (by name) or items (by index) of ``value`` that ``plan``
    changes, built in declaration order (items by index, fields as
    ``errors.fields`` lists them), the order a parse reads them in."""
    changes = {}
    order = range(len(value)) if type(value) is tuple else (row[0] for row in fields(type(value)))
    for attr in filter(plan.__contains__, order):
        where, child = plan[attr]
        if type(child) is int:
            changes[attr] = values[child]
            continue
        old = value[attr] if type(value) is tuple else getattr(value, attr)
        sub = _rebuilt(old, child, values)
        if type(old) is tuple:
            changes[attr] = tuple(sub.get(i, item) for i, item in enumerate(old))
        else:
            with rewrap(where):
                changes[attr] = dataclasses.replace(old, **sub)
    return changes


def rebuild(scenario: Scenario, plan: dict, values, **changes) -> Scenario:
    """``scenario`` with the leaves of ``plan`` (see ``leaf_plan``) set to their
    slots' values in ``values``, and the fields in ``changes``.  Each record
    on a leaf's path is rebuilt with ``dataclasses.replace``, bottom-up, and
    so checked, inside its document path and in the order a parse reads it;
    then the Scenario.  So it is, or fails as, the parse of the document
    with those leaves set, and it rebuilds nothing else."""
    return dataclasses.replace(scenario, **changes, **_rebuilt(scenario, plan, values))


def load_json(path):
    """The JSON value stored in a file.  Malformed JSON or UTF-8, nesting
    deeper than the parser's recursion limit and an integer longer than
    Python's digit limit are each a ConfigurationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError too
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
    """Raw JSON object from a file, such as a sweep's base document."""
    return _require_object(load_json(path), str(path))


def scenario_to_document(scenario: Scenario) -> dict:
    """Normalized document form: every default materialized, floats as floats;
    a schedule keeps the keys of its kind."""
    document = {}
    for name, (*parents, key), _ in _SCENARIO_LAYOUT:
        obj = functools.reduce(lambda parent, part: parent.setdefault(part, {}), parents, document)
        obj[key] = _plain(getattr(scenario, name))
    return document


def canonical_json(document: dict) -> str:
    """Sorted keys, minimal separators, shortest round-trip numbers."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)


def scenario_digest(scenario: Scenario) -> str:
    """SHA-256 over the canonicalized normalized document."""
    payload = canonical_json(scenario_to_document(scenario))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
