"""Exception types shared across the package, the checks that raise them,
``frozen``, which builds every dataclass of the package, and ``record``,
which makes a parameter record check its own fields."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import numbers
import sys
import types
import typing
from typing import Callable


class AdaptSimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(AdaptSimError):
    """A scenario, schedule, or search description is malformed.

    Messages name the offending key path (for example
    ``population.segments[1].fraction``) so they can be surfaced verbatim
    by the command line tools.
    """


class DomainError(AdaptSimError):
    """An argument is outside the domain of an analysis or output function,
    such as a series too short to classify or a run with nothing to report."""


class FieldError(ConfigurationError):
    """A record field holds a value of the wrong type or shape.  The message
    starts with the field's key, which ``rewrap`` joins to a path with a dot."""


def check_int(value: int, lo: int, message: str) -> None:
    """Reject int field ``value`` (``record`` has checked its type) below ``lo``
    with ConfigurationError(message)."""
    if value < lo:
        raise ConfigurationError(message)


def check_real(value, message: str, lo=None, hi=None, *, open_lo=False, open_hi=False) -> None:
    """Reject float field ``value`` (or an item of one) with ConfigurationError(message)
    unless it is a finite float between ``lo`` and ``hi``, either of which may be
    None; an end is closed unless ``open_lo`` or ``open_hi`` opens it.  ``record``
    has stored every real but a bool there as a float."""
    x = value if type(value) is float else math.nan
    below = lo is not None and (x <= lo if open_lo else x < lo)
    above = hi is not None and (x >= hi if open_hi else x > hi)
    if not math.isfinite(x) or below or above:
        raise ConfigurationError(message)


def check_seed(value: int, name: str) -> None:
    """Reject an int field ``name`` outside the unsigned 64-bit range of a seed."""
    if not 0 <= value < 2**64:
        raise ConfigurationError(f"{name} must be an unsigned 64-bit integer")


@contextlib.contextmanager
def rewrap(path: str):
    """Re-raise a ConfigurationError from the block with a path prefix,
    joined to a FieldError's key with a dot."""
    try:
        yield
    except ConfigurationError as exc:
        join = "." if isinstance(exc, FieldError) else ": "
        raise type(exc)(f"{path}{join}{exc}") from None


def _real(value):
    """A real but a bool as a float; anything else as it is, for ``check_real``."""
    if isinstance(value, (int, numbers.Real)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            return float(value)
    return value


def _items(kept: frozenset, item: Callable, expects="a list", size=None) -> Callable:
    def check(value):
        if type(value) is tuple and kept.issuperset(map(type, value)) and size in (None, len(value)):
            return value
        if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
            raise FieldError(f": expected {expects}")
        out = []
        for i, x in enumerate(value):
            try:
                out.append(x if type(x) in kept else item(x))
            except FieldError as exc:
                raise FieldError(f"[{i}]{exc}") from None
        return tuple(out)

    return check


_NOUNS = {str: "a string", int: "an integer", bool: "a boolean"}


def _checker(hint) -> tuple[frozenset, Callable]:
    """The types of the values that annotation ``hint`` keeps as they are, and
    the check of any other value, which returns what to store or raises.
    ``float`` takes a real as a float and leaves the rest to the record;
    ``tuple[float, float]`` and ``tuple[X, ...]`` take a list or a tuple and
    store a tuple, checked item by item; any other annotation is a class, or
    a union of classes and at most one ``tuple[X, ...]``, and the value must
    be an instance of one (a bool is not an int)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is float:
        return frozenset({float}), _real
    if origin is tuple and args == (float, float):
        return frozenset(), _items(frozenset({float}), _real, "[lo, hi] numbers", 2)
    if origin is tuple:  # tuple[X, ...]
        return frozenset(), _items(*_checker(args[0]))
    arms = args if origin in (typing.Union, types.UnionType) else (hint,)
    kept = frozenset(a for a in arms if typing.get_origin(a) is None)  # NoneType too
    classes = tuple(kept - {type(None)})
    listed = [_checker(a)[1] for a in arms if typing.get_origin(a) is tuple]
    nouns = [_NOUNS.get(c) or ("an " if c.__name__[0] in "AEIOU" else "a ") + c.__name__ for c in classes]
    expects = " or ".join(nouns + ["a list"] * len(listed))
    exact = int in classes and bool not in classes

    def check(value):
        if isinstance(value, classes) and not (exact and isinstance(value, bool)):
            return value
        if listed and isinstance(value, (list, tuple)):
            return listed[0](value)
        raise FieldError(f": expected {expects}")

    return kept, check


def _row(cls, f: dataclasses.Field) -> tuple:
    """(name, key, required, annotation, kept types, check) of init field ``f``
    of record ``cls``.  The annotation resolves in the module of ``cls`` as the
    class is built: an init field's annotation names only what exists by then."""
    hint = eval(f.type, vars(sys.modules[cls.__module__])) if isinstance(f.type, str) else f.type
    return (f.name, f.metadata.get("key", f.name), f.default is dataclasses.MISSING, hint, *_checker(hint))


def fields(cls) -> tuple[tuple, ...]:
    """The ``_row`` of each init field of record ``cls``."""
    return cls.__record__


def is_record(cls) -> bool:
    """Whether ``cls`` is a class that ``record`` built."""
    return isinstance(getattr(cls, "__record__", None), tuple)


def _checked(check: Callable, key: str, value):
    """``check(value)``, a FieldError from it prefixed with the field's key."""
    try:
        return check(value)
    except FieldError as exc:
        raise FieldError(f"{key}{exc}") from None


def _key(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__compared__])


def _eq(self, other):
    return _key(self) == _key(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(_key(self))


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__shown__)
    return f"{self.__class__.__qualname__}({shown})"


def _setattr(self, name, value):
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def frozen(cls, *, checked=False):
    """The class as a frozen dataclass that builds one function, its
    ``__init__``, by one ``exec``.  Its equality, hash, repr and frozen
    ``__setattr__`` and ``__delattr__`` are this module's, shared by every
    class, and behave as ``dataclass(frozen=True)``'s: equality and hash over
    the fields that compare, the repr over those that show.  The ``__init__``
    takes the init fields by position or keyword with their defaults, sets
    each other field that has a ``default_factory`` from it, and then calls
    ``__post_init__`` if the class has one.  With ``checked`` it checks each
    init field against its annotation before storing it, as ``record``
    describes."""
    dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
    every = dataclasses.fields(cls)
    rows = tuple(_row(cls, f) for f in every if f.init) if checked else ()
    checks = {name: (key, kept, check) for name, key, _, _, kept, check in rows}
    names = {"_set": object.__setattr__, "_checked": _checked}
    params, body = [], []
    for f in every:
        name = f.name
        if not f.init:
            if f.default_factory is not dataclasses.MISSING:
                names[f"_factory_{name}"] = f.default_factory
                body.append(f"_set(self, {name!r}, _factory_{name}())")
            continue
        names[f"_default_{name}"] = f.default
        params.append(name if f.default is dataclasses.MISSING else f"{name}=_default_{name}")
        if name in checks:
            key, names[f"_kept_{name}"], names[f"_check_{name}"] = checks[name]
            body.append(f"if type({name}) not in _kept_{name}: {name} = _checked(_check_{name}, {key!r}, {name})")
        body.append(f"_set(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec("\n    ".join([f"def __init__(self, {', '.join(params)}):", *(body or ["pass"])]), names)
    cls.__init__ = names["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__compared__ = tuple(f.name for f in every if f.compare)
    cls.__shown__ = tuple(f.name for f in every if f.repr)
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    if checked:
        cls.__record__ = rows
    return cls


def record(cls):
    """``frozen``, whose ``__init__`` checks each init field against its
    annotation (see ``_checker``) before the class's own ``__post_init__``
    checks their values.  A wrong type or shape raises FieldError naming the
    field's key; a real in a ``float`` field is stored as a float."""
    return frozen(cls, checked=True)
