"""Exception types shared across the package, and the checks that raise them."""

from __future__ import annotations

import contextlib


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


def check_int(value, lo: int | None, message: str) -> int:
    """``value`` if it is an int (a bool is not) of at least ``lo``, when
    ``lo`` is given; otherwise ConfigurationError(message)."""
    if not isinstance(value, int) or isinstance(value, bool) or (lo is not None and value < lo):
        raise ConfigurationError(message)
    return value


def check_seed(value, name: str) -> None:
    """Reject anything but an unsigned 64-bit integer as the seed ``name``."""
    message = f"{name} must be an unsigned 64-bit integer"
    if check_int(value, 0, message) >= 2**64:
        raise ConfigurationError(message)


@contextlib.contextmanager
def rewrap(path: str):
    """Re-raise a ConfigurationError from the block with a path prefix."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
