"""Exception types shared across the package, and the checks that raise them."""

from __future__ import annotations

import contextlib
import math
import numbers


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


def check_real(value, message: str, lo=None, hi=None, *, open_lo=False, open_hi=False):
    """``value`` if it is a finite real (a bool is not) between ``lo`` and ``hi``,
    either of which may be None; an end is closed unless ``open_lo`` or
    ``open_hi`` opens it.  Otherwise ConfigurationError(message)."""
    # float and int come first: they skip the slower check of the ABC
    real = isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.nan
    below = lo is not None and (x <= lo if open_lo else x < lo)
    above = hi is not None and (x >= hi if open_hi else x > hi)
    if not math.isfinite(x) or below or above:
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
