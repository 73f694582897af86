"""Capability delivery schedules.

A schedule maps integer steps to the raw capability level C(t) > 0.
Four kinds are supported:

* ``continuous``: smooth compounding, C(t) = c0 * (1 + rho)**(t * alpha),
  i.e. resources grow by a factor (1 + rho) per step and capability sees
  them through a power law with exponent alpha.
* ``punctuated``: flat between releases; each release multiplies
  capability by exp(log_jump).
* ``hybrid``: the product of the two mechanisms above.
* ``table``: explicit per-step values, one per step of the horizon.

``BudgetedCadence`` describes a fixed total log-capability budget spent
in equal releases at a fixed interval; ``cadence_to_schedule`` expands it
into a punctuated schedule.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ConfigurationError, check_int, check_real, record

# The document keys of each kind; a schedule's fields that its kind does
# not list must keep their defaults.
SCHEDULE_KEYS = {
    "continuous": ("c0", "resource_growth", "alpha"),
    "punctuated": ("c0", "releases"),
    "hybrid": ("c0", "resource_growth", "alpha", "releases"),
    "table": ("values",),
}
SCHEDULE_KINDS = tuple(SCHEDULE_KEYS)


@record
class Release:
    """A discrete capability release at an integer step."""

    time: int
    log_jump: float

    def __post_init__(self):
        check_int(self.time, 0, "release.time must be a non-negative integer")
        message = "release.log_jump must be a positive finite number"
        check_real(self.log_jump, message, 0.0, open_lo=True)


@record
class CapabilitySchedule:
    """C(t) of one kind; the fields its kind does not use keep their defaults."""

    kind: str
    c0: float = 1.0
    resource_growth: float = 0.0
    alpha: float = 1.0
    releases: tuple[Release, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigurationError(
                f"schedule.kind must be one of {', '.join(SCHEDULE_KINDS)}; got {self.kind!r}"
            )
        for key in ("c0", "resource_growth", "alpha", "releases", "values"):
            # a dataclass keeps each field's default as its class attribute
            if key not in SCHEDULE_KEYS[self.kind] and getattr(self, key) != getattr(CapabilitySchedule, key):
                raise ConfigurationError(f"schedule.{key}: a {self.kind} schedule takes no {key}")
        if self.kind == "table":
            if not self.values:
                raise ConfigurationError("schedule.values must be a non-empty list")
            for i, v in enumerate(self.values):
                message = f"schedule.values[{i}] must be a positive finite number"
                check_real(v, message, 0.0, open_lo=True)
            return
        check_real(self.c0, "schedule.c0 must be a positive finite number", 0.0, open_lo=True)
        if self.kind in ("continuous", "hybrid"):
            check_real(self.resource_growth, "schedule.resource_growth must be >= 0", 0.0)
            check_real(self.alpha, "schedule.alpha must lie in (0, 1]", 0.0, 1.0, open_lo=True)
        if self.kind in ("punctuated", "hybrid"):
            times = [r.time for r in self.releases]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ConfigurationError("schedule.releases times must be strictly increasing")


def capability_at(schedule: CapabilitySchedule, t: int) -> float:
    """Raw capability at integer step t; IndexError outside the domain.

    It is element t of the series of the releases up to step t, so it
    agrees with ``capability_series`` bit for bit."""
    if t < 0:
        raise IndexError(f"step {t} is negative")
    if schedule.kind == "table":
        if t >= len(schedule.values):
            raise IndexError(f"step {t} outside table of length {len(schedule.values)}")
        return float(schedule.values[t])
    upto = replace(schedule, releases=tuple(r for r in schedule.releases if r.time <= t))
    return float(capability_series(upto, t + 1)[t])


def capability_series(schedule: CapabilitySchedule, horizon: int) -> np.ndarray:
    """C(t) for t in [0, horizon), horizon >= 1, checked: its step-indexed
    content fits the horizon and C(t) is finite on every step.  The one
    computation of C(t); the engine and ``Scenario`` both use it."""
    if schedule.kind == "table":
        if len(schedule.values) != horizon:
            raise ConfigurationError(
                f"schedule.values has {len(schedule.values)} entries but horizon is {horizon}"
            )
        return np.asarray(schedule.values, dtype=np.float64)
    for r in schedule.releases:
        if r.time >= horizon:
            raise ConfigurationError(f"release at step {r.time} is outside horizon {horizon}")
    try:
        t = np.arange(horizon, dtype=np.float64)
        log_c = np.full(horizon, np.log(schedule.c0))
    except (ValueError, MemoryError):
        raise ConfigurationError(
            f"horizon {horizon}: its per-step arrays cannot be allocated"
        ) from None
    with np.errstate(over="ignore"):
        if schedule.kind in ("continuous", "hybrid"):
            log_c += t * schedule.alpha * np.log1p(schedule.resource_growth)
        if schedule.kind in ("punctuated", "hybrid"):
            jumps = np.zeros(horizon)
            for r in schedule.releases:
                jumps[r.time] += r.log_jump
            log_c += np.cumsum(jumps)
        caps = np.exp(log_c)
    overflow = np.flatnonzero(np.isinf(caps))
    if overflow.size:
        raise ConfigurationError(
            f"schedule: C(t) overflows at step {overflow[0]} of horizon {horizon}"
        )
    return caps


@record
class BudgetedCadence:
    """Equal log-capability releases at a fixed interval, fixed total."""

    total_log_budget: float
    interval: int

    def __post_init__(self):
        message = "cadence.total_log_budget must be a positive finite number"
        check_real(self.total_log_budget, message, 0.0, open_lo=True)
        check_int(self.interval, 1, "cadence.interval must be an integer >= 1")


def cadence_to_schedule(cadence: BudgetedCadence, horizon: int, c0: float) -> CapabilitySchedule:
    """Expand a cadence into a punctuated schedule over [0, horizon).

    Releases land at interval, 2*interval, ... while inside the horizon;
    the budget is split equally so the final capability is always
    c0 * exp(total_log_budget) once the last release has landed.
    """
    n_releases = (horizon - 1) // cadence.interval
    if n_releases < 1:
        raise ConfigurationError(
            f"cadence.interval {cadence.interval} admits no release within horizon {horizon}"
        )
    jump = cadence.total_log_budget / n_releases
    releases = tuple(Release(i * cadence.interval, jump) for i in range(1, n_releases + 1))
    return CapabilitySchedule(kind="punctuated", c0=c0, releases=releases)
