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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# The document keys of each kind; the fields a kind does not list keep
# their defaults.
SCHEDULE_KEYS = {
    "continuous": ("c0", "resource_growth", "alpha"),
    "punctuated": ("c0", "releases"),
    "hybrid": ("c0", "resource_growth", "alpha", "releases"),
    "table": ("values",),
}
SCHEDULE_KINDS = tuple(SCHEDULE_KEYS)


@dataclass(frozen=True)
class Release:
    """A discrete capability release at an integer step."""

    time: int
    log_jump: float

    def __post_init__(self):
        if not isinstance(self.time, int) or isinstance(self.time, bool) or self.time < 0:
            raise ConfigurationError("release.time must be a non-negative integer")
        if not (np.isfinite(self.log_jump) and self.log_jump > 0.0):
            raise ConfigurationError("release.log_jump must be a positive finite number")


@dataclass(frozen=True)
class CapabilitySchedule:
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
        if self.kind == "table":
            if not self.values:
                raise ConfigurationError("schedule.values must be a non-empty list")
            for i, v in enumerate(self.values):
                if not (np.isfinite(v) and v > 0.0):
                    raise ConfigurationError(f"schedule.values[{i}] must be a positive finite number")
            return
        if not (np.isfinite(self.c0) and self.c0 > 0.0):
            raise ConfigurationError("schedule.c0 must be a positive finite number")
        if self.kind in ("continuous", "hybrid"):
            if not (np.isfinite(self.resource_growth) and self.resource_growth >= 0.0):
                raise ConfigurationError("schedule.resource_growth must be >= 0")
            if not (np.isfinite(self.alpha) and 0.0 < self.alpha <= 1.0):
                raise ConfigurationError("schedule.alpha must lie in (0, 1]")
        if self.kind in ("punctuated", "hybrid"):
            times = [r.time for r in self.releases]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ConfigurationError("schedule.releases times must be strictly increasing")

    def validate_horizon(self, horizon: int) -> None:
        """Check step-indexed content fits a run of the given length."""
        if self.kind == "table" and len(self.values) != horizon:
            raise ConfigurationError(
                f"schedule.values has {len(self.values)} entries but horizon is {horizon}"
            )
        for r in self.releases:
            if r.time >= horizon:
                raise ConfigurationError(
                    f"release at step {r.time} is outside horizon {horizon}"
                )


def capability_at(schedule: CapabilitySchedule, t: int) -> float:
    """Raw capability at integer step t; IndexError outside the domain."""
    if t < 0:
        raise IndexError(f"step {t} is negative")
    if schedule.kind == "table":
        if t >= len(schedule.values):
            raise IndexError(f"step {t} outside table of length {len(schedule.values)}")
        return float(schedule.values[t])
    log_c = float(np.log(schedule.c0))
    if schedule.kind in ("continuous", "hybrid"):
        log_c += t * schedule.alpha * float(np.log1p(schedule.resource_growth))
    if schedule.kind in ("punctuated", "hybrid"):
        log_c += sum(r.log_jump for r in schedule.releases if r.time <= t)
    return float(np.exp(log_c))


def capability_series(schedule: CapabilitySchedule, horizon: int) -> np.ndarray:
    """Vectorized C(t) for t in [0, horizon); the engine's single source."""
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    schedule.validate_horizon(horizon)
    if schedule.kind == "table":
        return np.asarray(schedule.values, dtype=np.float64)
    t = np.arange(horizon, dtype=np.float64)
    log_c = np.full(horizon, np.log(schedule.c0))
    if schedule.kind in ("continuous", "hybrid"):
        log_c += t * schedule.alpha * np.log1p(schedule.resource_growth)
    if schedule.kind in ("punctuated", "hybrid"):
        jumps = np.zeros(horizon)
        for r in schedule.releases:
            jumps[r.time] += r.log_jump
        log_c += np.cumsum(jumps)
    return np.exp(log_c)


@dataclass(frozen=True)
class BudgetedCadence:
    """Equal log-capability releases at a fixed interval, fixed total."""

    total_log_budget: float
    interval: int

    def __post_init__(self):
        if not (np.isfinite(self.total_log_budget) and self.total_log_budget > 0.0):
            raise ConfigurationError("cadence.total_log_budget must be a positive finite number")
        if not isinstance(self.interval, int) or isinstance(self.interval, bool) or self.interval < 1:
            raise ConfigurationError("cadence.interval must be an integer >= 1")


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
