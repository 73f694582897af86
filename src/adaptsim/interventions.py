"""Intervention operators and their firing schedules.

Each intervention is a frozen parameter record; the engine owns all
state (firing counters, active windows).  An event schedule is either
one-shot (``at``) or periodic (``start``/``period``).  A firing at step
t takes effect from step t + 1: firings are processed after the step's
reference updates, so the step that fires is recorded unchanged except
for reference shifts, which apply immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union, get_args

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class EventSchedule:
    """One-shot firing at ``at``, or periodic from ``start`` every ``period``."""

    at: int | None = None
    start: int | None = None
    period: int | None = None

    def __post_init__(self):
        one_shot = self.at is not None
        periodic = self.start is not None or self.period is not None
        if one_shot == periodic:
            raise ConfigurationError(
                "event schedule must set either 'at' or both 'start' and 'period'"
            )
        if one_shot:
            if not _is_step(self.at):
                raise ConfigurationError("event.at must be a non-negative integer")
        else:
            if self.start is None or self.period is None:
                raise ConfigurationError("periodic event needs both 'start' and 'period'")
            if not _is_step(self.start):
                raise ConfigurationError("event.start must be a non-negative integer")
            if not _is_step(self.period) or self.period < 1:
                raise ConfigurationError("event.period must be an integer >= 1")

    def fires_at(self, t: int) -> bool:
        if self.at is not None:
            return t == self.at
        return t >= self.start and (t - self.start) % self.period == 0

    def validate_horizon(self, horizon: int) -> None:
        first = self.at if self.at is not None else self.start
        if first >= horizon:
            raise ConfigurationError(
                f"event first fires at step {first}, outside horizon {horizon}"
            )


def _is_step(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _param(kind: str, name: str, value, lo: float, hi: float, *, open_lo=False, open_hi=False):
    ok = np.isfinite(value)
    ok = ok and (value > lo if open_lo else value >= lo)
    ok = ok and (value < hi if open_hi else value <= hi)
    if not ok:
        span = f"{'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"
        raise ConfigurationError(f"{kind}.{name} must lie in {span}")


@dataclass(frozen=True)
class NoveltyReset:
    """Knock every non-churned reference down at each firing.

    The j-th firing (counting from 0, shared across the population)
    shifts references by decay_delta**j * ln(1 - rho): a fixed fractional
    reset whose effect decays geometrically with repetition.
    """

    kind = "novelty_reset"
    rho: float
    decay_delta: float
    schedule: EventSchedule

    def __post_init__(self):
        _param(self.kind, "rho", self.rho, 0.0, 1.0, open_lo=True, open_hi=True)
        _param(self.kind, "decay_delta", self.decay_delta, 0.0, 1.0, open_lo=True)


@dataclass(frozen=True)
class Personalization:
    """Permanent per-agent perception uplift plus slower adaptation.

    On first firing only: each agent draws a uniform perception bonus in
    [0, max_log_mult] from its personalization stream, and adaptation
    rates are damped to gamma * (1 - gamma_damp_omega).  Later firings
    are no-ops.
    """

    kind = "personalization"
    max_log_mult: float
    gamma_damp_omega: float
    schedule: EventSchedule

    def __post_init__(self):
        if not (np.isfinite(self.max_log_mult) and self.max_log_mult >= 0.0):
            raise ConfigurationError("personalization.max_log_mult must be >= 0")
        _param(self.kind, "gamma_damp_omega", self.gamma_damp_omega, 0.0, 1.0, open_hi=True)


@dataclass(frozen=True)
class ExpectationManagement:
    """Blend the adaptation target toward a discounted announced level.

    While active, references chase (1 - w) * log C_perceived +
    w * log(C_effective * a) instead of perceived capability alone.
    Firings toggle the regime on and off.
    """

    kind = "expectation_management"
    weight_w: float
    announce_discount_a: float
    schedule: EventSchedule

    def __post_init__(self):
        _param(self.kind, "weight_w", self.weight_w, 0.0, 1.0)
        _param(self.kind, "announce_discount_a", self.announce_discount_a, 0.0, 1.0, open_lo=True)


@dataclass(frozen=True)
class SocialBenchmark:
    """Mean-preserving spread of step satisfaction while active.

    Each agent's satisfaction moves away from (beta0 > 0) or toward
    (beta0 < 0) the participant mean by a weight that decays as
    exp(-(t - t_activation) / tau).  Firings toggle the regime.
    """

    kind = "social_benchmark"
    beta0: float
    tau: float
    schedule: EventSchedule

    def __post_init__(self):
        if not (np.isfinite(self.beta0) and -1.0 <= self.beta0):
            raise ConfigurationError("social_benchmark.beta0 must be finite and >= -1")
        if not (np.isfinite(self.tau) and self.tau > 0.0):
            raise ConfigurationError("social_benchmark.tau must be positive")


@dataclass(frozen=True)
class StrategicDip:
    """Temporarily hold back delivered capability after each firing.

    For the next ``duration`` steps, effective capability is the raw
    schedule times (1 - depth); perception and adaptation both see the
    dipped level.  A new firing restarts the window.
    """

    kind = "strategic_dip"
    depth: float
    duration: int
    schedule: EventSchedule

    def __post_init__(self):
        _param(self.kind, "depth", self.depth, 0.0, 1.0, open_lo=True, open_hi=True)
        if not _is_step(self.duration) or self.duration < 1:
            raise ConfigurationError("strategic_dip.duration must be an integer >= 1")


Intervention = Union[
    NoveltyReset, Personalization, ExpectationManagement, SocialBenchmark, StrategicDip
]

INTERVENTION_KINDS = {cls.kind: cls for cls in get_args(Intervention)}
