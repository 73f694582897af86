"""Intervention operators and their firing schedules.

Each intervention is a frozen parameter record; ``engine.resolve`` turns
its firings into per-step series.  An event schedule is either one-shot
(``at``) or periodic (``start``/``period``).  A firing at step f takes
effect from step f + 1, except a novelty reset's reference shift, which
applies at f: firings are processed after the step's reference updates.
"""

from __future__ import annotations

from typing import Union, get_args

from .errors import ConfigurationError, check_int, check_real, record


@record
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
            check_int(self.at, 0, "event.at must be a non-negative integer")
        else:
            if self.start is None or self.period is None:
                raise ConfigurationError("periodic event needs both 'start' and 'period'")
            check_int(self.start, 0, "event.start must be a non-negative integer")
            check_int(self.period, 1, "event.period must be an integer >= 1")

    def fires_at(self, t: int) -> bool:
        """Whether step t is a firing: the per-step rule that ``firings`` puts in
        closed form.  The property tests check the resolved firings against it, and
        perfbench/tracing.py wraps it by name."""
        if self.at is not None:
            return t == self.at
        return t >= self.start and (t - self.start) % self.period == 0

    def firings(self, horizon: int) -> list[int]:
        """The steps of [0, horizon) at which this schedule fires; there must be one."""
        if self.at is not None:
            steps = [self.at] if self.at < horizon else []
        else:
            steps = list(range(self.start, horizon, self.period))
        if not steps:
            first = self.at if self.at is not None else self.start
            raise ConfigurationError(f"event first fires at step {first}, outside horizon {horizon}")
        return steps


@record
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
        rho_message = "novelty_reset.rho must lie in (0.0, 1.0)"
        check_real(self.rho, rho_message, 0.0, 1.0, open_lo=True, open_hi=True)
        delta_message = "novelty_reset.decay_delta must lie in (0.0, 1.0]"
        check_real(self.decay_delta, delta_message, 0.0, 1.0, open_lo=True)


@record
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
        check_real(self.max_log_mult, "personalization.max_log_mult must be >= 0", 0.0)
        omega_message = "personalization.gamma_damp_omega must lie in [0.0, 1.0)"
        check_real(self.gamma_damp_omega, omega_message, 0.0, 1.0, open_hi=True)


@record
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
        check_real(self.weight_w, "expectation_management.weight_w must lie in [0.0, 1.0]", 0.0, 1.0)
        a_message = "expectation_management.announce_discount_a must lie in (0.0, 1.0]"
        check_real(self.announce_discount_a, a_message, 0.0, 1.0, open_lo=True)


@record
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
        check_real(self.beta0, "social_benchmark.beta0 must be finite and >= -1", -1.0)
        check_real(self.tau, "social_benchmark.tau must be positive", 0.0, open_lo=True)


@record
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
        depth_message = "strategic_dip.depth must lie in (0.0, 1.0)"
        check_real(self.depth, depth_message, 0.0, 1.0, open_lo=True, open_hi=True)
        check_int(self.duration, 1, "strategic_dip.duration must be an integer >= 1")


Intervention = Union[
    NoveltyReset, Personalization, ExpectationManagement, SocialBenchmark, StrategicDip
]

INTERVENTION_KINDS = {cls.kind: cls for cls in get_args(Intervention)}
