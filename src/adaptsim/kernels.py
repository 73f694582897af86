"""Closed-form primitives of the adaptation model.

Satisfaction is linear in the log gap between perceived capability and
the internal reference, with a steeper slope below the reference.
References chase log capability by exponential smoothing.  Adoption
pressure and churn are simple hazards.  All functions are pure, accept
scalars or numpy arrays interchangeably, and do not check their inputs:
building a ``Scenario`` proves that no value its run computes leaves the
float range (see ``engine.resolve``).
"""

from __future__ import annotations

from dataclasses import field

import numpy as np

from .errors import ConfigurationError, check_real, record


@record
class SatisfactionParams:
    """Slope, intercept, and loss-side multiplier of the response curve."""

    k: float
    b: float
    loss_aversion: float = field(default=2.25, metadata={"key": "lambda"})

    def __post_init__(self):
        check_real(self.k, "satisfaction.k must be a positive finite number", 0.0, open_lo=True)
        check_real(self.b, "satisfaction.b must be finite")
        # b + slope*g is -0.0 only when b is, so satisfaction never is
        object.__setattr__(self, "b", self.b + 0.0)
        check_real(self.loss_aversion, "satisfaction.lambda must be finite and >= 1", 1.0)


@record
class BassParams:
    """Innovation (p) and imitation (q) coefficients of the adoption hazard."""

    p: float
    q: float

    def __post_init__(self):
        check_real(self.p, "bass.p must lie in [0, 1]", 0.0, 1.0)
        check_real(self.q, "bass.q must be >= 0", 0.0)
        if self.p + self.q > 1.0:
            raise ConfigurationError("bass.p + bass.q must not exceed 1")


@record
class ChurnParams:
    """Satisfaction threshold and slope of the per-step churn hazard."""

    s_churn: float
    eta: float
    cap: float

    def __post_init__(self):
        check_real(self.s_churn, "churn.s_churn must be finite")
        check_real(self.eta, "churn.eta must be >= 0", 0.0)
        check_real(self.cap, "churn.cap must lie in [0, 1]", 0.0, 1.0)


def log_satisfaction(log_c_perceived, log_r, params: SatisfactionParams):
    """Satisfaction from the gap g = log_c_perceived - log_r.

    Gains scale by k, losses (negative gap) by loss_aversion * k, so a
    capability doubling above reference always adds exactly k * ln 2.
    This is b + min(g * k, g * (loss_aversion * k)): with k > 0 and
    loss_aversion >= 1 the smaller product is the one for the gap's sign,
    rounding being monotone, and a gap of -0.0 gives -0.0 on both sides.
    It reuses its temporaries: one more full-size temporary made a run of
    100k agents about 5% slower.
    """
    g = log_c_perceived - log_r  # a new array or scalar, so scaled in place
    loss = g * (params.loss_aversion * params.k)
    g *= params.k
    s = np.minimum(g, loss)
    s += params.b
    return s


def update_reference(log_r, log_target, gamma):
    """One exponential-smoothing step of the reference toward the target:
    log_r + gamma * (log_target - log_r), its sum and product in the other
    order, which rounds the same, on one temporary."""
    d = log_target - log_r  # a new array or scalar, so updated in place
    d *= gamma
    d += log_r
    return d


def bass_hazard(params: BassParams, adopted_fraction):
    """Per-step adoption probability; ``BassParams`` keeps it in [0, 1] for a fraction in [0, 1]."""
    return params.p + params.q * adopted_fraction


def churn_probability(satisfaction, params: ChurnParams):
    """Per-step churn probability, zero at or above the threshold."""
    raw = params.eta * np.maximum(0.0, params.s_churn - satisfaction)
    return np.minimum(params.cap, raw)
