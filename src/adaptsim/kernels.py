"""Closed-form primitives of the adaptation model.

Satisfaction is linear in the log gap between perceived capability and
the internal reference, with a steeper slope below the reference.
References chase log capability by exponential smoothing.  Adoption
pressure and churn are simple hazards.  All functions are pure, accept
scalars or numpy arrays interchangeably, and reject out-of-domain or
non-finite inputs with :class:`DomainError` rather than propagating NaNs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "SatisfactionParams",
    "BassParams",
    "ChurnParams",
    "log_satisfaction",
    "update_reference",
    "bass_hazard",
    "churn_probability",
]


def _check_finite(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def _ret(result):
    """A float when every input was a scalar (so the result is 0-d), else the array."""
    return float(result) if np.ndim(result) == 0 else result


@dataclass(frozen=True)
class SatisfactionParams:
    """Slope, intercept, and loss-side multiplier of the response curve."""

    k: float
    b: float
    loss_aversion: float = field(default=2.25, metadata={"key": "lambda"})

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0.0):
            raise ConfigurationError("satisfaction.k must be a positive finite number")
        if not np.isfinite(self.b):
            raise ConfigurationError("satisfaction.b must be finite")
        # b + slope*g is -0.0 only when b is, so satisfaction never is
        object.__setattr__(self, "b", self.b + 0.0)
        if not (np.isfinite(self.loss_aversion) and self.loss_aversion >= 1.0):
            raise ConfigurationError("satisfaction.lambda must be finite and >= 1")


@dataclass(frozen=True)
class BassParams:
    """Innovation (p) and imitation (q) coefficients of the adoption hazard."""

    p: float
    q: float

    def __post_init__(self):
        if not (np.isfinite(self.p) and 0.0 <= self.p <= 1.0):
            raise ConfigurationError("bass.p must lie in [0, 1]")
        if not (np.isfinite(self.q) and self.q >= 0.0):
            raise ConfigurationError("bass.q must be >= 0")
        if self.p + self.q > 1.0:
            raise ConfigurationError("bass.p + bass.q must not exceed 1")


@dataclass(frozen=True)
class ChurnParams:
    """Satisfaction threshold and slope of the per-step churn hazard."""

    s_churn: float
    eta: float
    cap: float

    def __post_init__(self):
        if not np.isfinite(self.s_churn):
            raise ConfigurationError("churn.s_churn must be finite")
        if not (np.isfinite(self.eta) and self.eta >= 0.0):
            raise ConfigurationError("churn.eta must be >= 0")
        if not (np.isfinite(self.cap) and 0.0 <= self.cap <= 1.0):
            raise ConfigurationError("churn.cap must lie in [0, 1]")


def log_satisfaction(log_c_perceived, log_r, params: SatisfactionParams):
    """Satisfaction from the gap g = log_c_perceived - log_r.

    Gains scale by k, losses (negative gap) by loss_aversion * k, so a
    capability doubling above reference always adds exactly k * ln 2.
    """
    g = _check_finite("log_c_perceived", log_c_perceived) - _check_finite("log_r", log_r)
    slope = np.where(g >= 0.0, params.k, params.loss_aversion * params.k)
    return _ret(params.b + slope * g)


def update_reference(log_r, log_target, gamma):
    """One exponential-smoothing step of the reference toward the target."""
    lr = _check_finite("log_r", log_r)
    lt = _check_finite("log_target", log_target)
    g = np.asarray(gamma, dtype=np.float64)
    if not (np.all(g >= 0.0) and np.all(g <= 1.0)):
        raise DomainError("gamma must lie in [0, 1]")
    return _ret(lr + g * (lt - lr))


def bass_hazard(params: BassParams, adopted_fraction):
    """Per-step adoption probability given the adopted-ever fraction."""
    f = _check_finite("adopted_fraction", adopted_fraction)
    if not (np.all(f >= 0.0) and np.all(f <= 1.0)):
        raise DomainError("adopted_fraction must lie in [0, 1]")
    return _ret(np.clip(params.p + params.q * f, 0.0, 1.0))


def churn_probability(satisfaction, params: ChurnParams):
    """Per-step churn probability, zero at or above the threshold."""
    s = _check_finite("satisfaction", satisfaction)
    raw = params.eta * np.maximum(0.0, params.s_churn - s)
    return _ret(np.minimum(params.cap, raw))
