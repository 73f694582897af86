"""Deterministic agent-based simulator of hedonic adaptation in
technology adoption: capability schedules, reference-point dynamics,
Bass-style diffusion with satisfaction-driven churn, intervention
operators, and reproducible analysis tooling."""

__version__ = "0.1.0"

from .analysis import (
    CadenceResult,
    CadenceSearch,
    PhaseKind,
    PhaseLabel,
    SweepDimension,
    SweepSpec,
    classify_phases,
    lhs_sample,
    optimize_cadence,
    run_sweep,
    satisfaction_gap,
    time_avg_active_satisfaction,
    time_to_half_peak,
)
from .engine import RunOutput, Scenario, run, run_many
from .errors import AdaptSimError, ConfigurationError, DomainError
from .interventions import (
    EventSchedule,
    ExpectationManagement,
    NoveltyReset,
    Personalization,
    SocialBenchmark,
    StrategicDip,
)
from .kernels import BassParams, ChurnParams, SatisfactionParams
from .population import Segment, build_population
from .schedule import BudgetedCadence, CapabilitySchedule, Release, cadence_to_schedule

__all__ = [
    "AdaptSimError",
    "BassParams",
    "BudgetedCadence",
    "CadenceResult",
    "CadenceSearch",
    "CapabilitySchedule",
    "ChurnParams",
    "ConfigurationError",
    "DomainError",
    "EventSchedule",
    "ExpectationManagement",
    "NoveltyReset",
    "Personalization",
    "PhaseKind",
    "PhaseLabel",
    "Release",
    "RunOutput",
    "SatisfactionParams",
    "Scenario",
    "Segment",
    "SocialBenchmark",
    "StrategicDip",
    "SweepDimension",
    "SweepSpec",
    "build_population",
    "cadence_to_schedule",
    "classify_phases",
    "lhs_sample",
    "optimize_cadence",
    "run",
    "run_many",
    "run_sweep",
    "satisfaction_gap",
    "time_avg_active_satisfaction",
    "time_to_half_peak",
]
