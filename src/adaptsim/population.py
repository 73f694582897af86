"""Agent populations partitioned into adoption segments.

Agents live in parallel numpy arrays (one row per agent) because the
engine updates the whole population per step.  Segment sizes follow the
largest-remainder rule so realized counts always sum to the requested
population size; within a segment, adaptation rates and initial
reference gaps are drawn from each agent's own initialization stream,
which makes every agent's draw independent of population size and of
the draws of other agents.  A ``Population`` is only the step-0 draw:
the engine owns all state that changes during a run.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigurationError
from .kernels import BassParams


class AgentState(enum.IntEnum):
    POTENTIAL = 0
    ACTIVE = 1
    CHURNED = 2


@dataclass(frozen=True)
class Segment:
    """A population stratum with its own adoption and adaptation profile."""

    name: str
    fraction: float
    gamma_range: tuple[float, float]
    bass: BassParams
    initial_headroom: float = 0.5
    headroom_jitter: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("segment.name must be non-empty")
        if not (np.isfinite(self.fraction) and 0.0 <= self.fraction <= 1.0):
            raise ConfigurationError(f"segment {self.name!r}: fraction must lie in [0, 1]")
        lo, hi = self.gamma_range
        if not (np.isfinite(lo) and np.isfinite(hi) and 0.0 <= lo <= hi <= 1.0):
            raise ConfigurationError(
                f"segment {self.name!r}: gamma_range must satisfy 0 <= lo <= hi <= 1"
            )
        # headroom 0 is allowed: an agent may start exactly at its reference
        if not (np.isfinite(self.initial_headroom) and self.initial_headroom >= 0.0):
            raise ConfigurationError(f"segment {self.name!r}: initial_headroom must be >= 0")
        if not (np.isfinite(self.headroom_jitter) and self.headroom_jitter >= 0.0):
            raise ConfigurationError(f"segment {self.name!r}: headroom_jitter must be >= 0")


def check_fractions(segments: tuple[Segment, ...]) -> None:
    total = math.fsum(s.fraction for s in segments)
    if abs(total - 1.0) > 1e-9:
        raise ConfigurationError(f"segment fractions sum to {total!r}, expected 1")


def allocate_counts(fractions: list[float], n: int) -> list[int]:
    """Largest-remainder apportionment; ties broken by earlier index."""
    raw = [f * n for f in fractions]
    counts = [int(math.floor(x)) for x in raw]
    remainders = [x - c for x, c in zip(raw, counts)]
    short = n - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-remainders[i], i))
    for i in order[:short]:
        counts[i] += 1
    return counts


@dataclass(frozen=True)
class Agent:
    """Read-only view of one row of a Population."""

    id: int
    segment: str
    gamma: float
    log_r: float
    state: AgentState


@dataclass
class Population:
    """The step-0 draw: parallel per-agent arrays plus the segment
    definitions behind them.

    ``log_r`` is the internal reference in log-capability units.  Array
    index is agent id; all engine iteration follows id order.  The engine
    owns all run-time state: it advances ``state`` in place and keeps the
    changing references, rates and perception bonuses itself.
    """

    segments: tuple[Segment, ...]
    segment_index: np.ndarray
    gamma: np.ndarray
    log_r: np.ndarray
    state: np.ndarray

    @property
    def n(self) -> int:
        return self.gamma.shape[0]

    def count(self, state: AgentState) -> int:
        return int(np.count_nonzero(self.state == state))

    @property
    def n_active(self) -> int:
        return self.count(AgentState.ACTIVE)

    @property
    def n_churned(self) -> int:
        return self.count(AgentState.CHURNED)

    @property
    def n_adopted_ever(self) -> int:
        return self.n - self.count(AgentState.POTENTIAL)

    def agent(self, agent_id: int) -> Agent:
        return Agent(
            id=agent_id,
            segment=self.segments[int(self.segment_index[agent_id])].name,
            gamma=float(self.gamma[agent_id]),
            log_r=float(self.log_r[agent_id]),
            state=AgentState(int(self.state[agent_id])),
        )


def build_population(
    segments: tuple[Segment, ...], n: int, master_seed: int, log_c0: float
) -> Population:
    """Materialize n agents at step 0 against initial log capability log_c0.

    Per agent, the initialization stream supplies two uniforms: the
    adaptation rate inside the segment's gamma_range, then a symmetric
    jitter on the initial headroom.  The reference starts below current
    capability by exactly headroom + jitter draw, so every initial gap
    lies in [headroom - jitter, headroom + jitter].
    """
    if n < 1:
        raise ConfigurationError("population.size must be >= 1")
    if not segments:
        raise ConfigurationError("population.segments must be non-empty")
    check_fractions(segments)
    counts = allocate_counts([s.fraction for s in segments], n)

    seg_idx = np.repeat(np.arange(len(segments)), counts)
    lo = np.asarray([s.gamma_range[0] for s in segments])[seg_idx]
    hi = np.asarray([s.gamma_range[1] for s in segments])[seg_idx]
    headroom = np.asarray([s.initial_headroom for s in segments])[seg_idx]
    jitter = np.asarray([s.headroom_jitter for s in segments])[seg_idx]

    bank = rng.StreamBank(master_seed, n, rng.PURPOSE_INIT)
    u_gamma = bank.uniform()
    u_jit = bank.uniform()
    gamma = lo + u_gamma * (hi - lo)
    gap0 = headroom + (2.0 * u_jit - 1.0) * jitter
    log_r = log_c0 - gap0

    return Population(
        segments=segments,
        segment_index=seg_idx.astype(np.int64),
        gamma=gamma,
        log_r=log_r,
        state=np.full(n, AgentState.POTENTIAL, dtype=np.int8),
    )


def default_segments() -> tuple[Segment, ...]:
    """The standard three-segment market mix.

    Early adopters are few, adopt eagerly, and adapt fast; the
    mainstream follows; late adopters trail on both counts.  Imitation
    pressure is shared.  Numbers follow the usual diffusion-theory
    16/68/16 split.
    """
    return (
        Segment(
            name="early",
            fraction=0.16,
            gamma_range=(0.25, 0.45),
            bass=BassParams(p=0.10, q=0.30),
            initial_headroom=0.5,
            headroom_jitter=0.05,
        ),
        Segment(
            name="mainstream",
            fraction=0.68,
            gamma_range=(0.10, 0.25),
            bass=BassParams(p=0.01, q=0.30),
            initial_headroom=0.5,
            headroom_jitter=0.05,
        ),
        Segment(
            name="late",
            fraction=0.16,
            gamma_range=(0.02, 0.10),
            bass=BassParams(p=0.001, q=0.30),
            initial_headroom=0.5,
            headroom_jitter=0.05,
        ),
    )


def segment_aggregates(
    population: Population, satisfaction: np.ndarray
) -> dict[str, float | None]:
    """Mean satisfaction of currently Active agents per segment.

    Segments with no active agents map to None rather than NaN so the
    caller can distinguish "empty" from a genuinely NaN input.
    """
    out: dict[str, float | None] = {}
    active = population.state == AgentState.ACTIVE
    for i, seg in enumerate(population.segments):
        mask = active & (population.segment_index == i)
        out[seg.name] = float(satisfaction[mask].mean()) if mask.any() else None
    return out
