"""Agent populations partitioned into adoption segments.

Agents live in parallel numpy arrays (one row per agent) because the
engine updates them in bulk, a set of agents at a time.  Segment sizes
follow the largest-remainder rule so realized counts always sum to the
requested population size, and each segment is one contiguous id range;
within a segment, adaptation rates and initial reference gaps are drawn
from each agent's own initialization stream, which makes every agent's
draw independent of population size and of the draws of other agents.  A ``Population`` is only the step-0 draw:
the engine owns all state that changes during a run.
"""

from __future__ import annotations

import math

import numpy as np

from . import rng
from .errors import ConfigurationError, check_real, frozen, record
from .kernels import BassParams


# agent states, as stored in the int8 ``state`` array and in traces.csv
POTENTIAL, ACTIVE, CHURNED = 0, 1, 2


@record
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
        where = f"segment {self.name!r}"
        check_real(self.fraction, f"{where}: fraction must lie in [0, 1]", 0.0, 1.0)
        lo, hi = self.gamma_range
        gamma_message = f"{where}: gamma_range must satisfy 0 <= lo <= hi <= 1"
        check_real(lo, gamma_message, 0.0, 1.0)
        check_real(hi, gamma_message, lo, 1.0)
        # headroom 0 is allowed: an agent may start exactly at its reference
        check_real(self.initial_headroom, f"{where}: initial_headroom must be >= 0", 0.0)
        check_real(self.headroom_jitter, f"{where}: headroom_jitter must be >= 0", 0.0)


def check_fractions(segments: tuple[Segment, ...]) -> None:
    total = math.fsum(s.fraction for s in segments)
    if abs(total - 1.0) > 1e-9:
        raise ConfigurationError(f"segment fractions sum to {total!r}, expected 1")


def allocate_counts(fractions: list[float], n: int) -> list[int]:
    """Largest-remainder apportionment; ties broken by earlier index.

    Fractions that sum to 1 only within ``check_fractions``' tolerance can
    leave more agents over than there are segments, or too many allotted:
    the remainder order is then cycled through, adding to the largest
    remainders first and taking from the smallest first, and no count goes
    below 0, so the counts always sum to ``n``."""
    raw = [f * n for f in fractions]
    counts = [int(math.floor(x)) for x in raw]
    remainders = [x - c for x, c in zip(raw, counts)]
    short = n - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-remainders[i], i))
    step = 1 if short > 0 else -1
    if short < 0:
        order.reverse()
    while short:  # each pass adds or takes ``each`` a segment, as that many cycles would
        live = [i for i in order if step > 0 or counts[i]]
        each = max(1, min([abs(short) // len(live)] + [counts[i] for i in live if step < 0]))
        for i in live[: abs(short)]:
            counts[i] += step * each
            short -= step * each
    return counts


@frozen
class Population:
    """The step-0 draw: parallel per-agent arrays.

    ``segment_index`` indexes the scenario's segments and ``log_r`` is the
    internal reference in log-capability units.  Array index is agent id;
    all engine iteration follows id order.  Each segment is one contiguous
    id range, in segment order, so ``segment_index`` never decreases; the
    engine's per-segment sums rely on it.  The engine owns all run-time
    state: it advances ``state`` and ``log_r`` in place and keeps the
    changing rates and perception bonuses itself.
    """

    segment_index: np.ndarray
    gamma: np.ndarray
    log_r: np.ndarray
    state: np.ndarray


def build_population(
    segments: tuple[Segment, ...], n: int, master_seed: int, log_c0: float
) -> Population:
    """Materialize n agents at step 0 against initial log capability log_c0.

    ``segments`` and ``n`` are a ``Scenario``'s, which has checked them.  Per
    agent, the initialization stream supplies two uniforms: the adaptation
    rate inside the segment's gamma_range, then a symmetric jitter on the
    initial headroom.  The reference starts below current capability by
    exactly headroom + jitter draw, so every initial gap lies in
    [headroom - jitter, headroom + jitter].
    """
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
        segment_index=seg_idx.astype(np.int64),
        gamma=gamma,
        log_r=log_r,
        state=np.full(n, POTENTIAL, dtype=np.int8),
    )
