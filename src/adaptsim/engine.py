"""The deterministic per-step simulation loop.

``resolve`` computes before step 0 what no agent's state decides: C(t)
and its dips, and each step's firings and intervention regimes, and
proves from them that no value a run computes leaves the float range,
so the step loop checks nothing.  Each
step then runs, in order: adoption, perception, raw satisfaction against
the pre-update reference, social adjustment, churn, reference updates
for survivors, the step's firings (``interventions`` says when each
takes effect), and aggregate recording.  Agents churned within a step
still count in that step's aggregates (their exit dip is part of the
record); they never update their reference again.  The engine owns all
run-time state: it advances the step-0 population's ``state`` and
references in place and keeps rates and perception bonuses itself, and
``run`` fills the arrays of its ``RunOutput``, built before step 0.  A
step appends its end-of-step potential and churned counts to two lists,
and the three population fractions are divided out after the loop.
A step computes only what it reads: adoption draws the lanes of the
potential agents, churn those of the participants, and the kernels run
on the participants.  It also computes only what later steps read.  The
steps run in blocks with the same participants, and a step of a block
keeps only its participants' updated references; churners are reverted
to their old ones after the update.  While churn is live a step also
computes satisfaction, for the churn draw alone, and keeps none of it.
Once the block ends, ``record`` takes the rest from the reference rows,
a step per row and a few numpy calls per block: satisfaction and its
social spread, the means, quartiles and segment means, and the traces'
rows; then it writes the references back.  A run without ``report``, as
a sweep sample or a cadence candidate is, keeps only what the metrics
read: satisfaction, its spread and mean, and the participants.  It takes
no quartiles, reference means or segment means, finds no segment slices
and keeps no traces.  A block ends once someone
has adopted or churned, after personalization fires, and when it holds
``_BLOCK_ELEMENTS`` agent-steps.  The participants and their segment
slices are found again only after someone has adopted or churned, and
while every agent participates a block reads whole arrays through views
instead of gathering by index.

A single run is strictly sequential: adoption depends on the previous
step's adopted-ever fraction and the social term on the step mean.
Runs are pure functions of their scenario, so multiple runs may execute
concurrently with byte-identical results; ``map_ordered``, the one
parallel map, runs a sweep's processes and traces.csv's threads.
"""

from __future__ import annotations

import math
import os
from dataclasses import field

import numpy as np

from . import rng
from .errors import ConfigurationError, check_int, check_seed, frozen, record, rewrap
from .interventions import (
    INTERVENTION_KINDS,
    ExpectationManagement,
    Intervention,
    NoveltyReset,
    Personalization,
    SocialBenchmark,
    StrategicDip,
)
from .kernels import (
    ChurnParams,
    SatisfactionParams,
    bass_hazard,
    churn_probability,
    log_satisfaction,
    update_reference,
)
from .population import ACTIVE, CHURNED, Segment, build_population, check_fractions
from .schedule import CapabilitySchedule, capability_series

NO_CHURN = ChurnParams(s_churn=0.0, eta=0.0, cap=0.0)


@record
class Scenario:
    """Everything one run needs.  Building one checks the rules between its
    fields, resolves its ``regimes`` and bounds the magnitude of every value
    its run computes, so a Scenario that exists is valid and nothing checks
    or resolves it again."""

    horizon: int = field(metadata={"key": "scenario.horizon"})
    population_size: int = field(metadata={"key": "population.size"})
    segments: tuple[Segment, ...] = field(metadata={"key": "population.segments"})
    schedule: CapabilitySchedule
    satisfaction: SatisfactionParams
    churn: ChurnParams = NO_CHURN
    interventions: tuple[Intervention, ...] = ()
    seed: int = field(default=0, metadata={"key": "scenario.seed"})
    trace_agents: bool = field(default=False, metadata={"key": "scenario.trace_agents"})
    regimes: Regimes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # @record has checked each field's type; nested records checked their values
        check_int(self.horizon, 1, "horizon must be an integer >= 1")
        check_int(self.population_size, 1, "population.size must be an integer >= 1")
        if not self.segments:
            raise ConfigurationError("population.segments must be non-empty")
        with rewrap("population.segments[*].fraction"):
            check_fractions(self.segments)
        names = [s.name for s in self.segments]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigurationError(f"population.segments[{i}].name: segment names must be unique")
        check_seed(self.seed, "seed")
        object.__setattr__(self, "regimes", resolve(self))


@frozen
class Regimes:
    """The per-step series that ``run`` reads, and the interventions by kind; see ``resolve``."""

    capability: np.ndarray
    capability_effective: np.ndarray
    applied: tuple[tuple[str, ...], ...]  # the kinds firing at each step
    novelty_shift: dict[int, float]  # firing step -> reference shift
    expect_since: list[int | None]  # where the current spell began; None while off
    social_weight: list[float]  # 0.0 while the benchmark is off
    personalized_at: int | None  # the first personalization firing
    by_kind: dict[str, Intervention]  # each intervention by its kind, which is unique


def resolve(scenario: Scenario) -> Regimes:
    """C(t), the effective C(t) and every intervention regime of each step,
    checked: the schedules fit the horizon, each kind appears at most once,
    the effective C(t) is never 0, and no value a run computes can leave
    the float range.

    The inputs bound every value that ``run`` and the metrics compute.
    Perceived ln C is at most the largest |ln C_eff(t)| plus
    ``max_log_mult`` (step 0 is never dipped, so this covers ln C(0)).
    Each reference update is a convex step toward a target, so |ln R|
    stays below that plus the larger of the initial and announcement
    gaps, plus every novelty shift.  Satisfaction is at most
    ``|b| + lambda*k*(ln C + ln R)``, times ``1 + 2|beta0|`` after the
    social spread, and a sum behind a mean at most 2*n*horizon times the
    largest value.  The first bound that is not finite names the fields
    it adds to the bounds before it.
    """
    horizon = scenario.horizon
    regimes = _regimes(scenario.schedule, scenario.interventions, horizon)
    by_kind, cap_eff = regimes.by_kind, regimes.capability_effective
    personal = by_kind.get(Personalization.kind)
    expect = by_kind.get(ExpectationManagement.kind)
    social = by_kind.get(SocialBenchmark.kind)
    sat, churn = scenario.satisfaction, scenario.churn
    log_c = max(-math.log(cap_eff.min()), math.log(cap_eff.max()))
    log_c += personal.max_log_mult if personal else 0.0
    gaps = ((s.initial_headroom + s.headroom_jitter, i) for i, s in enumerate(scenario.segments))
    gap, widest = max(gaps)
    announce = -expect.weight_w * math.log(expect.announce_discount_a) if expect else 0.0
    shifts = sum(abs(v) for v in regimes.novelty_shift.values())
    ref = log_c + max(gap, announce) + shifts
    raw = abs(sat.b) + sat.loss_aversion * sat.k * (log_c + ref)
    spread = raw * (1.0 + 2.0 * abs(social.beta0)) if social else raw
    # float() of a larger int raises; 2.0 times this is already inf
    agent_steps = min(scenario.population_size * horizon, 2**1023)
    for bound, fields, what in (
        (2.0 * log_c, "personalization.max_log_mult", "perceived ln C"),
        (2.0 * ref, f"population.segments[{widest}].initial_headroom and headroom_jitter", "ln R"),
        (raw, "satisfaction.k, lambda and b", "satisfaction"),
        (spread, "social_benchmark.beta0", "the social spread of satisfaction"),
        (churn.eta * (abs(churn.s_churn) + spread), "churn.eta and s_churn", "the churn hazard"),
        (2.0 * agent_steps * max(ref, spread), "population.size and horizon", "a step mean's sum"),
    ):
        if not math.isfinite(bound):
            raise ConfigurationError(f"{fields}: {what} could leave the float range")
    return regimes


# The schedule, interventions and horizon of the last Regimes that _regimes
# built, and those Regimes.  It holds the records, so no other object can
# take their ids while they are compared by identity.
_last_regimes = (None, None, None, None)


def _regimes(schedule: CapabilitySchedule, interventions: tuple[Intervention, ...], horizon: int) -> Regimes:
    """The series of ``resolve``, checked but not bounded, from the only
    fields they read.  Scenarios built in a row from the same schedule and
    interventions records, such as a sweep's samples, share one Regimes
    whose arrays are read-only."""
    global _last_regimes
    last = _last_regimes
    if last[0] is schedule and last[1] is interventions and last[2] == horizon:
        return last[3]
    caps = capability_series(schedule, horizon)
    by_kind = {}
    for i, iv in enumerate(interventions):
        if iv.kind in by_kind:
            raise ConfigurationError(
                f"interventions[{i}]: at most one intervention of each kind per scenario"
            )
        by_kind[iv.kind] = iv
    firings = {kind: iv.schedule.firings(horizon) for kind, iv in by_kind.items()}
    applied = [()] * horizon
    for kind in INTERVENTION_KINDS:
        for f in firings.get(kind, ()):
            applied[f] += (kind,)

    novelty_shift = {}
    if novelty := by_kind.get(NoveltyReset.kind):
        # acceptance contract: the j-th firing's satisfaction boost is
        # exactly decay_delta**j times the first firing's boost
        first = float(np.log1p(-novelty.rho))
        novelty_shift = {f: novelty.decay_delta**j * first for j, f in enumerate(firings[novelty.kind])}

    social_weight = [0.0] * horizon
    if social := by_kind.get(SocialBenchmark.kind):
        for t, since in enumerate(_spells(firings[social.kind], horizon)):
            if since is not None:  # the first step of a spell sees weight beta0
                social_weight[t] = social.beta0 * float(np.exp(-(t - since) / social.tau))

    scale = np.ones(horizon)
    if dip := by_kind.get(StrategicDip.kind):
        for f in firings[dip.kind]:
            scale[f + 1 : f + 1 + dip.duration] = 1.0 - dip.depth
    cap_eff = caps * scale
    zero = np.flatnonzero(cap_eff == 0.0)
    if zero.size:
        raise ConfigurationError(f"effective C(t) is 0 at step {zero[0]} of horizon {horizon}")
    caps.flags.writeable = cap_eff.flags.writeable = False

    regimes = Regimes(
        capability=caps,
        capability_effective=cap_eff,
        applied=tuple(applied),
        novelty_shift=novelty_shift,
        expect_since=_spells(firings.get(ExpectationManagement.kind, []), horizon),
        social_weight=social_weight,
        personalized_at=min(firings.get(Personalization.kind, ()), default=None),
        by_kind=by_kind,
    )
    _last_regimes = (schedule, interventions, horizon, regimes)
    return regimes


def _spells(steps: list[int], horizon: int) -> list[int | None]:
    """Per step, where the on-spell of a regime each firing toggles began; None while off."""
    since: list[int | None] = [None] * horizon
    for on, off in zip(steps[::2], steps[1::2] + [horizon - 1]):
        since[on + 1 : off + 1] = [on + 1] * (off - on)
    return since


@frozen
class AgentTraces:
    """Per-step, per-agent detail; NaN satisfaction outside participation."""

    satisfaction: np.ndarray
    log_reference: np.ndarray
    state: np.ndarray


@frozen
class RunOutput:
    """The per-step series of one run of ``scenario``, and its agent traces if it kept them.

    A run without ``report`` (see ``run``) leaves ``mean_log_reference``,
    the quartiles, ``segment_mean_satisfaction`` and ``traces`` None."""

    scenario: Scenario
    capability: np.ndarray
    capability_effective: np.ndarray
    frac_potential: np.ndarray
    frac_active: np.ndarray
    frac_churned: np.ndarray
    mean_log_reference: np.ndarray | None
    mean_satisfaction: np.ndarray
    s_q25: np.ndarray | None
    s_q75: np.ndarray | None
    segment_mean_satisfaction: np.ndarray | None
    participants: np.ndarray
    interventions_applied: tuple[tuple[str, ...], ...]
    traces: AgentTraces | None = None

    @property
    def horizon(self) -> int:
        return int(self.capability.shape[0])

    @property
    def segment_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.scenario.segments)


# A block of steps holds at most this many agent-steps, so that its
# satisfaction and reference arrays (64 KiB each) stay near L1; blocks of
# 2**15 made runs of 500 and 2000 agents up to 40% slower.
_BLOCK_ELEMENTS = 2**13


def run(scenario: Scenario, report: bool = True) -> RunOutput:
    """Simulate one scenario; bit-identical output for identical input.

    Without ``report`` the run computes only what ``analysis.METRICS``
    reads: C(t), the fractions, ``mean_satisfaction``, ``participants`` and
    the firings, with the same bits.  It leaves the other statistics, which
    only run.csv and the charts read, and the traces None, whatever
    ``trace_agents`` says."""
    horizon = scenario.horizon
    n = scenario.population_size
    sat = scenario.satisfaction
    churn = scenario.churn

    regimes = scenario.regimes
    log_c_eff = np.log(regimes.capability_effective)
    log_c_steps = log_c_eff.tolist()
    social_weight, expect_since = regimes.social_weight, regimes.expect_since
    novelty_shift, personalized_at = regimes.novelty_shift, regimes.personalized_at
    # weight 0 where the benchmark is off: a block spreads by it and a step skips
    # it, as s + 0 * x is s (satisfaction is never -0.0; see SatisfactionParams)
    spread = np.array(social_weight)[:, None] if any(social_weight) else None
    pop = build_population(scenario.segments, n, scenario.seed, float(np.log(regimes.capability[0])))
    lifecycle = rng.StreamBank(scenario.seed, n, rng.PURPOSE_LIFECYCLE)

    seg_idx = pop.segment_index
    n_seg = len(scenario.segments)
    # segments are contiguous id ranges: segment i is ids seg_edges[i] .. seg_edges[i + 1] - 1
    seg_edges = np.searchsorted(seg_idx, np.arange(n_seg + 1))
    state = pop.state
    log_r = pop.log_r
    perception = None  # per-agent log-capability bonus once personalization fires
    rate = pop.gamma

    personal: Personalization | None = regimes.by_kind.get(Personalization.kind)
    expect: ExpectationManagement | None = regimes.by_kind.get(ExpectationManagement.kind)
    ln_a = float(np.log(expect.announce_discount_a)) if expect else 0.0

    # filled in place: the statistics a block at a time by record, the populations after the loop
    out = RunOutput(
        scenario=scenario,
        capability=regimes.capability,
        capability_effective=regimes.capability_effective,
        frac_potential=np.empty(horizon),
        frac_active=np.empty(horizon),
        frac_churned=np.empty(horizon),
        mean_log_reference=np.full(horizon, np.nan) if report else None,
        mean_satisfaction=np.full(horizon, np.nan),
        s_q25=np.full(horizon, np.nan) if report else None,
        s_q75=np.full(horizon, np.nan) if report else None,
        segment_mean_satisfaction=np.full((n_seg, horizon), np.nan) if report else None,
        participants=np.zeros(horizon, dtype=np.int64),
        interventions_applied=regimes.applied,
        traces=AgentTraces(
            satisfaction=np.full((horizon, n), np.nan),
            log_reference=np.empty((horizon, n)),
            state=np.empty((horizon, n), dtype=np.int8),
        )
        if scenario.trace_agents and report
        else None,
    )

    def record(t1: int) -> None:
        """The statistics of the block's steps t0 .. t1 - 1, a row per step,
        then its participants' references written back to ``log_r``.  While
        every agent participates, rows[0] is a view of log_r: it is read
        before the write-back."""
        if not rows:  # nobody participates
            return
        log_c = log_c_eff[t0:t1, None] if bonus is None else log_c_eff[t0:t1, None] + bonus
        if len(rows) == 2:  # a block of one step, as every adoption step is: two views
            r_old, r_new = rows[0][None], rows[1][None]
        else:  # stacked once; row slices of a C-contiguous array stay C-contiguous
            stacked = np.concatenate(rows).reshape(len(rows), n_part)
            r_old, r_new = stacked[:-1], stacked[1:]
        s = log_satisfaction(log_c, r_old, sat)
        if spread is not None:
            s = s + spread[t0:t1] * (s - (np.add.reduce(s, axis=1) / n_part)[:, None])
        # C-contiguous rows reduce pairwise as a 1-D array does; the segment
        # sums are cumsums, which add a segment in id order
        out.mean_satisfaction[t0:t1] = np.add.reduce(s, axis=1) / n_part
        out.participants[t0:t1] = n_part
        if report:
            out.s_q25[t0:t1], out.s_q75[t0:t1] = _quartiles(s)
            out.mean_log_reference[t0:t1] = np.add.reduce(r_new, axis=1) / n_part
            for i, lo, hi in seg_slices:
                out.segment_mean_satisfaction[i, t0:t1] = np.add.accumulate(s[:, lo:hi], axis=1)[:, -1] / (hi - lo)
            if out.traces is not None:
                out.traces.satisfaction[t0:t1, part] = s
                out.traces.log_reference[t0:t1, part] = r_new
        log_r[part] = rows[-1]

    # A lane draws adoption uniforms while its agent is potential and churn
    # uniforms once it adopts, so only those lanes are drawn, and a draw
    # that no lane reads is skipped without moving any lane's later draws:
    # adoption once nobody is potential, churn when its hazard is 0 or
    # nobody participates.
    churn_live = churn.eta > 0.0 and churn.cap > 0.0
    hazards = np.empty(n_seg)
    pot_idx = np.arange(n)  # the potential agents; this only shrinks
    n_churned = 0
    potential, churned = [], []  # each step's end-of-step counts
    # The block from step t0 keeps its participants' references in rows:
    # the first step's, then each step's update.  It ends once someone has
    # adopted or churned (moved), after personalization fires, or when full.
    part_idx = part = pot_idx[:0]  # nobody participates before the first adoption
    n_part, seg_slices, moved = 0, [], False
    t0, rows, block_rows = 0, [], 0
    rate_part = bonus = None  # the block's participants' rates and perception bonuses
    for t in range(horizon):
        # adoption against last step's adopted-ever fraction
        if pot_idx.size:
            f_prev = 1.0 - pot_idx.size / n
            for i, seg in enumerate(scenario.segments):
                hazards[i] = bass_hazard(seg.bass, f_prev)
            adopt = lifecycle.uniform(pot_idx) < hazards[seg_idx[pot_idx]]
            if adopt.any():
                state[pot_idx[adopt]] = ACTIVE
                pot_idx = pot_idx[~adopt]
                moved = True

        if moved or len(rows) > block_rows or t - 1 == personalized_at:
            record(t)
            if moved:
                moved = False
                part_idx = np.flatnonzero(state == ACTIVE)
                n_part = part_idx.size
                # a view of the whole arrays while every agent participates
                part = slice(None) if n_part == n else part_idx
                if report:  # a segment's participants are one slice of a row, lo:hi
                    bounds = np.searchsorted(part_idx, seg_edges).tolist()
                    seg_slices = [(i, lo, hi) for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo]
            t0, rows = t, [log_r[part]] if n_part else []
            block_rows = _BLOCK_ELEMENTS // max(n_part, 1)  # 0 and 1 both mean one step
            rate_part = rate[part]
            bonus = None if perception is None else perception[part]

        log_c = log_c_steps[t]
        if n_part:
            perceived = log_c if bonus is None else log_c + bonus
            r_old = rows[-1]
            # survivors recalibrate and take the novelty shift with the
            # potential agents; churners keep their final reference
            target = perceived
            if expect_since[t] is not None:
                target = (1.0 - expect.weight_w) * perceived + expect.weight_w * (log_c + ln_a)
            r_new = update_reference(r_old, target, rate_part)
            if t in novelty_shift:
                r_new += novelty_shift[t]
            if churn_live:  # the draw reads satisfaction against the pre-update reference
                s = log_satisfaction(perceived, r_old, sat)
                weight = social_weight[t]
                if weight:
                    s = s + weight * (s - float(np.add.reduce(s) / n_part))
                drawn = lifecycle.uniform(part_idx) < churn_probability(s, churn)
                if drawn.any():
                    state[part_idx[drawn]] = CHURNED
                    n_churned += int(np.count_nonzero(drawn))
                    r_new[drawn] = r_old[drawn]
                    moved = True
            rows.append(r_new)
        if t in novelty_shift:
            log_r[pot_idx] += novelty_shift[t]
        if t == personalized_at:
            bank = rng.StreamBank(scenario.seed, n, rng.PURPOSE_PERSONALIZATION)
            perception = bank.uniform() * personal.max_log_mult
            rate = pop.gamma * (1.0 - personal.gamma_damp_omega)

        # count end-of-step populations; the block records the rest
        potential.append(pot_idx.size)
        churned.append(n_churned)
        if out.traces is not None:
            out.traces.log_reference[t] = log_r  # the block writes its participants'
            out.traces.state[t] = state
    record(horizon)
    # exact integer counts, so each quotient rounds as a per-step one would
    potential, churned = np.array(potential), np.array(churned)
    out.frac_potential[:] = potential / n
    out.frac_churned[:] = churned / n
    out.frac_active[:] = (n - potential - churned) / n
    return out


# Rows at least this long take their order statistics from partitions,
# shorter ones from one sort: the two cost about the same at 8000 random
# normal elements (30: 1.4 us sort against 6.4 us; 100k: 530 us against
# 263 us; numpy 2.4 on a 2-CPU Xeon VM).
_PARTITION_FROM = 8000


def _quartiles(x: np.ndarray) -> tuple:
    """``numpy.percentile(x, (25, 75), axis=-1)`` of a finite array whose
    rows are non-empty, bit for bit: numpy's linear interpolation between
    the order statistics either side of (n - 1) * q in each row.  A sort,
    or on long rows one partition at each lower order statistic plus the
    ``min`` above it, gives those four; numpy's own partition at several
    order statistics is not vectorized.  Satisfaction is never ``-0.0``
    (see ``SatisfactionParams``), so no zeros of two signs tie here and any
    selection returns the same bits."""
    top = x.shape[-1] - 1
    lo, hi = top * 0.25, top * 0.75
    i, j = int(lo), int(hi)
    if x.shape[-1] < _PARTITION_FROM:
        srt = np.sort(x, axis=-1)
        a, b, c, d = srt[..., i], srt[..., min(i + 1, top)], srt[..., j], srt[..., min(j + 1, top)]
    else:
        part = np.partition(x, i, axis=-1)
        part[..., i + 1 :].partition(j - i - 1, axis=-1)  # in place; i < j < top on a long row
        a, c = part[..., i], part[..., j]
        b = np.minimum.reduce(part[..., i + 1 : j + 1], axis=-1)
        d = np.minimum.reduce(part[..., j + 1 :], axis=-1)
    return _lerp(a, b, lo - i), _lerp(c, d, hi - j)


def _lerp(a, b, g):
    """numpy's linear interpolation from ``a`` toward ``b`` at fraction ``g``,
    elementwise on arrays."""
    d = b - a
    return b - d * (1.0 - g) if g >= 0.5 else a + d * g


def run_many(scenarios: list[Scenario], report: bool = True) -> list[RunOutput]:
    """Run several scenarios in order, one after another, each with ``report`` (see ``run``)."""
    return [run(s, report=report) for s in scenarios]


def map_ordered(fn, items, workers: int = 1, threads: bool = False) -> list:
    """``[fn(item) for item in items]`` on this thread and at most ``workers``
    - 1 helpers, processes or (with ``threads``) threads, with at most one
    worker per item and per CPU in this process's affinity mask.  Helpers
    take items from the front and this thread from the back; results keep
    input order.  An exception from any worker propagates once the helpers
    have ended.  Threads overlap only while ``fn`` runs without the GIL; for
    processes, ``fn`` must be a module-level function, or a partial of one, so
    that it pickles."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, len(items), cpus)
    if workers < 2:
        return [fn(item) for item in items]
    # imported here, and only the executor used: a process pool pulls in
    # multiprocessing, a large import that single-process runs never use
    import concurrent.futures

    executor = concurrent.futures.ThreadPoolExecutor if threads else concurrent.futures.ProcessPoolExecutor
    pool = executor(max_workers=workers - 1)
    try:
        futures = [pool.submit(fn, item) for item in items]
        back = len(items)
        results = [None] * back
        # a future that cancels was never started, so this thread takes its item
        while back and futures[back - 1].cancel():
            back -= 1
            results[back] = fn(items[back])
        results[:back] = [future.result() for future in futures[:back]]
        return results
    finally:
        pool.shutdown(cancel_futures=True)
