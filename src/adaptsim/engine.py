"""The deterministic per-step simulation loop.

A run first computes the effective capability (dips applied) of every
step and its log.  Each step then runs, in order: adoption, perception,
raw satisfaction against the pre-update reference, social adjustment,
churn, reference updates for survivors, intervention firings, and
aggregate recording.  Agents churned within a step still count in that
step's aggregates (their exit dip is part of the record); they never
update their reference again.  The engine owns all run-time state: it
advances the step-0 population's ``state`` in place and keeps
references, rates, perception bonuses and intervention regimes itself.

A single run is strictly sequential: adoption depends on the previous
step's adopted-ever fraction and the social term on the step mean.
Runs are pure functions of their scenario, so multiple runs may execute
concurrently with byte-identical results.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigurationError, check_int, check_seed, rewrap
from .interventions import (
    EventSchedule,
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
from .population import AgentState, Segment, build_population, check_fractions
from .schedule import CapabilitySchedule, capability_series

NO_CHURN = ChurnParams(s_churn=0.0, eta=0.0, cap=0.0)


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs.  Building one checks the rules between its
    fields, so a Scenario that exists is valid and nothing checks it again."""

    horizon: int
    population_size: int
    segments: tuple[Segment, ...]
    schedule: CapabilitySchedule
    satisfaction: SatisfactionParams
    churn: ChurnParams = NO_CHURN
    interventions: tuple[Intervention, ...] = ()
    seed: int = 0
    trace_agents: bool = False

    def __post_init__(self):
        # nested records check their own fields when they are built
        check_int(self.horizon, 1, "horizon must be an integer >= 1")
        check_int(self.population_size, 1, "population.size must be an integer >= 1")
        if not self.segments:
            raise ConfigurationError("population.segments must be non-empty")
        with rewrap("population.segments[*].fraction"):
            check_fractions(self.segments)
        names = [s.name for s in self.segments]
        if len(set(names)) != len(names):
            raise ConfigurationError("segment names must be unique")
        check_seed(self.seed, "seed")
        caps = capability_series(self.schedule, self.horizon)
        kinds = [iv.kind for iv in self.interventions]
        if len(set(kinds)) != len(kinds):
            raise ConfigurationError("at most one intervention of each kind per scenario")
        for iv in self.interventions:
            iv.schedule.validate_horizon(self.horizon)
        effective_capability(caps, self.interventions)


def effective_capability(caps: np.ndarray, interventions: tuple[Intervention, ...]) -> np.ndarray:
    """C(t) as agents see it: a strategic dip firing at step f scales steps
    f+1 .. f+duration by (1 - depth).  Rejects a step where it is 0, whose
    log capability would be -inf."""
    cap_eff = caps.copy()
    for dip in interventions:
        if dip.kind == StrategicDip.kind:
            for f in range(caps.size):
                if dip.schedule.fires_at(f):
                    window = slice(f + 1, f + 1 + dip.duration)
                    cap_eff[window] = caps[window] * (1.0 - dip.depth)
    zero = np.flatnonzero(cap_eff == 0.0)
    if zero.size:
        raise ConfigurationError(f"effective C(t) is 0 at step {zero[0]} of horizon {caps.size}")
    return cap_eff


@dataclass(frozen=True)
class AgentTraces:
    """Per-step, per-agent detail; NaN satisfaction outside participation."""

    satisfaction: np.ndarray
    log_reference: np.ndarray
    state: np.ndarray


@dataclass(frozen=True)
class RunOutput:
    scenario: Scenario
    capability: np.ndarray
    capability_effective: np.ndarray
    frac_potential: np.ndarray
    frac_active: np.ndarray
    frac_churned: np.ndarray
    mean_log_reference: np.ndarray
    mean_satisfaction: np.ndarray
    s_q25: np.ndarray
    s_q75: np.ndarray
    segment_mean_satisfaction: np.ndarray
    participants: np.ndarray
    interventions_applied: tuple[tuple[str, ...], ...]
    traces: AgentTraces | None = None

    @property
    def horizon(self) -> int:
        return int(self.capability.shape[0])

    @property
    def segment_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.scenario.segments)


def run(scenario: Scenario) -> RunOutput:
    """Simulate one scenario; bit-identical output for identical input."""
    horizon = scenario.horizon
    n = scenario.population_size
    sat = scenario.satisfaction
    churn = scenario.churn

    caps = capability_series(scenario.schedule, horizon)
    cap_eff = effective_capability(caps, scenario.interventions)
    log_c_eff = np.log(cap_eff).tolist()
    pop = build_population(scenario.segments, n, scenario.seed, float(np.log(caps[0])))
    lifecycle = rng.StreamBank(scenario.seed, n, rng.PURPOSE_LIFECYCLE)

    seg_idx = pop.segment_index
    n_seg = len(scenario.segments)
    state = pop.state
    log_r = pop.log_r
    perception = 0.0  # per-agent log-capability bonus, set by personalization
    rate = pop.gamma

    # interventions are singletons per kind; engine owns their runtime state
    by_kind = {iv.kind: iv for iv in scenario.interventions}
    novelty: NoveltyReset | None = by_kind.get(NoveltyReset.kind)
    personal: Personalization | None = by_kind.get(Personalization.kind)
    expect: ExpectationManagement | None = by_kind.get(ExpectationManagement.kind)
    social: SocialBenchmark | None = by_kind.get(SocialBenchmark.kind)
    dip: StrategicDip | None = by_kind.get(StrategicDip.kind)
    novelty_count = 0
    personal_done = False
    em_active = False
    sb_active = False
    sb_since = 0
    ln_a = float(np.log(expect.announce_discount_a)) if expect else 0.0

    frac_potential = np.empty(horizon)
    frac_active = np.empty(horizon)
    frac_churned = np.empty(horizon)
    mean_log_ref = np.full(horizon, np.nan)
    mean_s = np.full(horizon, np.nan)
    s_q25 = np.full(horizon, np.nan)
    s_q75 = np.full(horizon, np.nan)
    seg_mean_s = np.full((n_seg, horizon), np.nan)
    participants = np.zeros(horizon, dtype=np.int64)
    applied: list[tuple[str, ...]] = []

    traces = None
    if scenario.trace_agents:
        traces = AgentTraces(
            satisfaction=np.full((horizon, n), np.nan),
            log_reference=np.empty((horizon, n)),
            state=np.empty((horizon, n), dtype=np.int8),
        )

    hazards = np.empty(n_seg)
    n_pot = n
    for t in range(horizon):
        # adoption against last step's adopted-ever fraction
        pot_mask = state == AgentState.POTENTIAL
        f_prev = 1.0 - n_pot / n
        for i, seg in enumerate(scenario.segments):
            hazards[i] = bass_hazard(seg.bass, f_prev)
        u_adopt = lifecycle.uniform(mask=pot_mask)
        adopting = pot_mask & (u_adopt < hazards[seg_idx])
        state[adopting] = AgentState.ACTIVE

        part_mask = state == AgentState.ACTIVE
        part_idx = np.flatnonzero(part_mask)

        log_c = log_c_eff[t] + perception
        s_all = log_satisfaction(log_c, log_r, sat)
        if sb_active and part_idx.size:
            raw_mean = float(s_all[part_idx].mean())
            weight = social.beta0 * float(np.exp(-(t - sb_since) / social.tau))
            s_all = np.where(part_mask, s_all + weight * (s_all - raw_mean), s_all)

        u_churn = lifecycle.uniform(mask=part_mask)
        churning = part_mask & (u_churn < churn_probability(s_all, churn))

        # survivors recalibrate; churners keep their final reference
        target = log_c
        if em_active:
            target = (1.0 - expect.weight_w) * log_c + expect.weight_w * (log_c_eff[t] + ln_a)
        survivors = part_mask & ~churning
        log_r = np.where(survivors, update_reference(log_r, target, rate), log_r)
        state[churning] = AgentState.CHURNED

        fired: list[str] = []
        if novelty and novelty.schedule.fires_at(t):
            # acceptance contract: the j-th firing's satisfaction boost is
            # exactly decay_delta**j times the first firing's boost
            shift = novelty.decay_delta**novelty_count * float(np.log1p(-novelty.rho))
            log_r = np.where(state != AgentState.CHURNED, log_r + shift, log_r)
            novelty_count += 1
            fired.append(novelty.kind)
        if personal and personal.schedule.fires_at(t):
            if not personal_done:
                bank = rng.StreamBank(scenario.seed, n, rng.PURPOSE_PERSONALIZATION)
                perception = bank.uniform() * personal.max_log_mult
                rate = pop.gamma * (1.0 - personal.gamma_damp_omega)
                personal_done = True
            fired.append(personal.kind)
        if expect and expect.schedule.fires_at(t):
            em_active = not em_active
            fired.append(expect.kind)
        if social and social.schedule.fires_at(t):
            sb_active = not sb_active
            if sb_active:
                sb_since = t + 1  # first affected step sees weight beta0
            fired.append(social.kind)
        if dip and dip.schedule.fires_at(t):
            fired.append(dip.kind)
        applied.append(tuple(fired))

        # record end-of-step populations and this step's participant aggregates
        n_pot = int(np.count_nonzero(state == AgentState.POTENTIAL))
        n_churned = int(np.count_nonzero(state == AgentState.CHURNED))
        frac_potential[t] = n_pot / n
        frac_churned[t] = n_churned / n
        frac_active[t] = (n - n_pot - n_churned) / n
        participants[t] = part_idx.size
        if part_idx.size:
            s_part = s_all[part_idx]
            mean_s[t] = s_part.mean()
            s_q25[t], s_q75[t] = np.percentile(s_part, (25.0, 75.0))
            mean_log_ref[t] = log_r[part_idx].mean()
            seg_of = seg_idx[part_idx]
            counts = np.bincount(seg_of, minlength=n_seg)
            sums = np.bincount(seg_of, weights=s_part, minlength=n_seg)
            present = counts > 0
            seg_mean_s[present, t] = sums[present] / counts[present]
        if traces is not None:
            traces.satisfaction[t, part_idx] = s_all[part_idx]
            traces.log_reference[t] = log_r
            traces.state[t] = state

    return RunOutput(
        scenario=scenario,
        capability=caps,
        capability_effective=cap_eff,
        frac_potential=frac_potential,
        frac_active=frac_active,
        frac_churned=frac_churned,
        mean_log_reference=mean_log_ref,
        mean_satisfaction=mean_s,
        s_q25=s_q25,
        s_q75=s_q75,
        segment_mean_satisfaction=seg_mean_s,
        participants=participants,
        interventions_applied=tuple(applied),
        traces=traces,
    )


def run_many(scenarios: list[Scenario], workers: int | None = None) -> list[RunOutput]:
    """Run several scenarios, optionally across worker processes.

    Results are ordered by input index no matter how execution
    interleaves, and concurrent execution is byte-identical to
    sequential because each run is pure.
    """
    return map_ordered(run, scenarios, workers)


def map_ordered(fn, items: list, workers: int | None = None) -> list:
    """``[fn(item) for item in items]``, across worker processes when
    ``workers`` > 1; results keep input order either way.  ``fn`` must be
    a module-level function so that it pickles."""
    if workers and workers > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def one_shot(at: int) -> EventSchedule:
    return EventSchedule(at=at)


def periodic(start: int, period: int) -> EventSchedule:
    return EventSchedule(start=start, period=period)
