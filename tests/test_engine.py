"""Step-loop behavior: closed-form laws, intervention semantics, determinism."""

import concurrent.futures
import dataclasses
import math
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from adaptsim import engine, rng
from adaptsim import (
    BassParams,
    CapabilitySchedule,
    ChurnParams,
    ConfigurationError,
    EventSchedule,
    ExpectationManagement,
    NoveltyReset,
    Personalization,
    Release,
    SatisfactionParams,
    Scenario,
    Segment,
    SocialBenchmark,
    StrategicDip,
    run,
    run_many,
)
from adaptsim.config import load_scenario

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PRESET_SEGMENTS = load_scenario(CONFIGS / "segments.json").segments
ADOPT_NOW = BassParams(1.0, 0.0)
NEVER_ADOPT = BassParams(0.0, 0.0)


def solo_segment(gamma, headroom=0.5, jitter=0.0, bass=ADOPT_NOW, name="solo"):
    return Segment(
        name=name,
        fraction=1.0,
        gamma_range=(gamma, gamma),
        bass=bass,
        initial_headroom=headroom,
        headroom_jitter=jitter,
    )


def constant_table(level, horizon):
    return CapabilitySchedule(kind="table", values=tuple([float(level)] * horizon))


def scenario(**overrides):
    base = dict(
        horizon=50,
        population_size=1,
        segments=(solo_segment(0.0),),
        satisfaction=SatisfactionParams(k=1.0, b=0.0),
        seed=0,
    )
    base.update(overrides)
    base.setdefault("schedule", constant_table(1.0, base["horizon"]))
    return Scenario(**base)


def output_arrays(out):
    yield out.capability
    yield out.capability_effective
    yield out.frac_potential
    yield out.frac_active
    yield out.frac_churned
    yield out.mean_log_reference
    yield out.mean_satisfaction
    yield out.s_q25
    yield out.s_q75
    yield out.segment_mean_satisfaction
    yield out.participants


def assert_outputs_equal(a, b):
    for x, y in zip(output_arrays(a), output_arrays(b)):
        assert np.array_equal(x, y, equal_nan=True)
    assert a.interventions_applied == b.interventions_applied


class TestClosedFormLaws:
    def test_gamma_zero_affine_in_log_capability(self):
        sched = CapabilitySchedule(
            kind="hybrid",
            c0=2.0,
            resource_growth=0.15,
            alpha=0.1,
            releases=(Release(7, 0.4), Release(19, 0.9)),
        )
        sc = scenario(
            horizon=40,
            schedule=sched,
            segments=(solo_segment(0.0, headroom=0.7),),
            satisfaction=SatisfactionParams(k=1.3, b=-0.2),
        )
        out = run(sc)
        log_r0 = math.log(2.0) - 0.7
        for t in range(40):
            want = -0.2 + 1.3 * (math.log(out.capability[t]) - log_r0)
            assert out.mean_satisfaction[t] == pytest.approx(want, rel=1e-12)

    def test_ema_halving_is_exact(self):
        sc = scenario(
            horizon=30,
            segments=(solo_segment(0.5, headroom=1.0),),
            schedule=constant_table(math.e, 30),
        )
        out = run(sc)
        for t in range(30):
            assert out.mean_satisfaction[t] == 0.5**t

    def test_ema_decay_for_generic_gamma(self):
        for gamma in (0.1, 0.5, 0.9):
            sc = scenario(
                horizon=60,
                segments=(solo_segment(gamma, headroom=0.8),),
                schedule=constant_table(2.0, 60),
                satisfaction=SatisfactionParams(k=2.0, b=1.0),
            )
            out = run(sc)
            for t in range(60):
                want = 1.0 + 2.0 * 0.8 * (1.0 - gamma) ** t
                assert out.mean_satisfaction[t] == pytest.approx(want, abs=1e-9)

    def test_release_spike_and_geometric_decay(self):
        # Fully adapted agent, one doubling at t*=10: gains k*ln2 at the
        # jump, then the gap contracts by (1-gamma) each step.
        horizon, t_star, gamma = 40, 10, 0.3
        values = tuple(1.0 if t < t_star else 2.0 for t in range(horizon))
        sc = scenario(
            horizon=horizon,
            segments=(solo_segment(gamma, headroom=0.0),),
            schedule=CapabilitySchedule(kind="table", values=values),
            satisfaction=SatisfactionParams(k=1.5, b=0.25),
        )
        out = run(sc)
        assert np.allclose(out.mean_satisfaction[:t_star], 0.25)
        for m in range(horizon - t_star):
            want = 0.25 + 1.5 * math.log(2.0) * (1.0 - gamma) ** m
            assert out.mean_satisfaction[t_star + m] == pytest.approx(want, rel=1e-12)

    def test_gamma_one_erases_spike_next_step(self):
        values = tuple(1.0 if t < 5 else 3.0 for t in range(20))
        sc = scenario(
            horizon=20,
            segments=(solo_segment(1.0, headroom=0.0),),
            schedule=CapabilitySchedule(kind="table", values=values),
        )
        out = run(sc)
        assert out.mean_satisfaction[5] == pytest.approx(math.log(3.0), rel=1e-12)
        assert np.allclose(out.mean_satisfaction[6:], 0.0)

    def test_expectation_management_fixed_point(self):
        sc = scenario(
            horizon=201,
            segments=(solo_segment(0.5,),),
            schedule=constant_table(4.0, 201),
            interventions=(
                ExpectationManagement(
                    weight_w=0.5, announce_discount_a=0.8, schedule=EventSchedule(at=0)
                ),
            ),
        )
        out = run(sc)
        # Independent oracle: iterate the reference recursion directly.
        log_c = math.log(4.0)
        log_r = log_c - 0.5
        expected = []
        for t in range(201):
            expected.append(log_c - log_r)
            target = log_c if t == 0 else 0.5 * log_c + 0.5 * (log_c + math.log(0.8))
            log_r += 0.5 * (target - log_r)
        assert np.allclose(out.mean_satisfaction, expected, atol=1e-12)
        assert out.mean_satisfaction[200] == pytest.approx(0.5 * math.log(1 / 0.8), abs=1e-6)


class TestConservationAndLifecycle:
    def test_fractions_partition_population(self):
        sc = scenario(
            horizon=120,
            population_size=500,
            segments=PRESET_SEGMENTS,
            schedule=CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=0.3, alpha=0.08),
            churn=ChurnParams(s_churn=0.2, eta=0.5, cap=0.3),
            seed=4,
        )
        out = run(sc)
        total = out.frac_potential + out.frac_active + out.frac_churned
        assert np.allclose(total, 1.0, atol=1e-12)
        adopted_ever = out.frac_active + out.frac_churned
        assert np.all(np.diff(adopted_ever) >= -1e-15)
        assert np.all(np.diff(out.frac_churned) >= -1e-15)
        assert np.all(np.diff(out.frac_potential) <= 1e-15)

    def test_churners_keep_their_final_step_in_aggregates(self):
        # Threshold far above reachable satisfaction and an uncapped
        # hazard: every adopter churns in its first active step.
        sc = scenario(
            horizon=5,
            population_size=20,
            segments=(solo_segment(0.2, headroom=0.5),),
            churn=ChurnParams(s_churn=10.0, eta=1.0, cap=1.0),
        )
        out = run(sc)
        assert out.participants[0] == 20
        assert out.frac_active[0] == 0.0
        assert out.frac_churned[0] == 1.0
        assert out.mean_satisfaction[0] == pytest.approx(0.5, rel=1e-12)
        assert np.all(out.participants[1:] == 0)
        assert np.all(np.isnan(out.mean_satisfaction[1:]))

    def test_nobody_adopts_without_hazard(self):
        sc = scenario(
            horizon=10,
            population_size=7,
            segments=(solo_segment(0.1, bass=NEVER_ADOPT),),
        )
        out = run(sc)
        assert np.all(out.frac_potential == 1.0)
        assert np.all(out.participants == 0)
        assert np.all(np.isnan(out.mean_satisfaction))

    def test_adoption_draws_shared_across_gamma_variants(self):
        # Lifecycle streams are keyed per agent, so changing adaptation
        # rates must not perturb who adopts when.
        def variant(lo, hi):
            return scenario(
                horizon=80,
                population_size=300,
                segments=(
                    Segment(
                        name="solo",
                        fraction=1.0,
                        gamma_range=(lo, hi),
                        bass=BassParams(0.03, 0.4),
                        initial_headroom=0.5,
                        headroom_jitter=0.05,
                    ),
                ),
                schedule=constant_table(2.0, 80),
                seed=6,
            )

        slow = run(variant(0.05, 0.05))
        fast = run(variant(0.40, 0.40))
        assert np.array_equal(slow.frac_active, fast.frac_active)
        assert np.array_equal(slow.frac_potential, fast.frac_potential)


class TestInterventions:
    def test_novelty_reset_boost_ratios(self):
        sc = scenario(
            horizon=150,
            segments=(solo_segment(0.7,),),
            interventions=(
                NoveltyReset(rho=0.3, decay_delta=0.6, schedule=EventSchedule(start=25, period=25)),
            ),
            seed=3,
        )
        out = run(sc)
        boosts = [
            out.mean_satisfaction[t + 1] - out.mean_satisfaction[t]
            for t in range(25, 149, 25)
        ]
        assert all(b > 0 for b in boosts)
        # j-th boost is exactly delta**j of the first; fatigue is monotone.
        for j, b in enumerate(boosts):
            assert b == pytest.approx(boosts[0] * 0.6**j, abs=1e-9)
        assert all(x >= y - 1e-12 for x, y in zip(boosts, boosts[1:]))

    def test_novelty_reset_shifts_potential_agents_too(self):
        sc = scenario(
            horizon=30,
            population_size=2,
            segments=(solo_segment(0.5, bass=NEVER_ADOPT),),
            interventions=(NoveltyReset(rho=0.4, decay_delta=1.0, schedule=EventSchedule(at=10)),),
            trace_agents=True,
        )
        out = run(sc)
        refs = out.traces.log_reference
        shift = math.log1p(-0.4)
        assert np.allclose(refs[10] - refs[9], shift, atol=1e-12)
        assert np.allclose(refs[9], refs[0], atol=1e-12)

    def test_social_benchmark_is_mean_preserving_spread(self):
        base = scenario(
            horizon=60,
            population_size=200,
            segments=(
                Segment(
                    name="solo",
                    fraction=1.0,
                    gamma_range=(0.1, 0.3),
                    bass=ADOPT_NOW,
                    initial_headroom=0.5,
                    headroom_jitter=0.2,
                ),
            ),
            schedule=constant_table(2.0, 60),
            trace_agents=True,
            seed=8,
        )
        social = dataclasses.replace(
            base,
            interventions=(SocialBenchmark(beta0=0.5, tau=15.0, schedule=EventSchedule(at=9)),),
        )
        off = run(base)
        on = run(social)
        # Adjustments sum to zero, so the participant mean is untouched...
        assert np.allclose(on.mean_satisfaction, off.mean_satisfaction, atol=1e-12)
        delta = on.traces.satisfaction - off.traces.satisfaction
        assert np.nansum(np.abs(delta[:10])) == 0.0
        sums = np.nansum(delta[10:], axis=1)
        assert np.all(np.abs(sums) <= 1e-9 * 200)
        # ...while the spread genuinely widens where the weight is fresh.
        assert np.nanmax(np.abs(delta[10:30])) > 1e-3
        assert np.all(on.s_q25[10:30] <= off.s_q25[10:30] + 1e-12)
        assert np.all(on.s_q75[10:30] >= off.s_q75[10:30] - 1e-12)

    def test_social_benchmark_first_weight_is_beta0(self):
        # Two agents with known satisfactions: the first affected step
        # must use the undecayed weight.
        base = scenario(
            horizon=12,
            population_size=2,
            segments=(
                Segment(
                    name="solo",
                    fraction=1.0,
                    gamma_range=(0.0, 0.0),
                    bass=ADOPT_NOW,
                    initial_headroom=0.6,
                    headroom_jitter=0.3,
                ),
            ),
            trace_agents=True,
            seed=5,
        )
        social = dataclasses.replace(
            base,
            interventions=(SocialBenchmark(beta0=0.25, tau=4.0, schedule=EventSchedule(at=4)),),
        )
        off = run(base)
        on = run(social)
        raw = off.traces.satisfaction
        for m, t in enumerate(range(5, 12)):
            weight = 0.25 * math.exp(-m / 4.0)
            want = raw[t] + weight * (raw[t] - raw[t].mean())
            assert np.allclose(on.traces.satisfaction[t], want, atol=1e-12)

    def test_strategic_dip_window_and_loss_asymmetry(self):
        lam, depth = 2.25, 0.3
        sc = scenario(
            horizon=20,
            segments=(solo_segment(0.0, headroom=0.0),),
            satisfaction=SatisfactionParams(k=2.0, b=1.0, loss_aversion=lam),
            interventions=(StrategicDip(depth=depth, duration=3, schedule=EventSchedule(at=5)),),
        )
        out = run(sc)
        # Firing at 5 dips steps 6..8; satisfaction drops by lambda*k*|ln(1-d)|.
        dip_value = 1.0 + lam * 2.0 * math.log(1.0 - depth)
        assert np.allclose(out.mean_satisfaction[:6], 1.0)
        assert np.allclose(out.mean_satisfaction[6:9], dip_value)
        assert np.allclose(out.mean_satisfaction[9:], 1.0)  # exact recovery
        assert np.allclose(out.capability_effective[6:9], 1.0 - depth)
        assert np.allclose(out.capability_effective[:6], 1.0)
        assert np.allclose(out.capability_effective[9:], 1.0)
        # Magnitude check against the symmetric gain of the same log size.
        gain_values = tuple(
            1.0 if t < 6 or t > 8 else 1.0 / (1.0 - depth) for t in range(20)
        )
        gain = run(
            dataclasses.replace(
                sc,
                interventions=(),
                schedule=CapabilitySchedule(kind="table", values=gain_values),
            )
        )
        drop = 1.0 - out.mean_satisfaction[7]
        rise = gain.mean_satisfaction[7] - 1.0
        assert drop == pytest.approx(lam * rise, rel=1e-12)

    def test_personalization_later_firings_are_noops(self):
        kwargs = dict(
            horizon=60,
            population_size=50,
            segments=(
                Segment(
                    name="solo",
                    fraction=1.0,
                    gamma_range=(0.1, 0.2),
                    bass=ADOPT_NOW,
                    initial_headroom=0.5,
                    headroom_jitter=0.05,
                ),
            ),
            schedule=constant_table(2.0, 60),
            seed=12,
        )
        once = run(
            scenario(
                **kwargs,
                interventions=(
                    Personalization(
                        max_log_mult=0.5, gamma_damp_omega=0.4, schedule=EventSchedule(at=5)
                    ),
                ),
            )
        )
        repeat = run(
            scenario(
                **kwargs,
                interventions=(
                    Personalization(
                        max_log_mult=0.5, gamma_damp_omega=0.4, schedule=EventSchedule(start=5, period=10)
                    ),
                ),
            )
        )
        assert np.array_equal(once.mean_satisfaction, repeat.mean_satisfaction)
        assert np.array_equal(once.mean_log_reference, repeat.mean_log_reference)
        # The uplift lands the step after the firing and is positive.
        plain = run(scenario(**kwargs))
        assert once.mean_satisfaction[6] > plain.mean_satisfaction[6]
        assert np.array_equal(once.mean_satisfaction[:6], plain.mean_satisfaction[:6])

    def test_interventions_applied_records_firings(self):
        sc = scenario(
            horizon=30,
            interventions=(
                NoveltyReset(rho=0.2, decay_delta=0.5, schedule=EventSchedule(start=10, period=10)),
                StrategicDip(depth=0.1, duration=2, schedule=EventSchedule(at=10)),
            ),
        )
        out = run(sc)
        fired = {t: kinds for t, kinds in enumerate(out.interventions_applied) if kinds}
        assert fired == {
            10: ("novelty_reset", "strategic_dip"),
            20: ("novelty_reset",),
        }

    def test_strategic_dip_refiring_restarts_window(self):
        # firings every 3 steps with 5-step windows overlap; the effective
        # series must equal the rule "dipped while the latest firing f < t
        # has t <= f + duration", stepped one step at a time
        depth, duration = 0.25, 5
        dip = StrategicDip(depth=depth, duration=duration, schedule=EventSchedule(start=2, period=3))
        sc = scenario(
            horizon=30,
            schedule=CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=0.2, alpha=0.5),
            interventions=(dip,),
        )
        out = run(sc)
        latest = None
        want = []
        for t, c in enumerate(out.capability):
            dipped = latest is not None and t <= latest + duration
            want.append(c * (1.0 - depth) if dipped else c)
            if dip.schedule.fires_at(t):
                latest = t
        assert np.array_equal(out.capability_effective, want)
        assert not np.array_equal(out.capability_effective, out.capability)

    def test_capability_series_computed_once_per_run(self, monkeypatch):
        # the build resolves C(t) and run reads the scenario's regimes
        calls = []
        real = engine.capability_series
        monkeypatch.setattr(
            engine, "capability_series", lambda *args: calls.append(args) or real(*args)
        )
        sc = scenario(
            interventions=(StrategicDip(depth=0.1, duration=2, schedule=EventSchedule(at=10)),)
        )
        assert len(calls) == 1
        calls.clear()
        run(sc)
        assert len(calls) == 0

    def test_a_rebuild_that_keeps_the_schedule_and_interventions_shares_their_series(self, monkeypatch):
        calls = []
        real = engine.capability_series
        monkeypatch.setattr(
            engine, "capability_series", lambda *args: calls.append(args) or real(*args)
        )
        sc = scenario(
            interventions=(StrategicDip(depth=0.1, duration=2, schedule=EventSchedule(at=10)),)
        )
        again = dataclasses.replace(sc, seed=9, population_size=3)
        assert again.regimes is sc.regimes and len(calls) == 1
        assert not sc.regimes.capability.flags.writeable
        assert not sc.regimes.capability_effective.flags.writeable
        # the series are shared, the bounds are not
        with pytest.raises(ConfigurationError, match="satisfaction could leave the float range"):
            dataclasses.replace(sc, satisfaction=SatisfactionParams(k=1e308, b=0.0))
        longer = dataclasses.replace(sc, horizon=51, schedule=constant_table(1.0, 51))
        assert longer.regimes is not sc.regimes and len(calls) == 2

    def test_the_regimes_keep_each_intervention_by_its_kind(self):
        sc = load_scenario(CONFIGS / "interventions.json")
        assert sc.regimes.by_kind == {iv.kind: iv for iv in sc.interventions}
        assert all(sc.regimes.by_kind[iv.kind] is iv for iv in sc.interventions)


class TestLifecycleDraws:
    @pytest.mark.parametrize("name, churn_on", [("baseline.json", False), ("interventions.json", True)])
    def test_only_draws_that_can_matter_are_made(self, name, churn_on, monkeypatch):
        # adoption draws one lane per agent potential at the step's start;
        # churn draws one lane per participant, only while churn is on
        sc = load_scenario(CONFIGS / name)
        assert (sc.churn.eta > 0.0 and sc.churn.cap > 0.0) == churn_on
        drawn = []

        class CountingBank(rng.StreamBank):
            def __init__(self, master_seed, n, purpose):
                super().__init__(master_seed, n, purpose)
                self.lifecycle = purpose == rng.PURPOSE_LIFECYCLE

            def next_u64(self, lanes=None):
                values = super().next_u64(lanes)
                if self.lifecycle:
                    drawn.append(values.size)
                return values

        monkeypatch.setattr(rng, "StreamBank", CountingBank)
        out = run(sc)
        n = sc.population_size
        potential_at_end = np.rint(out.frac_potential * n).astype(np.int64)
        potential_at_start = n + int(potential_at_end[:-1].sum())
        assert potential_at_end[-2] == 0  # adoption runs out within the horizon
        participants = int(out.participants.sum()) if churn_on else 0
        assert sum(drawn) == potential_at_start + participants


def count_participant_searches(monkeypatch) -> list:
    """One entry per np.flatnonzero call: in run, only finding the participants calls it."""
    found = []
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: found.append(None) or flatnonzero(a))
    return found


class TestParticipantRebuilds:
    @pytest.mark.parametrize("name", ["baseline.json", "interventions.json"])
    def test_participants_are_found_after_adoption_and_churn_steps_only(self, name, monkeypatch):
        # in each step in which someone adopts, and in each step after one in which someone churned
        sc = load_scenario(CONFIGS / name)
        found = count_participant_searches(monkeypatch)
        out = run(sc)
        adopted = np.diff(out.frac_potential, prepend=1.0) < 0.0
        churned = np.diff(out.frac_churned, prepend=0.0) > 0.0
        assert churned.any() == (name == "interventions.json")
        after_churn = np.concatenate(([False], churned[:-1]))
        assert len(found) == np.count_nonzero(adopted | after_churn) < sc.horizon

    def test_a_population_that_adopts_at_once_and_never_churns_is_found_once(self, monkeypatch):
        sc = scenario(horizon=60, population_size=30, segments=(solo_segment(0.2),))
        found = count_participant_searches(monkeypatch)
        out = run(sc)
        assert out.participants.tolist() == [30] * 60
        assert len(found) == 1


def fail_in_a_helper(parent_pid: int) -> None:
    """Raises in any process but ``parent_pid``, which only waits a little."""
    if os.getpid() != parent_pid:
        raise ValueError("raised in a helper")
    time.sleep(0.05)


class TestRunMany:
    def test_identical_scenarios_identical_outputs(self):
        sc = scenario(horizon=25, population_size=30, segments=(solo_segment(0.2, bass=BassParams(0.2, 0.3)),), seed=9)
        a, b = run_many([sc, sc])
        assert_outputs_equal(a, b)

    def test_shuffle_invariance(self):
        scs = [
            scenario(horizon=20, population_size=10, seed=s, segments=(solo_segment(0.3, bass=BassParams(0.5, 0.2)),))
            for s in (1, 2, 3)
        ]
        fwd = run_many(scs)
        rev = run_many(scs[::-1])
        for i in range(3):
            assert_outputs_equal(fwd[i], rev[2 - i])

    def test_concurrent_matches_sequential(self):
        scs = [
            scenario(
                horizon=40,
                population_size=60,
                seed=s,
                segments=(solo_segment(0.25, bass=BassParams(0.1, 0.4)),),
                churn=ChurnParams(s_churn=0.1, eta=0.3, cap=0.2),
            )
            for s in range(8)
        ]
        seq = run_many(scs)
        par = engine.map_ordered(run, scs, 4)
        for a, b in zip(seq, par):
            assert_outputs_equal(a, b)

    @pytest.mark.parametrize(
        "workers, items, cpus, helpers",
        [(100_000, 3, 4, 2), (100_000, 10, 4, 3), (3, 10, 4, 2), (8, 1, 4, None), (8, 10, 1, None),
         (2, 100, 4, 1)],
    )
    def test_the_pool_has_one_process_per_item_and_per_cpu_at_most(
        self, workers, items, cpus, helpers, monkeypatch
    ):
        sizes = []

        class RecordingPool:  # records its size and runs each item in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def submit(self, fn, item):
                future = concurrent.futures.Future()
                future.set_result(fn(item))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert engine.map_ordered(abs, list(range(-items, 0)), workers) == list(range(items, 0, -1))
        # this process is one of min(workers, items, cpus); a pool holds the rest
        assert sizes == ([] if helpers is None else [helpers])

    def test_an_error_in_a_helper_process_propagates_and_ends_the_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(ValueError, match="in a helper"):
            engine.map_ordered(fail_in_a_helper, [os.getpid()] * 8, 2)
        assert multiprocessing.active_children() == []

    def test_invalid_scenario_cannot_be_built(self):
        good = scenario(horizon=10)
        with pytest.raises(ConfigurationError, match="horizon"):
            dataclasses.replace(good, horizon=0)


class TestDeterminismAndValidation:
    def test_repeat_run_bit_identical(self):
        sc = scenario(
            horizon=80,
            population_size=250,
            segments=PRESET_SEGMENTS,
            schedule=CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=0.2, alpha=0.08),
            churn=ChurnParams(s_churn=0.1, eta=0.2, cap=0.25),
            interventions=(NoveltyReset(rho=0.25, decay_delta=0.8, schedule=EventSchedule(start=20, period=20)),),
            seed=77,
        )
        assert_outputs_equal(run(sc), run(sc))

    def test_traced_run_matches_untraced_aggregates(self):
        sc = scenario(horizon=30, population_size=40, segments=(solo_segment(0.2, jitter=0.1, bass=BassParams(0.3, 0.3)),), seed=2)
        plain = run(sc)
        traced = run(dataclasses.replace(sc, trace_agents=True))
        assert_outputs_equal(plain, traced)
        tr = traced.traces
        assert tr.satisfaction.shape == (30, 40)
        # NaN exactly where the agent was not a participant.
        for t in range(30):
            active = tr.state[t] == 1
            churned_now = (tr.state[t] == 2) & ((tr.state[t - 1] != 2) if t else True)
            part = active | churned_now
            assert np.array_equal(np.isfinite(tr.satisfaction[t]), part)
        assert np.all(np.isfinite(tr.log_reference))

    def test_validation_errors(self):
        good = scenario()
        cases = [
            dict(horizon=0),
            dict(population_size=0),
            dict(seed=-1),
            dict(seed=2**64),
            dict(segments=()),
            dict(segments=(solo_segment(0.1, name="x"), solo_segment(0.1, name="x"))),
            dict(
                interventions=(
                    NoveltyReset(rho=0.1, decay_delta=0.5, schedule=EventSchedule(at=1)),
                    NoveltyReset(rho=0.2, decay_delta=0.5, schedule=EventSchedule(at=2)),
                )
            ),
            dict(interventions=(StrategicDip(depth=0.1, duration=2, schedule=EventSchedule(at=400)),)),
            dict(schedule=CapabilitySchedule(kind="table", values=(1.0, 2.0))),
        ]
        for fields in cases:
            with pytest.raises(ConfigurationError):
                run(dataclasses.replace(good, **fields))

    def test_event_schedule_semantics(self):
        assert [t for t in range(40) if EventSchedule(at=5).fires_at(t)] == [5]
        assert [t for t in range(40) if EventSchedule(start=10, period=12).fires_at(t)] == [10, 22, 34]
        with pytest.raises(ConfigurationError):
            EventSchedule()
        with pytest.raises(ConfigurationError):
            EventSchedule(at=3, start=1, period=2)
        with pytest.raises(ConfigurationError):
            EventSchedule(start=1)
        with pytest.raises(ConfigurationError):
            EventSchedule(start=1, period=0)
        with pytest.raises(ConfigurationError):
            EventSchedule(at=-1)

    def test_intervention_parameter_ranges(self):
        sched = EventSchedule(at=0)
        bad = [
            lambda: NoveltyReset(rho=0.0, decay_delta=0.5, schedule=sched),
            lambda: NoveltyReset(rho=1.0, decay_delta=0.5, schedule=sched),
            lambda: NoveltyReset(rho=0.5, decay_delta=0.0, schedule=sched),
            lambda: Personalization(max_log_mult=-0.1, gamma_damp_omega=0.0, schedule=sched),
            lambda: Personalization(max_log_mult=0.1, gamma_damp_omega=1.0, schedule=sched),
            lambda: ExpectationManagement(weight_w=1.1, announce_discount_a=0.5, schedule=sched),
            lambda: ExpectationManagement(weight_w=0.5, announce_discount_a=0.0, schedule=sched),
            lambda: SocialBenchmark(beta0=0.1, tau=0.0, schedule=sched),
            lambda: StrategicDip(depth=0.0, duration=1, schedule=sched),
            lambda: StrategicDip(depth=1.0, duration=1, schedule=sched),
            lambda: StrategicDip(depth=0.5, duration=0, schedule=sched),
        ]
        for ctor in bad:
            with pytest.raises(ConfigurationError):
                ctor()
