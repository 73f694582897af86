"""End-to-end acceptance checks, one test per numbered criterion.

Each test states its own oracle: closed forms evaluated in plain
Python, hand-iterated recursions, or brute-force re-runs that bypass
the code path under test.  Seeds are pinned so stochastic checks are
reproducible; tolerances are part of the contract.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from adaptsim import (
    BassParams,
    CadenceSearch,
    CapabilitySchedule,
    ChurnParams,
    EventSchedule,
    ExpectationManagement,
    NoveltyReset,
    PhaseKind,
    PhaseLabel,
    Release,
    SatisfactionParams,
    Scenario,
    Segment,
    StrategicDip,
    SweepDimension,
    SweepSpec,
    classify_phases,
    optimize_cadence,
    run,
    run_sweep,
)
from adaptsim.cli import main
from adaptsim.config import load_scenario, scenario_to_document
from adaptsim.output import run_csv_text


def solo(gamma, headroom=0.5, bass=BassParams(1.0, 0.0), jitter=0.0):
    """Single segment covering the whole population."""
    return Segment(
        name="all",
        fraction=1.0,
        gamma_range=(gamma, gamma),
        bass=bass,
        initial_headroom=headroom,
        headroom_jitter=jitter,
    )


def table(values):
    return CapabilitySchedule(kind="table", values=tuple(values))


def make(horizon, schedule, segments, n=1, seed=0, k=1.0, b=0.0, **extra):
    return Scenario(
        horizon=horizon,
        population_size=n,
        segments=segments,
        schedule=schedule,
        satisfaction=SatisfactionParams(k=k, b=b),
        seed=seed,
        **extra,
    )


@pytest.mark.acceptance(1, "frozen-reference runs obey the log law exactly")
def test_01_log_law_with_frozen_references():
    # gamma=0 freezes every reference at its initial value, so the whole
    # population reduces to S(t) = b + k*(ln C(t) - ln R0) regardless of
    # how the schedule mixes smooth growth with discrete releases.
    sched = CapabilitySchedule(
        kind="hybrid",
        c0=2.0,
        resource_growth=0.4,
        alpha=0.1,
        releases=(Release(20, math.log(3.0)), Release(60, 0.7)),
    )
    sc = make(100, sched, (solo(0.0),), n=40, seed=9, k=1.3, b=0.25)
    start = time.perf_counter()
    out = run(sc)
    elapsed = time.perf_counter() - start
    log_r0 = math.log(2.0) - 0.5
    expected = 0.25 + 1.3 * (np.log(out.capability) - log_r0)
    rel = np.abs(out.mean_satisfaction - expected) / np.abs(expected)
    assert float(rel.max()) <= 1e-12
    assert elapsed < 1.0


@pytest.mark.acceptance(2, "each capability doubling adds exactly k*ln 2")
def test_02_doubling_schedule_adds_constant_increment():
    k = 0.7
    sc = make(40, table(2.0**t for t in range(40)), (solo(0.0),), n=8, seed=4, k=k, b=0.1)
    deltas = np.diff(run(sc).mean_satisfaction)
    assert np.all(np.abs(deltas - k * math.log(2.0)) <= 1e-12)


@pytest.mark.acceptance(3, "constant capability decays the gap geometrically")
def test_03_reference_adaptation_is_geometric():
    for gamma in (0.1, 0.5, 0.9):
        sc = make(80, table([3.0] * 80), (solo(gamma),), n=1, seed=2, k=1.2, b=0.3)
        out = run(sc)
        expected = 1.2 * 0.5 * (1.0 - gamma) ** np.arange(80)
        assert np.all(np.abs(np.abs(out.mean_satisfaction - 0.3) - expected) <= 1e-9)


@pytest.mark.acceptance(4, "losses weigh lambda times equal-size gains")
def test_04_dip_magnitude_is_lambda_times_gain():
    lam = 2.25  # default loss aversion
    depth = 0.3
    dip = StrategicDip(depth=depth, duration=3, schedule=EventSchedule(at=5))
    dipped = run(
        make(12, table([2.0] * 12), (solo(0.0, headroom=0.0),), seed=6, interventions=(dip,))
    )
    dip_val = lam * math.log(1.0 - depth)
    for t in (6, 7, 8):
        assert abs(dipped.mean_satisfaction[t] - dip_val) <= 1e-12
    # gamma=0 plus zero initial gap: outside the window nothing moved
    assert dipped.mean_satisfaction[5] == 0.0
    assert dipped.mean_satisfaction[9] == 0.0

    # the mirror run raises capability by the same log step instead
    values = [2.0] * 12
    for t in (6, 7, 8):
        values[t] = 2.0 / (1.0 - depth)
    gain = run(make(12, table(values), (solo(0.0, headroom=0.0),), seed=6)).mean_satisfaction[6]
    assert gain > 0.0
    assert abs(abs(dip_val) - lam * gain) <= 1e-12


@pytest.mark.acceptance(5, "punctuated releases spike above equal-endpoint smooth growth")
def test_05_punctuated_versus_continuous_delivery():
    horizon, alpha = 200, 0.08
    budget = 7 * math.log(2.0)
    rho = math.exp(budget / ((horizon - 1) * alpha)) - 1.0
    continuous = CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=rho, alpha=alpha)
    punctuated = CapabilitySchedule(
        kind="punctuated",
        c0=1.0,
        releases=tuple(Release(25 * i, math.log(2.0)) for i in range(1, 8)),
    )
    seg = Segment(
        name="all",
        fraction=1.0,
        gamma_range=(0.25, 0.35),
        bass=BassParams(0.05, 0.3),
        initial_headroom=0.5,
        headroom_jitter=0.05,
    )
    start = time.perf_counter()
    smooth = run(make(horizon, continuous, (seg,), n=2000, seed=33))
    spiky = run(make(horizon, punctuated, (seg,), n=2000, seed=33))
    elapsed = time.perf_counter() - start

    # both schedules deliver the same total capability
    assert abs(spiky.capability[-1] - smooth.capability[-1]) <= 1e-12 * smooth.capability[-1]
    assert np.all(np.isfinite(smooth.mean_satisfaction))
    assert np.all(np.isfinite(spiky.mean_satisfaction))
    assert float(np.max(spiky.mean_satisfaction)) > float(np.max(smooth.mean_satisfaction))

    # every release leaves a local maximum in the 5-step smoothed mean;
    # smoothed index j centers on step j + 2
    sm = np.convolve(spiky.mean_satisfaction, np.ones(5) / 5.0, mode="valid")
    for r in range(25, 200, 25):
        lo, hi = r - 5, r + 3
        assert any(
            sm[j] > sm[j - 1] and sm[j] > sm[j + 1]
            for j in range(max(lo, 1), min(hi, sm.size - 2) + 1)
        ), f"no local maximum near release at t={r}"

    # deterministic single agent: the extra satisfaction from one release
    # decays as k * J * (1-gamma)^(t - t*) once the reference starts chasing it
    gamma, jump, t_star = 0.3, math.log(2.0), 25
    flat = run(make(60, table([1.0] * 60), (solo(gamma),), seed=1))
    bumped = run(
        make(
            60,
            CapabilitySchedule(kind="punctuated", c0=1.0, releases=(Release(t_star, jump),)),
            (solo(gamma),),
            seed=1,
        )
    )
    diff = bumped.mean_satisfaction - flat.mean_satisfaction
    assert np.all(diff[:t_star] == 0.0)
    m = np.arange(60 - t_star)
    assert np.all(np.abs(diff[t_star:] - jump * (1.0 - gamma) ** m) <= 1e-9)
    assert elapsed < 5.0


@pytest.mark.acceptance(6, "slow adapters stay higher, both converge once growth stops")
def test_06_adaptation_rate_ordering_and_convergence():
    horizon = 200
    values = [math.exp(min(t, 100) * 0.05) for t in range(horizon)]

    def population(gamma):
        seg = Segment(
            name="all",
            fraction=1.0,
            gamma_range=(gamma, gamma),
            bass=BassParams(0.05, 0.3),
            initial_headroom=0.5,
            headroom_jitter=0.05,
        )
        return make(horizon, table(values), (seg,), n=2000, seed=29)

    slow = run(population(0.05))
    fast = run(population(0.40))
    # common random numbers: same seed, same hazards -> same adopters
    assert np.array_equal(
        slow.frac_active + slow.frac_churned, fast.frac_active + fast.frac_churned
    )
    diff = slow.mean_satisfaction[20:] - fast.mean_satisfaction[20:]
    assert np.all(np.isfinite(diff))
    assert np.all(diff > 0.0)
    for out in (slow, fast):  # 100 constant-capability steps close the gap
        assert abs(out.mean_satisfaction[-1] - 0.0) <= 0.02 * 1.0


@pytest.mark.acceptance(7, "segment satisfaction peaks follow adoption order")
def test_07_three_segment_preset_peak_ordering():
    start = time.perf_counter()
    preset = load_scenario(Path(__file__).resolve().parents[1] / "configs" / "segments.json")
    for seed in (5, 17, 23):
        sc = Scenario(
            horizon=200,
            population_size=5000,
            segments=preset.segments,
            schedule=CapabilitySchedule(
                kind="continuous", c0=1.0, resource_growth=0.868, alpha=0.08
            ),
            satisfaction=SatisfactionParams(k=1.0, b=0.0),
            seed=seed,
        )
        out = run(sc)
        names = out.segment_names
        peaks, finals = [], []
        for segment in ("early", "mainstream", "late"):
            series = out.segment_mean_satisfaction[names.index(segment)]
            assert not np.all(np.isnan(series))
            peaks.append(int(np.nanargmax(series)))
            finals.append(float(np.nanmean(series[150:])))
        assert peaks[0] < peaks[1] < peaks[2], f"seed {seed}: peak order {peaks}"
        assert finals[2] >= finals[1] >= finals[0], f"seed {seed}: final means {finals}"
    assert time.perf_counter() - start < 10.0


@pytest.mark.acceptance(8, "repeated novelty resets fatigue geometrically")
def test_08_novelty_reset_boosts_decay_by_delta():
    delta = 0.6
    reset = NoveltyReset(rho=0.3, decay_delta=delta, schedule=EventSchedule(start=25, period=25))
    out = run(make(150, table([1.0] * 150), (solo(0.7),), seed=3, interventions=(reset,)))
    firings = [t for t, kinds in enumerate(out.interventions_applied) if "novelty_reset" in kinds]
    assert firings == [25, 50, 75, 100, 125]
    s = out.mean_satisfaction
    boosts = [s[t + 1] - s[t] for t in firings]
    assert boosts[0] > 0.0
    for j, boost in enumerate(boosts):
        assert abs(boost - boosts[0] * delta**j) <= 1e-9


@pytest.mark.acceptance(9, "expectation management settles at the promised-gap fixed point")
def test_09_expectation_management_fixed_point():
    w, a, gamma = 0.5, 0.8, 0.5
    em = ExpectationManagement(weight_w=w, announce_discount_a=a, schedule=EventSchedule(at=0))
    out = run(make(201, table([4.0] * 201), (solo(gamma),), seed=8, interventions=(em,)))
    # fixed point of r <- r + gamma*((1-w)*ln C + w*ln(a*C) - r) leaves
    # a permanent gap of -w*ln a = 0.111572 for these parameters
    assert abs(out.mean_satisfaction[200] - 0.111572) <= 1e-3

    # same number from iterating the reference recursion by hand; the
    # t=0 update still chases plain capability because the toggle lands
    # at the end of that step
    log_c = math.log(4.0)
    r = log_c - 0.5
    for t in range(200):
        target = log_c if t == 0 else (1.0 - w) * log_c + w * (log_c + math.log(a))
        r += gamma * (target - r)
    assert abs(out.mean_satisfaction[200] - (log_c - r)) <= 1e-9


@pytest.mark.acceptance(10, "adoption tracks the logistic diffusion closed form")
def test_10_bass_adoption_against_continuous_solution():
    p, q, horizon = 0.03, 0.38, 60
    sc = make(
        horizon,
        CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=0.1, alpha=0.08),
        (solo(0.2, bass=BassParams(p, q)),),
        n=100_000,
        seed=11,
    )
    start = time.perf_counter()
    out = run(sc)
    elapsed = time.perf_counter() - start
    adopted = out.frac_active + out.frac_churned
    # end-of-step accounting sits half a step past the continuous clock
    t = np.arange(horizon) + 0.5
    decay = np.exp(-(p + q) * t)
    closed = (1.0 - decay) / (1.0 + (q / p) * decay)
    assert float(np.max(np.abs(adopted - closed))) < 0.02
    assert np.all(np.diff(adopted) >= 0.0)

    # unique inflection: the smoothed adoption rate rises to one peak
    # and falls after it (1e-6 dead band absorbs sampling noise)
    rate = np.convolve(np.diff(adopted), np.ones(5) / 5.0, mode="valid")
    peak = int(np.argmax(rate))
    assert 0 < peak < rate.size - 1
    assert np.all(np.diff(rate[: peak + 1]) >= -1e-6)
    assert np.all(np.diff(rate[peak:]) <= 1e-6)
    assert elapsed < 20.0


@pytest.mark.acceptance(11, "cadence optimizer matches a brute-force grid, ties go small")
def test_11_optimizer_agrees_with_exhaustive_oracle():
    horizon, budget = 101, math.log(8.0)
    intervals = tuple(range(1, 51))

    def base(gamma):
        return make(
            horizon,
            CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=0.0, alpha=1.0),
            (solo(gamma),),
            n=50,
            seed=7,
        )

    result = optimize_cadence(
        CadenceSearch(base=base(0.3), total_log_budget=budget, intervals=intervals)
    )

    # brute force with the schedules rebuilt from scratch: releases at
    # every multiple of the interval inside the horizon, budget split
    # evenly; full adoption and no churn let a plain mean serve as the
    # participation-weighted objective
    oracle = {}
    for interval in intervals:
        n_releases = (horizon - 1) // interval
        sched = CapabilitySchedule(
            kind="punctuated",
            c0=1.0,
            releases=tuple(
                Release(i * interval, budget / n_releases) for i in range(1, n_releases + 1)
            ),
        )
        out = run(make(horizon, sched, (solo(0.3),), n=50, seed=7))
        assert np.all(out.participants == 50)
        oracle[interval] = float(np.mean(out.mean_satisfaction))
    best = min(iv for iv in intervals if oracle[iv] >= max(oracle.values()) - 1e-9)
    assert result.best_interval == best
    for interval, objective in result.table:
        assert objective == pytest.approx(oracle[interval], abs=1e-12)

    # gamma=1 re-baselines every step, so total satisfaction telescopes
    # to the budget no matter the pacing: flat table, smallest interval wins
    flat = optimize_cadence(
        CadenceSearch(base=base(1.0), total_log_budget=budget, intervals=intervals)
    )
    objectives = [objective for _, objective in flat.table]
    assert max(objectives) - min(objectives) < 1e-9
    assert flat.best_interval == 1


@pytest.mark.acceptance(12, "stratified sweep recovers the adaptation-rate trend")
def test_12_lhs_occupancy_and_monotone_trend():
    samples, lo, hi = 64, 0.05, 0.4
    base = make(
        80,
        CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=0.3, alpha=0.1),
        (solo(0.2),),
        n=100,
        seed=13,
    )
    spec = SweepSpec(
        dimensions=(
            SweepDimension(
                name="gamma",
                lo=lo,
                hi=hi,
                paths=(
                    ("population", "segments", 0, "gamma_range", 0),
                    ("population", "segments", 0, "gamma_range", 1),
                ),
            ),
        ),
        samples=samples,
        seed=21,
        metrics=("time_avg_active_satisfaction",),
    )
    rows = run_sweep(spec, scenario_to_document(base))
    gammas = np.array([row.values[0] for row in rows])
    strata = np.floor((gammas - lo) / (hi - lo) * samples).astype(int)
    assert np.array_equal(np.bincount(strata, minlength=samples), np.ones(samples, dtype=int))
    metric = np.array([row.metrics["time_avg_active_satisfaction"] for row in rows])
    assert np.all(np.isfinite(metric))
    assert scipy.stats.spearmanr(gammas, metric).statistic <= -0.95


@pytest.mark.acceptance(13, "bit-identical reruns and runtime budgets")
def test_13_determinism_and_performance(tmp_path):
    mixed = make(
        120,
        CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=0.3, alpha=0.1),
        (
            Segment(
                name="all",
                fraction=1.0,
                gamma_range=(0.2, 0.4),
                bass=BassParams(0.03, 0.38),
                initial_headroom=0.5,
                headroom_jitter=0.05,
            ),
        ),
        n=500,
        seed=42,
        churn=ChurnParams(s_churn=0.05, eta=0.5, cap=0.05),
        interventions=(
            NoveltyReset(rho=0.3, decay_delta=0.7, schedule=EventSchedule(start=30, period=30)),
        ),
    )
    assert run_csv_text(run(mixed)).encode() == run_csv_text(run(mixed)).encode()

    big = make(
        1000,
        CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=0.2, alpha=0.08),
        (
            Segment(
                name="all",
                fraction=1.0,
                gamma_range=(0.2, 0.4),
                bass=BassParams(0.03, 0.38),
                initial_headroom=0.5,
                headroom_jitter=0.05,
            ),
        ),
        n=10_000,
        seed=1,
        churn=ChurnParams(s_churn=0.05, eta=0.5, cap=0.05),
    )
    start = time.perf_counter()
    run(big)
    assert time.perf_counter() - start < 2.0

    # 256-sample sweep through the CLI: 8 workers, byte-for-byte equal
    base = make(
        60,
        CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=0.3, alpha=0.1),
        (solo(0.2),),
        n=30,
        seed=5,
    )
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario_to_document(base)), encoding="utf-8")
    sweep_doc = {
        "samples": 256,
        "seed": 9,
        "metrics": ["time_avg_active_satisfaction", "final_adopted_fraction"],
        "dimensions": [
            {
                "name": "gamma",
                "lo": 0.05,
                "hi": 0.4,
                "paths": [
                    ["population", "segments", 0, "gamma_range", 0],
                    ["population", "segments", 0, "gamma_range", 1],
                ],
            }
        ],
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(sweep_doc), encoding="utf-8")
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    args = ["sweep", "--config", str(cfg), "--sweep", str(spec_path)]
    assert main(args + ["--out", str(seq)]) == 0
    assert main(args + ["--parallel", "8", "--out", str(par)]) == 0
    assert seq.read_bytes() == par.read_bytes()
    assert len(seq.read_text().splitlines()) == 257


@pytest.mark.acceptance(14, "phase labels match on the four canonical series")
def test_14_phase_classifier_reference_series():
    assert classify_phases([2.0] * 60) == [PhaseLabel(PhaseKind.STABILIZATION, 0, 60)]
    assert classify_phases([0.5 * t for t in range(60)]) == [PhaseLabel(PhaseKind.RAPID_GAIN, 0, 60)]

    saturating = [2.0 * (1.0 - 0.7**t) for t in range(60)]
    labels = classify_phases(saturating, window=5, theta_hi=0.15, theta_lo=0.01, min_plateau=10)
    assert [label.kind for label in labels] == [
        PhaseKind.RAPID_GAIN,
        PhaseKind.DIMINISHING_RETURNS,
        PhaseKind.STABILIZATION,
    ]

    spike = [2.0 * (1.0 - 0.7**t) for t in range(40)]
    spike += [spike[-1] + 1.5 * (1.0 - 0.7 ** (m + 1)) for m in range(20)]
    kinds = [
        label.kind
        for label in classify_phases(spike, window=5, theta_hi=0.15, theta_lo=0.01, min_plateau=10)
    ]
    assert PhaseKind.RESURGENCE in kinds
    assert PhaseKind.STABILIZATION in kinds[: kinds.index(PhaseKind.RESURGENCE)]
