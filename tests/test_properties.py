"""Property tests: a scenario survives its document round trip with its
digest, a scenario document that parses also runs, the per-step
aggregates and model invariants hold on every generated run, and the
phase classifier follows its step-by-step rules."""

import json
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from hypothesis import HealthCheck, Phase, assume, example, given, settings
from hypothesis import strategies as st

from adaptsim import engine
from adaptsim import (
    BassParams,
    CapabilitySchedule,
    ChurnParams,
    ConfigurationError,
    DomainError,
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
)
from adaptsim.analysis import (
    METRICS,
    PhaseKind,
    classify_phases,
    smooth_series,
    time_to_half_peak,
    true_runs,
)
from adaptsim.config import (
    canonical_json,
    parse_scenario_document,
    scenario_digest,
    scenario_to_document,
)
from adaptsim.interventions import INTERVENTION_KINDS
from adaptsim.kernels import bass_hazard
from adaptsim.output import run_csv_text, traces_csv_text
from adaptsim.population import allocate_counts, build_population
from adaptsim.schedule import SCHEDULE_KINDS
from reference_model import reference_csv_texts

# Fixed examples keep the suite deterministic; no example database is written.
PROPERTY = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def unit(open_lo=False, open_hi=False):
    return st.floats(0.0, 1.0, exclude_min=open_lo, exclude_max=open_hi)


def event_schedules(horizon):
    return st.one_of(
        st.builds(EventSchedule, at=st.integers(0, horizon - 1)),
        st.builds(EventSchedule, start=st.integers(0, horizon - 1), period=st.integers(1, horizon)),
    )


def interventions(horizon):
    at = event_schedules(horizon)
    return {
        NoveltyReset: st.builds(
            NoveltyReset, rho=unit(True, True), decay_delta=unit(open_lo=True), schedule=at
        ),
        Personalization: st.builds(
            Personalization,
            max_log_mult=st.floats(0.0, 5.0),
            gamma_damp_omega=unit(open_hi=True),
            schedule=at,
        ),
        ExpectationManagement: st.builds(
            ExpectationManagement, weight_w=unit(), announce_discount_a=unit(open_lo=True), schedule=at
        ),
        SocialBenchmark: st.builds(
            SocialBenchmark, beta0=st.floats(-1.0, 5.0), tau=st.floats(0.1, 100.0), schedule=at
        ),
        StrategicDip: st.builds(
            StrategicDip, depth=unit(True, True), duration=st.integers(1, horizon), schedule=at
        ),
    }


@st.composite
def segments(draw, count):
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=count, max_size=count))
    out = []
    for i, w in enumerate(weights):
        p = draw(unit())
        q = draw(st.floats(0.0, 1.0 - p))
        assume(p + q <= 1.0)  # 1 - p rounds up for some p
        out.append(
            Segment(
                name=f"s{i}",
                fraction=w / sum(weights),
                gamma_range=tuple(sorted((draw(unit()), draw(unit())))),
                bass=BassParams(p, q),
                initial_headroom=draw(st.floats(0.0, 2.0)),
                headroom_jitter=draw(st.floats(0.0, 0.5)),
            )
        )
    return tuple(out)


@st.composite
def schedules(draw, horizon):
    kind = draw(st.sampled_from(SCHEDULE_KINDS))
    if kind == "table":
        values = draw(st.lists(st.floats(1e-3, 1e3), min_size=horizon, max_size=horizon))
        return CapabilitySchedule(kind="table", values=tuple(values))
    fields = {"c0": draw(st.floats(1e-3, 1e3))}
    if kind in ("continuous", "hybrid"):
        fields.update(resource_growth=draw(st.floats(0.0, 1.0)), alpha=draw(unit(open_lo=True)))
    if kind in ("punctuated", "hybrid"):
        times = sorted(draw(st.lists(st.integers(0, horizon - 1), unique=True, max_size=5)))
        fields["releases"] = tuple(Release(t, draw(st.floats(0.01, 3.0))) for t in times)
    return CapabilitySchedule(kind=kind, **fields)


@st.composite
def scenarios(draw, max_agents=1000):
    horizon = draw(st.integers(1, 30))
    menu = interventions(horizon)
    kinds = draw(st.lists(st.sampled_from(list(menu)), unique=True, max_size=len(menu)))
    return Scenario(
        horizon=horizon,
        population_size=draw(st.integers(1, max_agents)),
        segments=draw(segments(draw(st.integers(1, 3)))),
        schedule=draw(schedules(horizon)),
        satisfaction=SatisfactionParams(
            k=draw(st.floats(0.01, 10.0)),
            b=draw(st.floats(-5.0, 5.0)),
            loss_aversion=draw(st.floats(1.0, 5.0)),
        ),
        churn=ChurnParams(
            s_churn=draw(st.floats(-5.0, 5.0)), eta=draw(st.floats(0.0, 5.0)), cap=draw(unit())
        ),
        interventions=tuple(draw(menu[kind]) for kind in kinds),
        seed=draw(st.integers(0, 2**64 - 1)),
        trace_agents=draw(st.booleans()),
    )


@PROPERTY
@given(scenarios())
def test_document_round_trip_keeps_scenario_and_digest(sc):
    doc = scenario_to_document(sc)
    assert parse_scenario_document(doc) == sc
    again = parse_scenario_document(json.loads(canonical_json(doc)))
    assert again == sc
    assert scenario_digest(again) == scenario_digest(sc)


# Capability inputs at the edges of the float range, and (in NUMBERS) JSON
# numbers as a file may hold them: any float, and integers too large for one.
POSITIVE = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308]),
)
NUMBERS = st.one_of(POSITIVE, st.floats(), st.integers(-(10**400), 10**400))


@st.composite
def schedule_documents(draw, horizon):
    kind = draw(st.sampled_from(SCHEDULE_KINDS))
    if kind == "table":
        return {"kind": kind, "values": draw(st.lists(POSITIVE, min_size=horizon, max_size=horizon))}
    doc = {"kind": kind, "c0": draw(NUMBERS)}
    if kind in ("continuous", "hybrid"):
        doc.update(resource_growth=draw(NUMBERS), alpha=draw(unit(open_lo=True) | NUMBERS))
    if kind in ("punctuated", "hybrid"):
        # a time equal to the horizon is out of range
        times = sorted(draw(st.lists(st.integers(0, horizon), unique=True, max_size=6)))
        doc["releases"] = [{"time": t, "log_jump": draw(POSITIVE)} for t in times]
    return doc


@st.composite
def scenario_documents(draw):
    horizon = draw(st.integers(1, 50))
    return {
        "horizon": horizon,
        "seed": draw(st.integers(0, 2**64 - 1)),
        "population": {
            "size": draw(st.integers(1, 20)),
            "segments": [
                {"name": "all", "fraction": 1.0, "gamma_range": [0.1, 0.4], "bass": {"p": 0.5, "q": 0.3}}
            ],
        },
        "schedule": draw(schedule_documents(horizon)),
        "satisfaction": {"k": 1.0, "b": 0.0},
        "churn": {"s_churn": 0.0, "eta": 0.5, "cap": 0.2},
    }


@PROPERTY
@given(scenario_documents())
def test_a_document_that_parses_runs_without_warnings(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sc = parse_scenario_document(doc)
        except ConfigurationError:
            return
        out = run(sc)
    assert out.horizon == sc.horizon


SIGN = st.sampled_from([1.0, -1.0])


@st.composite
def extreme_documents(draw):
    """A scenario document with every value that bounds a run's magnitudes
    drawn from the whole float range its field accepts."""
    horizon = draw(st.integers(1, 20))
    levels = (draw(POSITIVE), 1.0)  # C(t) alternates between them
    segment = {
        "name": "all",
        "fraction": 1.0,
        "gamma_range": [0.1, 0.4],
        "bass": {"p": 0.5, "q": 0.3},
        "initial_headroom": draw(POSITIVE),
        "headroom_jitter": draw(POSITIVE),
    }
    doc = {
        "horizon": horizon,
        "seed": 1,
        "trace_agents": True,
        "population": {"size": draw(st.integers(1, 20)), "segments": [segment]},
        "schedule": {"kind": "table", "values": [levels[t % 2] for t in range(horizon)]},
        # lambda >= 1 and (below) beta0 >= -1: POSITIVE shifted into range
        "satisfaction": {
            "k": draw(POSITIVE),
            "b": draw(SIGN) * draw(POSITIVE),
            "lambda": 1.0 + draw(POSITIVE),
        },
        "churn": {"s_churn": draw(SIGN) * draw(POSITIVE), "eta": draw(POSITIVE), "cap": 0.5},
        "interventions": [],
    }
    menu = {
        "social_benchmark": lambda: {"beta0": draw(POSITIVE) - 1.0, "tau": 10.0},
        "personalization": lambda: {"max_log_mult": draw(POSITIVE), "gamma_damp_omega": 0.5},
        "novelty_reset": lambda: {"rho": draw(unit(True, True)), "decay_delta": 1.0},
        "expectation_management": lambda: {"weight_w": 1.0, "announce_discount_a": draw(unit(True))},
    }
    for kind in draw(st.lists(st.sampled_from(list(menu)), unique=True)):
        at = {"at": draw(st.integers(0, horizon - 1))}
        doc["interventions"].append({"kind": kind, "schedule": at, **menu[kind]()})
    return doc


@settings(PROPERTY, max_examples=1000)
@given(extreme_documents())
def test_a_document_that_parses_runs_to_finite_values(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sc = parse_scenario_document(doc)
        except ConfigurationError:
            return
        out = run(sc)
        metrics = {name: metric(out) for name, metric in METRICS.items()}
    lived = out.participants > 0
    for f in fields(out):
        x = getattr(out, f.name)
        if isinstance(x, np.ndarray) and x.dtype == np.float64:
            assert np.isfinite(x[..., lived]).all(), f.name
    tr = out.traces
    assert np.isfinite(tr.log_reference).all()
    assert not np.isinf(tr.satisfaction).any()
    assert np.isfinite(tr.satisfaction).sum() == out.participants.sum()
    for name, value in metrics.items():
        assert value is None or math.isfinite(value), name


@PROPERTY
@given(scenarios())
def test_step_aggregates_match_the_traced_agents(sc):
    out = run(replace(sc, trace_agents=True))
    counts = allocate_counts([s.fraction for s in sc.segments], sc.population_size)
    seg_of = np.repeat(np.arange(len(sc.segments)), counts)
    for t in range(sc.horizon):
        s = out.traces.satisfaction[t]
        part = np.isfinite(s)
        assert out.participants[t] == np.count_nonzero(part)
        if not part.any():
            assert np.isnan(out.mean_satisfaction[t]) and np.isnan(out.mean_log_reference[t])
            assert np.isnan(out.s_q25[t]) and np.isnan(out.s_q75[t])
            assert np.isnan(out.segment_mean_satisfaction[:, t]).all()
            continue
        assert out.mean_satisfaction[t] == s[part].mean()
        assert out.mean_log_reference[t] == out.traces.log_reference[t][part].mean()
        assert (out.s_q25[t], out.s_q75[t]) == tuple(np.percentile(s[part], (25.0, 75.0)))
        for i in range(len(sc.segments)):
            cells = s[part & (seg_of == i)]
            got = out.segment_mean_satisfaction[i, t]
            if cells.size == 0:
                assert np.isnan(got)
            else:
                want = math.fsum(cells) / cells.size
                assert abs(got - want) <= 1e-12 * np.abs(cells).mean()


# The scenarios below hold at most 200 agents and 30 steps, which never
# fill a block of engine._BLOCK_ELEMENTS, so their runs also take blocks of
# a few elements: from one step a block to the whole run, split mid-run.
BLOCK_ELEMENTS = st.one_of(st.integers(1, 600), st.just(engine._BLOCK_ELEMENTS))


def assert_runs_match_the_reference_stepper(sc, block_elements):
    """Traced and untraced runs of ``sc`` in blocks of ``block_elements``
    write the reference stepper's run.csv and traces.csv."""
    run_text, traces_text = reference_csv_texts(sc)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_BLOCK_ELEMENTS", block_elements)
        traced = run(replace(sc, trace_agents=True))
        untraced = run(replace(sc, trace_agents=False))
    assert run_csv_text(traced) == run_text
    assert run_csv_text(untraced) == run_text
    assert traces_csv_text(traced) == traces_text


# The pure-Python reference is slow, so its scenarios hold at most 200
# agents: 200 examples then take a few seconds.  Shrinking such a scenario
# takes minutes, so a failure is reported as found, unshrunk.
@settings(PROPERTY, max_examples=200, phases=[p for p in Phase if p is not Phase.shrink])
@given(scenarios(max_agents=200), BLOCK_ELEMENTS)
def test_run_matches_the_reference_stepper_byte_for_byte(sc, block_elements):
    assert_runs_match_the_reference_stepper(sc, block_elements)


@st.composite
def everyone_from_step_0(draw):
    """A traced scenario whose every segment adopts at step 0 (p = 1), with
    live churn, a novelty reset and personalization: its run reads whole
    arrays through views until the first churn, then gathers by index."""
    sc = draw(scenarios(max_agents=200))
    menu = interventions(sc.horizon)
    others = tuple(iv for iv in sc.interventions if not isinstance(iv, (NoveltyReset, Personalization)))
    return replace(
        sc,
        segments=tuple(replace(s, bass=BassParams(1.0, 0.0)) for s in sc.segments),
        churn=ChurnParams(
            s_churn=draw(st.floats(-5.0, 10.0)), eta=draw(st.floats(0.1, 5.0)), cap=draw(st.floats(0.01, 0.5))
        ),
        interventions=others + (draw(menu[NoveltyReset]), draw(menu[Personalization])),
        trace_agents=True,
    )


@settings(PROPERTY, max_examples=100, phases=[p for p in Phase if p is not Phase.shrink])
@given(everyone_from_step_0(), BLOCK_ELEMENTS)
def test_whole_population_runs_match_the_reference_stepper_byte_for_byte(sc, block_elements):
    assert run(sc).participants[0] == sc.population_size
    assert_runs_match_the_reference_stepper(sc, block_elements)


# what analysis.METRICS reads of a run, which a run without report keeps bit for bit
METRIC_INPUTS = (
    "capability",
    "capability_effective",
    "frac_potential",
    "frac_active",
    "frac_churned",
    "mean_satisfaction",
    "participants",
)


@PROPERTY
@given(scenarios(), BLOCK_ELEMENTS)
def test_a_run_without_report_keeps_the_metric_inputs_bit_for_bit(sc, block_elements):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_BLOCK_ELEMENTS", block_elements)
        full, lean = run(sc), run(sc, report=False)
    for name in METRIC_INPUTS:
        want, got = getattr(full, name), getattr(lean, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert lean.interventions_applied == full.interventions_applied
    assert repr({m: f(lean) for m, f in METRICS.items()}) == repr({m: f(full) for m, f in METRICS.items()})
    for name in ("mean_log_reference", "s_q25", "s_q75", "segment_mean_satisfaction", "traces"):
        assert getattr(lean, name) is None, name


@PROPERTY
@given(scenarios())
def test_state_fractions_sum_to_one_and_move_one_way(sc):
    out = run(sc)
    total = out.frac_potential + out.frac_active + out.frac_churned
    assert np.all(np.abs(total - 1.0) <= 1e-12)
    assert np.all(np.diff(out.frac_churned) >= 0.0)
    assert np.all(np.diff(out.frac_potential) <= 0.0)


@PROPERTY
@given(scenarios())
def test_zero_adaptation_rate_freezes_every_reference(sc):
    frozen = replace(
        sc,
        segments=tuple(replace(s, gamma_range=(0.0, 0.0)) for s in sc.segments),
        interventions=tuple(iv for iv in sc.interventions if iv.kind != NoveltyReset.kind),
        trace_agents=True,
    )
    refs = run(frozen).traces.log_reference
    assert np.array_equal(refs, np.broadcast_to(refs[0], refs.shape))


@PROPERTY
@given(scenarios())
def test_each_step_lists_the_kinds_that_fire_in_kind_order(sc):
    out = run(sc)
    schedules = {iv.kind: iv.schedule for iv in sc.interventions}
    for t in range(sc.horizon):
        want = tuple(k for k in INTERVENTION_KINDS if k in schedules and schedules[k].fires_at(t))
        assert out.interventions_applied[t] == want


@st.composite
def with_and_without_a_zero_benchmark(draw):
    """A traced scenario with no social benchmark, and the same one with a
    benchmark whose beta0 is 0.0 or -0.0."""
    sc = replace(draw(scenarios()), trace_agents=True)
    others = tuple(iv for iv in sc.interventions if not isinstance(iv, SocialBenchmark))
    social = draw(interventions(sc.horizon)[SocialBenchmark])
    social = replace(social, beta0=draw(st.sampled_from([0.0, -0.0])))
    return replace(sc, interventions=others), replace(sc, interventions=others + (social,))


def run_arrays(out):
    """The bytes of each array of a traced run, by name (``interventions_applied``
    is a tuple, so it is left out)."""
    named = {f.name: getattr(out, f.name) for f in fields(out)}
    named.update({f"traces.{f.name}": getattr(out.traces, f.name) for f in fields(out.traces)})
    return {name: x.tobytes() for name, x in named.items() if isinstance(x, np.ndarray)}


@PROPERTY
@given(with_and_without_a_zero_benchmark())
def test_a_social_benchmark_of_weight_zero_changes_no_bit(pair):
    plain, zero = pair
    assert run_arrays(run(zero)) == run_arrays(run(plain))


@PROPERTY
@given(st.floats(-0.0, 1.0), st.floats(-0.0, 1.0), st.floats(-0.0, 1.0))
@example(-0.0, -0.0, 0.0)
@example(1.0, 0.0, 1.0)
@example(0.0, 1.0, 1.0)
@example(0.1, 0.9, 1.0)
@example(5e-324, 1.0, 1.0)  # p + q rounds to 1
def test_bass_hazard_lies_in_the_unit_interval(p, q, adopted_fraction):
    try:
        params = BassParams(p, q)
    except ConfigurationError:
        assume(False)
    assert 0.0 <= bass_hazard(params, adopted_fraction) <= 1.0


def quartile_cell(value, digits, exponent):
    # rounding makes ties; the exponent mixes scales; + 0.0 turns -0.0 into 0.0
    return round(value, digits) * 10.0**exponent + 0.0


# satisfaction is never -0.0 (see test_satisfaction_is_never_a_negative_zero)
QUARTILE_CELLS = st.one_of(
    st.just(0.0),
    st.builds(quartile_cell, st.floats(-1.0, 1.0), st.integers(0, 2), st.integers(-8, 8)),
)


def long_quartile_cells(size, digits, exponent, seed):
    # as quartile_cell, but many at once: with few digits, ties abound
    cells = np.random.default_rng(seed).uniform(-1.0, 1.0, size)
    return np.round(cells, digits) * 10.0**exponent + 0.0


# either side of the size where _quartiles switches from a sort to partitions
LONG_QUARTILE_SIZES = st.integers(engine._PARTITION_FROM - 64, 3 * engine._PARTITION_FROM)


@PROPERTY
@given(
    st.one_of(
        st.lists(QUARTILE_CELLS, min_size=1, max_size=60),
        st.builds(
            long_quartile_cells,
            LONG_QUARTILE_SIZES,
            st.integers(0, 4),
            st.integers(-8, 8),
            st.integers(0, 2**32 - 1),
        ),
    ),
    st.integers(1, 4),
)
@example([3.5], 1)
@example([0.0], 2)
@example([1e-8], 3)
@example([2.0, -3.0], 4)
@example([0.0, 1.0, 0.0, -2.0, 0.0], 3)
def test_quartiles_are_numpys_percentiles_bit_for_bit(values, rows):
    x = np.array(values, dtype=np.float64)
    got = engine._quartiles(x)
    want = tuple(np.percentile(x, (25.0, 75.0)))
    assert got == want
    assert np.array(got).tobytes() == np.array(want).tobytes()  # signed zeros too
    # a block of rows, each its own order and scale (+ 0.0 turns -0.0 into 0.0)
    block = np.stack([x * (-2.0) ** r + 0.0 for r in range(rows)])
    q25, q75 = engine._quartiles(block)
    assert q25.shape == q75.shape == (rows,)
    for row, a, b in zip(block, q25, q75):
        assert np.array([a, b]).tobytes() == np.percentile(row, (25.0, 75.0)).tobytes()


@PROPERTY
@given(
    st.integers(1, 6).flatmap(segments),
    st.lists(st.one_of(st.just(0.0), st.floats(0.1, 1.0)), min_size=6, max_size=6),
    st.integers(1, 500),
    st.integers(0, 2**64 - 1),
)
def test_segments_are_contiguous_id_ranges(segs, weights, n, seed):
    # engine.run's segment sums read each segment as one slice of the participants
    weights = weights[: len(segs)]
    assume(sum(weights) > 0.0)
    segs = tuple(replace(seg, fraction=w / sum(weights)) for seg, w in zip(segs, weights))
    assume(abs(math.fsum(seg.fraction for seg in segs) - 1.0) <= 1e-9)
    pop = build_population(segs, n, seed, 0.0)
    assert np.all(np.diff(pop.segment_index) >= 0)
    counts = np.bincount(pop.segment_index, minlength=len(segs))
    assert counts.tolist() == allocate_counts([seg.fraction for seg in segs], n)


def negative_zero(x):
    return (x == 0.0) & np.signbit(x)


# a subnormal k rounds k*g to -0.0 on each small loss
SMALL_LOSSES = Scenario(
    horizon=4,
    population_size=20,
    segments=(Segment("all", 1.0, (0.5, 0.5), BassParams(1.0, 0.0), initial_headroom=0.0),),
    schedule=CapabilitySchedule(kind="table", values=(1.0, 0.9, 0.8, 0.7)),
    satisfaction=SatisfactionParams(k=1.0, b=0.0, loss_aversion=1.0),
)


@PROPERTY
@given(scenarios(), st.sampled_from([None, 5e-324]))
@example(SMALL_LOSSES, 5e-324)
def test_satisfaction_is_never_a_negative_zero(sc, k):
    sat = replace(sc.satisfaction, b=-0.0, k=k or sc.satisfaction.k)
    out = run(replace(sc, satisfaction=sat, trace_agents=True))
    s = out.traces.satisfaction
    assert not negative_zero(s).any()
    # a mean of losses may underflow to -0.0; no other column may hold one
    loss = (s < 0.0).any(axis=1)
    allowed = {
        "mean_satisfaction": loss,
        "segment_mean_satisfaction": loss,
        "mean_log_reference": (out.traces.log_reference < 0.0).any(axis=1),
    }
    for f in fields(out):
        x = getattr(out, f.name)
        if isinstance(x, np.ndarray) and x.dtype == np.float64:
            ok = allowed.get(f.name, np.zeros(sc.horizon, dtype=bool))
            assert not (negative_zero(x) & ~ok).any(), f.name


def reference_smooth(series, window):
    """smooth_series step by step: 0.0 and then the cumulative sums, added
    in order from the first value as numpy.cumsum adds (so a -0.0 first
    value stays -0.0), and each step's shrinking window as the difference
    of two of them over the window's length."""
    sums = [0.0]
    for i, x in enumerate(series):
        sums.append(float(x) if i == 0 else sums[-1] + float(x))
    n = len(series)
    out = []
    for i in range(n):
        half = min(window // 2, i, n - 1 - i)
        out.append((sums[i + half + 1] - sums[i - half]) / (2 * half + 1))
    return out


def reference_slope(f):
    """numpy.gradient of a series step by step: central differences inside,
    one-sided ones at the ends."""
    inside = [(f[i + 1] - f[i - 1]) / 2.0 for i in range(1, len(f) - 1)]
    return [f[1] - f[0], *inside, f[-1] - f[-2]]


def reference_phases(series, window=9, theta_hi=None, theta_lo=None, min_plateau=10):
    """classify_phases written step by step, as (kind, start, end) triples."""
    arr = np.asarray(series, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("series must be finite")
    if window < 1 or window % 2 == 0:
        raise DomainError("window must be an odd positive integer")
    if arr.size <= window:
        raise DomainError(f"series of length {arr.size} is too short for window {window}")
    if min_plateau < 1:
        raise DomainError("min_plateau must be positive")
    if theta_hi is not None and theta_lo is not None and not (0.0 < theta_lo < theta_hi):
        raise DomainError("need 0 < theta_lo < theta_hi")
    slope = reference_slope(reference_smooth(arr.tolist(), window))
    if not all(math.isfinite(x) for x in slope):
        raise DomainError("series is too large to smooth: its smoothed slopes are not finite")
    peak = max(abs(x) for x in slope)
    hi = 0.25 * peak if theta_hi is None else theta_hi
    lo = 0.025 * peak if theta_lo is None else theta_lo
    n = arr.size
    labels = [None] * n
    plateaus = []
    start = None
    for i in range(n + 1):
        flat = i < n and abs(slope[i]) <= lo
        if flat and start is None:
            start = i
        elif not flat and start is not None:
            if i - start >= min_plateau:
                plateaus.append((start, i))
            start = None
    for a, b in plateaus:
        labels[a:b] = [PhaseKind.STABILIZATION] * (b - a)
    for i in range(n):
        if labels[i] is None and slope[i] >= hi:
            closed = any(b <= i for _, b in plateaus)
            labels[i] = PhaseKind.RESURGENCE if closed else PhaseKind.RAPID_GAIN
    gain_seen = False
    for i in range(n):
        if labels[i] in (PhaseKind.RAPID_GAIN, PhaseKind.RESURGENCE):
            gain_seen = True
        elif labels[i] is None and gain_seen and slope[i] > 0.0:
            labels[i] = PhaseKind.DIMINISHING_RETURNS
    if all(lab is None for lab in labels):
        return [(PhaseKind.STABILIZATION, 0, n)]
    last = None
    for i in range(n):
        if labels[i] is None:
            labels[i] = last
        else:
            last = labels[i]
    first = next(lab for lab in labels if lab is not None)
    for i in range(n):
        if labels[i] is None:
            labels[i] = first
        else:
            break
    out = []
    for i, lab in enumerate(labels):
        if out and out[-1][0] is lab:
            out[-1] = (lab, out[-1][1], i + 1)
        else:
            out.append((lab, i, i + 1))
    return out


def cumulative(steps):
    return list(np.cumsum(steps))


# plateau-heavy series: flat stretches are where the rules meet
PHASE_SERIES = st.one_of(
    st.lists(st.integers(-3, 3), min_size=1, max_size=80).map(cumulative),  # rounded walks
    st.lists(st.sampled_from([0.0, 0.0, 0.0, 1.0, -0.5, 2.5]), min_size=1, max_size=80).map(cumulative),
    st.lists(  # step functions
        st.tuples(st.integers(1, 25), st.floats(-10.0, 10.0)), min_size=1, max_size=6
    ).map(lambda parts: [level for length, level in parts for _ in range(length)]),
    st.builds(lambda n, c: [c] * n, st.integers(1, 60), st.floats(-5.0, 5.0)),  # constants
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=80).map(cumulative),
    st.lists(st.sampled_from([0.0, 1.0, float("nan")]), min_size=1, max_size=30),
)
THETAS = st.one_of(
    st.tuples(st.none(), st.none()),
    st.tuples(st.sampled_from([0.0, 0.01, 0.1, 0.5]), st.sampled_from([0.05, 0.3, 1.0, 3.0])),
    st.tuples(st.none(), st.sampled_from([0.0, 0.3, 1.0])),
    st.tuples(st.sampled_from([0.1, 0.5]), st.none()),
)


@settings(PROPERTY, max_examples=1000)
@given(
    PHASE_SERIES,
    st.sampled_from([1, 3, 5, 9, 2, 0]),
    st.integers(0, 20),
    THETAS,
)
@example([0.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 4.0], 1, 2, (None, None))  # gain, plateau, resurgence
def test_classify_phases_matches_the_step_by_step_rules(series, window, min_plateau, thetas):
    theta_lo, theta_hi = thetas
    knobs = dict(window=window, min_plateau=min_plateau, theta_lo=theta_lo, theta_hi=theta_hi)
    try:
        want = reference_phases(series, **knobs)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            classify_phases(series, **knobs)
        assert str(got.value) == str(exc)
        return
    got = classify_phases(series, **knobs)
    assert [(p.kind, p.start, p.end) for p in got] == want
    assert all(type(p.start) is int and type(p.end) is int for p in got)


@st.composite
def smoothing_inputs(draw):
    """An odd window from 1 to 15 and a series, often just longer than it,
    of values at one of several magnitudes up to near 1e300."""
    window = draw(st.integers(0, 7)) * 2 + 1
    size = draw(st.one_of(st.integers(window + 1, window + 3), st.integers(0, 60)))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e150, 1e300, 1e307]))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
    return [scale * v for v in values], window


@settings(PROPERTY, max_examples=500)
@given(smoothing_inputs())
@example(([-0.0, 0.0, -0.0], 1))  # a leading -0.0 survives the cumulative sum
@example(([-0.0, -0.0, -0.0, -0.0], 3))
def test_smooth_series_is_its_per_step_formula_bit_for_bit(inputs):
    series, window = inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # near 1e307 the sums overflow
        got = smooth_series(series, window)
    want = np.array(reference_smooth(series, window), dtype=np.float64)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@PROPERTY
@given(st.lists(st.booleans(), max_size=40))
def test_true_runs_are_the_maximal_runs_of_true(mask):
    want = []
    for i, value in enumerate(mask):
        if value and (i == 0 or not mask[i - 1]):
            want.append([i, i + 1])
        elif value:
            want[-1][1] = i + 1
    starts, ends = true_runs(np.array(mask, dtype=bool))
    assert [[a, b] for a, b in zip(starts.tolist(), ends.tolist())] == want


def halvable_floats():
    """Finite floats whose half is exact: zero, or twice the smallest normal and up."""
    return st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x == 0.0 or abs(x) >= 2.0**-1021)


@PROPERTY
@given(halvable_floats(), halvable_floats())
def test_half_peak_threshold_is_the_halfway_expression_wherever_that_is_finite(a, b):
    baseline, peak = sorted((a, b))
    assume(peak > baseline and math.isfinite(peak - baseline))
    halfway = baseline + 0.5 * (peak - baseline)
    above = math.nextafter(halfway, math.inf)
    assume(above <= peak)
    # step 1 is just above the halfway value and step 2 at it, so the
    # answer is 2 exactly when the threshold equals the halfway value
    assert time_to_half_peak([peak, above, halfway], baseline) == 2
