"""Property tests: a scenario survives its document round trip with its
digest, a scenario document that parses also runs, and the per-step
aggregates and model invariants hold on every generated run."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

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
)
from adaptsim.config import (
    canonical_json,
    parse_scenario_document,
    scenario_digest,
    scenario_to_document,
)
from adaptsim.population import allocate_counts
from adaptsim.schedule import SCHEDULE_KINDS

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
def scenarios(draw):
    horizon = draw(st.integers(1, 30))
    menu = interventions(horizon)
    kinds = draw(st.lists(st.sampled_from(list(menu)), unique=True, max_size=len(menu)))
    return Scenario(
        horizon=horizon,
        population_size=draw(st.integers(1, 1000)),
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
