"""Analytics: phase labeling, gap metric, cadence search, LHS sweeps."""

import copy
import dataclasses
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from adaptsim import analysis, cli, config, engine
from adaptsim import (
    BassParams,
    CadenceSearch,
    CapabilitySchedule,
    ChurnParams,
    ConfigurationError,
    DomainError,
    PhaseKind,
    PhaseLabel,
    SatisfactionParams,
    Scenario,
    Segment,
    SweepDimension,
    SweepSpec,
    cadence_to_schedule,
    classify_phases,
    lhs_sample,
    optimize_cadence,
    run,
    run_sweep,
    satisfaction_gap,
    time_avg_active_satisfaction,
    time_to_half_peak,
)
from adaptsim.analysis import (
    METRICS,
    SweepRow,
    churn_total,
    final_adopted_fraction,
    peak_satisfaction,
    smooth_series,
    time_to_stabilization,
)
from adaptsim.config import parse_scenario_document, scenario_to_document
from adaptsim.rng import derive_seed
from adaptsim.schedule import BudgetedCadence


def ref_smooth(series, window):
    """Independent centered moving average with shrinking edge windows."""
    n = len(series)
    out = []
    for i in range(n):
        half = min(window // 2, i, n - 1 - i)
        chunk = series[i - half : i + half + 1]
        out.append(sum(chunk) / len(chunk))
    return out


def ref_slope(smoothed):
    """Independent central differences, one-sided at the ends."""
    n = len(smoothed)
    out = [smoothed[1] - smoothed[0]]
    for i in range(1, n - 1):
        out.append((smoothed[i + 1] - smoothed[i - 1]) / 2.0)
    out.append(smoothed[-1] - smoothed[-2])
    return out


def assert_partition(labels, length):
    assert labels[0].start == 0
    assert labels[-1].end == length
    for a, b in zip(labels, labels[1:]):
        assert a.end == b.start
        assert a.kind is not b.kind
    for lab in labels:
        assert lab.start < lab.end


class TestSmoothingPrimitives:
    def test_smooth_matches_reference(self):
        series = [math.sin(0.3 * t) + 0.05 * t for t in range(40)]
        got = smooth_series(series, 9)
        want = ref_smooth(series, 9)
        assert np.allclose(got, want, atol=1e-12)

    def test_window_one_is_identity(self):
        series = np.asarray([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.array_equal(smooth_series(series, 1), series)

    @pytest.mark.parametrize("window", [-3, -1, 0, 2, 4, 10, 9.0, 3.0, "9", True, np.int64(4)])
    def test_window_must_be_odd_and_positive(self, window):
        with pytest.raises(DomainError, match="window must be an odd positive integer"):
            smooth_series([1.0, 2.0, 3.0], window)
        with pytest.raises(DomainError, match="window must be an odd positive integer"):
            classify_phases([1.0] * 20, window=window)

    def test_a_numpy_integer_window_runs(self):
        series = [math.sin(0.3 * t) + 0.05 * t for t in range(40)]
        assert np.array_equal(smooth_series(series, np.int64(9)), smooth_series(series, 9))
        assert classify_phases(series, window=np.int32(5)) == classify_phases(series, window=5)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 9, 10])
    def test_series_about_as_long_as_the_window(self, n):
        series = [math.sin(0.7 * t) for t in range(n)]
        assert np.allclose(smooth_series(series, 9), ref_smooth(series, 9), atol=1e-12)


class TestClassifyPhases:
    def test_constant_series_is_all_stabilization(self):
        labels = classify_phases([2.0] * 60)
        assert labels == [PhaseLabel(PhaseKind.STABILIZATION, 0, 60)]

    def test_steep_ramp_is_all_rapid_gain(self):
        labels = classify_phases([0.5 * t for t in range(60)])
        assert labels == [PhaseLabel(PhaseKind.RAPID_GAIN, 0, 60)]

    def test_saturating_series_boundaries_from_independent_slopes(self):
        # b + k*(1 - (1-gamma)**t)*g0 with gamma=0.3, g0=2, k=1.
        series = [2.0 * (1.0 - 0.7**t) for t in range(60)]
        labels = classify_phases(series, window=5, theta_hi=0.15, theta_lo=0.01, min_plateau=10)
        assert [lab.kind for lab in labels] == [
            PhaseKind.RAPID_GAIN,
            PhaseKind.DIMINISHING_RETURNS,
            PhaseKind.STABILIZATION,
        ]
        assert_partition(labels, 60)
        # Boundaries recomputed from scratch: the gain ends where the
        # hand-computed smoothed slope first drops below theta_hi, the
        # plateau starts at the first step of the sustained |slope|<=lo run.
        slopes = ref_slope(ref_smooth(series, 5))
        gain_end = next(i for i, s in enumerate(slopes) if s < 0.15)
        plateau_start = next(
            i for i, s in enumerate(slopes) if all(abs(x) <= 0.01 for x in slopes[i:])
        )
        assert labels[0].end == gain_end
        assert labels[1] == PhaseLabel(PhaseKind.DIMINISHING_RETURNS, gain_end, plateau_start)
        assert labels[2] == PhaseLabel(PhaseKind.STABILIZATION, plateau_start, 60)

    def test_spike_after_plateau_is_resurgence(self):
        series = [2.0 * (1.0 - 0.7**t) for t in range(40)]
        series += [series[-1] + 1.5 * (1.0 - 0.7 ** (t + 1)) for t in range(20)]
        labels = classify_phases(series, window=5, theta_hi=0.15, theta_lo=0.01, min_plateau=10)
        kinds = [lab.kind for lab in labels]
        assert PhaseKind.RESURGENCE in kinds
        assert PhaseKind.STABILIZATION in kinds[: kinds.index(PhaseKind.RESURGENCE)]
        assert_partition(labels, 60)

    def test_intervals_partition_any_series(self):
        rng_local = np.random.default_rng(0)
        series = np.cumsum(rng_local.normal(0.05, 0.3, size=120))
        labels = classify_phases(series)
        assert_partition(labels, 120)

    def test_relative_default_thresholds_are_scale_free(self):
        series = [2.0 * (1.0 - 0.7**t) for t in range(60)]
        a = classify_phases(series)
        b = classify_phases([1000.0 * v for v in series])
        assert a == b

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            classify_phases([1.0] * 5, window=9)
        for n, window in ((20, 4), (5, 10)):  # the window is checked before the length
            with pytest.raises(DomainError, match="window must be an odd positive integer"):
                classify_phases([1.0] * n, window=window)
        with pytest.raises(DomainError):
            classify_phases([1.0, float("nan")] * 10)
        with pytest.raises(DomainError):
            classify_phases([1.0] * 20, window=5, theta_hi=0.01, theta_lo=0.15)


def growth_scenario(gamma_lo, gamma_hi, horizon=150, n=200, seed=17, **overrides):
    base = dict(
        horizon=horizon,
        population_size=n,
        segments=(
            Segment(
                name="all",
                fraction=1.0,
                gamma_range=(gamma_lo, gamma_hi),
                bass=BassParams(1.0, 0.0),
                initial_headroom=0.5,
                headroom_jitter=0.0,
            ),
        ),
        schedule=CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=0.3, alpha=0.1),
        satisfaction=SatisfactionParams(k=1.0, b=0.0),
        seed=seed,
    )
    base.update(overrides)
    return Scenario(**base)


class TestSatisfactionGap:
    def test_gamma_zero_gap_is_identically_zero(self):
        out = run(growth_scenario(0.0, 0.0))
        gap = satisfaction_gap(out)
        assert np.allclose(gap, 0.0, atol=1e-9)

    def test_constant_capability_converged_is_zero_by_degenerate_rule(self):
        out = run(
            growth_scenario(
                0.5,
                0.5,
                schedule=CapabilitySchedule(kind="table", values=tuple([2.0] * 150)),
            )
        )
        gap = satisfaction_gap(out)
        assert np.array_equal(gap, np.zeros(150))

    def test_growing_capability_with_adaptation_opens_a_gap(self):
        out = run(growth_scenario(0.3, 0.3))
        gap = satisfaction_gap(out)
        # Independent normalizer.
        def norm(x):
            return (x - x.min()) / (x.max() - x.min())

        want = norm(np.log(out.capability)) - norm(out.mean_satisfaction)
        assert np.allclose(gap, want, atol=1e-12)
        burn = gap[20:]
        assert np.all(burn >= -1e-9)
        # Trendwise nondecreasing: late average dominates early average.
        assert burn[-30:].mean() > burn[:30].mean()
        assert gap.max() > 0.1

    def test_degenerate_inputs_raise(self):
        out = run(growth_scenario(0.1, 0.1))
        short = dataclasses.replace(
            out,
            capability=out.capability[:1],
            participants=out.participants[:1],
            mean_satisfaction=out.mean_satisfaction[:1],
        )
        with pytest.raises(DomainError):
            satisfaction_gap(short)
        nobody = run(
            growth_scenario(
                0.1,
                0.1,
                segments=(
                    Segment(
                        name="all",
                        fraction=1.0,
                        gamma_range=(0.1, 0.1),
                        bass=BassParams(0.0, 0.0),
                        initial_headroom=0.5,
                    ),
                ),
            )
        )
        with pytest.raises(DomainError):
            satisfaction_gap(nobody)


class TestTimeToHalfPeak:
    def test_exact_halving(self):
        series = [0.5**t for t in range(10)]
        assert time_to_half_peak(series, baseline=0.0) == 1

    def test_monotone_series_never_halves(self):
        assert time_to_half_peak(list(range(10)), baseline=0.0) is None

    def test_geometric_decay_over_baseline(self):
        series = [0.3 + 2.0 * 0.9**t for t in range(40)]
        # 0.9**t <= 0.5 first at t = 7.
        assert time_to_half_peak(series, baseline=0.3) == 7

    def test_far_apart_finite_inputs_do_not_overflow(self):
        # peak - baseline is 2e308, past the largest float; the threshold is 0
        series = [1e308, 0.9e308, 0.8e308]
        assert time_to_half_peak(series, baseline=-1e308) is None
        assert time_to_half_peak([x * 1e-308 for x in series], baseline=-1.0) is None

    def test_empty_series_rejected(self):
        with pytest.raises(DomainError):
            time_to_half_peak([], baseline=0.0)
        with pytest.raises(DomainError, match="series must be finite"):
            time_to_half_peak([1.0, math.nan, 0.2], baseline=0.0)

    @pytest.mark.parametrize("baseline", [math.nan, -math.inf, math.inf])
    def test_non_finite_baseline_rejected(self, baseline):
        with pytest.raises(DomainError, match="baseline must be finite"):
            time_to_half_peak([0.5**t for t in range(10)], baseline=baseline)


class TestMetrics:
    def make_run(self):
        return run(
            growth_scenario(
                0.1,
                0.4,
                n=150,
                segments=(
                    Segment(
                        name="all",
                        fraction=1.0,
                        gamma_range=(0.1, 0.4),
                        bass=BassParams(0.1, 0.3),
                        initial_headroom=0.5,
                        headroom_jitter=0.1,
                    ),
                ),
                churn=ChurnParams(s_churn=0.15, eta=0.4, cap=0.3),
                trace_agents=True,
            )
        )

    def test_time_avg_weights_by_participants(self):
        out = self.make_run()
        got = time_avg_active_satisfaction(out)
        # Independent route: sum every traced agent-step satisfaction.
        total = float(np.nansum(out.traces.satisfaction))
        count = int(np.isfinite(out.traces.satisfaction).sum())
        assert count == int(out.participants.sum())
        assert got == pytest.approx(total / count, rel=1e-12)

    def test_adoption_and_churn_totals(self):
        out = self.make_run()
        assert final_adopted_fraction(out) == pytest.approx(
            float(out.frac_active[-1] + out.frac_churned[-1])
        )
        assert churn_total(out) == float(out.frac_churned[-1])
        assert 0.0 < churn_total(out) < 1.0

    def test_peak_satisfaction(self):
        out = self.make_run()
        assert peak_satisfaction(out) == pytest.approx(float(np.nanmax(out.mean_satisfaction)))

    def test_time_to_stabilization_on_rise_then_flat_run(self):
        # gamma=0 keeps satisfaction affine in log capability, so the
        # trajectory rises while the table grows and then goes flat.
        values = tuple(math.exp(min(t, 40) * 0.05) for t in range(150))
        out = run(
            growth_scenario(
                0.0, 0.0, schedule=CapabilitySchedule(kind="table", values=values)
            )
        )
        t = time_to_stabilization(out)
        assert t is not None
        assert 30 <= t <= 50

    def test_time_to_stabilization_on_decay_only_run_is_zero(self):
        # A decaying series has no rapid-gain steps at all; the classifier
        # reports one stabilization interval covering everything.
        out = run(
            growth_scenario(
                0.3,
                0.3,
                schedule=CapabilitySchedule(kind="table", values=tuple([2.0] * 150)),
            )
        )
        assert time_to_stabilization(out) == 0.0

    def test_metrics_on_empty_run_are_none(self):
        out = run(
            growth_scenario(
                0.1,
                0.1,
                segments=(
                    Segment(
                        name="all",
                        fraction=1.0,
                        gamma_range=(0.1, 0.1),
                        bass=BassParams(0.0, 0.0),
                        initial_headroom=0.5,
                    ),
                ),
            )
        )
        assert time_avg_active_satisfaction(out) is None
        assert peak_satisfaction(out) is None

    @pytest.mark.filterwarnings("error")
    def test_peak_satisfaction_of_an_all_nan_series_warns_nothing(self):
        out = self.make_run()
        nan = dataclasses.replace(out, mean_satisfaction=np.full(out.horizon, np.nan))
        assert peak_satisfaction(nan) is None
        spotty = dataclasses.replace(out, mean_satisfaction=np.array([np.nan, 0.25, np.nan, -1.0]))
        assert peak_satisfaction(spotty) == 0.25

    def test_registry_names(self):
        assert set(METRICS) == {
            "time_avg_active_satisfaction",
            "final_adopted_fraction",
            "churn_total",
            "peak_satisfaction",
            "time_to_stabilization",
        }


class TestOptimizeCadence:
    def base(self, gamma=0.2, horizon=100, n=80):
        return growth_scenario(
            gamma,
            gamma,
            horizon=horizon,
            n=n,
            schedule=CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=0.0, alpha=1.0),
            seed=7,
        )

    def test_two_candidate_argmax(self):
        search = CadenceSearch(base=self.base(), total_log_budget=1.5, intervals=(5, 95))
        result = optimize_cadence(search)
        by_hand = {}
        for interval in (5, 95):
            sched = cadence_to_schedule(BudgetedCadence(1.5, interval), 100, c0=1.0)
            out = run(dataclasses.replace(self.base(), schedule=sched))
            by_hand[interval] = time_avg_active_satisfaction(out)
        assert dict(result.table) == pytest.approx(by_hand)
        assert result.best_interval == max(by_hand, key=by_hand.get)

    def test_gamma_one_flat_objective_smallest_interval(self):
        search = CadenceSearch(
            base=self.base(gamma=1.0, n=40), total_log_budget=math.log(8.0), intervals=(50, 25, 10, 5)
        )
        result = optimize_cadence(search)
        objs = [obj for _, obj in result.table]
        assert max(objs) - min(objs) < 1e-9
        assert result.best_interval == 5

    def test_reproducible(self):
        search = CadenceSearch(base=self.base(), total_log_budget=1.0, intervals=(2, 10, 33))
        a = optimize_cadence(search)
        b = optimize_cadence(search)
        assert a == b

    def test_candidate_validation(self):
        base = self.base()
        with pytest.raises(ConfigurationError, match="at least 2 candidate intervals"):
            CadenceSearch(base=base, total_log_budget=1.0, intervals=(5,))
        with pytest.raises(ConfigurationError, match="interval 100 admits no release within horizon 100"):
            CadenceSearch(base=base, total_log_budget=1.0, intervals=(5, 100))
        with pytest.raises(ConfigurationError, match="cadence.interval must be an integer >= 1"):
            CadenceSearch(base=base, total_log_budget=1.0, intervals=(0, 5))
        with pytest.raises(ConfigurationError, match="cadence.total_log_budget must be a positive"):
            CadenceSearch(base=base, total_log_budget=-1.0, intervals=(5, 10))

    def test_candidates_preserve_c0_and_endpoint(self):
        search = CadenceSearch(base=self.base(), total_log_budget=2.0, intervals=(10, 20))
        for sc in search.candidates:
            series = np.asarray(
                [math.exp(sum(r.log_jump for r in sc.schedule.releases if r.time <= t)) for t in range(100)]
            )
            assert sc.schedule.c0 == pytest.approx(1.0)
            assert series[-1] == pytest.approx(math.exp(2.0), rel=1e-12)


def one_dim_spec(lo=0.05, hi=0.4, samples=64, seed=21, name="gamma"):
    return SweepSpec(
        dimensions=(
            SweepDimension(
                name=name,
                paths=(
                    ("population", "segments", 0, "gamma_range", 0),
                    ("population", "segments", 0, "gamma_range", 1),
                ),
                lo=lo,
                hi=hi,
            ),
        ),
        samples=samples,
        seed=seed,
        metrics=("time_avg_active_satisfaction",),
    )


class TestLhsSample:
    def occupancy(self, column, lo, hi, n):
        strata = np.floor((np.asarray(column) - lo) / (hi - lo) * n).astype(int)
        return np.bincount(np.clip(strata, 0, n - 1), minlength=n)

    def test_four_samples_one_per_quarter(self):
        spec = one_dim_spec(lo=0.0, hi=1.0, samples=4)
        matrix = lhs_sample(spec)
        assert matrix.shape == (4, 1)
        assert self.occupancy(matrix[:, 0], 0.0, 1.0, 4).tolist() == [1, 1, 1, 1]

    def test_sixteen_samples_three_dims_exact_occupancy(self):
        dims = tuple(
            SweepDimension(name=n, paths=(("satisfaction", leaf),), lo=lo, hi=hi)
            for n, leaf, lo, hi in (("a", "k", 0.0, 1.0), ("b", "b", -3.0, 5.0), ("c", "lambda", 100.0, 200.0))
        )
        spec = SweepSpec(dimensions=dims, samples=16, seed=3, metrics=("churn_total",))
        matrix = lhs_sample(spec)
        assert matrix.shape == (16, 3)
        for d, dim in enumerate(dims):
            occ = self.occupancy(matrix[:, d], dim.lo, dim.hi, 16)
            assert occ.tolist() == [1] * 16
            assert np.all(matrix[:, d] >= dim.lo) and np.all(matrix[:, d] < dim.hi)

    def test_deterministic_in_seed(self):
        a = lhs_sample(one_dim_spec(seed=5))
        b = lhs_sample(one_dim_spec(seed=5))
        c = lhs_sample(one_dim_spec(seed=6))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dimensions_draw_independent_streams(self):
        # Appending a dimension must not move the first dimension's column.
        solo = one_dim_spec(samples=16, seed=9)
        extra = SweepSpec(
            dimensions=solo.dimensions
            + (SweepDimension(name="k", paths=(("satisfaction", "k"),), lo=0.5, hi=2.0),),
            samples=16,
            seed=9,
            metrics=solo.metrics,
        )
        assert np.array_equal(lhs_sample(solo)[:, 0], lhs_sample(extra)[:, 0])

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            one_dim_spec(samples=1)
        with pytest.raises(ConfigurationError):
            SweepSpec(dimensions=(), samples=4, seed=0, metrics=("churn_total",))
        with pytest.raises(ConfigurationError):
            SweepSpec(
                dimensions=one_dim_spec().dimensions,
                samples=4,
                seed=0,
                metrics=("not_a_metric",),
            )
        with pytest.raises(ConfigurationError):
            SweepDimension(name="x", paths=(("a",),), lo=1.0, hi=1.0)
        dup = one_dim_spec().dimensions + one_dim_spec().dimensions
        with pytest.raises(ConfigurationError):
            SweepSpec(dimensions=dup, samples=4, seed=0, metrics=("churn_total",))

    def test_a_negative_index_is_rejected(self):
        # segments[-1] is segments[0] in a one-segment base: two dimensions
        # would write one leaf, and the row would report the first's value
        lo = SweepDimension(name="lo", paths=(("population", "segments", 0, "gamma_range", 0),), lo=0.05, hi=0.1)
        path = ("population", "segments", -1, "gamma_range", 0)
        again = SweepDimension(name="lo_again", paths=(path,), lo=0.6, hi=0.7)
        with pytest.raises(ConfigurationError) as exc:
            SweepSpec(dimensions=(lo, again), samples=4, seed=0, metrics=("churn_total",))
        assert str(exc.value) == (
            "sweep.dimensions[1].paths[0]: ['population', 'segments', -1, 'gamma_range', 0] "
            "has a negative index; count list items from 0"
        )


def path_str(path) -> str:
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else (f".{key}" if out else str(key))
    return out


def patch_document(document: dict, path, value: float) -> None:
    """Set a numeric leaf in a nested dict/list document, as run_sweep once
    patched each sample's document before parsing all of it; the oracle of
    the sweep tests.

    ``document`` changes in place, and each dict and list below it on the
    path is replaced by a shallow copy first, and each tuple by a list, so
    that a container it shares with another document keeps its values.
    """
    node = document
    walked = []
    for key in path[:-1]:
        walked.append(key)
        try:
            child = node[key]
        except (KeyError, IndexError, TypeError):
            raise ConfigurationError(f"sweep path {path_str(path)}: missing at {path_str(walked)}") from None
        if isinstance(child, (dict, list)):
            child = node[key] = copy.copy(child)
        elif isinstance(child, tuple):
            child = node[key] = list(child)
        node = child
    leaf = path[-1]
    try:
        old = node[leaf]
    except (KeyError, IndexError, TypeError):
        raise ConfigurationError(f"sweep path {path_str(path)}: missing leaf") from None
    if not isinstance(old, (int, float)) or isinstance(old, bool):
        raise ConfigurationError(f"sweep path {path_str(path)}: target is not numeric")
    node[leaf] = value


class TestPatchDocument:
    def doc(self):
        return {"a": {"b": [10, {"c": 2.5}]}, "kind": "table"}

    def test_patches_nested_leaf(self):
        d = self.doc()
        patch_document(d, ("a", "b", 1, "c"), 9.0)
        assert d["a"]["b"][1]["c"] == 9.0
        patch_document(d, ("a", "b", 0), 3.0)
        assert d["a"]["b"][0] == 3.0

    def test_missing_path_reports_prefix(self):
        with pytest.raises(ConfigurationError, match="missing"):
            patch_document(self.doc(), ("a", "nope", "c"), 1.0)
        with pytest.raises(ConfigurationError, match="missing"):
            patch_document(self.doc(), ("a", "b", 5), 1.0)

    def test_a_tuple_on_the_path_becomes_a_patched_list(self):
        pair = (1.0, 2.0)
        d = {"a": {"b": pair}}
        patch_document(d, ("a", "b", 1), 5.0)
        assert d == {"a": {"b": [1.0, 5.0]}} and pair == (1.0, 2.0)

    def test_non_numeric_target_rejected(self):
        with pytest.raises(ConfigurationError, match="not numeric"):
            patch_document(self.doc(), ("kind",), 1.0)


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

SEGMENT = ("population", "segments")
# Sweeps whose rows are compared with whole-document copies: a shipped
# config, each dimension's (paths, lo, hi), and whether some or all rows fail
ORACLE_SWEEPS = {
    "segment_2": ("segments", [([(*SEGMENT, 2, "gamma_range", 1)], 0.0, 0.2)], "some"),
    "bass.p": ("baseline", [([(*SEGMENT, 0, "bass", "p")], 0.3, 0.9)], "some"),
    "fraction": ("segments", [([(*SEGMENT, 1, "fraction")], 0.5, 0.8)], "all"),
    "continuous": ("continuous", [
        ([("schedule", "c0")], -0.5, 2.0),
        ([("schedule", "resource_growth")], -0.2, 0.6),
        ([("schedule", "alpha")], 0.5, 1.5),
    ], "some"),
    "release.log_jump": ("punctuated", [([("schedule", "releases", 3, "log_jump")], -0.5, 1.0)], "some"),
    "satisfaction.k": ("baseline", [([("satisfaction", "k")], -0.5, 1.5)], "some"),
    "churn": ("interventions", [
        ([("churn", "s_churn")], -1.0, 0.5),
        ([("churn", "eta")], -0.3, 1.0),
        ([("churn", "cap")], -0.1, 0.3),
    ], "some"),
    "intervention": ("interventions", [([("interventions", 0, "rho")], 0.5, 1.5)], "some"),
    "two_parts": ("interventions", [
        ([(*SEGMENT, 0, "bass", "p")], 0.3, 0.9),
        ([("interventions", 2, "depth")], 0.5, 1.5),
    ], "some"),
    "gamma_crossing": ("baseline", [
        ([(*SEGMENT, 0, "gamma_range", 0)], 0.0, 0.6),
        ([(*SEGMENT, 0, "gamma_range", 1)], 0.2, 0.8),
    ], "some"),
}

INTEGER = "an integer field; sweep values are reals"
# Sweep paths that run_sweep rejects before any run: a shipped config, the
# path, and the message after "sweep path P: "
REJECTED_PATHS = [
    ("baseline", (*SEGMENT, 3, "gamma_range", 1), "missing at population.segments[3]"),
    ("baseline", (*SEGMENT, 0, "gamma"), "missing leaf"),
    ("baseline", (*SEGMENT, 0, "name"), "target is not numeric"),
    # a Latin-hypercube value is a float, so every row of an integer field would fail
    ("baseline", ("horizon",), INTEGER),
    ("baseline", ("population", "size"), INTEGER),
    ("punctuated", ("schedule", "releases", 3, "time"), INTEGER),
    ("interventions", ("interventions", 0, "schedule", "start"), INTEGER),
    ("interventions", ("interventions", 1, "schedule", "at"), INTEGER),
    ("interventions", ("interventions", 2, "duration"), INTEGER),
]


class TestRunSweep:
    def deterministic_base_doc(self):
        # Everyone adopts at t=0, no churn, zero jitter: the derived
        # per-sample seeds have nothing left to influence.
        return scenario_to_document(growth_scenario(0.2, 0.2, horizon=60, n=30))

    def test_zero_width_dimension_gives_identical_rows(self):
        spec = one_dim_spec(lo=0.2, hi=0.2 + 1e-12, samples=6)
        rows = run_sweep(spec, self.deterministic_base_doc())
        assert [r.index for r in rows] == list(range(6))
        vals = [r.metrics["time_avg_active_satisfaction"] for r in rows]
        assert all(r.error is None for r in rows)
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], abs=1e-9)

    def test_rows_track_sampled_values(self):
        spec = one_dim_spec(samples=8)
        rows = run_sweep(spec, self.deterministic_base_doc())
        matrix = lhs_sample(spec)
        for row in rows:
            assert row.values == tuple(matrix[row.index])
            assert row.error is None
            assert isinstance(row.metrics["time_avg_active_satisfaction"], float)

    def test_faster_adaptation_lowers_average_satisfaction(self):
        spec = one_dim_spec(samples=16)
        rows = run_sweep(spec, self.deterministic_base_doc())
        gammas = [r.values[0] for r in rows]
        means = [r.metrics["time_avg_active_satisfaction"] for r in rows]
        order = np.argsort(gammas)
        sorted_means = np.asarray(means)[order]
        assert np.all(np.diff(sorted_means) < 0.0)

    def test_failed_samples_recorded_without_stopping(self):
        spec = SweepSpec(
            dimensions=(
                SweepDimension(
                    name="p",
                    paths=(("population", "segments", 0, "bass", "p"),),
                    lo=0.55,
                    hi=0.85,
                ),
            ),
            samples=6,
            seed=2,
            metrics=("time_avg_active_satisfaction", "churn_total"),
        )
        doc = self.deterministic_base_doc()
        doc["population"]["segments"][0]["bass"] = {"p": 0.1, "q": 0.3}
        rows = run_sweep(spec, doc)
        # q=0.3 caps p at 0.7: samples above fail, the rest still run.
        expected_bad = [r.values[0] > 0.7 for r in rows]
        assert any(expected_bad) and not all(expected_bad)
        for row, bad in zip(rows, expected_bad):
            if bad:
                assert row.error is not None and "bass" in row.error
                assert row.metrics == {
                    "time_avg_active_satisfaction": None,
                    "churn_total": None,
                }
            else:
                assert row.error is None
                assert row.metrics["churn_total"] == 0.0

    def test_other_exceptions_are_recorded_without_stopping(self, monkeypatch):
        calls = []

        def flaky_run(scenario, report=True):
            calls.append(scenario)
            if len(calls) in (2, 4):
                raise MemoryError() if len(calls) == 2 else ValueError("bad value")
            return run(scenario, report=report)

        monkeypatch.setattr(analysis, "run", flaky_run)
        rows = run_sweep(one_dim_spec(samples=5), self.deterministic_base_doc())
        assert [r.error for r in rows] == [None, "MemoryError", None, "ValueError: bad value", None]
        for row in rows:
            assert (row.metrics["time_avg_active_satisfaction"] is None) == (row.error is not None)

    def test_concurrent_matches_sequential(self):
        spec = one_dim_spec(samples=12)
        doc = self.deterministic_base_doc()
        seq = run_sweep(spec, doc, workers=1)
        par = run_sweep(spec, doc, workers=4)
        assert seq == par

    @pytest.mark.parametrize("workers", [0, -1, True, 2.5, "2", None])
    def test_fewer_than_one_worker_is_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="workers must be an integer >= 1"):
            run_sweep(one_dim_spec(samples=4), self.deterministic_base_doc(), workers)

    @pytest.mark.parametrize("workers, sizes", [(1, [3, 3, 3, 1]), (2, [2, 2, 2, 2, 2]), (3, [1] * 10)])
    def test_samples_go_in_about_four_chunks_a_worker(self, workers, sizes, monkeypatch):
        chunks = []

        def recording_map(fn, items, workers):
            chunks.extend(items)
            return engine.map_ordered(fn, items, workers)

        monkeypatch.setattr(analysis, "map_ordered", recording_map)
        run_sweep(one_dim_spec(samples=10), self.deterministic_base_doc(), workers)
        assert [len(chunk) for chunk in chunks] == sizes

    def whole_copy_rows(self, spec, base):
        """The rows as run_sweep built them from a deep copy of the base per sample."""
        matrix = lhs_sample(spec)
        rows = []
        for i in range(spec.samples):
            doc = copy.deepcopy(base)
            for d, dim in enumerate(spec.dimensions):
                for path in dim.paths:
                    patch_document(doc, path, float(matrix[i, d]))
            doc["seed"] = derive_seed(spec.seed, i)
            try:
                out = run(parse_scenario_document(doc))
                metrics, error = {m: METRICS[m](out) for m in spec.metrics}, None
            except (ConfigurationError, DomainError) as exc:
                metrics, error = dict.fromkeys(spec.metrics), str(exc)
            rows.append(SweepRow(i, tuple(float(v) for v in matrix[i]), metrics, error))
        return rows

    def test_rows_match_whole_document_copies_and_leave_the_base(self):
        doc = self.deterministic_base_doc()
        doc["population"]["segments"][0]["bass"] = {"p": 0.1, "q": 0.3}
        # gamma_range 0 and 1 share a prefix, and p is on the same segment;
        # q = 0.3 caps p at 0.7, so some rows fail
        gamma = one_dim_spec().dimensions[0]
        p = SweepDimension(name="p", paths=(("population", "segments", 0, "bass", "p"),), lo=0.4, hi=0.9)
        spec = SweepSpec(dimensions=(gamma, p), samples=12, seed=5, metrics=tuple(METRICS))
        before = copy.deepcopy(doc)
        rows = run_sweep(spec, doc)
        assert doc == before
        assert rows == self.whole_copy_rows(spec, before)
        assert any(r.error for r in rows) and not all(r.error for r in rows)

    def oracle_sweep(self, name, dimensions, metrics=tuple(METRICS)):
        """A 40-agent copy of a shipped config, and a spec over ``dimensions``."""
        doc = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
        doc["population"]["size"] = 40
        dims = tuple(
            SweepDimension(name=f"x{d}", paths=tuple(paths), lo=lo, hi=hi)
            for d, (paths, lo, hi) in enumerate(dimensions)
        )
        return doc, SweepSpec(dimensions=dims, samples=8, seed=3, metrics=metrics)

    @pytest.mark.parametrize("name, dimensions, failing", ORACLE_SWEEPS.values(), ids=ORACLE_SWEEPS)
    def test_rows_match_whole_document_copies_in_every_part(self, name, dimensions, failing):
        doc, spec = self.oracle_sweep(name, dimensions)
        before = copy.deepcopy(doc)
        rows = run_sweep(spec, doc)
        assert doc == before
        assert rows == self.whole_copy_rows(spec, before)
        failed = [r.error is not None for r in rows]
        assert all(failed) if failing == "all" else any(failed) and not all(failed)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["segments_first", "interventions_first"])
    def test_two_failing_parts_report_the_one_a_parse_reads_first(self, order):
        # the segments are read before the interventions, so a row that
        # breaks both reports its segment, whichever dimension comes first
        name, dimensions, _ = ORACLE_SWEEPS["two_parts"]
        doc, spec = self.oracle_sweep(name, [dimensions[d] for d in order], ("churn_total",))
        kinds = {}
        for row in run_sweep(spec, doc):
            values = dict(zip(order, row.values))
            p, depth = values[0], values[1]  # p + q > 1 past 0.62; a depth of 1 or more is out of range
            kinds[p > 0.62, depth >= 1.0] = row.error.split(":")[0] if row.error else None
        assert kinds == {
            (False, False): None,
            (True, False): "population.segments[0].bass",
            (False, True): "interventions[2]",
            (True, True): "population.segments[0].bass",
        }

    def test_the_base_is_parsed_once(self, monkeypatch):
        calls = []
        parse = config.parse_scenario_document
        monkeypatch.setattr(config, "parse_scenario_document", lambda doc: calls.append(doc) or parse(doc))
        rows = run_sweep(one_dim_spec(samples=6), self.deterministic_base_doc(), workers=2)
        assert len(calls) == 1 and all(r.error is None for r in rows)

    def test_the_sweep_command_parses_its_base_once(self, monkeypatch, tmp_path):
        calls = []
        parse = config.parse_scenario_document

        def counted(doc):
            calls.append(doc)
            return parse(doc)

        for module in list(sys.modules.values()):  # every name the package binds it to
            if module.__name__.startswith("adaptsim") and getattr(module, "parse_scenario_document", None) is parse:
                monkeypatch.setattr(module, "parse_scenario_document", counted)
        argv = ["sweep", "--config", str(CONFIGS / "baseline.json"), "--sweep", str(CONFIGS / "sweep_gamma.json"),
                "--out", str(tmp_path / "sweep.csv")]
        assert cli.main(argv) == 0
        assert len(calls) == 1

    def test_an_aliased_base_is_not_mutated(self):
        doc = self.deterministic_base_doc()
        segment = doc["population"]["segments"][0]
        doc["population"]["segments"] = [{**segment, "name": "a", "fraction": 0.5},
                                         {**segment, "name": "b", "fraction": 0.5}]
        shared = doc["population"]["segments"][0]["gamma_range"]
        assert doc["population"]["segments"][1]["gamma_range"] is shared
        before = copy.deepcopy(doc)
        rows = run_sweep(one_dim_spec(samples=4), doc)
        assert all(r.error is None for r in rows)
        assert doc == before and doc["population"]["segments"][1]["gamma_range"] is shared

    @pytest.mark.parametrize("tupled", ["gamma_range", "segments"])
    def test_a_tuple_on_a_path_runs_as_its_list(self, tupled):
        listed = self.deterministic_base_doc()
        doc = copy.deepcopy(listed)
        population = doc["population"]
        if tupled == "gamma_range":
            population["segments"][0]["gamma_range"] = (0.2, 0.2)
        else:
            population["segments"] = tuple(population["segments"])
        assert doc != listed
        before = copy.deepcopy(doc)
        spec = one_dim_spec(samples=6)
        rows = run_sweep(spec, doc)
        assert all(r.error is None for r in rows)
        assert rows == run_sweep(spec, listed)
        assert doc == before

    def test_a_tuple_off_the_paths_runs_as_its_list(self):
        # only the containers on a swept path were once read as lists
        listed, spec = self.oracle_sweep("interventions", [([("satisfaction", "k")], 0.5, 1.5)])
        doc = {**listed, "interventions": tuple(listed["interventions"])}
        before = copy.deepcopy(doc)
        rows = run_sweep(spec, doc)
        assert all(r.error is None for r in rows)
        assert rows == run_sweep(spec, listed)
        assert doc == before

    @pytest.mark.parametrize("name, path, message", REJECTED_PATHS, ids=[path_str(p) for _, p, _ in REJECTED_PATHS])
    def test_a_missing_path_fails_before_any_run(self, monkeypatch, name, path, message):
        calls = []
        monkeypatch.setattr(analysis, "run", lambda scenario, report=True: calls.append(scenario))
        doc, spec = self.oracle_sweep(name, [([(*SEGMENT, 0, "gamma_range", 0)], 0.1, 0.2), ([path], 0.1, 0.2)])
        before = copy.deepcopy(doc)
        with pytest.raises(ConfigurationError) as exc:
            run_sweep(spec, doc)
        assert str(exc.value) == f"sweep path {path_str(path)}: {message}"
        assert calls == [] and doc == before

    @pytest.mark.parametrize("breakage", ["swept_leaf", "no_schedule", "list", "none", "string", "no_seed"])
    def test_a_base_that_does_not_parse_fails_before_any_run(self, monkeypatch, breakage):
        # the base is parsed once, as given, before its paths are checked
        # and before any sample sets its leaves
        calls = []
        monkeypatch.setattr(analysis, "run", lambda scenario, report=True: calls.append(scenario))
        doc = self.deterministic_base_doc()
        spec = one_dim_spec(samples=4)
        if breakage == "swept_leaf":
            doc["population"]["segments"][0]["gamma_range"] = [0.5, 0.1]
        elif breakage == "no_schedule":  # and a path that reaches no leaf: the parse fails first
            del doc["schedule"]
            nowhere = SweepDimension(name="x", paths=(("population", "nowhere"),), lo=0.1, hi=0.2)
            spec = dataclasses.replace(spec, dimensions=(*spec.dimensions, nowhere))
        elif breakage == "no_seed":  # unused, as each sample derives its own, but required
            del doc["seed"]
        else:
            doc = {"list": [], "none": None, "string": "scenario"}[breakage]
        with pytest.raises(ConfigurationError) as parsed:
            parse_scenario_document(doc)
        with pytest.raises(ConfigurationError) as swept:
            run_sweep(spec, doc)
        assert str(swept.value) == str(parsed.value)
        assert calls == []


class TestTracedBase:
    """Sweep samples and cadence candidates run without report, so a traced
    base keeps no traces and gives the rows of the same base untraced."""

    @staticmethod
    def bases(name):
        doc = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
        doc["population"]["size"] = 200
        return [{**doc, "trace_agents": trace} for trace in (False, True)]

    @staticmethod
    def kept_traces(monkeypatch, attr):
        """The traces of every output of analysis.<attr>, as it is called."""
        kept = []
        fn = getattr(analysis, attr)

        def recording(given, report=True):  # a scenario or a list of them
            outs = fn(given, report=report)
            kept.extend(out.traces for out in (outs if isinstance(outs, list) else [outs]))
            return outs

        monkeypatch.setattr(analysis, attr, recording)
        return kept

    @pytest.mark.parametrize("name", ["baseline", "interventions"])
    def test_a_traced_base_sweeps_to_the_same_rows(self, monkeypatch, name):
        spec = analysis.parse_sweep_document(
            {**json.loads((CONFIGS / "sweep_gamma.json").read_text(encoding="utf-8")), "samples": 16}
        )
        untraced, traced = self.bases(name)
        kept = self.kept_traces(monkeypatch, "run")
        assert run_sweep(spec, traced) == run_sweep(spec, untraced)
        assert kept == [None] * 32

    @pytest.mark.parametrize("name", ["baseline", "interventions"])
    def test_a_traced_base_gives_the_same_cadence_table(self, monkeypatch, name):
        untraced, traced = (parse_scenario_document(doc) for doc in self.bases(name))
        assert traced.trace_agents and not untraced.trace_agents
        kept = self.kept_traces(monkeypatch, "run_many")
        results = [optimize_cadence(CadenceSearch(base, 1.5, range(4, 12))) for base in (traced, untraced)]
        assert results[0] == results[1]
        assert kept == [None] * 16
