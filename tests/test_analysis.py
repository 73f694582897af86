"""Analytics: phase labeling, gap metric, cadence search, LHS sweeps."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from adaptsim import analysis
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
    patch_document,
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

    @pytest.mark.parametrize("window", [-3, -1, 0, 2, 4, 10])
    def test_window_must_be_odd_and_positive(self, window):
        with pytest.raises(DomainError, match="window must be an odd positive integer"):
            smooth_series([1.0, 2.0, 3.0], window)

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
        with pytest.raises(DomainError):
            classify_phases([1.0] * 20, window=4)
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
            SweepDimension(name=n, paths=(("satisfaction", "k"),), lo=lo, hi=hi)
            for n, lo, hi in (("a", 0.0, 1.0), ("b", -3.0, 5.0), ("c", 100.0, 200.0))
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

    def test_non_numeric_target_rejected(self):
        with pytest.raises(ConfigurationError, match="not numeric"):
            patch_document(self.doc(), ("kind",), 1.0)


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

        def flaky_run(scenario):
            calls.append(scenario)
            if len(calls) in (2, 4):
                raise MemoryError() if len(calls) == 2 else ValueError("bad value")
            return run(scenario)

        monkeypatch.setattr(analysis, "run", flaky_run)
        rows = run_sweep(one_dim_spec(samples=5), self.deterministic_base_doc())
        assert [r.error for r in rows] == [None, "MemoryError", None, "ValueError: bad value", None]
        for row in rows:
            assert (row.metrics["time_avg_active_satisfaction"] is None) == (row.error is not None)

    def test_concurrent_matches_sequential(self):
        spec = one_dim_spec(samples=12)
        doc = self.deterministic_base_doc()
        seq = run_sweep(spec, doc, workers=None)
        par = run_sweep(spec, doc, workers=4)
        assert seq == par

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

    @pytest.mark.parametrize("path, message", [
        (("population", "segments", 3, "gamma_range", 1),
         "sweep path population.segments[3].gamma_range[1]: missing at population.segments[3]"),
        (("population", "segments", 0, "gamma"), "sweep path population.segments[0].gamma: missing leaf"),
        (("population", "segments", 0, "name"), "sweep path population.segments[0].name: target is not numeric"),
    ])
    def test_a_missing_path_fails_before_any_run(self, monkeypatch, path, message):
        calls = []
        monkeypatch.setattr(analysis, "run", calls.append)
        gamma = one_dim_spec().dimensions[0]
        broken = SweepDimension(name="x", paths=(path,), lo=0.1, hi=0.2)
        spec = SweepSpec(dimensions=(gamma, broken), samples=4, seed=5, metrics=("churn_total",))
        doc = self.deterministic_base_doc()
        before = copy.deepcopy(doc)
        with pytest.raises(ConfigurationError) as exc:
            run_sweep(spec, doc)
        assert str(exc.value) == message
        assert calls == [] and doc == before

    def test_broken_base_document_fails_in_every_row(self):
        # each sample parses its own patched document; the CLI parses the base
        doc = self.deterministic_base_doc()
        del doc["schedule"]
        rows = run_sweep(one_dim_spec(samples=4), doc)
        assert [r.error for r in rows] == ["scenario.schedule: missing required key"] * 4
        assert all(v is None for r in rows for v in r.metrics.values())
