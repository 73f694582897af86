"""Schedule construction and evaluation against cumulative-product oracles."""

import math
import warnings

import numpy as np
import pytest

from adaptsim import BudgetedCadence, CapabilitySchedule, ConfigurationError, Release, cadence_to_schedule
from adaptsim.schedule import SCHEDULE_KEYS, capability_at, capability_series


def punctuated(c0, *releases):
    return CapabilitySchedule(
        kind="punctuated", c0=c0, releases=tuple(Release(t, j) for t, j in releases)
    )


class TestCapabilityAt:
    def test_initial_condition_every_kind(self):
        cont = CapabilitySchedule(kind="continuous", c0=2.5, resource_growth=0.1, alpha=0.08)
        punct = punctuated(2.5, (10, math.log(2.0)))
        hybrid = CapabilitySchedule(
            kind="hybrid",
            c0=2.5,
            resource_growth=0.1,
            alpha=0.08,
            releases=(Release(10, math.log(2.0)),),
        )
        table = CapabilitySchedule(kind="table", values=(2.5, 3.0, 3.5))
        for sched in (cont, punct, hybrid, table):
            assert capability_at(sched, 0) == pytest.approx(2.5, rel=1e-12)

    def test_two_doublings(self):
        sched = punctuated(1.0, (10, math.log(2.0)), (20, math.log(2.0)))
        assert capability_at(sched, 25) == pytest.approx(4.0, rel=1e-12)
        assert capability_at(sched, 9) == pytest.approx(1.0, rel=1e-12)
        assert capability_at(sched, 10) == pytest.approx(2.0, rel=1e-12)
        assert capability_at(sched, 19) == pytest.approx(2.0, rel=1e-12)

    def test_continuous_golden_value(self):
        sched = CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=0.1, alpha=0.08)
        want = math.exp(10 * math.log(1.1) * 0.08)
        assert capability_at(sched, 10) == pytest.approx(want, rel=1e-12)
        assert capability_at(sched, 10) == pytest.approx(1.0792, abs=5e-5)

    def test_hybrid_is_product_of_mechanisms(self):
        releases = ((5, 0.4), (12, 0.3))
        hybrid = CapabilitySchedule(
            kind="hybrid",
            c0=2.0,
            resource_growth=0.07,
            alpha=0.1,
            releases=tuple(Release(t, j) for t, j in releases),
        )
        cont = CapabilitySchedule(kind="continuous", c0=2.0, resource_growth=0.07, alpha=0.1)
        punct = punctuated(2.0, *releases)
        for t in range(20):
            want = capability_at(cont, t) * capability_at(punct, t) / 2.0
            assert capability_at(hybrid, t) == pytest.approx(want, rel=1e-12)

    def test_table_lookup(self):
        sched = CapabilitySchedule(kind="table", values=(1.0, 4.0, 2.0))
        assert [capability_at(sched, t) for t in range(3)] == [1.0, 4.0, 2.0]

    def test_out_of_range_is_index_error(self):
        sched = CapabilitySchedule(kind="table", values=(1.0, 2.0))
        with pytest.raises(IndexError):
            capability_at(sched, 2)
        with pytest.raises(IndexError):
            capability_at(sched, -1)


class TestCapabilitySeries:
    def test_matches_pointwise_evaluation(self):
        scheds = [
            CapabilitySchedule(kind="continuous", c0=1.5, resource_growth=0.2, alpha=0.08),
            punctuated(1.0, (3, 0.5), (7, 0.25)),
            CapabilitySchedule(
                kind="hybrid", c0=1.0, resource_growth=0.05, alpha=0.5, releases=(Release(4, 0.7),)
            ),
            CapabilitySchedule(kind="table", values=tuple(float(1 + t) for t in range(12))),
        ]
        for sched in scheds:
            series = capability_series(sched, 12)
            for t in range(12):
                assert series[t] == capability_at(sched, t)

    def test_positive_and_nondecreasing_without_table_dips(self):
        for sched in (
            CapabilitySchedule(kind="continuous", c0=0.5, resource_growth=0.3, alpha=0.1),
            punctuated(0.5, (2, 0.1), (9, 2.0)),
            CapabilitySchedule(
                kind="hybrid", c0=0.5, resource_growth=0.3, alpha=0.1, releases=(Release(2, 0.1),)
            ),
        ):
            series = capability_series(sched, 30)
            assert np.all(series > 0.0)
            assert np.all(np.diff(series) >= 0.0)

    def test_table_length_must_match_horizon(self):
        sched = CapabilitySchedule(kind="table", values=(1.0, 2.0, 3.0))
        with pytest.raises(ConfigurationError):
            capability_series(sched, 5)

    def test_release_outside_horizon_rejected(self):
        sched = punctuated(1.0, (40, 0.5))
        with pytest.raises(ConfigurationError):
            capability_series(sched, 30)

    def test_overflow_is_config_error_at_any_step(self):
        # ln C(t) = 10 t passes ln(float max) = 709.78 at step 71
        sched = CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=math.expm1(10.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert capability_at(sched, 70) == capability_series(sched, 71)[70]
            for over in (lambda: capability_at(sched, 71), lambda: capability_series(sched, 72)):
                with pytest.raises(ConfigurationError, match="overflows at step 71"):
                    over()


# a valid value of each field that some kind reads
VALID_FIELDS = {
    "c0": 2.0,
    "resource_growth": 0.1,
    "alpha": 0.5,
    "releases": (Release(1, 0.5),),
    "values": (1.0, 2.0),
}


class TestScheduleValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            CapabilitySchedule(kind="linear")

    def test_nonpositive_c0(self):
        with pytest.raises(ConfigurationError):
            CapabilitySchedule(kind="continuous", c0=0.0, resource_growth=0.1, alpha=0.1)

    def test_release_times_strictly_increasing(self):
        with pytest.raises(ConfigurationError):
            punctuated(1.0, (5, 0.1), (5, 0.1))
        with pytest.raises(ConfigurationError):
            punctuated(1.0, (7, 0.1), (5, 0.1))

    def test_release_jump_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Release(3, 0.0)
        with pytest.raises(ConfigurationError):
            Release(3, -0.5)

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            (kind, key, value)
            for kind, keys in SCHEDULE_KEYS.items()
            for key, valid in VALID_FIELDS.items()
            if key not in keys
            for value in (valid, "x", float("nan"))
            if key not in ("releases", "values") or value is valid
        ],
    )
    def test_a_field_its_kind_does_not_read_keeps_its_default(self, kind, key, value):
        # the kind's own keys are valid; a field outside them is named, not ignored
        own = {k: v for k, v in VALID_FIELDS.items() if k in SCHEDULE_KEYS[kind]}
        CapabilitySchedule(kind=kind, **own, **{key: getattr(CapabilitySchedule, key)})
        with pytest.raises(ConfigurationError, match=rf"^schedule\.{key}: a {kind} schedule takes no {key}$"):
            CapabilitySchedule(kind=kind, **own, **{key: value})

    def test_table_values_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            CapabilitySchedule(kind="table", values=(1.0, 0.0, 2.0))


class TestCadence:
    def test_ln8_over_interval_25(self):
        sched = cadence_to_schedule(BudgetedCadence(math.log(8.0), 25), horizon=100, c0=1.0)
        assert [r.time for r in sched.releases] == [25, 50, 75]
        for r in sched.releases:
            assert r.log_jump == pytest.approx(math.log(2.0), rel=1e-12)
        assert capability_at(sched, 99) == pytest.approx(8.0, rel=1e-12)

    def test_degenerate_single_release(self):
        sched = cadence_to_schedule(BudgetedCadence(1.7, 99), horizon=100, c0=2.0)
        assert [r.time for r in sched.releases] == [99]
        assert sched.releases[0].log_jump == pytest.approx(1.7, rel=1e-12)
        assert capability_at(sched, 99) == pytest.approx(2.0 * math.exp(1.7), rel=1e-12)

    def test_ten_releases_with_cumulative_oracle(self):
        sched = cadence_to_schedule(BudgetedCadence(1.0, 10), horizon=101, c0=1.0)
        assert len(sched.releases) == 10
        series = capability_series(sched, 101)
        # Independent oracle: running product over a hand-built jump list.
        level = 1.0
        for t in range(101):
            if t > 0 and t % 10 == 0:
                level *= math.exp(0.1)
            assert series[t] == pytest.approx(level, rel=1e-12)

    def test_budget_conservation_across_intervals(self):
        horizon, budget = 200, 2.0
        finals = []
        for interval in (1, 2, 5, 10, 25, 50, 100, 199):
            sched = cadence_to_schedule(BudgetedCadence(budget, interval), horizon, c0=3.0)
            assert sum(r.log_jump for r in sched.releases) == pytest.approx(budget, rel=1e-12)
            finals.append(capability_at(sched, horizon - 1))
        want = 3.0 * math.exp(budget)
        for f in finals:
            assert f == pytest.approx(want, rel=1e-12)

    def test_zero_releases_rejected(self):
        with pytest.raises(ConfigurationError):
            cadence_to_schedule(BudgetedCadence(1.0, 100), horizon=100, c0=1.0)

    def test_equal_endpoint_fairness_continuous_vs_punctuated(self):
        # A continuous schedule and a cadence spending the same total log
        # growth must land on the same final capability.
        horizon, total = 200, 7 * math.log(2.0)
        alpha = 0.08
        rho = math.exp(total / ((horizon - 1) * alpha)) - 1.0
        cont = CapabilitySchedule(kind="continuous", c0=1.0, resource_growth=rho, alpha=alpha)
        punct = cadence_to_schedule(BudgetedCadence(total, 25), horizon, c0=1.0)
        a = capability_at(cont, horizon - 1)
        b = capability_at(punct, horizon - 1)
        assert abs(a - b) / a < 1e-9

    def test_cadence_validation(self):
        with pytest.raises(ConfigurationError):
            BudgetedCadence(0.0, 10)
        with pytest.raises(ConfigurationError):
            BudgetedCadence(1.0, 0)
