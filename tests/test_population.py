"""Population construction: allocation arithmetic, determinism, draw isolation."""

from pathlib import Path

import numpy as np
import pytest

from adaptsim import BassParams, ConfigurationError, Segment
from adaptsim.config import load_scenario
from adaptsim.population import POTENTIAL, allocate_counts, build_population, check_fractions

# the standard three-segment market mix
PRESET = load_scenario(Path(__file__).resolve().parents[1] / "configs" / "segments.json").segments


def one_segment(**overrides):
    base = dict(
        name="only",
        fraction=1.0,
        gamma_range=(0.1, 0.3),
        bass=BassParams(0.05, 0.3),
        initial_headroom=0.5,
        headroom_jitter=0.1,
    )
    base.update(overrides)
    return Segment(**base)


class TestAllocation:
    def test_single_segment_gets_everything(self):
        assert allocate_counts([1.0], 10) == [10]

    def test_exact_proportions(self):
        assert allocate_counts([0.5, 0.3, 0.2], 10) == [5, 3, 2]

    def test_thirds_largest_remainder(self):
        # 10/3 = 3.33..; equal remainders, index tie-break gives the
        # extra agent to the first segment.
        assert allocate_counts([1 / 3, 1 / 3, 1 / 3], 10) == [4, 3, 3]

    def test_counts_always_sum_to_n(self):
        cases = [
            ([0.16, 0.68, 0.16], 7),
            ([0.16, 0.68, 0.16], 5000),
            ([0.61, 0.29, 0.10], 13),
            ([0.5, 0.5], 1),
            ([0.9999, 0.0001], 3),
        ]
        for fractions, n in cases:
            counts = allocate_counts(fractions, n)
            assert sum(counts) == n
            assert all(c >= 0 for c in counts)

    def test_fraction_sum_enforced(self):
        bad = (
            one_segment(name="a", fraction=0.6),
            one_segment(name="b", fraction=0.3),
        )
        with pytest.raises(ConfigurationError):
            check_fractions(bad)

    def test_fraction_sum_tolerance(self):
        ok = (
            one_segment(name="a", fraction=1 / 3),
            one_segment(name="b", fraction=1 / 3),
            one_segment(name="c", fraction=1 / 3),
        )
        check_fractions(ok)


class TestSegmentValidation:
    def test_gamma_range_bounds(self):
        with pytest.raises(ConfigurationError):
            one_segment(gamma_range=(-0.1, 0.3))
        with pytest.raises(ConfigurationError):
            one_segment(gamma_range=(0.1, 1.2))
        with pytest.raises(ConfigurationError):
            one_segment(gamma_range=(0.5, 0.2))

    def test_headroom_zero_is_allowed(self):
        # An agent may start exactly at its reference point.
        seg = one_segment(initial_headroom=0.0, headroom_jitter=0.0)
        pop = build_population((seg,), 5, 1, log_c0=2.0)
        assert np.allclose(pop.log_r, 2.0)

    def test_negative_headroom_rejected(self):
        with pytest.raises(ConfigurationError):
            one_segment(initial_headroom=-0.1)
        with pytest.raises(ConfigurationError):
            one_segment(headroom_jitter=-0.1)


class TestBuildPopulation:
    def test_rebuild_is_field_identical(self):
        segs = PRESET
        a = build_population(segs, 500, 99, log_c0=0.3)
        b = build_population(segs, 500, 99, log_c0=0.3)
        for name in ("segment_index", "gamma", "log_r", "state"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seed_changes_draws(self):
        segs = (one_segment(),)
        a = build_population(segs, 100, 1, log_c0=0.0)
        b = build_population(segs, 100, 2, log_c0=0.0)
        assert not np.array_equal(a.gamma, b.gamma)

    def test_gamma_within_declared_range(self):
        segs = PRESET
        pop = build_population(segs, 2000, 7, log_c0=0.0)
        for idx, seg in enumerate(segs):
            lane = pop.gamma[pop.segment_index == idx]
            assert lane.size > 0
            assert np.all((lane >= seg.gamma_range[0]) & (lane <= seg.gamma_range[1]))

    def test_initial_gap_within_jitter_band(self):
        seg = one_segment(initial_headroom=0.4, headroom_jitter=0.15)
        log_c0 = 1.0
        pop = build_population((seg,), 2000, 11, log_c0=log_c0)
        gaps = log_c0 - pop.log_r
        assert np.all(gaps >= 0.4 - 0.15 - 1e-12)
        assert np.all(gaps <= 0.4 + 0.15 + 1e-12)
        # The band is actually explored, not collapsed to the mean.
        assert gaps.max() - gaps.min() > 0.2

    def test_all_agents_start_potential(self):
        pop = build_population(PRESET, 50, 3, log_c0=0.0)
        assert np.all(pop.state == POTENTIAL)

    def test_per_agent_draws_independent_of_population_size(self):
        # Agent i's draws are keyed on its id, so growing the population
        # must not disturb the first agents' values.
        seg = (one_segment(),)
        small = build_population(seg, 5, 21, log_c0=0.0)
        large = build_population(seg, 50, 21, log_c0=0.0)
        assert np.array_equal(small.gamma, large.gamma[:5])
        assert np.array_equal(small.log_r, large.log_r[:5])

    def test_segment_counts_match_allocation(self):
        segs = PRESET
        pop = build_population(segs, 137, 5, log_c0=0.0)
        want = allocate_counts([s.fraction for s in segs], 137)
        got = [int(np.sum(pop.segment_index == i)) for i in range(len(segs))]
        assert got == want


class TestDefaultSegments:
    def test_preset_shape(self):
        segs = PRESET
        assert [s.name for s in segs] == ["early", "mainstream", "late"]
        assert [s.fraction for s in segs] == [0.16, 0.68, 0.16]
        # Early adopters adapt fastest and adopt most readily; late the
        # opposite; innovation coefficients are spaced tenfold.
        assert segs[0].gamma_range == (0.25, 0.45)
        assert segs[1].gamma_range == (0.10, 0.25)
        assert segs[2].gamma_range == (0.02, 0.10)
        assert segs[0].bass.p == pytest.approx(10 * segs[1].bass.p)
        assert segs[2].bass.p == pytest.approx(segs[1].bass.p / 10)
        check_fractions(segs)

