"""Unit checks of the closed-form kernels against hand-computed values."""

import math

import numpy as np
import pytest

from adaptsim import BassParams, ChurnParams, ConfigurationError, SatisfactionParams
from adaptsim.kernels import (
    bass_hazard,
    churn_probability,
    log_satisfaction,
    update_reference,
)


class TestSatisfaction:
    def test_zero_gap_returns_intercept(self):
        for k, b, lam in [(1.0, 0.0, 2.25), (3.0, -1.5, 2.0), (0.25, 10.0, 5.0)]:
            params = SatisfactionParams(k=k, b=b, loss_aversion=lam)
            assert log_satisfaction(0.7, 0.7, params) == b

    def test_gain_of_ln2(self):
        params = SatisfactionParams(k=1.0, b=0.0, loss_aversion=2.0)
        assert log_satisfaction(math.log(2.0), 0.0, params) == pytest.approx(
            0.693147, abs=1e-6
        )

    def test_loss_of_ln2_scales_by_loss_aversion(self):
        params = SatisfactionParams(k=1.0, b=0.0, loss_aversion=2.0)
        assert log_satisfaction(-math.log(2.0), 0.0, params) == pytest.approx(
            -1.386294, abs=1e-6
        )

    def test_loss_magnitude_is_lambda_times_gain_magnitude(self):
        params = SatisfactionParams(k=0.8, b=2.0, loss_aversion=2.25)
        for g in (1e-6, 0.1, 0.5, 3.0):
            gain = log_satisfaction(g, 0.0, params) - params.b
            loss = log_satisfaction(-g, 0.0, params) - params.b
            assert abs(loss) == pytest.approx(params.loss_aversion * gain, rel=1e-12)

    def test_continuity_at_zero_gap(self):
        params = SatisfactionParams(k=2.0, b=1.0, loss_aversion=2.25)
        eps = 1e-12
        assert log_satisfaction(eps, 0.0, params) == pytest.approx(params.b, abs=1e-11)
        assert log_satisfaction(-eps, 0.0, params) == pytest.approx(params.b, abs=1e-11)

    def test_doubling_adds_k_ln2_above_reference(self):
        # Weber-Fechner reading: each doubling above reference is worth
        # exactly k*ln(2), independent of the absolute level.
        params = SatisfactionParams(k=1.7, b=-3.0)
        log_r = 0.2
        for log_c in (0.2, 1.0, 5.0):
            lo = log_satisfaction(log_c, log_r, params)
            hi = log_satisfaction(log_c + math.log(2.0), log_r, params)
            assert hi - lo == pytest.approx(params.k * math.log(2.0), rel=1e-12)

    def test_vector_input_matches_scalar_loop(self):
        params = SatisfactionParams(k=1.3, b=0.4, loss_aversion=2.25)
        gaps = np.linspace(-2.0, 2.0, 41)
        vec = log_satisfaction(gaps, 0.0, params)
        assert isinstance(vec, np.ndarray)
        for g, v in zip(gaps, vec):
            assert v == log_satisfaction(float(g), 0.0, params)

    @pytest.mark.parametrize("k, lam", [(1.0, 1.0), (0.3, 1.0), (1.0, 2.25), (7.5, 4.0), (1e-300, 1.5)])
    def test_min_of_the_two_slopes_is_the_sign_rule_bit_for_bit(self, k, lam):
        # log_satisfaction takes the smaller of g*k and g*(lambda*k) where the
        # model reads the slope from the sign of g
        params = SatisfactionParams(k=k, b=0.5, loss_aversion=lam)
        tiny = 5e-324
        edges = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, -2.2250738585072014e-308, 1e-310, -1e-310,
                 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0]
        gaps = np.concatenate([edges, np.random.default_rng(7).standard_normal(2000) * 10.0 ** np.arange(-10, 10).repeat(100)])

        def sign_rule(g):
            return params.b + np.where(g >= 0.0, params.k, params.loss_aversion * params.k) * g

        with np.errstate(over="ignore"):  # the loss-side product of a large gain overflows
            got, want = log_satisfaction(gaps, 0.0, params), sign_rule(gaps)
            assert got.tobytes() == want.tobytes()
            assert log_satisfaction(0.0, gaps, params).tobytes() == sign_rule(0.0 - gaps).tobytes()
            assert gaps[: len(edges)].tobytes() == np.array(edges).tobytes()  # inputs are left as they were
            for g in edges:
                one, other = log_satisfaction(g, 0.0, params), sign_rule(g)
                assert np.asarray(one).tobytes() == np.asarray(other).tobytes(), g
            # the gap itself as a difference of zeros of both signs
            zeros = np.array([0.0, -0.0])
            got = log_satisfaction(zeros[:, None], zeros[None, :], params)
            assert got.tobytes() == sign_rule(zeros[:, None] - zeros[None, :]).tobytes()

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            SatisfactionParams(k=0.0, b=0.0)
        with pytest.raises(ConfigurationError):
            SatisfactionParams(k=1.0, b=float("nan"))
        with pytest.raises(ConfigurationError):
            SatisfactionParams(k=1.0, b=0.0, loss_aversion=0.5)


class TestUpdateReference:
    def test_gamma_zero_is_identity(self):
        assert update_reference(1.23, 9.0, 0.0) == 1.23

    def test_gamma_one_jumps_to_target(self):
        assert update_reference(1.23, 9.0, 1.0) == 9.0

    def test_midpoint(self):
        assert update_reference(0.0, 1.0, 0.5) == 0.5

    def test_contraction_factor(self):
        for gamma in (0.1, 0.3, 0.5, 0.9):
            old, target = 2.0, -1.0
            new = update_reference(old, target, gamma)
            assert abs(new - target) == pytest.approx(
                (1.0 - gamma) * abs(old - target), rel=1e-12
            )

    def test_iterated_residual_is_geometric(self):
        # Dyadic gamma keeps every step exact in binary floating point.
        log_r, target, gamma = 1.0, 0.0, 0.5
        for n in range(1, 30):
            log_r = update_reference(log_r, target, gamma)
            assert log_r == (1.0 - gamma) ** n

    def test_vectorized_over_agents(self):
        refs = np.asarray([0.0, 1.0, 2.0])
        gammas = np.asarray([0.0, 0.5, 1.0])
        out = update_reference(refs, 4.0, gammas)
        assert out.tolist() == [0.0, 2.5, 4.0]


class TestBassHazard:
    def test_innovation_only(self):
        assert bass_hazard(BassParams(0.03, 0.38), 0.0) == 0.03

    def test_full_imitation(self):
        assert bass_hazard(BassParams(0.03, 0.38), 1.0) == pytest.approx(0.41)

    def test_half_adopted(self):
        assert bass_hazard(BassParams(0.03, 0.38), 0.5) == pytest.approx(0.22)

    def test_nondecreasing_and_bounded(self):
        params = BassParams(0.2, 0.8)
        f = np.linspace(0.0, 1.0, 101)
        h = bass_hazard(params, f)
        assert np.all(np.diff(h) >= 0.0)
        assert np.all((h >= 0.0) & (h <= 1.0))

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            BassParams(-0.1, 0.2)
        with pytest.raises(ConfigurationError):
            BassParams(0.5, 0.6)
        with pytest.raises(ConfigurationError):
            BassParams(0.5, -0.1)


class TestChurnProbability:
    def test_zero_above_threshold(self):
        params = ChurnParams(s_churn=0.5, eta=0.3, cap=0.9)
        assert churn_probability(0.5, params) == 0.0
        assert churn_probability(10.0, params) == 0.0

    def test_disabled_when_eta_zero(self):
        params = ChurnParams(s_churn=0.5, eta=0.0, cap=0.9)
        assert churn_probability(-100.0, params) == 0.0

    def test_cap_binds(self):
        params = ChurnParams(s_churn=0.0, eta=0.1, cap=0.5)
        assert churn_probability(-10.0, params) == 0.5

    def test_linear_below_threshold(self):
        params = ChurnParams(s_churn=1.0, eta=0.2, cap=1.0)
        assert churn_probability(0.0, params) == pytest.approx(0.2)
        assert churn_probability(-1.0, params) == pytest.approx(0.4)

    def test_nonincreasing_in_satisfaction(self):
        params = ChurnParams(s_churn=0.3, eta=0.4, cap=0.8)
        s = np.linspace(-5.0, 5.0, 201)
        prob = churn_probability(s, params)
        assert np.all(np.diff(prob) <= 0.0)
        assert np.all((prob >= 0.0) & (prob <= 1.0))

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            ChurnParams(s_churn=0.0, eta=-0.1, cap=0.5)
        with pytest.raises(ConfigurationError):
            ChurnParams(s_churn=0.0, eta=0.1, cap=1.5)
