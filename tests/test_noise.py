import math

import pytest
from hypothesis import given, strategies as st

from oracles import order_probability_oracle
from fairorder.noise import (ConfigurationError, NoiseKind, NoiseSpec, dp_ratio_bound,
                             laplace_order_probability, order_probability_at_gap,
                             sample, uniform_delta)
from fairorder.model import ParameterError
from fairorder.rng import Stream, derive, tag


class TestLaplaceOrderProbability:
    def test_equal_locations_give_half(self):
        for b in (0.1, 1.0, 10.0):
            assert laplace_order_probability(3.0, 3.0, b) == 0.5

    def test_unit_gap_closed_form(self):
        # oracle value: 1 - (3/4) e^{-1}
        expected = 1.0 - 0.75 * math.exp(-1.0)
        assert laplace_order_probability(0.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-15)
        assert order_probability_oracle(0.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_gap_of_two_scales(self):
        # at gap 2b the prefactor is exactly 1: P = 1 - e^{-2}
        expected = 1.0 - math.exp(-2.0)
        assert laplace_order_probability(0.0, 2.0, 1.0) == pytest.approx(expected, abs=1e-15)
        assert order_probability_oracle(0.0, 2.0, 1.0) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("gap", [0.0, 0.5, 1.0, 2.0, 4.0])
    def test_matches_double_integration_oracle(self, gap):
        assert laplace_order_probability(0.0, gap, 1.0) == pytest.approx(
            order_probability_oracle(0.0, gap, 1.0), abs=1e-8)

    def test_monte_carlo_cross_check(self):
        spec = NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0)
        rng = Stream(derive(2024, tag("mc-cross-check")))
        n = 200_000
        hits = sum(sample(spec, rng) < 1.0 + sample(spec, rng) for _ in range(n))
        expected = laplace_order_probability(0.0, 1.0, 1.0)
        assert hits / n == pytest.approx(expected, abs=4.5 / math.sqrt(n))

    def test_reversed_orientation_is_complement(self):
        p = laplace_order_probability(1.0, 0.0, 2.0)
        assert p == pytest.approx(1.0 - laplace_order_probability(0.0, 1.0, 2.0), abs=1e-15)

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ParameterError):
            laplace_order_probability(0.0, 1.0, 0.0)

    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(0.05, 20))
    def test_complement_property(self, a, b, scale):
        total = laplace_order_probability(a, b, scale) + laplace_order_probability(b, a, scale)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.05, 20), st.floats(0, 30), st.floats(0, 30))
    def test_monotone_in_gap(self, scale, g1, g2):
        lo, hi = sorted((g1, g2))
        assert (laplace_order_probability(0.0, lo, scale)
                <= laplace_order_probability(0.0, hi, scale) + 1e-15)


class TestGapFormula:
    def test_zero_gap(self):
        assert order_probability_at_gap(0.0, 1.0) == (0.5, 0.5)

    def test_unit_gap_unit_epsilon(self):
        p_low, p_high = order_probability_at_gap(1.0, 1.0)
        assert p_low == pytest.approx(0.7240904191214182, abs=1e-12)
        assert p_high == pytest.approx(1.0 - 0.7240904191214182, abs=1e-12)

    def test_gap_four(self):
        p_low, _ = order_probability_at_gap(4.0, 1.0)
        assert p_low == pytest.approx(1.0 - 1.5 * math.exp(-4.0), abs=1e-12)

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_identity_with_location_form(self, n, epsilon, lam):
        """The normalized formula equals the location form at scale lam/eps."""
        p_low, _ = order_probability_at_gap(n, epsilon)
        direct = laplace_order_probability(0.0, n * lam, lam / epsilon)
        assert p_low == pytest.approx(direct, abs=1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            order_probability_at_gap(-0.1, 1.0)
        with pytest.raises(ParameterError):
            order_probability_at_gap(1.0, 0.0)


class TestRatioBound:
    def test_zero_gap_ratio_is_one(self):
        assert dp_ratio_bound(0.0, 1.0) == 1.0

    def test_unit_values(self):
        assert dp_ratio_bound(1.0, 1.0) == pytest.approx((4.0 / 3.0) * math.e - 1.0, abs=1e-12)
        # consistency with the probability formula
        p_low, p_high = order_probability_at_gap(1.0, 1.0)
        assert dp_ratio_bound(1.0, 1.0) == pytest.approx(p_low / p_high, rel=1e-12)

    def test_never_exceeds_exponential(self):
        assert dp_ratio_bound(1.0, 1.0) <= math.e

    @given(st.floats(0, 10), st.floats(0.01, 4))
    def test_exponential_bound_property(self, n, epsilon):
        assert dp_ratio_bound(n, epsilon) <= math.exp(n * epsilon)

    def test_bound_strict_away_from_zero_gap(self):
        # the clamp only matters in the sub-ulp strip near zero
        for x in (1e-3, 0.1, 1.0, 5.0, 20.0):
            assert dp_ratio_bound(x, 1.0) < math.exp(x)


class TestUniformDelta:
    def test_basic_ratio(self):
        assert uniform_delta(5.0, 100.0) == 0.05

    def test_zero_sensitivity(self):
        assert uniform_delta(0.0, 100.0) == 0.0

    def test_clamped_to_one(self):
        assert uniform_delta(200.0, 100.0) == 1.0

    def test_rejects_bad_width(self):
        with pytest.raises(ParameterError):
            uniform_delta(1.0, 0.0)


class TestSamplers:
    def test_same_seed_same_stream(self):
        spec = NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0)
        a = [sample(spec, Stream(99)) for _ in range(1)]
        b = [sample(spec, Stream(99)) for _ in range(1)]
        assert a == b
        many_a = [sample(spec, rng) for rng in [Stream(5)] for _ in range(100)]
        rng = Stream(5)
        many_b = [sample(spec, rng) for _ in range(100)]
        assert many_a == many_b

    def test_laplace_moments(self):
        spec = NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=2.0)  # b = 2
        rng = Stream(derive(7, tag("moments")))
        n = 1_000_000
        draws = [sample(spec, rng) for _ in range(n)]
        mean = sum(draws) / n
        var = sum((x - mean) ** 2 for x in draws) / n
        assert abs(mean) < 0.02
        assert abs(var - 8.0) < 0.02 * 8.0

    def test_bounded_laplace_truncation(self):
        b = 1.0
        bound = 1e-4 * b
        spec = NoiseSpec(kind="bounded_laplace", epsilon=1.0, sensitivity=1.0, bound=bound)
        rng = Stream(3)
        assert all(abs(sample(spec, rng)) <= bound for _ in range(500))

    def test_uniform_support(self):
        spec = NoiseSpec(kind="uniform", epsilon=1.0, sensitivity=1.0, bound=3.0)
        rng = Stream(11)
        draws = [sample(spec, rng) for _ in range(20_000)]
        assert all(-3.0 < x < 3.0 for x in draws)
        # rough uniformity: quartile occupancy
        for lo, hi in [(-3, -1.5), (-1.5, 0), (0, 1.5), (1.5, 3)]:
            frac = sum(lo <= x < hi for x in draws) / len(draws)
            assert frac == pytest.approx(0.25, abs=0.02)


class TestNoiseSpecValidation:
    def test_requires_positive_epsilon(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(kind="laplace", epsilon=0.0)

    def test_bounded_kinds_require_bound(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(kind="bounded_laplace", epsilon=1.0)
        with pytest.raises(ConfigurationError):
            NoiseSpec(kind="uniform", epsilon=1.0, bound=-1.0)

    @pytest.mark.parametrize("field", ["epsilon", "sensitivity", "bound", "delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x"])
    def test_rejects_non_finite_parameters(self, field, value):
        params = dict(kind="uniform", epsilon=1.0, sensitivity=1.0, bound=2.0, delta=0.1)
        params[field] = value
        with pytest.raises(ConfigurationError, match=field):
            NoiseSpec(**params)

    def test_scale(self):
        spec = NoiseSpec(kind="laplace", epsilon=2.0, sensitivity=4.0)
        assert spec.scale == 2.0
        assert spec.kind is NoiseKind.LAPLACE
