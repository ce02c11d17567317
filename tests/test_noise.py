import math

import pytest
from hypothesis import example, given, strategies as st

from oracles import order_probability_oracle
from fairorder.noise import (ConfigurationError, NoiseKind, NoiseSpec, dp_ratio_bound,
                             laplace_order_probability, order_probability_at_gap,
                             sample, uniform_delta, values_at)
from fairorder.model import ParameterError
from fairorder.rng import Lanes, Stream, derive, first_random, tag

MASK = 2**64 - 1


def _unxorshift(y: int, shift: int) -> int:
    """The x with x ^ (x >> shift) == y."""
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def state_with_first_uniform(k: int, low: int) -> int:
    """A state whose first draw is the k-th of the 2**52 uniforms (k + 0.5) * 2**-52 a
    Stream can return; ``low`` picks one of the 4096 states that give it."""
    z = _unxorshift((k << 12) | low, 31)
    z = _unxorshift(z * pow(0x94D049BB133111EB, -1, 2**64) & MASK, 27)
    z = _unxorshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & MASK, 30)
    return (z - 0x9E3779B97F4A7C15) & MASK


NAN_FREE_SPECS = {
    "laplace": NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0),
    # sensitivity / epsilon overflows to inf: every draw is +-inf
    "laplace_infinite_scale": NoiseSpec(kind="laplace", epsilon=1e-300, sensitivity=1e10),
    # sensitivity / epsilon underflows to 0: every draw is +-0
    "laplace_zero_scale": NoiseSpec(kind="laplace", epsilon=1e10, sensitivity=1e-320),
    "bounded_laplace": NoiseSpec(kind="bounded_laplace", epsilon=0.5, sensitivity=1.0,
                                 bound=1.5),
    "uniform": NoiseSpec(kind="uniform", epsilon=1.0, sensitivity=1.0, bound=1.0),
    "uniform_widest": NoiseSpec(kind="uniform", epsilon=1.0, sensitivity=1.0, bound=1.7e308),
}


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

    # The uniforms next to 0.5 (where log(1 - 2v) is nearest 0) and at both ends.
    @example(kind="laplace_infinite_scale", k=2**51 - 1, low=0)
    @example(kind="laplace_infinite_scale", k=2**51, low=4095)
    @example(kind="laplace_infinite_scale", k=0, low=0)
    @example(kind="laplace_infinite_scale", k=2**52 - 1, low=0)
    @given(kind=st.sampled_from(sorted(NAN_FREE_SPECS)), k=st.integers(0, 2**52 - 1),
           low=st.integers(0, 4095))
    def test_values_at_the_first_draw_is_never_nan(self, kind, k, low):
        # The engine relies on this: with every perceived total finite, an adjusted score
        # total + noise is then never NaN. The (k, low) pairs cover every 64-bit state.
        state = state_with_first_uniform(k, low)
        assert first_random(state) == (k + 0.5) * 2.0**-52
        (y,) = values_at(NAN_FREE_SPECS[kind], [first_random(state)], [state])
        assert y == y
        if kind == "laplace_infinite_scale":
            assert math.isinf(y)

    def test_a_block_of_the_first_draws_next_to_the_median_equals_sample(self):
        # A Stream's uniforms are (k + 0.5) * 2**-52, so 0.5 itself is never drawn: the two
        # nearest lie on either side of it. At 0.5 the upper branch gives -b * log(1) = -0.0.
        lanes = Lanes.of([state_with_first_uniform(k, 0) for k in (2**51 - 1, 2**51)])
        us, states = lanes.first_random(), list(lanes.values())
        assert [u < 0.5 for u in us] == [True, False]
        for spec in NAN_FREE_SPECS.values():
            assert ([y.hex() for y in values_at(spec, us, states)]
                    == [sample(spec, Stream(s)).hex() for s in states])
        assert values_at(NAN_FREE_SPECS["laplace"], [0.5], [0])[0].hex() == (-0.0).hex()

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

    def test_bounded_laplace_rejects_an_overflowing_scale(self):
        # Both parameters are finite, but sensitivity / epsilon is inf: every draw
        # would be +-inf and the rejection loop would never return.
        with pytest.raises(ConfigurationError, match="scale"):
            NoiseSpec(kind="bounded_laplace", epsilon=1e-300, sensitivity=1e10, bound=1.0)
        # Plain Laplace samples once per draw, so an infinite scale cannot hang it.
        assert NoiseSpec(kind="laplace", epsilon=1e-300, sensitivity=1e10).scale == math.inf

    def test_bounded_laplace_rejects_an_underflowing_scale(self):
        # Both parameters are positive, but sensitivity / epsilon rounds to 0, so the
        # acceptance check bound / scale would divide by zero.
        with pytest.raises(ConfigurationError, match="scale"):
            NoiseSpec(kind="bounded_laplace", epsilon=2.0, sensitivity=5e-324, bound=1.0)

    def test_bounded_laplace_rejects_an_acceptance_below_the_floor(self):
        # Acceptance is 1 - exp(-bound / scale): about 1e-12 here, so sampling would
        # take about 10^12 draws. At scale 1, the floor of 1e-5 lies between bounds
        # 5e-6 and 2e-5.
        with pytest.raises(ConfigurationError, match="accepts fewer than 1e-05"):
            NoiseSpec(kind="bounded_laplace", epsilon=1.0, sensitivity=1e6, bound=1e-6)
        NoiseSpec(kind="bounded_laplace", epsilon=1.0, sensitivity=1.0, bound=2e-5)
        with pytest.raises(ConfigurationError, match="accepts fewer"):
            NoiseSpec(kind="bounded_laplace", epsilon=1.0, sensitivity=1.0, bound=5e-6)

    def test_scale(self):
        spec = NoiseSpec(kind="laplace", epsilon=2.0, sensitivity=4.0)
        assert spec.scale == 2.0
        assert spec.kind is NoiseKind.LAPLACE
