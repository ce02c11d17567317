"""Additive-noise mechanisms and closed-form ordering probabilities.

Three samplers are supported: Laplace (scale = sensitivity/epsilon),
bounded Laplace (rejection until the draw fits the truncation window),
and symmetric uniform. Laplace sampling uses the inverse CDF on a
single uniform draw so that a stream position maps to exactly one
output value and runs replay bit-identically. ``sample`` draws from a
Stream; ``value_at(spec, u, state)`` returns what ``sample`` returns on
a fresh Stream of ``state`` whose first draw is ``u``, so a caller that
has the first draw (``rng.first_random``, or a block of them from
``rng.Lanes``) needs no Stream. Both map a uniform through the one
per-kind inverse CDF, ``_inverse_cdf``.

The analytic side gives Pr[X < Y] for two equal-scale Laplace
variables, the same probability expressed at a normalized score gap,
the implied probability ratio with its exponential bound, and the
failure probability of the uniform mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .model import ParameterError, is_finite
from .rng import Stream

DEFAULT_EPSILON = 2.0  # common production choice when a scenario leaves it unset
# Bounded Laplace keeps a draw with probability 1 - exp(-bound / scale) and rejects the
# rest, so it draws 1 / that many uniforms per sample on average. A spec below this floor
# (more than 10^5 draws per sample) is rejected at load rather than left to hang a run.
MIN_BOUNDED_LAPLACE_ACCEPTANCE = 1e-5


class NoiseKind(str, Enum):
    LAPLACE = "laplace"
    BOUNDED_LAPLACE = "bounded_laplace"
    UNIFORM = "uniform"


# An Enum member looked up on its class costs far more than a global; the samplers test these.
_LAPLACE, _BOUNDED_LAPLACE, _UNIFORM = (NoiseKind.LAPLACE, NoiseKind.BOUNDED_LAPLACE,
                                        NoiseKind.UNIFORM)


class ConfigurationError(ValueError):
    """A noise spec or scenario is not well-formed."""


@dataclass(frozen=True)
class NoiseSpec:
    """A configured additive-noise mechanism.

    ``sensitivity`` is the score sensitivity (instantiated as the noise
    bound lambda). ``bound`` is the truncation half-width for
    bounded_laplace, and the half-width of the support for uniform
    (uniform draws land in (-bound, +bound)). ``delta`` optionally
    records the uniform mechanism's failure probability.
    """

    kind: NoiseKind
    epsilon: float = DEFAULT_EPSILON
    sensitivity: float = 1.0
    bound: float | None = None
    delta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", NoiseKind(self.kind))
        for name in ("epsilon", "sensitivity", "bound", "delta"):
            value = getattr(self, name)
            if value is not None and not is_finite(value):
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        if self.sensitivity <= 0:
            raise ConfigurationError("sensitivity must be positive")
        if self.kind in (NoiseKind.BOUNDED_LAPLACE, NoiseKind.UNIFORM):
            if self.bound is None or self.bound <= 0:
                raise ConfigurationError(f"{self.kind.value} requires a positive bound")
        # Every draw at an infinite scale is +-inf, so rejection would never end;
        # a quotient that underflows to zero leaves no Laplace to draw from.
        if (self.kind is NoiseKind.BOUNDED_LAPLACE
                and not (math.isfinite(self.scale) and self.scale > 0)):
            raise ConfigurationError(
                f"bounded_laplace scale sensitivity / epsilon must be finite and positive, "
                f"got {self.sensitivity!r} / {self.epsilon!r}")
        if (self.kind is NoiseKind.BOUNDED_LAPLACE
                and -math.expm1(-self.bound / self.scale) < MIN_BOUNDED_LAPLACE_ACCEPTANCE):
            raise ConfigurationError(
                f"bounded_laplace bound {self.bound!r} at scale {self.scale!r} accepts fewer "
                f"than {MIN_BOUNDED_LAPLACE_ACCEPTANCE:g} of its draws")
        if self.delta is not None and not 0.0 <= self.delta <= 1.0:
            raise ConfigurationError("delta must lie in [0, 1]")

    @cached_property
    def scale(self) -> float:
        """Laplace scale b = sensitivity / epsilon, computed once: each draw reads it."""
        return self.sensitivity / self.epsilon


def sample(spec: NoiseSpec, rng: Stream) -> float:
    """Draw one value from the configured mechanism, advancing ``rng``."""
    while True:
        y = _inverse_cdf(spec, rng.random())
        if y is not None:
            return y


def value_at(spec: NoiseSpec, u: float, state: int) -> float:
    """``sample(spec, Stream(state))``, given ``u = first_random(state)``: the inverse
    CDF at ``u``, with no Stream.

    Only a bounded-Laplace first draw that is rejected builds the Stream:
    ``sample`` then rejects that draw again and keeps drawing after it.
    """
    y = _inverse_cdf(spec, u)
    return sample(spec, Stream(state)) if y is None else y


def _inverse_cdf(spec: NoiseSpec, u: float) -> float | None:
    """The mechanism's value at the uniform ``u`` in (0, 1); None if bounded Laplace rejects it."""
    kind = spec.kind
    if kind is _UNIFORM:
        return spec.bound * (2.0 * u - 1.0)
    # Laplace inverse CDF, sign-split around the median.
    b, v = spec.scale, u - 0.5
    y = -b * math.log(1.0 - 2.0 * v) if v >= 0.0 else b * math.log(1.0 + 2.0 * v)
    if kind is _LAPLACE:
        return y
    if kind is _BOUNDED_LAPLACE:
        return y if abs(y) <= spec.bound else None
    raise ConfigurationError(f"unknown noise kind {kind!r}")


def laplace_order_probability(mu_x: float, mu_y: float, b: float) -> float:
    """Pr[X < Y] for independent X ~ Laplace(mu_x, b), Y ~ Laplace(mu_y, b).

    For mu_x <= mu_y:  1 - ((2b + mu_y - mu_x) / (4b)) * exp((mu_x - mu_y)/b);
    the opposite orientation follows by symmetry of the complement.
    """
    if b <= 0:
        raise ParameterError("scale b must be positive")
    if mu_x > mu_y:
        return 1.0 - laplace_order_probability(mu_y, mu_x, b)
    gap = mu_y - mu_x
    return 1.0 - ((2.0 * b + gap) / (4.0 * b)) * math.exp(-gap / b)


def order_probability_at_gap(n: float, epsilon: float) -> tuple[float, float]:
    """Ordering probabilities for two requests whose scores differ by n·lambda.

    Returns (p_low_first, p_high_first) under the Laplace mechanism with
    scale lambda/epsilon; the value depends only on the product
    n·epsilon, so it matches laplace_order_probability(0, n·lam, lam/epsilon)
    for every lam > 0.
    """
    if n < 0:
        raise ParameterError("normalized gap n must be non-negative")
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    ne = n * epsilon
    p_low = 1.0 - ((2.0 + ne) / 4.0) * math.exp(-ne)
    return p_low, 1.0 - p_low


def dp_ratio_bound(n: float, epsilon: float) -> float:
    """Exact probability ratio Pr[low first]/Pr[high first] at gap n·lambda.

    Equals (4 / (2 + n·epsilon)) * exp(n·epsilon) - 1, which never
    exceeds exp(n·epsilon): the true margin is (n·epsilon)^3/12 + O(x^4).
    Below x ~ 1e-4 that margin sinks under one ulp, where naive
    evaluation can round a hair past exp(x); the expm1 form plus the
    final clamp keeps the theorem exact in floats (the clamp moves the
    result by at most one ulp and only inside that strip).
    """
    if n < 0:
        raise ParameterError("normalized gap n must be non-negative")
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    ne = n * epsilon
    ratio = (4.0 * math.expm1(ne) + 2.0 - ne) / (2.0 + ne)
    return min(ratio, math.exp(ne))


def uniform_delta(delta_net: float, delta_noise: float) -> float:
    """Failure probability of the uniform mechanism: delta_net / delta_noise.

    ``delta_net`` is the score sensitivity (e.g. the worst network-delay
    gap) and ``delta_noise`` the half-width of the uniform noise.
    Clamped to [0, 1] since it is a probability.
    """
    if delta_noise <= 0:
        raise ParameterError("delta_noise must be positive")
    if delta_net < 0:
        raise ParameterError("delta_net must be non-negative")
    return min(1.0, delta_net / delta_noise)
