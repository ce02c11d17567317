"""Requests, feature partitions, additive scores, and the noise bound.

A request carries a fixed-length feature vector. A scenario designates
some feature indices as relevant to ordering; the rest are irrelevant.
The server perceives a single additive score per request: the sum of
the relevant values plus the sum of the irrelevant values (the noise
component eta). Two requests are adjacent when their relevant values
coincide, and the system-wide parameter lambda caps how far the eta of
adjacent requests may drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class DimensionMismatchError(ValueError):
    """Feature vector length disagrees with the partition."""


class ParameterError(ValueError):
    """A numeric parameter is outside its allowed range."""


def is_finite(value) -> bool:
    """True iff ``value`` is a real number other than NaN or an infinity."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


@dataclass(frozen=True)
class Request:
    """One client request.

    ``issue_tick`` is the ground-truth issue time; ``declared_tick`` is
    what the client claims (differs only under time misreporting).
    """

    id: int
    client_id: int
    features: tuple[float, ...]
    issue_tick: int
    declared_tick: int | None = None

    def __post_init__(self):
        if self.id < 0 or self.client_id < 0 or self.issue_tick < 0:
            raise ParameterError("request id, client id, and issue tick must be non-negative")
        object.__setattr__(self, "features", tuple(float(x) for x in self.features))
        if self.declared_tick is None:
            object.__setattr__(self, "declared_tick", self.issue_tick)


@dataclass(frozen=True)
class FeaturePartition:
    """Disjoint relevant/irrelevant index sets covering all features."""

    relevant: frozenset[int]
    irrelevant: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "relevant", frozenset(self.relevant))
        object.__setattr__(self, "irrelevant", frozenset(self.irrelevant))
        if self.relevant & self.irrelevant:
            raise ParameterError("relevant and irrelevant index sets overlap")

    @classmethod
    def from_relevant(cls, relevant: Iterable[int], feature_count: int) -> "FeaturePartition":
        rel = frozenset(relevant)
        if any(i < 0 or i >= feature_count for i in rel):
            raise ParameterError("relevant index out of range")
        return cls(rel, frozenset(range(feature_count)) - rel)

    @property
    def feature_count(self) -> int:
        return len(self.relevant) + len(self.irrelevant)

    def check_dimensions(self, r: Request) -> None:
        if len(r.features) != self.feature_count:
            raise DimensionMismatchError(
                f"request {r.id} has {len(r.features)} features, partition covers {self.feature_count}"
            )


@dataclass(frozen=True)
class Score:
    """Additive score: total = relev + eta, exactly."""

    relev: float
    eta: float
    total: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.total is None:
            object.__setattr__(self, "total", self.relev + self.eta)
        elif self.total != self.relev + self.eta:
            raise ParameterError("total must equal relev + eta")


def adjacent(r1: Request, r2: Request, part: FeaturePartition) -> bool:
    """True iff the two requests agree on every relevant feature."""
    part.check_dimensions(r1)
    part.check_dimensions(r2)
    return all(r1.features[i] == r2.features[i] for i in part.relevant)


def score(r: Request, part: FeaturePartition) -> Score:
    """Sum relevant features into relev and irrelevant ones into eta."""
    part.check_dimensions(r)
    relev = sum(r.features[i] for i in part.relevant)
    eta = sum(r.features[i] for i in part.irrelevant)
    return Score(relev, eta)


def k_distance(s1: Score, s2: Score, lam: float) -> float:
    """Score distance normalized by the noise bound: |total1 - total2| / lambda."""
    if lam <= 0:
        raise ParameterError("lambda must be positive")
    return abs(s1.total - s2.total) / lam


def check_noise_bound(requests: Sequence[Request], part: FeaturePartition, lam: float) -> bool:
    """Validate the noise-bound assumption over all adjacent pairs.

    True iff |eta(r) - eta(r')| <= lambda for every adjacent pair in the
    list. Vacuously true when no pair is adjacent. This is a validator
    against a configured lambda, not an estimator.
    """
    if lam <= 0:
        raise ParameterError("lambda must be positive")
    scored = [(r, score(r, part)) for r in requests]
    for i, (r1, s1) in enumerate(scored):
        for r2, s2 in scored[i + 1:]:
            if adjacent(r1, r2, part) and abs(s1.eta - s2.eta) > lam:
                return False
    return True


def max_eta_gap(requests: Sequence[Request], part: FeaturePartition) -> float:
    """Diagnostic: the largest |eta - eta'| over all pairs, adjacent or not.

    The noise-bound assumption only constrains adjacent pairs; this
    surfaces the global gap so scenarios can see how far non-adjacent
    noise drifts.
    """
    etas = [score(r, part).eta for r in requests]
    if len(etas) < 2:
        return 0.0
    return max(etas) - min(etas)
