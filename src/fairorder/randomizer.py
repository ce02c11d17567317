"""Simulated shared randomizer: one common noise sample for all replicas.

The fair policy needs every correct replica to inject the *same* noise
sample, or they would disagree on the order. This module simulates a
primitive with the three properties that matter (all correct replicas
output a value, the values are bitwise equal, and across instances the
common value follows the configured distribution) by deriving the
sample deterministically
from (seed, instance id). A real distributed construction can replace
it behind the same surface.

Byzantine replicas may record anything; three canned strategies cover
the interesting shapes (fixed value, copying the correct output,
reporting extremes). Their values are never read when deriving the
correct replicas' output, so they cannot influence it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .noise import ConfigurationError, NoiseSpec, sample
from .rng import Stream, derive, tag

TAG_RANDOMIZER = tag("randomizer")
TAG_BYZANTINE = tag("byzantine")


class ByzantineStrategy(str, Enum):
    CONSTANT = "constant"
    COPY_CORRECT = "copy_correct"
    EXTREME = "extreme"


@dataclass(frozen=True)
class ReplicaSet:
    """n replicas tolerating f faults; the one legality rule for the randomizer, the quorum
    view and the loader: f >= 0, n >= 3f + 1, at most f ``byzantine_ids``, all in 0..n-1."""

    n: int
    f: int
    byzantine_ids: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "byzantine_ids", frozenset(self.byzantine_ids))
        if self.f < 0:
            raise ConfigurationError(f"the fault budget f must be non-negative, got {self.f}")
        if self.n < 3 * self.f + 1:
            raise ConfigurationError(f"n={self.n} violates n >= 3f+1 for f={self.f}")
        outside = sorted(i for i in self.byzantine_ids if not 0 <= i < self.n)
        if outside:
            raise ConfigurationError(f"byzantine ids {outside} lie outside 0..{self.n - 1}")
        if len(self.byzantine_ids) > self.f:
            raise ConfigurationError(
                f"{len(self.byzantine_ids)} byzantine ids exceed the fault budget f={self.f}")

    @property
    def correct_ids(self) -> frozenset[int]:
        return frozenset(range(self.n)) - self.byzantine_ids

    def check_lags(self, lags) -> None:
        """A quorum view's lags, for the view and the loader: one per server, none negative."""
        if len(lags) != self.n:
            raise ConfigurationError("need one lag per server")
        if any(lag < 0 for lag in lags):
            raise ConfigurationError("lags must be non-negative")


@dataclass(frozen=True)
class RandomizerOutcome:
    instance_id: int
    per_replica: dict[int, float | None]


def run_randomizer(replicas: ReplicaSet, spec: NoiseSpec, instance_id: int,
                   seed: int, strategy: ByzantineStrategy = ByzantineStrategy.CONSTANT,
                   ) -> RandomizerOutcome:
    """One randomizer instance: every correct replica records the common sample."""
    common = sample(spec, Stream(derive(seed, TAG_RANDOMIZER, instance_id)))
    per_replica: dict[int, float | None] = {}
    for i in range(replicas.n):
        if i in replicas.byzantine_ids:
            per_replica[i] = _byzantine_value(strategy, common, spec, seed, instance_id, i)
        else:
            per_replica[i] = common
    return RandomizerOutcome(instance_id=instance_id, per_replica=per_replica)


def _byzantine_value(strategy: ByzantineStrategy, common: float, spec: NoiseSpec,
                     seed: int, instance_id: int, replica: int) -> float:
    strategy = ByzantineStrategy(strategy)
    if strategy is ByzantineStrategy.CONSTANT:
        return 0.0
    if strategy is ByzantineStrategy.COPY_CORRECT:
        return common
    rng = Stream(derive(seed, TAG_BYZANTINE, instance_id, replica))
    magnitude = 1e12 * max(1.0, spec.scale)
    return magnitude if rng.random() < 0.5 else -magnitude


def check_agreement(outcome: RandomizerOutcome, replicas: ReplicaSet) -> bool:
    """Agreement and termination: every correct value present and bitwise equal."""
    values = [outcome.per_replica.get(i) for i in sorted(replicas.correct_ids)]
    if any(v is None for v in values):
        return False
    return all(v == values[0] for v in values)


def correct_value_stream(replicas: ReplicaSet, spec: NoiseSpec, seed: int, instances: int,
                         strategy: ByzantineStrategy = ByzantineStrategy.CONSTANT,
                         ) -> tuple[list[float], int]:
    """Run instances 0..instances-1: the common values and the count without agreement."""
    values, disagreements = [], 0
    for instance in range(instances):
        outcome = run_randomizer(replicas, spec, instance, seed, strategy)
        disagreements += not check_agreement(outcome, replicas)
        values.append(outcome.per_replica[min(replicas.correct_ids)])
    return values, disagreements
