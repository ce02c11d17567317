import pytest

from fairorder.noise import ConfigurationError, NoiseSpec
from fairorder.randomizer import (ByzantineStrategy, RandomizerOutcome, ReplicaSet,
                                  check_agreement, correct_value_stream, run_randomizer)

SPEC = NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0)  # b = 1


class TestReplicaSet:
    def test_quorum_size_enforced(self):
        with pytest.raises(ConfigurationError):
            ReplicaSet(n=3, f=1)

    def test_fault_budget_enforced(self):
        with pytest.raises(ConfigurationError):
            ReplicaSet(n=4, f=1, byzantine_ids={0, 1})

    def test_correct_ids(self):
        replicas = ReplicaSet(n=4, f=1, byzantine_ids={2})
        assert replicas.correct_ids == frozenset({0, 1, 3})


class TestAgreement:
    def test_correct_replicas_agree(self):
        replicas = ReplicaSet(n=4, f=1, byzantine_ids={1})
        outcome = run_randomizer(replicas, SPEC, instance_id=0, seed=42)
        values = {outcome.per_replica[i] for i in replicas.correct_ids}
        assert len(values) == 1
        assert check_agreement(outcome, replicas)

    def test_diverging_correct_replica_detected(self):
        replicas = ReplicaSet(n=4, f=1)
        outcome = run_randomizer(replicas, SPEC, 0, seed=42)
        forged = RandomizerOutcome(0, {**outcome.per_replica, 2: 123.456})
        assert not check_agreement(forged, replicas)

    def test_absent_correct_replica_is_termination_violation(self):
        replicas = ReplicaSet(n=4, f=1)
        outcome = run_randomizer(replicas, SPEC, 0, seed=42)
        forged = RandomizerOutcome(0, {**outcome.per_replica, 3: None})
        assert not check_agreement(forged, replicas)

    @pytest.mark.parametrize("strategy", list(ByzantineStrategy))
    def test_sweep_across_byzantine_strategies(self, strategy):
        replicas = ReplicaSet(n=4, f=1, byzantine_ids={0})
        for instance in range(300):
            outcome = run_randomizer(replicas, SPEC, instance, seed=7, strategy=strategy)
            assert check_agreement(outcome, replicas)


class TestDeterminismAndIsolation:
    def test_same_inputs_same_outcome(self):
        replicas = ReplicaSet(n=4, f=1, byzantine_ids={2})
        a = run_randomizer(replicas, SPEC, instance_id=9, seed=5)
        b = run_randomizer(replicas, SPEC, instance_id=9, seed=5)
        assert a == b

    def test_distinct_instances_differ(self):
        replicas = ReplicaSet(n=4, f=1)
        a = run_randomizer(replicas, SPEC, 0, seed=5)
        b = run_randomizer(replicas, SPEC, 1, seed=5)
        assert a.per_replica[0] != b.per_replica[0]

    def test_byzantine_strategy_never_touches_correct_values(self):
        honest = ReplicaSet(n=4, f=1)
        infected = ReplicaSet(n=4, f=1, byzantine_ids={3})
        for strategy in ByzantineStrategy:
            for instance in range(50):
                a = run_randomizer(honest, SPEC, instance, seed=3, strategy=strategy)
                b = run_randomizer(infected, SPEC, instance, seed=3, strategy=strategy)
                for i in (0, 1, 2):
                    assert a.per_replica[i] == b.per_replica[i]


class TestRandomness:
    def test_laplace_moments_over_instances(self):
        replicas = ReplicaSet(n=4, f=1, byzantine_ids={1})
        values, _ = correct_value_stream(replicas, SPEC, seed=2718, instances=100_000)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert abs(mean) < 0.02
        assert abs(var - 2.0) < 0.02 * 2.0
