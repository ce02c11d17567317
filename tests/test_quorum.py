import pytest

from gen import random_scenario
from fairorder.engine import run
from fairorder.model import ParameterError, Request
from fairorder.noise import ConfigurationError
from fairorder.quorum import (QuorumView, check_prefix_consistency, global_ordered,
                              global_received, replicate_trace, serialize_view)
from fairorder.rng import Stream
from fairorder.scenario import FcfsPolicy, ScenarioConfig


def fcfs_trace(n_requests=3):
    scenario = ScenarioConfig(
        feature_count=2, relevant=(0,), lam=1.0,
        requests=tuple(Request(i, i, (0.0, 0.0), 0) for i in range(n_requests)),
        eta_feature=1, policy=FcfsPolicy(),
        deliver_overrides={i: i + 1 for i in range(n_requests)},
    )
    return run(scenario, seed=0)


def hand_view(received_by_server, ordered_by_server, n=4, f=1, correct=None):
    horizon = max(len(x) for x in received_by_server) - 1
    return QuorumView(
        n=n, f=f,
        received=tuple(tuple(frozenset(s) for s in server) for server in received_by_server),
        ordered=tuple(tuple(tuple(s) for s in server) for server in ordered_by_server),
        correct=frozenset(correct if correct is not None else range(n)),
    )


class TestGlobalSets:
    def view(self):
        # 4 servers, one tick; request 1 at two servers, request 2 at one
        received = [[{1, 2}], [{1}], [set()], [set()]]
        ordered = [[(1,)], [(1,)], [(1,)], [()]]
        return hand_view(received, ordered)

    def test_received_quorum_is_f_plus_one(self):
        assert global_received(self.view(), 0) == {1}

    def test_single_holder_excluded(self):
        assert 2 not in global_received(self.view(), 0)

    def test_empty_views_empty_set(self):
        view = hand_view([[set()]] * 4, [[()]] * 4)
        assert global_received(view, 0) == frozenset()

    def test_ordered_quorum_is_n_minus_f(self):
        assert global_ordered(self.view(), 0) == {1}

    def test_two_of_four_not_ordered(self):
        received = [[{1}], [{1}], [{1}], [{1}]]
        ordered = [[(1,)], [(1,)], [()], [()]]
        assert global_ordered(hand_view(received, ordered), 0) == frozenset()

    def test_all_servers_ordered(self):
        received = [[{1}]] * 4
        ordered = [[(1,)]] * 4
        assert global_ordered(hand_view(received, ordered), 0) == {1}

    def test_alternate_quorum_thresholds(self):
        view = self.view()
        assert global_received(view, 0, quorum=1) == {1, 2}
        assert global_ordered(view, 0, quorum=4) == frozenset()

    def test_out_of_range_tick(self):
        with pytest.raises(ParameterError):
            global_received(self.view(), 5)


class TestReplication:
    def test_lagged_views_pass_prefix_consistency(self):
        view = replicate_trace(fcfs_trace(), n=4, f=1, lags=(0, 1, 2, 0))
        assert check_prefix_consistency(view).passed

    def test_random_scenarios_pass(self):
        gen = Stream(777)
        for _ in range(15):
            trace = run(random_scenario(gen, "fcfs"), seed=gen.randrange(1000))
            lags = tuple(gen.randrange(4) for _ in range(4))
            view = replicate_trace(trace, n=4, f=1, lags=lags)
            assert check_prefix_consistency(view).passed

    def test_global_sets_monotone_in_time(self):
        view = replicate_trace(fcfs_trace(), n=4, f=1, lags=(0, 1, 2, 3))
        for t in range(view.horizon):
            assert global_received(view, t) <= global_received(view, t + 1)
            assert global_ordered(view, t) <= global_ordered(view, t + 1)

    def test_globally_ordered_only_after_quorum_received(self):
        view = replicate_trace(fcfs_trace(), n=4, f=1, lags=(0, 1, 2, 0))
        for t in range(view.horizon + 1):
            assert global_ordered(view, t) <= global_received(view, t)

    def test_byzantine_servers_ignored_by_prefix_check(self):
        clean = replicate_trace(fcfs_trace(), n=4, f=1, lags=(0, 1, 2, 0))
        infected = replicate_trace(fcfs_trace(), n=4, f=1, lags=(0, 1, 2, 0),
                                   byzantine_servers={3})
        assert check_prefix_consistency(clean).passed
        assert check_prefix_consistency(infected).passed

    def test_forged_swap_between_correct_servers_caught(self):
        view = replicate_trace(fcfs_trace(), n=4, f=1, lags=(0, 0, 0, 0))
        final = view.ordered[1][-1]
        swapped = (final[1], final[0]) + final[2:]
        forged = QuorumView(
            n=view.n, f=view.f, received=view.received,
            ordered=view.ordered[:1] + (tuple(swapped for _ in view.ordered[1]),) + view.ordered[2:],
            correct=view.correct,
        )
        verdict = check_prefix_consistency(forged)
        assert not verdict.passed
        assert verdict.witness is not None

    def test_single_correct_server_vacuous(self):
        received = [[{1}], [{1}], [{1}], [{1}]]
        ordered = [[(1,)], [()], [()], [()]]
        view = hand_view(received, ordered, correct={0})
        assert check_prefix_consistency(view).passed

    def test_quorum_sanity_validated(self):
        with pytest.raises(ConfigurationError):
            hand_view([[set()]] * 3, [[()]] * 3, n=3, f=1)

    def test_serialization_has_server_column(self):
        view = replicate_trace(fcfs_trace(1), n=4, f=1, lags=(0, 1, 0, 0))
        text = serialize_view(view)
        assert "0,1,deliver,0" in text
        assert "1,2,deliver,0" in text  # lagged by one tick
        assert text.count("order:") == 4

    def test_negative_lag_rejected(self):
        with pytest.raises(ConfigurationError):
            replicate_trace(fcfs_trace(), n=4, f=1, lags=(0, -1, 0, 0))


class TestSharedTicks:
    """Ticks that reuse the previous tick's objects are skipped without changing output."""

    @staticmethod
    def unshared(view):
        return QuorumView(
            n=view.n, f=view.f,
            received=tuple(tuple(frozenset(set(s)) for s in server) for server in view.received),
            ordered=tuple(tuple(tuple(list(o)) for o in server) for server in view.ordered),
            correct=view.correct,
        )

    def test_random_views_serialize_and_check_as_unshared_copies(self):
        gen = Stream(4242)
        for kind in ("fcfs", "ttl", "fair") * 5:
            trace = run(random_scenario(gen, kind), seed=gen.randrange(1000))
            lags = tuple(gen.randrange(4) for _ in range(4))
            view = replicate_trace(trace, n=4, f=1, lags=lags,
                                   byzantine_servers={gen.randrange(4)})
            copy = self.unshared(view)
            assert serialize_view(view) == serialize_view(copy)
            assert check_prefix_consistency(view) == check_prefix_consistency(copy)

    def test_order_growth_under_a_shared_received_set(self):
        shared = frozenset({1, 2})
        view = hand_view([[shared] * 3] * 4, [[(), (1,), (1, 2)]] * 4)
        text = serialize_view(view)
        assert "0,1,order,1" in text and "3,2,order,2" in text
        assert text == serialize_view(self.unshared(view))

    def test_violation_after_shared_ticks_is_found(self):
        prefix = (1,)
        ordered = [[(), prefix, prefix, (1, 2)], [(), prefix, prefix, (2, 1)],
                   [()] * 4, [()] * 4]
        received = [[frozenset({1, 2})] * 4] * 4  # one object: only the orders change
        verdict = check_prefix_consistency(hand_view(received, ordered))
        assert not verdict.passed and verdict.witness == (3, 0, 1)
