import pytest
from hypothesis import assume, given, settings, strategies as st

from forge import forge_permuted_prefix
from gen import engine_traces, hand_written_traces, random_scenario, rows_text
from oracles import PerTickView
from fairorder.engine import DELIVER, ORDER, Event, parse_trace, run
from fairorder.model import ParameterError, Request
from fairorder.noise import ConfigurationError
from fairorder.quorum import (QuorumView, check_prefix_consistency, global_ordered,
                              global_received, replicate_trace, serialize_view)
from fairorder.randomizer import ReplicaSet
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


def hand_view(rows, lags, horizon=None, n=4, f=1):
    """A view of the trace written as ``rows`` (tick, kind, id), replayed with ``lags``."""
    trace = parse_trace(rows_text([Event(*row) for row in rows], horizon))
    return QuorumView(ReplicaSet(n, f), trace, tuple(lags))


class TestGlobalSets:
    def view(self):
        # At tick 1: server 0 has received 1 and 2, servers 1 and 2 only 1, server 3
        # nothing; servers 0-2 have ordered 1.
        rows = [(0, DELIVER, 1), (0, ORDER, 1), (1, DELIVER, 2)]
        return hand_view(rows, lags=(0, 1, 1, 2), horizon=1)

    def test_received_quorum_is_f_plus_one(self):
        assert global_received(self.view(), 1) == {1}

    def test_single_holder_excluded(self):
        assert 2 not in global_received(self.view(), 1)

    def test_empty_views_empty_set(self):
        view = hand_view([], lags=(0, 0, 0, 0))
        assert global_received(view, 0) == frozenset()

    def test_ordered_quorum_is_n_minus_f(self):
        assert global_ordered(self.view(), 1) == {1}

    def test_two_of_four_not_ordered(self):
        # At tick 2 every server has received 1, and only servers 0 and 1 have ordered it.
        view = hand_view([(0, DELIVER, 1), (2, ORDER, 1)], lags=(0, 0, 2, 2))
        assert global_ordered(view, 2) == frozenset()

    def test_all_servers_ordered(self):
        view = hand_view([(0, DELIVER, 1), (0, ORDER, 1)], lags=(0, 0, 0, 0))
        assert global_ordered(view, 0) == {1}

    def test_alternate_quorum_thresholds(self):
        view = self.view()
        assert global_received(view, 1, quorum=1) == {1, 2}
        assert global_ordered(view, 1, quorum=4) == frozenset()

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
        # Server 0 sees the swapped prefix one tick before server 1 still shows (0,).
        forged = forge_permuted_prefix(fcfs_trace(), at_tick=2)
        verdict = check_prefix_consistency(replicate_trace(forged, n=4, f=1, lags=(0, 1, 0, 0)))
        assert not verdict.passed
        assert verdict.witness is not None

    def test_single_correct_server_vacuous(self):
        forged = forge_permuted_prefix(fcfs_trace(), at_tick=2)
        view = replicate_trace(forged, n=1, f=0, lags=(0,))
        assert view.correct == {0}
        assert check_prefix_consistency(view).passed

    def test_quorum_sanity_validated(self):
        with pytest.raises(ConfigurationError):
            hand_view([], lags=(0, 0, 0), n=3, f=1)

    def test_serialization_has_server_column(self):
        view = replicate_trace(fcfs_trace(1), n=4, f=1, lags=(0, 1, 0, 0))
        text = serialize_view(view)
        assert "0,1,deliver,0" in text
        assert "1,2,deliver,0" in text  # lagged by one tick
        assert text.count("order:") == 4

    def test_negative_lag_rejected(self):
        with pytest.raises(ConfigurationError):
            replicate_trace(fcfs_trace(), n=4, f=1, lags=(0, -1, 0, 0))

    @pytest.mark.parametrize("f, byzantine, message", [
        (1, {9}, r"byzantine ids \[9\] lie outside 0..3"),
        (1, {0, 1, 2}, "3 byzantine ids exceed the fault budget f=1"),
        (-1, (), "the fault budget f must be non-negative, got -1"),
    ], ids=["id_past_n", "past_f", "negative_f"])
    def test_illegal_replica_set_rejected(self, f, byzantine, message):
        with pytest.raises(ConfigurationError, match=message):
            replicate_trace(fcfs_trace(), 4, f, (0, 1, 2, 3), byzantine)


class TestPerTickOracle:
    """Views agree with a [server][tick] copy of the per-tick snapshots."""

    @staticmethod
    def assert_matches_the_oracle(view, oracle):
        assert serialize_view(view) == oracle.serialize()
        assert check_prefix_consistency(view).witness == oracle.prefix_witness()
        assert view.horizon == oracle.horizon
        for t in range(view.horizon + 1):
            assert global_received(view, t) == oracle.global_received(t)
            assert global_ordered(view, t) == oracle.global_ordered(t)
            for quorum in (1, view.n):
                assert global_received(view, t, quorum) == oracle.global_received(t, quorum)
                assert global_ordered(view, t, quorum) == oracle.global_ordered(t, quorum)

    @settings(max_examples=150, deadline=None)
    @given(trace=st.one_of(hand_written_traces(), engine_traces()), data=st.data())
    def test_random_views_match_the_per_tick_oracle(self, trace, data):
        n = data.draw(st.sampled_from([4, 5, 7]))
        f = (n - 1) // 3
        lags = tuple(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        byzantine = data.draw(st.sets(st.integers(0, n - 1), max_size=f))
        assume(trace.horizon >= 0)  # the per-tick copy needs a tick 0 in the trace
        view = replicate_trace(trace, n, f, lags, byzantine)
        self.assert_matches_the_oracle(view, PerTickView(trace, n, f, lags, byzantine))

    def test_order_growth_under_one_received_set(self):
        rows = [(0, DELIVER, 1), (0, DELIVER, 2), (1, ORDER, 1), (2, ORDER, 2)]
        view = hand_view(rows, lags=(0, 0, 0, 0))
        text = serialize_view(view)
        assert "0,1,order,1" in text and "3,2,order,2" in text
        self.assert_matches_the_oracle(view, PerTickView(view.trace, 4, 1, view.lags))

    def test_violation_after_quiet_ticks_is_found(self):
        # The trace orders 1 at tick 1, then puts 2 ahead of it at tick 3: server 0
        # shows (2, 1) at tick 3 while server 1, a tick behind, still shows (1,).
        rows = [(0, DELIVER, 1), (0, DELIVER, 2), (3, ORDER, 2), (1, ORDER, 1)]
        view = hand_view(rows, lags=(0, 1, 0, 0))
        verdict = check_prefix_consistency(view)
        assert not verdict.passed and verdict.witness == (3, 0, 1)
        self.assert_matches_the_oracle(view, PerTickView(view.trace, 4, 1, view.lags))
