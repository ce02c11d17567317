import pytest

from gen import random_scenario
from fairorder.engine import (EngineState, ProtocolError, TraceParseError, _apply_deliver,
                              _apply_issue, fair_policy_step, is_stable, parse_trace, prepare,
                              run, run_prepared, serialize_trace)
from fairorder.adversary import DelayModel
from fairorder.model import Request
from fairorder.rng import Stream
from fairorder.scenario import (FairPolicy, FcfsPolicy, ScenarioConfig, TtlPolicy,
                                two_request_gap_scenario)


def make_scenario(requests, policy=FcfsPolicy(), delay=DelayModel(), **kw):
    return ScenarioConfig(
        feature_count=2, relevant=(0,), lam=1.0, requests=tuple(requests),
        eta_feature=1, delay=delay, policy=policy, **kw,
    )


def req(rid, relev=0.0, eta=0.0, client=None, tick=0):
    return Request(id=rid, client_id=client if client is not None else rid,
                   features=(relev, eta), issue_tick=tick)


def fair_state(keys):
    return EngineState(policy=FairPolicy(spec=None), keys=keys, pick_stream=Stream(0))


class TestStep:
    """Single state transitions: ``_apply_issue`` and ``_apply_deliver``."""

    def setup_method(self):
        self.state = fair_state({0: 5.0})

    def test_issue_adds_to_client_queue(self):
        _apply_issue(self.state, 0)
        assert self.state.in_flight == {0}
        assert not self.state.ready

    def test_deliver_moves_to_server(self):
        _apply_issue(self.state, 0)
        _apply_deliver(self.state, 0)
        assert self.state.ready == [(5.0, 0, 0)]
        assert not self.state.in_flight

    def test_deliver_unknown_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="deliver of request 42, which is not in flight"):
            _apply_deliver(self.state, 42)

    def test_duplicate_deliver_is_protocol_error(self):
        _apply_issue(self.state, 0)
        _apply_deliver(self.state, 0)
        with pytest.raises(ProtocolError, match="deliver of request 0, which is not in flight"):
            _apply_deliver(self.state, 0)


class TestFcfsRuns:
    def test_orders_by_delivery(self):
        scenario = make_scenario(
            [req(0, tick=0), req(1, tick=0)],
            deliver_overrides={0: 2, 1: 1},
        )
        trace = run(scenario, seed=0)
        assert trace.final_order == (1, 0)

    def test_delivery_tie_breaks_by_id(self):
        scenario = make_scenario([req(1, tick=0), req(0, tick=0)])
        trace = run(scenario, seed=0)
        assert trace.final_order == (0, 1)

    def test_identical_runs_serialize_byte_identically(self):
        scenario = make_scenario(
            [req(i, relev=float(i), tick=i % 3) for i in range(5)],
            delay=DelayModel(kind="uniform", lo=0, hi=3),
        )
        a = serialize_trace(run(scenario, seed=7))
        b = serialize_trace(run(scenario, seed=7))
        assert a == b
        c = serialize_trace(run(scenario, seed=8))
        assert a != c  # different seed shifts the random delays


class TestFairPolicy:
    def test_single_pending_returned(self):
        assert fair_policy_step([0], [0.7], Stream(0)) == 0

    def test_strict_minimum_wins(self):
        assert fair_policy_step([0, 1], [3.0, 5.0], Stream(0)) == 0

    def test_highest_first_direction(self):
        # A highest_first key is the negated adjusted score, so the higher score wins.
        assert fair_policy_step([0, 1], [-3.0, -5.0], Stream(0)) == 1

    def test_empty_pending_rejected(self):
        with pytest.raises(ProtocolError):
            fair_policy_step([], [], Stream(0))

    def test_tied_scores_picked_uniformly(self):
        wins = 0
        trials = 4000
        for seed in range(trials):
            wins += fair_policy_step([0, 1], [1.0, 1.0], Stream(seed)) == 0
        assert wins / trials == pytest.approx(0.5, abs=0.03)

    def test_adjacent_pair_splits_evenly_across_seeds(self):
        scenario = two_request_gap_scenario(gap=0.0, epsilon=1.0)
        prep = prepare(scenario)
        n = 20_000
        first = sum(run_prepared(prep, s, record=False).final_order[0] == 0
                    for s in range(n))
        assert first / n == pytest.approx(0.5, abs=0.012)

    def test_zero_noise_sorts_by_relev_within_batch(self):
        reqs = [req(0, relev=3.0), req(1, relev=1.0), req(2, relev=2.0)]
        scenario = make_scenario(reqs, policy=FairPolicy(spec=None))
        trace = run(scenario, seed=0)
        assert trace.final_order == (1, 2, 0)


class TestTtlPolicy:
    def test_orders_by_deadline_feature(self):
        # feature 1 is the deadline; all issued and delivered together
        reqs = [req(0, relev=0.0, eta=9.0), req(1, relev=0.0, eta=4.0),
                req(2, relev=0.0, eta=7.0)]
        scenario = make_scenario(reqs, policy=TtlPolicy(deadline_feature=1))
        trace = run(scenario, seed=0)
        assert trace.final_order == (1, 2, 0)

    def test_deadline_tie_breaks_by_id(self):
        reqs = [req(1, eta=4.0), req(0, eta=4.0)]
        scenario = make_scenario(reqs, policy=TtlPolicy(deadline_feature=1))
        assert run(scenario, seed=0).final_order == (0, 1)


class TestStability:
    def test_zero_delay_everything_immediately_stable(self):
        scenario = make_scenario([req(0), req(1, tick=3)],
                                 policy=FairPolicy(spec=None))
        trace = run(scenario, seed=0)
        # each request ordered at its own delivery tick: nothing in flight
        assert trace.order_ticks[0] == trace.deliver_ticks[0]
        assert trace.order_ticks[1] == trace.deliver_ticks[1]

    def test_in_flight_request_blocks_fair_ordering(self):
        scenario = make_scenario(
            [req(0, relev=5.0), req(1, relev=1.0)],
            policy=FairPolicy(spec=None),
            deliver_overrides={0: 0, 1: 4},
        )
        trace = run(scenario, seed=0)
        # request 0 must wait for in-flight request 1 (lower relev)
        assert trace.order_ticks[0] == 4
        assert trace.final_order == (1, 0)

    def test_is_stable_examples(self):
        state = fair_state({0: 5.0, 1: 1.0})
        _apply_issue(state, 0)
        _apply_issue(state, 1)
        _apply_deliver(state, 0)
        assert not is_stable(0, state)                 # 1 still in flight
        state.stability_gating = False
        assert is_stable(0, state)
        state.stability_gating = True
        _apply_deliver(state, 1)
        assert is_stable(0, state)                     # nothing in flight

    def test_gating_off_orders_immediately(self):
        scenario = make_scenario(
            [req(0, relev=5.0), req(1, relev=1.0)],
            policy=FairPolicy(spec=None),
            deliver_overrides={0: 0, 1: 4},
            stability_gating=False,
        )
        trace = run(scenario, seed=0)
        assert trace.order_ticks[0] == 0
        assert trace.final_order == (0, 1)


class TestRunInvariants:
    @pytest.mark.parametrize("policy_kind", ["fcfs", "ttl", "fair"])
    def test_output_grows_by_appends_and_no_clairvoyance(self, policy_kind):
        gen = Stream(1234)
        for _ in range(25):
            scenario = random_scenario(gen, policy_kind)
            trace = run(scenario, seed=gen.randrange(10_000))
            for earlier, later in zip(trace.snapshots, trace.snapshots[1:]):
                assert later.output[: len(earlier.output)] == earlier.output
            for rid in trace.final_order:
                assert trace.order_ticks[rid] >= trace.deliver_ticks[rid]
            # drained run: everything delivered got ordered
            assert set(trace.final_order) == set(trace.deliver_ticks)

    @pytest.mark.parametrize("policy_kind", ["fcfs", "ttl", "fair"])
    def test_lite_mode_matches_recorded_mode(self, policy_kind):
        gen = Stream(99)
        for _ in range(25):
            scenario = random_scenario(gen, policy_kind)
            prep = prepare(scenario)
            seed = gen.randrange(10_000)
            full = run_prepared(prep, seed, record=True)
            lite = run_prepared(prep, seed, record=False)
            assert full.final_order == lite.final_order

    def test_pure_function_of_inputs(self):
        gen = Stream(5)
        scenario = random_scenario(gen, "fair")
        t1, t2 = run(scenario, seed=77), run(scenario, seed=77)
        assert serialize_trace(t1) == serialize_trace(t2)

    def test_fcfs_final_order_is_delivery_order(self):
        gen = Stream(31)
        for _ in range(25):
            trace = run(random_scenario(gen, "fcfs"), seed=gen.randrange(10_000))
            by_delivery = tuple(sorted(trace.deliver_ticks,
                                       key=lambda rid: (trace.deliver_ticks[rid], rid)))
            assert trace.final_order == by_delivery

    @pytest.mark.parametrize("policy_kind", ["fcfs", "ttl", "fair"])
    def test_snapshot_sets_monotone_and_pending_identity(self, policy_kind):
        gen = Stream(61)
        for _ in range(20):
            trace = run(random_scenario(gen, policy_kind), seed=gen.randrange(10_000))
            for earlier, later in zip(trace.snapshots, trace.snapshots[1:]):
                assert earlier.received <= later.received
            for snap in trace.snapshots:
                assert snap.pending == snap.received - set(snap.output)
                assert set(snap.output) <= snap.received


class TestSerialization:
    def test_round_trip_preserves_checker_inputs(self):
        scenario = make_scenario(
            [req(i, relev=float(5 - i), tick=i) for i in range(4)],
            delay=DelayModel(kind="constant", d=2.0),
        )
        trace = run(scenario, seed=3)
        parsed = parse_trace(serialize_trace(trace))
        assert parsed.final_order == trace.final_order
        assert parsed.deliver_ticks == trace.deliver_ticks
        assert parsed.order_ticks == trace.order_ticks
        assert [s.received for s in parsed.snapshots] == [s.received for s in trace.snapshots]
        assert [s.output for s in parsed.snapshots] == [s.output for s in trace.snapshots]

    def test_line_format(self):
        scenario = make_scenario([req(0)])
        text = serialize_trace(run(scenario, seed=0))
        lines = text.strip().splitlines()
        assert lines[1] == "0,issue,0"
        assert lines[2] == "0,deliver,0"
        assert lines[3] == "0,order,0"
        assert lines[-1] == "order:0"

    def test_malformed_lines_rejected(self):
        with pytest.raises(TraceParseError):
            parse_trace("0,issue\norder:\n")
        with pytest.raises(TraceParseError):
            parse_trace("0,teleport,1\norder:1\n")
        with pytest.raises(TraceParseError):
            parse_trace("0,deliver,1\n")  # missing final order line


class TestScenarioValidation:
    def test_delivery_before_issue_rejected_at_load(self):
        from fairorder.noise import ConfigurationError
        with pytest.raises(ConfigurationError):
            make_scenario([req(0, tick=5)], deliver_overrides={0: 2})
