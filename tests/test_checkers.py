import pytest
from hypothesis import example, given, settings, strategies as st

from gen import engine_traces, hand_written_traces, random_scenario, rows_text
from oracles import (consistency_and_monotonic_per_tick, precedence_closure_by_fixpoint,
                     snapshots_per_tick, strong_non_blocking_per_tick)
from forge import (forge_drop_from_output, forge_order_before_delivery,
                   forge_permuted_prefix, forge_phantom_receipt)
from fairorder.checkers import (CONSISTENCY, MONOTONIC_ORDER, NON_BLOCKING,
                                ORDER_DETERMINISM, PolicyPredicate, Verdict,
                                check_all, check_monotonic_order, check_non_blocking,
                                check_order_determinism, check_policy_compliance,
                                check_strong_non_blocking, impossibility_harness)
from fairorder.checkers import check_consistency
from fairorder.engine import (DELIVER, ISSUE, ORDER, Event, ProtocolError, Trace, parse_trace,
                              run)
from fairorder.model import Request
from fairorder.noise import ConfigurationError, NoiseSpec
from fairorder.rng import Stream
from fairorder.scenario import (FairPolicy, FcfsPolicy, ScenarioConfig, TtlPolicy)


def req(rid, relev=0.0, eta=0.0, client=None, tick=0):
    return Request(id=rid, client_id=client if client is not None else rid,
                   features=(relev, eta), issue_tick=tick)


def base_scenario(**kw):
    """Three fcfs requests delivered at ticks 1, 2, 4."""
    defaults = dict(
        feature_count=2, relevant=(0,), lam=1.0,
        requests=(req(0), req(1), req(2)),
        eta_feature=1, policy=FcfsPolicy(),
        deliver_overrides={0: 1, 1: 2, 2: 4},
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


@pytest.fixture
def honest_trace():
    return run(base_scenario(), seed=0)


class TestCheckersOnHonestTraces:
    def test_fcfs_trace_passes_everything(self, honest_trace):
        assert all(v.passed for v in check_all(honest_trace))

    def test_empty_trace_passes(self):
        trace = run(ScenarioConfig(feature_count=2, relevant=(0,), lam=1.0,
                                   requests=(), eta_feature=1), seed=0)
        assert all(v.passed for v in check_all(trace))

    def test_single_request_trace_passes(self):
        trace = run(base_scenario(requests=(req(0),), deliver_overrides={0: 1}), seed=0)
        assert all(v.passed for v in check_all(trace))

    @pytest.mark.parametrize("policy_kind", ["fcfs", "ttl", "fair"])
    def test_random_bounded_scenarios_pass(self, policy_kind):
        gen = Stream(4242)
        for _ in range(20):
            trace = run(random_scenario(gen, policy_kind), seed=gen.randrange(100_000))
            assert all(v.passed for v in check_all(trace))


class TestTargetedMutations:
    """Each forgery is caught by exactly the intended checker."""

    def _statuses(self, trace):
        return {v.property: v.passed for v in check_all(trace)}

    def test_order_before_delivery(self, honest_trace):
        forged = forge_order_before_delivery(honest_trace, rid=1, early_tick=1)
        statuses = self._statuses(forged)
        assert statuses == {ORDER_DETERMINISM: False, NON_BLOCKING: True,
                            CONSISTENCY: True, MONOTONIC_ORDER: True}
        verdict = check_order_determinism(forged)
        assert verdict.witness is not None and verdict.witness[1] == 1

    def test_dropped_request(self, honest_trace):
        forged = forge_drop_from_output(honest_trace, rid=2)
        statuses = self._statuses(forged)
        assert statuses == {ORDER_DETERMINISM: True, NON_BLOCKING: False,
                            CONSISTENCY: True, MONOTONIC_ORDER: True}
        assert check_non_blocking(forged).witness[1] == 2

    def test_phantom_receipt(self, honest_trace):
        # Without its deliver row, request 2 is also ordered before any delivery: with at
        # most one deliver and one order row per id, consistency cannot fail alone.
        forged = forge_phantom_receipt(honest_trace, rid=2)
        statuses = self._statuses(forged)
        assert statuses == {ORDER_DETERMINISM: False, NON_BLOCKING: True,
                            CONSISTENCY: False, MONOTONIC_ORDER: True}
        assert check_consistency(forged).witness == (4, 2)
        assert check_order_determinism(forged).witness == (4, 2)

    def test_permuted_prefix(self, honest_trace):
        forged = forge_permuted_prefix(honest_trace, at_tick=2)
        statuses = self._statuses(forged)
        assert statuses == {ORDER_DETERMINISM: True, NON_BLOCKING: True,
                            CONSISTENCY: True, MONOTONIC_ORDER: False}
        assert check_monotonic_order(forged).witness[0] == 2


class TestVerdictShape:
    def test_failing_verdict_requires_witness(self):
        with pytest.raises(ValueError):
            Verdict("non_blocking", False)

    def test_report_line_format(self):
        assert Verdict("consistency", True).line() == "consistency,pass,"
        line = Verdict("non_blocking", False, (4, 2)).line()
        assert line == "non_blocking,fail,4;2"


class TestPolicyPredicate:
    def test_transitive_closure(self):
        pred = PolicyPredicate([(1, 2), (2, 3)])
        assert pred.must_precede(1, 3)

    def test_cycle_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyPredicate([(1, 2), (2, 1)])
        with pytest.raises(ConfigurationError):
            PolicyPredicate([(1, 1)])

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=14))
    def test_closure_matches_the_fixpoint(self, pairs):
        closure = precedence_closure_by_fixpoint(pairs)
        on_cycle = {a for a, b in closure if a == b}
        if on_cycle:
            with pytest.raises(ConfigurationError, match="contain a cycle through") as err:
                PolicyPredicate(pairs)
            assert str(err.value).endswith(f" through {min(on_cycle)}")
            return
        pred = PolicyPredicate(pairs)
        assert pred.pairs == frozenset(pairs) and pred.closure == closure
        assert pred.ids() == frozenset(x for pair in closure for x in pair)
        assert all(pred.must_precede(a, b) == ((a, b) in closure)
                   for a in range(8) for b in range(8))

    def test_long_chain(self):
        # The pairwise fixpoint took 18 s on a chain of 160.
        n = 2000
        pred = PolicyPredicate([(i, i + 1) for i in range(n - 1)])
        assert pred.must_precede(0, n - 1) and pred.must_precede(n // 2, n // 2 + 1)
        assert not pred.must_precede(n - 1, 0) and not pred.must_precede(5, 5)
        assert len(pred.ids()) == n
        with pytest.raises(ConfigurationError, match="cycle"):
            PolicyPredicate([(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)])

    def test_from_key_comparator(self):
        reqs = [req(0, relev=5.0), req(1, relev=1.0), req(2, relev=1.0)]
        pred = PolicyPredicate.from_key(reqs, key=lambda r: r.features[0])
        assert pred.must_precede(1, 0) and pred.must_precede(2, 0)
        assert not pred.must_precede(1, 2)

    def test_empty_predicate_always_satisfied(self, honest_trace):
        assert check_policy_compliance(honest_trace, PolicyPredicate([])).passed

    def test_delivery_order_pairs_pass_on_fcfs(self, honest_trace):
        pred = PolicyPredicate([(0, 1), (1, 2)])
        assert check_policy_compliance(honest_trace, pred).passed

    def test_reversed_pair_fails(self, honest_trace):
        verdict = check_policy_compliance(honest_trace, PolicyPredicate([(2, 0)]))
        assert not verdict.passed

    def test_unknown_id_is_configuration_error(self, honest_trace):
        with pytest.raises(ConfigurationError):
            check_policy_compliance(honest_trace, PolicyPredicate([(0, 99)]))


def assert_sweeps_match_the_per_tick_oracles(trace):
    snapshots = snapshots_per_tick(trace.events, trace.horizon)
    consistency, monotonic = consistency_and_monotonic_per_tick(snapshots)
    assert check_consistency(trace).witness == consistency
    assert check_monotonic_order(trace).witness == monotonic
    assert check_strong_non_blocking(trace).witness == strong_non_blocking_per_tick(snapshots)


class TestSnapshotWalk:
    """The event sweeps give the witnesses of a tick-by-tick pass over rebuilt snapshots."""

    @settings(max_examples=300, deadline=None)
    @given(hand_written_traces())
    @example(parse_trace(rows_text([Event(1, DELIVER, 1), Event(1, ORDER, 2)], header=2)))
    @example(parse_trace(rows_text([Event(0, DELIVER, 1), Event(2, ORDER, 1),
                                    Event(1, ORDER, 0)], header=3)))  # row inserted before
    def test_witnesses_match_the_per_tick_oracle(self, trace):
        assert_sweeps_match_the_per_tick_oracles(trace)

    @settings(max_examples=100, deadline=None)
    @given(engine_traces())
    def test_engine_traces_match_the_per_tick_oracle(self, trace):
        assert_sweeps_match_the_per_tick_oracles(trace)


@pytest.mark.parametrize("kind", [ISSUE, DELIVER, ORDER])
def test_a_second_row_of_one_kind_is_a_protocol_error(kind):
    # Parsing turns this into a TraceParseError, so the trace is built directly. The
    # second row lies past the horizon: every row counts, whichever reader asks first.
    rows = (Event(0, ISSUE, 1), Event(1, DELIVER, 1), Event(2, ORDER, 1), Event(5, kind, 1))
    trace = Trace(events=rows, final_order=(1,), seed=0, horizon=3)
    tick_map = {ISSUE: "issue_ticks", DELIVER: "deliver_ticks", ORDER: "order_ticks"}[kind]
    for read in (lambda: trace.history, lambda: getattr(trace, tick_map),
                 lambda: check_all(trace)):
        with pytest.raises(ProtocolError, match=f"^request 1 has a second {kind} row$"):
            read()


class TestPrefixTransitivity:
    @given(st.lists(st.integers(0, 5), max_size=6, unique=True))
    def test_chain_of_prefixes(self, ids):
        """Checker self-consistency: prefix containment is transitive."""
        seq = tuple(ids)
        prefixes = [seq[:i] for i in range(len(seq) + 1)]
        for a in prefixes:
            for b in prefixes:
                for c in prefixes:
                    ab = b[: len(a)] == a
                    bc = c[: len(b)] == b
                    if ab and bc:
                        assert c[: len(a)] == a


class TestStrongNonBlocking:
    def test_gated_fair_policy_fails_strong_form(self):
        scenario = base_scenario(policy=FairPolicy(spec=None),
                                 deliver_overrides={0: 0, 1: 2, 2: 2},
                                 requests=(req(0), req(1, tick=0), req(2, tick=0)))
        trace = run(scenario, seed=0)
        # requests wait for stability: some tick had pending but no progress
        assert not check_strong_non_blocking(trace).passed
        assert check_non_blocking(trace).passed

    def test_fcfs_satisfies_strong_form(self, honest_trace):
        assert check_strong_non_blocking(honest_trace).passed


FAIR = FairPolicy(spec=NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0))


class TestImpossibilityHarness:
    def scenario(self, same_client=False):
        return ScenarioConfig(
            feature_count=2, relevant=(0,), lam=1.0,
            requests=(req(0, relev=1.0, client=0), req(1, relev=2.0, client=0 if same_client else 1)),
            eta_feature=1,
        )

    @pytest.mark.parametrize("policy", [FcfsPolicy(), TtlPolicy(deadline_feature=0), FAIR])
    def test_policy_violates_validity_without_gating(self, policy):
        pred = PolicyPredicate([(0, 1)])
        result = impossibility_harness(policy, pred, self.scenario())
        assert result.applicable
        assert result.failed_property in ("policy_compliance", "non_blocking")
        assert not result.verdict.passed

    def test_traces_agree_until_r2_ordered(self):
        pred = PolicyPredicate([(0, 1)])
        result = impossibility_harness(FcfsPolicy(), pred, self.scenario())
        t_prime = result.trace_only_r2.order_ticks[1]
        for trace in (result.trace_only_r2, result.trace_both):
            assert trace.order_ticks[1] == t_prime
        events_a = [e for e in result.trace_only_r2.events if e.at_tick <= t_prime]
        events_b = [e for e in result.trace_both.events if e.at_tick <= t_prime]
        assert [(e.at_tick, e.kind, e.rid) for e in events_a] == \
               [(e.at_tick, e.kind, e.rid) for e in events_b]

    def test_same_client_pairs_not_applicable(self):
        pred = PolicyPredicate([(0, 1)])
        result = impossibility_harness(FcfsPolicy(), pred, self.scenario(same_client=True))
        assert not result.applicable

    @pytest.mark.parametrize("deadline_feature,same_client", [
        pytest.param(5, False, id="5"), pytest.param(-1, False, id="-1"),
        pytest.param(5, True, id="5-same_client"), pytest.param(-1, True, id="-1-same_client")])
    def test_out_of_range_ttl_policy_is_rejected_as_at_load(self, deadline_feature,
                                                            same_client):
        # The harness runs its policy as the scenario's, so the loader's range check
        # applies: no IndexError at 5, and no silent ordering by another feature at -1,
        # also when no pair is applicable.
        pred = PolicyPredicate([(0, 1)])
        with pytest.raises(ConfigurationError, match="ttl deadline feature out of range"):
            impossibility_harness(TtlPolicy(deadline_feature=deadline_feature), pred,
                                  self.scenario(same_client=same_client))
