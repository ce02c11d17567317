"""One walk of a trace per command, held to the per-tick oracles.

``check_all`` walks a trace once for both the consistency and the
monotonic-order sweep, and a quorum view walks its trace once for its
change list, its prefix check and its serialization. A spy counts the
``TraceWalk`` constructions; the hypothesis test holds the shared pass to
the tick-by-tick oracles on hand-written, engine and forged traces, and
checks that no view or sweep answers from another trace's walk.
"""

from dataclasses import replace
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from forge import (forge_drop_from_output, forge_order_before_delivery,
                   forge_permuted_prefix, forge_phantom_receipt)
from gen import engine_traces, hand_written_traces
from oracles import PerTickView, consistency_and_monotonic_per_tick, snapshots_per_tick
from fairorder import checkers, quorum
from fairorder.adversary import DelayModel
from fairorder.checkers import (CONSISTENCY, MONOTONIC_ORDER, OrderSweep, check_all,
                                check_consistency, check_monotonic_order)
from fairorder.engine import run
from fairorder.model import Request
from fairorder.noise import NoiseSpec
from fairorder.quorum import (check_prefix_consistency, global_ordered, global_received,
                              replicate_trace, serialize_view)
from fairorder.scenario import FairPolicy, FcfsPolicy, ScenarioConfig


def honest_trace():
    """Three fcfs requests delivered at ticks 1, 2 and 4: the trace forge.py edits."""
    scenario = ScenarioConfig(
        feature_count=2, relevant=(0,), lam=1.0,
        requests=tuple(Request(i, i, (0.0, 0.0), 0) for i in range(3)),
        eta_feature=1, policy=FcfsPolicy(), deliver_overrides={0: 1, 1: 2, 2: 4})
    return run(scenario, seed=0)


HONEST = honest_trace()


def fair_trace():
    """Twelve fair requests, one issued per tick, with uniform delays of up to 3 ticks."""
    requests = tuple(Request(i, i % 3, (float(i % 4), 0.0), i) for i in range(12))
    scenario = ScenarioConfig(
        feature_count=2, relevant=(0,), lam=5.0, requests=requests, eta_feature=1,
        delay=DelayModel(kind="uniform", lo=0.0, hi=3.0),
        policy=FairPolicy(spec=NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0)))
    return run(scenario, seed=3)


def forged_traces():
    rid = st.integers(0, 2)
    return st.one_of(
        st.builds(forge_order_before_delivery, st.just(HONEST), rid, st.integers(0, 4)),
        st.builds(forge_drop_from_output, st.just(HONEST), rid),
        st.builds(forge_phantom_receipt, st.just(HONEST), rid),
        st.builds(forge_permuted_prefix, st.just(HONEST), st.integers(0, 5)),
    )


TRACES = st.one_of(hand_written_traces(), engine_traces(), forged_traces())


def walks_in(module):
    """(patch, constructions): a spy on ``module.TraceWalk`` that counts its walks."""
    calls = []
    real = module.TraceWalk

    def spy(*args):
        calls.append(args)
        return real(*args)

    return mock.patch.object(module, "TraceWalk", spy), calls


def test_quorum_walks_its_trace_once():
    view = replicate_trace(fair_trace(), 4, 1, (0, 1, 2, 3), {3})
    patch, calls = walks_in(quorum)
    with patch:
        check_prefix_consistency(view)
        serialize_view(view)
        global_received(view, 2)
        global_ordered(view, 2)
    assert len(calls) == 1


def test_quorum_compares_straddling_outputs_without_a_walk():
    # The swap at tick 2 makes server 0 straddle a reordering tick that server 1 has not reached.
    view = replicate_trace(forge_permuted_prefix(HONEST, at_tick=2), 4, 1, (0, 1, 0, 0))
    patch, calls = walks_in(quorum)
    with patch:
        assert not check_prefix_consistency(view).passed
        serialize_view(view)
    assert len(calls) == 1


def test_check_all_walks_the_trace_once():
    patch, calls = walks_in(checkers)
    with patch:
        verdicts = check_all(fair_trace())
    assert len(calls) == 1 and all(v.passed for v in verdicts)


@settings(max_examples=200, deadline=None)
@given(trace=TRACES, other=TRACES, data=st.data())
def test_shared_pass_matches_the_per_tick_oracles(trace, other, data):
    assume(trace.horizon >= 0 and other.horizon >= 0)
    consistency, monotonic = consistency_and_monotonic_per_tick(
        snapshots_per_tick(trace.events, trace.horizon))
    verdicts = {v.property: v for v in check_all(trace)}
    assert verdicts[CONSISTENCY].witness == consistency
    assert verdicts[MONOTONIC_ORDER].witness == monotonic
    # A sweep of another trace, walked first, is not read for this one.
    sweep = OrderSweep(other)
    assert sweep.witnesses == consistency_and_monotonic_per_tick(
        snapshots_per_tick(other.events, other.horizon))
    assert check_consistency(trace, sweep) == verdicts[CONSISTENCY]
    assert check_monotonic_order(trace, sweep) == verdicts[MONOTONIC_ORDER]

    n = data.draw(st.sampled_from([4, 5, 7]))
    f = (n - 1) // 3
    lags = tuple(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    byzantine = data.draw(st.sets(st.integers(0, n - 1), max_size=f))
    for view_trace in (trace, other):
        view = replicate_trace(view_trace, n, f, lags, byzantine)
        oracle = PerTickView(view_trace, n, f, lags, byzantine)
        assert serialize_view(view) == oracle.serialize()
        assert check_prefix_consistency(view).witness == oracle.prefix_witness()
        # Views built from a queried view walk their own trace and lags.
        moved = replace(view, trace=other if view_trace is trace else trace)
        assert serialize_view(moved) == PerTickView(moved.trace, n, f, lags,
                                                    byzantine).serialize()
        shifted = tuple(lag + 1 for lag in lags)
        assert serialize_view(replace(view, lags=shifted)) == PerTickView(
            view_trace, n, f, shifted, byzantine).serialize()
