"""One pass over a trace's rows, shared by its checkers and its quorum views.

``Trace.history`` is built once per trace, on first use, and the
time-indexed checkers, the prefix check, ``view.txt`` and the global
sets all read it. A spy counts the builds and the full outputs rebuilt
from it; the hypothesis test holds the shared pass to the tick-by-tick
oracles on hand-written, engine and forged traces, and checks that no
view or trace answers from another trace's record.
"""

from dataclasses import replace
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from forge import (forge_drop_from_output, forge_order_before_delivery,
                   forge_permuted_prefix, forge_phantom_receipt)
from gen import engine_traces, hand_written_traces, rows_text
from oracles import (PerTickView, consistency_and_monotonic_per_tick, order_determinism_per_row,
                     snapshots_per_tick, strong_non_blocking_per_tick)
from fairorder import engine
from fairorder.adversary import DelayModel
from fairorder.checkers import (CONSISTENCY, MONOTONIC_ORDER, ORDER_DETERMINISM, check_all,
                                check_strong_non_blocking)
from fairorder.cli import main
from fairorder.engine import DELIVER, ORDER, Event, History, parse_trace, run, serialize_trace
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


def builds():
    """A spy on the record's builder, ``engine.history_of``, that counts its builds."""
    return mock.patch.object(engine, "history_of", wraps=engine.history_of)


def test_check_all_walks_the_trace_once():
    with builds() as spy:
        verdicts = check_all(fair_trace())
    assert spy.call_count == 1 and all(v.passed for v in verdicts)


def test_check_command_walks_the_trace_once(tmp_path, capsys):
    # parse_trace builds the record to hold the order line to it; the checkers reuse it.
    (tmp_path / "trace.txt").write_text(serialize_trace(fair_trace()))
    with builds() as spy:
        assert main(["check", str(tmp_path / "trace.txt"), "--out", str(tmp_path)]) == 0
    assert spy.call_count == 1


def test_quorum_walks_its_trace_once():
    # The view's trace was checked first: the checkers' record serves the view too.
    trace = fair_trace()
    view = replicate_trace(trace, 4, 1, (0, 1, 2, 3), {3})
    with builds() as spy:
        assert all(v.passed for v in check_all(trace))
        check_prefix_consistency(view)
        serialize_view(view)
        global_received(view, 2)
        global_ordered(view, 2)
    assert spy.call_count == 1


def test_quorum_compares_straddling_outputs_without_a_walk():
    # The swap at tick 2 makes server 0 straddle a reordering tick that server 1 has not reached.
    view = replicate_trace(forge_permuted_prefix(HONEST, at_tick=2), 4, 1, (0, 1, 0, 0))
    with builds() as spy:
        assert not check_prefix_consistency(view).passed
        serialize_view(view)
    assert spy.call_count == 1


def every_tick_reorders(n):
    """Request t delivered and ordered at tick t, each order row listed ahead of every
    earlier one: the output at tick t is t, t-1, ..., 0."""
    rows = ([Event(t, DELIVER, t) for t in range(n)]
            + [Event(t, ORDER, t) for t in reversed(range(n))])
    return parse_trace(rows_text(rows, final_order=reversed(range(n))))


def test_check_all_rebuilds_a_constant_number_of_outputs():
    n = 2000
    trace = every_tick_reorders(n)
    with mock.patch.object(History, "output_at", autospec=True,
                           side_effect=History.output_at) as rebuilds:
        verdicts = {v.property: v for v in check_all(trace)}
    assert verdicts[MONOTONIC_ORDER].witness == (1, 0, 1)
    assert verdicts[CONSISTENCY].passed  # every tick also receives a request
    # Each witness needs the outputs around one reordering tick; rebuilding them at
    # every reordering tick would read about n^2 / 2 ids.
    assert rebuilds.call_count <= 4


@settings(max_examples=200, deadline=None)
@given(trace=TRACES, other=TRACES, data=st.data())
def test_shared_pass_matches_the_per_tick_oracles(trace, other, data):
    assume(trace.horizon >= 0 and other.horizon >= 0)
    snapshots = snapshots_per_tick(trace.events, trace.horizon)
    consistency, monotonic = consistency_and_monotonic_per_tick(snapshots)
    verdicts = {v.property: v for v in check_all(trace)}
    assert verdicts[ORDER_DETERMINISM].witness == order_determinism_per_row(trace.events)
    assert verdicts[CONSISTENCY].witness == consistency
    assert verdicts[MONOTONIC_ORDER].witness == monotonic
    assert check_strong_non_blocking(trace).witness == strong_non_blocking_per_tick(snapshots)
    # A trace cut from a checked one reads its own rows up to its own horizon.
    cut = replace(trace, horizon=data.draw(st.integers(0, trace.horizon)))
    cut_snapshots = snapshots_per_tick(cut.events, cut.horizon)
    verdicts = {v.property: v for v in check_all(cut)}
    assert (verdicts[CONSISTENCY].witness, verdicts[MONOTONIC_ORDER].witness) == \
        consistency_and_monotonic_per_tick(cut_snapshots)
    assert check_strong_non_blocking(cut).witness == strong_non_blocking_per_tick(cut_snapshots)

    n = data.draw(st.sampled_from([4, 5, 7]))
    f = (n - 1) // 3
    lags = tuple(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    byzantine = data.draw(st.sets(st.integers(0, n - 1), max_size=f))
    for view_trace in (trace, other):
        view = replicate_trace(view_trace, n, f, lags, byzantine)
        oracle = PerTickView(view_trace, n, f, lags, byzantine)
        assert serialize_view(view) == oracle.serialize()
        assert check_prefix_consistency(view).witness == oracle.prefix_witness()
        # Views built from a queried view read their own trace and lags.
        moved = replace(view, trace=other if view_trace is trace else trace)
        assert serialize_view(moved) == PerTickView(moved.trace, n, f, lags,
                                                    byzantine).serialize()
        shifted = tuple(lag + 1 for lag in lags)
        assert serialize_view(replace(view, lags=shifted)) == PerTickView(
            view_trace, n, f, shifted, byzantine).serialize()
