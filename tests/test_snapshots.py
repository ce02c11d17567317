"""Snapshots derived from event rows against a per-tick rebuild.

`snapshots_from_events` reads the steps of the trace's record
(`engine.history_of`), which has one step per tick that carries a
deliver or order row, and shares one Snapshot object across the quiet
ticks after them.
`oracles.snapshots_per_tick` rebuilds every tick from scratch. The tick
maps read off the rows are held to `oracles.tick_maps_per_row`, and a
parsed order line to the rows' own output.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from gen import (engine_traces, hand_written_rows, headers, last_row_tick, random_scenario,
                 rows_text)
from oracles import snapshots_per_tick, tick_maps_per_row
from fairorder.engine import (DELIVER, ORDER, TraceParseError, parse_trace, run,
                              serialize_trace, snapshots_from_events)
from fairorder.rng import Stream


def assert_maps_match_the_per_row_oracle(trace):
    oracle = tick_maps_per_row(trace.events)
    assert (trace.issue_ticks, trace.deliver_ticks, trace.order_ticks) == oracle


def assert_quiet_ticks_share_objects(events, snapshots):
    busy = {max(ev.at_tick, 0) for ev in events if ev.kind in (DELIVER, ORDER)}
    for t in range(1, len(snapshots)):
        if t not in busy:
            assert snapshots[t] is snapshots[t - 1]


@settings(max_examples=150, deadline=None)
@given(policy_kind=st.sampled_from(["fcfs", "ttl", "fair"]), gen_seed=st.integers(0, 2**32),
       seed=st.integers(0, 10_000))
def test_engine_traces_match_per_tick_rebuild(policy_kind, gen_seed, seed):
    trace = run(random_scenario(Stream(gen_seed), policy_kind), seed=seed)
    assert trace.snapshots == snapshots_per_tick(trace.events, trace.horizon)
    assert_quiet_ticks_share_objects(trace.events, trace.snapshots)
    parsed = parse_trace(serialize_trace(trace))
    assert parsed.snapshots == trace.snapshots


@settings(max_examples=300, deadline=None)
@given(rows=hand_written_rows(), data=st.data())
def test_hand_written_rows_match_per_tick_rebuild(rows, data):
    header = data.draw(headers(rows))
    trace = parse_trace(rows_text(rows, header))
    horizon = header if header is not None else last_row_tick(rows)
    expected = snapshots_per_tick(rows, horizon)
    assert trace.snapshots == expected
    assert snapshots_from_events(rows, horizon) == expected
    assert_quiet_ticks_share_objects(rows, trace.snapshots)
    assert_maps_match_the_per_row_oracle(trace)


def test_header_horizon_past_the_last_event():
    text = "# fairorder-trace v1 seed=0 horizon=9\n0,issue,0\n2,deliver,0\n3,order,0\norder:0\n"
    trace = parse_trace(text)
    assert trace.horizon == 9
    snapshots = trace.snapshots  # built on each access
    assert snapshots == snapshots_per_tick(trace.events, 9)
    assert all(snap is snapshots[3] for snap in snapshots[3:])


@settings(max_examples=150, deadline=None)
@given(rows=hand_written_rows(), data=st.data())
def test_a_serialized_trace_parses_back_to_itself(rows, data):
    trace = parse_trace(rows_text(rows, data.draw(headers(rows))))
    assert trace.horizon >= 0
    assert parse_trace(serialize_trace(trace)) == trace


@settings(max_examples=100, deadline=None)
@given(engine_traces())
def test_engine_traces_round_trip_and_match_the_per_row_oracle(trace):
    assert_maps_match_the_per_row_oracle(trace)
    assert parse_trace(serialize_trace(trace)) == trace


@settings(max_examples=200, deadline=None)
@given(rows=hand_written_rows(), data=st.data(), final=st.lists(st.integers(0, 8), max_size=8))
def test_only_the_rows_own_output_parses_as_the_order_line(rows, data, final):
    header = data.draw(headers(rows))
    horizon = header if header is not None else last_row_tick(rows)
    output = snapshots_per_tick(rows, horizon)[-1].output
    assert parse_trace(rows_text(rows, header, output)).final_order == output
    if tuple(final) != output:
        with pytest.raises(TraceParseError, match="order line differs"):
            parse_trace(rows_text(rows, header, final))


def test_rows_at_negative_ticks_only_end_at_tick_0():
    trace = parse_trace("-2,deliver,0\norder:\n")
    assert trace.horizon == 0
    again = parse_trace(serialize_trace(trace))
    assert again == trace
    assert again.snapshots == snapshots_per_tick(trace.events, 0)
    assert again.snapshots[0].received == {0}


@settings(max_examples=200, deadline=None)
@given(rows=hand_written_rows(), data=st.data())
def test_a_row_past_the_header_horizon_is_rejected(rows, data):
    # Named by the first line holding the latest row tick; the header is line 1.
    last = last_row_tick(rows)
    assume(last > 0)
    header = data.draw(st.integers(0, last - 1))
    line = 2 + next(i for i, ev in enumerate(rows) if ev.at_tick == last)
    with pytest.raises(TraceParseError,
                       match=f"^line {line}: row tick {last} is past the horizon {header}$"):
        parse_trace(rows_text(rows, header))


@settings(max_examples=100, deadline=None)
@given(rows=hand_written_rows(), header=st.integers(-30, -1))
def test_negative_header_horizon_is_rejected(rows, header):
    with pytest.raises(TraceParseError, match="negative horizon"):
        parse_trace(rows_text(rows, header))
