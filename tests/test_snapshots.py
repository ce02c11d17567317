"""Snapshots derived from event rows against a per-tick rebuild.

`snapshots_from_events` visits only the ticks that carry a deliver or
order row and shares one Snapshot object across the quiet ticks after
them. `oracles.snapshots_per_tick` rebuilds every tick from scratch.
"""

from hypothesis import given, settings, strategies as st

from gen import random_scenario
from oracles import snapshots_per_tick
from fairorder.engine import (DELIVER, ISSUE, ORDER, Event, parse_trace, run,
                              serialize_trace, snapshots_from_events)
from fairorder.rng import Stream


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


@st.composite
def hand_written_rows(draw):
    """Rows in any order, negative ticks included; each id delivered and ordered at most once."""
    ticks = st.integers(-2, 15)
    rows = []
    for rid in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            rows.append(Event(draw(ticks), ISSUE, rid))
        if draw(st.booleans()):
            rows.append(Event(draw(ticks), DELIVER, rid))
        if draw(st.booleans()):
            rows.append(Event(draw(ticks), ORDER, rid))
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(rows=hand_written_rows(), header=st.one_of(st.none(), st.integers(-3, 25)))
def test_hand_written_rows_match_per_tick_rebuild(rows, header):
    lines = [f"{ev.at_tick},{ev.kind},{ev.rid}" for ev in rows]
    if header is not None:
        lines.insert(0, f"# fairorder-trace v1 seed=0 horizon={header}")
    trace = parse_trace("\n".join(lines + ["order:"]) + "\n")
    horizon = header if header is not None else max((ev.at_tick for ev in rows), default=0)
    expected = snapshots_per_tick(rows, horizon)
    assert trace.snapshots == expected
    assert snapshots_from_events(rows, horizon) == expected
    assert_quiet_ticks_share_objects(rows, trace.snapshots)


def test_header_horizon_past_the_last_event():
    text = "# fairorder-trace v1 seed=0 horizon=9\n0,issue,0\n2,deliver,0\n3,order,0\norder:0\n"
    trace = parse_trace(text)
    assert trace.horizon == 9
    assert trace.snapshots == snapshots_per_tick(trace.events, 9)
    assert all(snap is trace.snapshots[3] for snap in trace.snapshots[3:])
