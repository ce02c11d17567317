"""Targeted trace mutations, each violating a validity property.

All helpers take an honest engine trace of the canonical three-request
fcfs scenario (deliveries at ticks 1, 2, 4) and return a tampered copy.
Each is an edit of the event rows; the final order is kept equal to the
rows' output at the horizon, as ``parse_trace`` requires, and the tick
maps are read off the rows. Each seeds one violation that only its
target checker sees, except the phantom receipt, which order
determinism sees as well.
"""

from dataclasses import replace

from fairorder.engine import DELIVER, ORDER, Event, Trace, history_of


def _final_output(events, horizon: int) -> tuple[int, ...]:
    return history_of(events, horizon).output_at(horizon)


def _order_row(events, rid: int) -> int:
    return next(i for i, ev in enumerate(events) if ev.kind == ORDER and ev.rid == rid)


def forge_order_before_delivery(trace: Trace, rid: int, early_tick: int) -> Trace:
    """Order ``rid`` at ``early_tick``, before its delivery.

    Its order row moves to ``early_tick``, after the rows of that tick.
    Pick a tick where another delivery occurs so the consistency checker
    never compares across the tampered boundary.
    """
    events = list(trace.events)
    del events[_order_row(events, rid)]
    at = next((i for i, ev in enumerate(events) if ev.at_tick > early_tick), len(events))
    events.insert(at, Event(early_tick, ORDER, rid))
    return replace(trace, events=tuple(events), final_order=_final_output(events, trace.horizon))


def forge_drop_from_output(trace: Trace, rid: int) -> Trace:
    """Silently never order ``rid``: delivered but absent from the output."""
    events = list(trace.events)
    del events[_order_row(events, rid)]
    return replace(trace, events=tuple(events),
                   final_order=tuple(x for x in trace.final_order if x != rid))


def forge_phantom_receipt(trace: Trace, rid: int) -> Trace:
    """Drop the deliver row of ``rid`` while still ordering it.

    The rows then claim the order grew during a delivery-quiet stretch
    with a request the server had not received, which consistency
    catches. With its deliver row gone, ``rid`` is also ordered without a
    delivery, which order determinism catches: a trace with one deliver
    and one order row per id cannot break consistency alone.
    """
    events = tuple(ev for ev in trace.events if not (ev.kind == DELIVER and ev.rid == rid))
    return replace(trace, events=events)


def forge_permuted_prefix(trace: Trace, at_tick: int) -> Trace:
    """Swap the first two ordered requests from ``at_tick`` on.

    The second request's order row moves to ``at_tick``, ahead of the
    first request's row, so from then on the output lists it first.
    Choose a tick where a delivery also lands so the consistency
    checker's quiet-period precondition skips the tampered boundary.
    """
    events = list(trace.events)
    first, second = [ev.rid for ev in events if ev.kind == ORDER][:2]
    del events[_order_row(events, second)]
    events.insert(_order_row(events, first), Event(at_tick, ORDER, second))
    return replace(trace, events=tuple(events), final_order=_final_output(events, trace.horizon))
