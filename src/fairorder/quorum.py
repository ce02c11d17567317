"""Multi-server view model: lag-replicated histories and quorum aggregates.

Consensus itself is out of scope (treated as a black box), so views are
*generated*: a single-server trace is replicated with a per-server
delivery lag, giving each server the same underlying behavior observed
later or earlier. A request counts as globally received once f+1
servers have it (one of them must be correct), and globally ordered
once n-f servers have ordered it (any two such quorums intersect in a
correct server). Byzantine servers may report arbitrary histories;
checks quantify over correct servers only.

A view is the trace plus one lag per server: correct server i holds at
tick t what the trace holds at tick t - lags[i]. Every query reads the
trace's row ticks shifted by the lags, so a view costs O(servers x
events) whatever the lags and the horizon. Every query reads the
trace's ``history``, built once per trace.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations

from .checkers import Verdict
from .engine import Trace
from .model import ParameterError
from .randomizer import ReplicaSet

PREFIX_CONSISTENCY = "prefix_consistency"


@dataclass(frozen=True)
class QuorumView:
    """The servers of ``replicas`` replaying one trace, correct server i ``lags[i]`` ticks late."""

    replicas: ReplicaSet
    trace: Trace
    lags: tuple[int, ...]

    def __post_init__(self):
        self.replicas.check_lags(self.lags)

    @property
    def n(self) -> int:
        return self.replicas.n

    @property
    def f(self) -> int:
        return self.replicas.f

    @property
    def correct(self) -> frozenset[int]:
        return self.replicas.correct_ids

    @property
    def horizon(self) -> int:
        return self.trace.horizon + max(self.lags, default=0)


def replicate_trace(trace: Trace, n: int, f: int, lags,
                    byzantine_servers=()) -> QuorumView:
    """Lag-replicate one engine trace into an n-server view.

    Server i observes the base trace shifted lags[i] ticks into the
    future. Byzantine servers report a scrambled history (everything
    received immediately, order reversed) regardless of their lag. An
    illegal replica set (see ``ReplicaSet``) raises ConfigurationError.
    """
    return QuorumView(ReplicaSet(n, f, byzantine_servers), trace, tuple(int(x) for x in lags))


def _quorum_set(view: QuorumView, t: int, rows, byzantine_ids, quorum: int) -> frozenset[int]:
    """Ids held by ``quorum`` servers at tick t: a correct server holds an id once its
    lag has passed the id's (tick, id) row, a Byzantine one each of ``byzantine_ids``."""
    if not 0 <= t <= view.horizon:
        raise ParameterError(f"tick {t} outside view range 0..{view.horizon}")
    lags = sorted(view.lags[i] for i in view.correct)
    counts = {rid: bisect_right(lags, t - tick) for tick, rid in rows}
    for rid in set(byzantine_ids):
        counts[rid] = counts.get(rid, 0) + view.n - len(lags)
    return frozenset(rid for rid, c in counts.items() if c and c >= quorum)


def global_received(view: QuorumView, t: int, quorum: int | None = None) -> frozenset[int]:
    """Requests received by at least ``quorum`` servers by tick t (default f+1)."""
    rows = [(c, rid) for c, received, _, _ in view.trace.history.steps for rid in received]
    return _quorum_set(view, t, rows, view.trace.deliver_ticks,
                       view.f + 1 if quorum is None else quorum)


def global_ordered(view: QuorumView, t: int, quorum: int | None = None) -> frozenset[int]:
    """Requests ordered by at least ``quorum`` servers by tick t (default n-f)."""
    rows = [(c, rid) for c, _, ordered, _ in view.trace.history.steps for rid in ordered]
    return _quorum_set(view, t, rows, view.trace.final_order,
                       view.n - view.f if quorum is None else quorum)


def check_prefix_consistency(view: QuorumView) -> Verdict:
    """Correct servers' orders must all be prefixes of a common global order.

    Outputs of the trace at ticks u <= v are prefixes of each other unless
    a tick in (u, v] reorders, so only view ticks whose servers straddle
    such a tick are compared in full: for a reordering tick r, the view
    ticks in [r + least lag, r + greatest lag) over the correct servers.
    An engine trace never reorders, so it visits no tick.
    """
    correct = sorted(view.correct)
    history = view.trace.history
    reorders = [step.tick for step in history.steps if step.reorders]
    if not reorders:
        return Verdict(PREFIX_CONSISTENCY, True)
    lags = [view.lags[i] for i in correct]
    lo, hi = min(lags), max(lags)
    ticks = sorted({lag + step.tick for lag in set(lags) for step in history.steps})
    straddle = {t for r in reorders
                for t in ticks[bisect_left(ticks, r + lo):bisect_left(ticks, r + hi)]}
    for t in sorted(straddle):
        at = [min(t - lag, view.trace.horizon) for lag in lags]
        outputs = dict(zip(correct, map(history.output_at, at)))
        for i, j in combinations(correct, 2):
            shorter, longer = sorted((outputs[i], outputs[j]), key=len)
            if longer[: len(shorter)] != shorter:
                return Verdict(PREFIX_CONSISTENCY, False, (t, i, j))
    return Verdict(PREFIX_CONSISTENCY, True)


def serialize_view(view: QuorumView) -> str:
    """Trace-like line format with a leading server index column.

    Each server lists the ids that first reach its received set and its
    order at each tick, then its final order.
    """
    lines = [f"# fairorder-view v1 n={view.n} f={view.f} "
             f"correct={','.join(str(i) for i in sorted(view.correct))}"]
    history, final = view.trace.history, view.trace.final_order
    scrambled = tuple(reversed(final))
    for i in range(view.n):
        if i in view.correct:
            shifted = [(view.lags[i] + c, received, ordered)
                       for c, received, ordered, _ in history.steps]
        else:
            shifted = [(0, sorted(view.trace.deliver_ticks), dict.fromkeys(scrambled))]
        for t, received, ordered in shifted:
            lines.extend(f"{i},{t},deliver,{rid}" for rid in received)
            lines.extend(f"{i},{t},order,{rid}" for rid in ordered)
        lines.append(f"order:{i}:" + ",".join(map(str, final if i in view.correct else scrambled)))
    return "\n".join(lines) + "\n"
