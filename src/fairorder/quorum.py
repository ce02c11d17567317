"""Multi-server view model: per-server histories and quorum aggregates.

Consensus itself is out of scope (treated as a black box), so views are
*generated*: a single-server trace is replicated with a per-server
delivery lag, giving each server the same underlying behavior observed
later or earlier. A request counts as globally received once f+1
servers have it (one of them must be correct), and globally ordered
once n-f servers have ordered it (any two such quorums intersect in a
correct server). Byzantine servers may report arbitrary histories;
checks quantify over correct servers only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checkers import Verdict
from .engine import Snapshot, Trace
from .model import ParameterError
from .noise import ConfigurationError

PREFIX_CONSISTENCY = "prefix_consistency"
EMPTY = Snapshot(frozenset(), frozenset(), ())  # a server's history before its lag has passed


@dataclass(frozen=True)
class QuorumView:
    """Per-server receive sets and order prefixes, indexed by tick."""

    n: int
    f: int
    received: tuple[tuple[frozenset[int], ...], ...]   # [server][tick]
    ordered: tuple[tuple[tuple[int, ...], ...], ...]   # [server][tick]
    correct: frozenset[int]

    def __post_init__(self):
        if self.n < 3 * self.f + 1:
            raise ConfigurationError(f"n={self.n} violates n >= 3f+1 for f={self.f}")
        if len(self.received) != self.n or len(self.ordered) != self.n:
            raise ConfigurationError("need one history per server")

    @property
    def horizon(self) -> int:
        return len(self.received[0]) - 1

    def _check_tick(self, t: int) -> None:
        if not 0 <= t <= self.horizon:
            raise ParameterError(f"tick {t} outside view range 0..{self.horizon}")


def replicate_trace(trace: Trace, n: int, f: int, lags,
                    byzantine_servers=()) -> QuorumView:
    """Lag-replicate one engine trace into an n-server view.

    Server i observes the base trace shifted lags[i] ticks into the
    future. Byzantine servers report a scrambled history (everything
    received immediately, order reversed) regardless of their lag.
    """
    lags = tuple(int(x) for x in lags)
    if len(lags) != n:
        raise ConfigurationError("need one lag per server")
    if any(lag < 0 for lag in lags):
        raise ConfigurationError("lags must be non-negative")
    byz = frozenset(byzantine_servers)
    horizon = trace.horizon + (max(lags) if lags else 0)
    all_ids = frozenset(trace.deliver_ticks)
    received: list[tuple[frozenset[int], ...]] = []
    ordered: list[tuple[tuple[int, ...], ...]] = []
    for i in range(n):
        if i in byz:
            scrambled = tuple(reversed(trace.final_order))
            received.append(tuple(all_ids for _ in range(horizon + 1)))
            ordered.append(tuple(scrambled for _ in range(horizon + 1)))
            continue
        lagged = [EMPTY] * lags[i] + list(trace.snapshots)
        lagged += [lagged[-1]] * (horizon + 1 - len(lagged))
        received.append(tuple(s.received for s in lagged))
        ordered.append(tuple(s.output for s in lagged))
    return QuorumView(n=n, f=f, received=tuple(received), ordered=tuple(ordered),
                      correct=frozenset(range(n)) - byz)


def global_received(view: QuorumView, t: int, quorum: int | None = None) -> frozenset[int]:
    """Requests received by at least ``quorum`` servers by tick t (default f+1)."""
    view._check_tick(t)
    quorum = view.f + 1 if quorum is None else quorum
    counts: dict[int, int] = {}
    for i in range(view.n):
        for rid in view.received[i][t]:
            counts[rid] = counts.get(rid, 0) + 1
    return frozenset(rid for rid, c in counts.items() if c >= quorum)


def global_ordered(view: QuorumView, t: int, quorum: int | None = None) -> frozenset[int]:
    """Requests ordered by at least ``quorum`` servers by tick t (default n-f)."""
    view._check_tick(t)
    quorum = view.n - view.f if quorum is None else quorum
    counts: dict[int, int] = {}
    for i in range(view.n):
        for rid in view.ordered[i][t]:
            counts[rid] = counts.get(rid, 0) + 1
    return frozenset(rid for rid, c in counts.items() if c >= quorum)


def check_prefix_consistency(view: QuorumView) -> Verdict:
    """Correct servers' orders must all be prefixes of a common global order."""
    correct = sorted(view.correct)
    for t in range(view.horizon + 1):
        # Orders that are the very objects of the previous tick were checked there.
        if t and all(view.ordered[i][t] is view.ordered[i][t - 1] for i in correct):
            continue
        for x in range(len(correct)):
            for y in range(x + 1, len(correct)):
                i, j = correct[x], correct[y]
                a, b = view.ordered[i][t], view.ordered[j][t]
                shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
                if longer[: len(shorter)] != shorter:
                    return Verdict(PREFIX_CONSISTENCY, False, (t, i, j))
    return Verdict(PREFIX_CONSISTENCY, True)


def serialize_view(view: QuorumView) -> str:
    """Trace-like line format with a leading server index column.

    A received set or order that is the very object of the server's
    previous tick adds no line, so it is not scanned.
    """
    lines = [f"# fairorder-view v1 n={view.n} f={view.f} "
             f"correct={','.join(str(i) for i in sorted(view.correct))}"]
    for i in range(view.n):
        seen: set[int] = set()
        emitted: set[int] = set()
        received, ordered = view.received[i], view.ordered[i]
        for t in range(view.horizon + 1):
            if not t or received[t] is not received[t - 1]:
                for rid in sorted(received[t] - seen):
                    lines.append(f"{i},{t},deliver,{rid}")
                    seen.add(rid)
            if not t or ordered[t] is not ordered[t - 1]:
                for rid in ordered[t]:
                    if rid not in emitted:
                        lines.append(f"{i},{t},order,{rid}")
                        emitted.add(rid)
        lines.append(f"order:{i}:" + ",".join(str(r) for r in view.ordered[i][view.horizon]))
    return "\n".join(lines) + "\n"
