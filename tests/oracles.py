"""Independent numerical oracles used by unit and acceptance tests."""

import math
from heapq import heapify

from scipy.integrate import quad

from fairorder.adversary import apply_bribe, misreport_time
from fairorder.engine import (DELIVER, ISSUE, ORDER, Snapshot, fair_policy_step, is_stable,
                              run_prepared)
from fairorder.model import adjacent, score
from fairorder.scenario import FairPolicy


def laplace_pdf(x, mu, b):
    return math.exp(-abs(x - mu) / b) / (2.0 * b)


def order_probability_oracle(mu_x, mu_y, b):
    """P(X < Y) by nested quadrature of the joint density over {x < y}.

    Outer integral over x, inner over y in (x, inf); both split at the
    density kinks so the adaptive rule only ever sees smooth pieces.
    Independent of the closed form under test.
    """

    def survival_y(x):
        total = 0.0
        if x < mu_y:
            total += quad(laplace_pdf, x, mu_y, args=(mu_y, b), epsabs=1e-12)[0]
            total += quad(laplace_pdf, mu_y, math.inf, args=(mu_y, b), epsabs=1e-12)[0]
        else:
            total += quad(laplace_pdf, x, math.inf, args=(mu_y, b), epsabs=1e-12)[0]
        return total

    def integrand(x):
        return laplace_pdf(x, mu_x, b) * survival_y(x)

    cuts = sorted({mu_x, mu_y})
    bounds = [-math.inf] + cuts + [math.inf]
    return sum(
        quad(integrand, lo, hi, epsabs=1e-11, limit=200)[0]
        for lo, hi in zip(bounds, bounds[1:])
    )


def reported_requests(scenario):
    """The requests with each client's bribe and then its misreport applied, one request
    at a time, in the scenario's request order: the reference for ``scenario.reported``."""
    by_client = {a.client_id: a for a in scenario.adversaries}
    out = []
    for r in scenario.requests:
        adv = by_client.get(r.client_id)
        if adv is not None:
            r = apply_bribe(r, adv, scenario.eta_feature)
            r = misreport_time(r, adv, scenario.eta_feature)
        out.append(r)
    return tuple(out)


def engine_pair_count(prep, pair, seed_lo, seed_hi):
    """(count, first missing seed) from one full engine run per seed: the reference for
    ``pair_count``."""
    a, b = pair
    count, missing = 0, None
    for seed in range(seed_lo, seed_hi):
        order = run_prepared(prep, seed, record=False).final_order
        if a in order and b in order:
            count += order.index(a) < order.index(b)
        elif missing is None:
            missing = seed
    return count, missing


def pairwise_noise_bound(requests, part, lam):
    """The noise-bound check by brute force: every pair, compared with ``adjacent``."""
    scored = [(r, score(r, part)) for r in requests]
    for i, (r1, s1) in enumerate(scored):
        for r2, s2 in scored[i + 1:]:
            if adjacent(r1, r2, part) and abs(s1.eta - s2.eta) > lam:
                return False
    return True


def tick_maps_per_row(events):
    """(issue, deliver, order) tick maps: each id's tick in its row of the kind, found
    by a search per id."""
    maps = []
    for kind in (ISSUE, DELIVER, ORDER):
        rows = [ev for ev in events if ev.kind == kind]
        maps.append({rid: next(ev.at_tick for ev in rows if ev.rid == rid)
                     for rid in {ev.rid for ev in rows}})
    return tuple(maps)


def order_determinism_per_row(events):
    """The least (tick, id) of a deliver or order row with no row of the kind before it
    in the chain issue -> deliver -> order, at a tick <=, found by a search of all the
    rows per row; None if every row has one."""
    before = {DELIVER: ISSUE, ORDER: DELIVER}
    broken = [(ev.at_tick, ev.rid) for ev in events if ev.kind in before
              and not any(p.kind == before[ev.kind] and p.rid == ev.rid
                          and p.at_tick <= ev.at_tick for p in events)]
    return min(broken, default=None)


def snapshots_per_tick(events, horizon):
    """Every tick's snapshot rebuilt from scratch out of the event rows.

    Received at t: deliver rows at ticks <= t. Output at t: order rows at
    ticks <= t, in row order. O(horizon x rows); each request id appears
    in at most one deliver row and one order row.
    """
    deliver_ticks = {ev.rid: ev.at_tick for ev in events if ev.kind == DELIVER}
    order_ticks = {ev.rid: ev.at_tick for ev in events if ev.kind == ORDER}
    order_sequence = [ev.rid for ev in events if ev.kind == ORDER]
    snapshots = []
    for t in range(horizon + 1):
        received = frozenset(rid for rid, tk in deliver_ticks.items() if tk <= t)
        output = tuple(rid for rid in order_sequence if order_ticks[rid] <= t)
        snapshots.append(Snapshot(received, received - set(output), output))
    return tuple(snapshots)


def consistency_and_monotonic_per_tick(snapshots):
    """(consistency, monotonic) witnesses, or None, from every pair of adjacent ticks.

    Compares each tick's snapshot with the previous one by value, with no
    shortcut for repeated objects; the grown ids are the set difference of
    the two outputs.
    """

    def is_prefix(shorter, longer):
        return len(shorter) <= len(longer) and longer[:len(shorter)] == shorter

    def divergence(a, b):
        for x, y in zip(a, b):
            if x != y:
                return (x, y)
        return (a[min(len(a), len(b)) - 1] if a else -1,)

    consistency = monotonic = None
    for t in range(1, len(snapshots)):
        prev, cur = snapshots[t - 1], snapshots[t]
        if monotonic is None and not is_prefix(prev.output, cur.output):
            monotonic = (t, *divergence(prev.output, cur.output))
        if consistency is None and prev.received == cur.received:
            if not is_prefix(prev.output, cur.output):
                consistency = (t, *divergence(prev.output, cur.output))
            else:
                illegal = set(cur.output) - set(prev.output) - prev.received
                if illegal:
                    consistency = (t, min(illegal))
    return consistency, monotonic


def precedence_closure_by_fixpoint(pairs):
    """The transitive closure of (before, after) pairs by repeated pairwise joins.

    O(pairs^2) per pass. A pair (a, a) in the result means a lies on a cycle.
    """
    closure = {(int(a), int(b)) for a, b in pairs}
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


def strong_non_blocking_per_tick(snapshots):
    """The strong non-blocking witness, or None: every tick with pending requests
    before the last must order something at the next tick."""
    for t, snap in enumerate(snapshots[:-1]):
        if snap.pending and len(snapshots[t + 1].output) == len(snap.output):
            return (t, min(snap.pending))
    return None


EMPTY = Snapshot(frozenset(), frozenset(), ())  # a server's history before its lag has passed


class PerTickView:
    """A quorum view as a [server][tick] copy of every server's history.

    Built on ``snapshots_per_tick``; every query visits every server and
    tick by value, with no shortcut for quiet ticks.
    """

    def __init__(self, trace, n, f, lags, byzantine_servers=()):
        byz = frozenset(byzantine_servers)
        self.n, self.f = n, f
        self.correct = frozenset(range(n)) - byz
        self.horizon = trace.horizon + max(lags)
        snapshots = snapshots_per_tick(trace.events, trace.horizon)
        self.received, self.ordered = [], []
        for i in range(n):
            if i in byz:
                self.received.append([frozenset(trace.deliver_ticks)] * (self.horizon + 1))
                self.ordered.append([tuple(reversed(trace.final_order))] * (self.horizon + 1))
                continue
            lagged = [EMPTY] * lags[i] + list(snapshots)
            lagged += [lagged[-1]] * (self.horizon + 1 - len(lagged))
            self.received.append([s.received for s in lagged])
            self.ordered.append([s.output for s in lagged])

    def _quorum_set(self, histories, t, quorum):
        counts = {}
        for i in range(self.n):
            for rid in set(histories[i][t]):
                counts[rid] = counts.get(rid, 0) + 1
        return frozenset(rid for rid, c in counts.items() if c >= quorum)

    def global_received(self, t, quorum=None):
        return self._quorum_set(self.received, t, self.f + 1 if quorum is None else quorum)

    def global_ordered(self, t, quorum=None):
        return self._quorum_set(self.ordered, t, self.n - self.f if quorum is None else quorum)

    def prefix_witness(self):
        """(tick, i, j) for the first two correct servers whose orders conflict, or None."""
        correct = sorted(self.correct)
        for t in range(self.horizon + 1):
            for x, i in enumerate(correct):
                for j in correct[x + 1:]:
                    a, b = self.ordered[i][t], self.ordered[j][t]
                    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
                    if longer[:len(shorter)] != shorter:
                        return (t, i, j)
        return None

    def serialize(self):
        """The view.txt bytes: per server, each tick's newly received and newly ordered ids."""
        lines = [f"# fairorder-view v1 n={self.n} f={self.f} "
                 f"correct={','.join(str(i) for i in sorted(self.correct))}"]
        for i in range(self.n):
            seen, emitted = set(), set()
            for t in range(self.horizon + 1):
                for rid in sorted(self.received[i][t] - seen):
                    lines.append(f"{i},{t},deliver,{rid}")
                    seen.add(rid)
                for rid in self.ordered[i][t]:
                    if rid not in emitted:
                        lines.append(f"{i},{t},order,{rid}")
                        emitted.add(rid)
            lines.append(f"order:{i}:" + ",".join(str(r) for r in self.ordered[i][self.horizon]))
        return "\n".join(lines) + "\n"


def emit_orders_by_rescan(state):
    """The burst loop as one rescan of the pending ids per order: O(N^2) a burst.

    The pending ids are the ready queue's, taken in delivery order (the
    rescan never fills the tie group). Each step keeps the ids that
    ``is_stable`` accepts and takes the policy's minimum among them; under
    fair, ``fair_policy_step`` breaks exact ties from the pick stream. A
    drop-in for the engine's ``_emit_orders``.
    """
    pending = [rid for _, _, rid in sorted(state.ready, key=lambda entry: entry[1])]
    emitted = []
    while pending:
        stable = [rid for rid in pending if is_stable(rid, state)]
        if not stable:
            break
        rid = _select_by_rescan(stable, state)
        pending.remove(rid)
        state.output.append(rid)
        emitted.append(rid)
    left = set(pending)
    state.ready = [entry for entry in state.ready if entry[2] in left]
    heapify(state.ready)
    return emitted


def ttl_stable_by_scan(rid, state):
    """Gated ttl stability as defined: every in-flight request has a later (deadline, id)
    key in the run's keys."""
    keys = state.keys
    return all(keys[q] > keys[rid] for q in state.in_flight)


def _select_by_rescan(stable, state):
    if isinstance(state.policy, FairPolicy):
        return fair_policy_step(stable, [state.keys[rid] for rid in stable], state.pick_stream)
    return min(stable, key=state.keys.__getitem__)
