"""Discrete-event simulator of one ordering server.

A run visits the ticks that carry issue and delivery events and lets
the active policy move requests from the pending set into the output
order. Every run records its trace: its event rows, final order and
horizon, so it costs O(events) whatever the horizon. ``Trace.history``,
one pass over the rows, holds its tick maps and what the rows hold at
each row tick, and rejects a second row of one kind for one request;
the checkers and the quorum view read it.
Everything is a pure function of (scenario, policy, seed), and the
policy is the scenario's own (``scenario.policy``): delays and noise
samples are derived statelessly from the seed and the request id, so
replaying a seed reproduces the trace bit for bit.

Policies:
  fcfs  orders each request immediately on delivery (delivery tick,
        then id, breaks ties).
  ttl   orders pending requests by their deadline feature, ascending.
  fair  adds one noise sample per request to its perceived score and
        repeatedly picks the minimum (uniformly at random among ties).

With stability gating on (the default), ttl and fair only order a
request once no in-flight request could still claim an earlier slot;
gating off models a server that must not wait (used to demonstrate the
asynchronous impossibility).

A run knows its policy only by one selection key per request, which
``_schedule`` computes per seed from the plan. Its one ``EngineState``
holds ids only: issuing adds an id to the in-flight set, and delivering
moves it onto a ready queue of the pending ids under their keys (a
delivery of an id not in flight raises ProtocolError). Stability is
monotone in the key, so a burst checks ``is_stable`` on the front only:
O(N log N) for a burst of N. The README's "How a burst is selected"
gives the keys and the tie rule. Loading keeps every perceived total
finite, so no key is NaN.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import NamedTuple

from .adversary import apply_delay  # noqa: F401  (bench/tracing.py wraps engine.apply_delay)
from .model import Request, score_parts
from .noise import value_at
from .noise import sample  # noqa: F401  (bench/tracing.py wraps engine.sample)
from .rng import Lanes, Stream, child, derive, first_random, tag
from .scenario import FairPolicy, FcfsPolicy, Policy, ScenarioConfig, TtlPolicy

TAG_DELAY = tag("delay")
TAG_NOISE = tag("noise")
TAG_PICK = tag("pick")

BLOCK = 1024  # seeds whose streams ``pair_count`` derives at once, as ``rng.Lanes``
BURST = "burst"  # ``_decide``: the pair is ordered in one fair burst

# A selection key, least first: (delivery tick, id), (deadline, id) or ``_fair_key``.
Key = tuple[float, int] | float


class ProtocolError(RuntimeError):
    """An event violates the state-transition protocol."""


class TraceParseError(ValueError):
    """A serialized trace is malformed."""


ISSUE = "issue"
DELIVER = "deliver"
ORDER = "order"


class Event(NamedTuple):
    """One trace row: the tick, the kind (issue, deliver or order), the request id."""

    at_tick: int
    kind: str
    rid: int


@dataclass(frozen=True)
class Snapshot:
    received: frozenset[int]
    pending: frozenset[int]
    output: tuple[int, ...]


@dataclass(frozen=True)
class Trace:
    """Complete timed record of one run: its event rows up to ``horizon`` (>= 0), and
    the final order, which is the rows' output at the horizon.

    A request has at most one row of each kind. The tick maps are read off
    ``history``, whose one pass over the rows raises ProtocolError on a
    second row. ``final_order`` is kept as a field: a run has it without
    building ``history``.
    """

    events: tuple[Event, ...]
    final_order: tuple[int, ...]
    seed: int
    horizon: int

    @property
    def issue_ticks(self) -> dict[int, int]:
        return self.history.ticks[ISSUE]

    @property
    def deliver_ticks(self) -> dict[int, int]:
        return self.history.ticks[DELIVER]

    @property
    def order_ticks(self) -> dict[int, int]:
        return self.history.ticks[ORDER]

    @cached_property
    def history(self) -> History:
        """The one record of what the rows hold at each tick, built on first use and
        kept; a trace made by ``replace`` builds its own."""
        return history_of(self.events, self.horizon)

    @property
    def snapshots(self) -> tuple[Snapshot, ...]:
        """The per-tick snapshots 0..horizon, built from the rows on each access."""
        return snapshots_from_events(self.events, self.horizon)


def _fair_key(policy: FairPolicy, total: float, prefix: int, rid: int) -> float:
    """A fair request's key: its perceived total plus its noise sample, negated for
    ``highest_first``, so the least key goes first either way. ``prefix`` is
    ``child(derive(seed), TAG_NOISE)``, so the noise is ``derive(seed, TAG_NOISE, rid)``'s:
    ``value_at`` its first draw, as ``_burst_count`` takes it from lanes."""
    spec = policy.spec
    if spec is None:
        adjusted = total + 0.0
    else:
        state = child(prefix, rid)
        adjusted = total + value_at(spec, first_random(state), state)
    return -adjusted if policy.direction == "highest_first" else adjusted


@dataclass
class EngineState:
    """One run's state: what its issue, deliver and order transitions read.

    ``keys`` is the run's ``Schedule.keys``. ``ready`` is a min-heap of
    (key, delivery sequence, id) over the delivered ids not yet ordered;
    under fair, ``tied`` holds the front's equal-key group, taken off the
    heap. Between them they hold exactly the pending ids.
    """

    policy: Policy
    keys: dict[int, Key]
    pick_stream: Stream  # drawn from only to break exact fair ties
    stability_gating: bool = True
    in_flight: set[int] = field(default_factory=set)  # issued, not delivered
    output: list[int] = field(default_factory=list)
    ready: list[tuple[Key, int, int]] = field(default_factory=list)
    tied: list[int] = field(default_factory=list)  # in delivery order
    delivered: int = 0  # the next delivery sequence number
    # min-heap of the in-flight ttl keys: built by the first gated ttl stability
    # check; a delivered request leaves it lazily
    ttl_keys: list[tuple[float, int]] | None = None

    def pop(self) -> int:
        """Remove and return the next id; under fair, ties draw from the pick stream.

        A fair burst always drains (its stability does not depend on the
        request), so a tie group taken off the heap is used up before the
        next delivery is pushed. A lone candidate draws nothing, so it is
        popped without ``fair_policy_step``.
        """
        if not isinstance(self.policy, FairPolicy):
            return heappop(self.ready)[2]
        tied, ready = self.tied, self.ready
        if not tied:
            key = ready[0][0]
            while ready and ready[0][0] == key:
                tied.append(heappop(ready)[2])
        if len(tied) == 1:
            return tied.pop()
        rid = fair_policy_step(tied, [self.keys[q] for q in tied], self.pick_stream)
        tied.remove(rid)
        return rid


def is_stable(rid: int, state: EngineState) -> bool:
    """True iff no in-flight request can still take priority over ``rid``.

    Under fcfs a delivered request is immediately stable (later arrivals
    order later by definition). Under ttl, stability requires every
    in-flight request to carry a strictly later key in ``state.keys``:
    the least of them, read off ``state.ttl_keys`` in O(log M) amortized.
    Under fair, noise is unbounded in general, so any in-flight request
    could end up ahead: stability requires an empty in-flight window.
    With gating disabled everything is immediately stable.
    """
    policy = state.policy
    if not state.stability_gating or isinstance(policy, FcfsPolicy):
        return True
    if isinstance(policy, TtlPolicy):
        if state.ttl_keys is None:
            state.ttl_keys = [state.keys[q] for q in state.in_flight]
            heapify(state.ttl_keys)
        heap = state.ttl_keys
        while heap and heap[0][1] not in state.in_flight:
            heappop(heap)
        return not heap or heap[0] > state.keys[rid]
    return not state.in_flight


def fair_policy_step(pending, keys, rng: Stream) -> int:
    """Select the next id: minimum fair key, ties uniform.

    ``keys[i]`` is the fair key of ``pending[i]`` (``_fair_key``);
    ``rng`` (the pick stream) is drawn from only to break exact ties.
    """
    pending = list(pending)
    if not pending:
        raise ProtocolError("fair policy step on an empty pending set")
    best = min(keys)
    high_priority = [rid for rid, k in zip(pending, keys) if k == best]
    if len(high_priority) == 1:
        return high_priority[0]
    return high_priority[rng.randrange(len(high_priority))]


def _apply_issue(state: EngineState, rid: int) -> None:
    state.in_flight.add(rid)
    if state.ttl_keys is not None:
        heappush(state.ttl_keys, state.keys[rid])


def _apply_deliver(state: EngineState, rid: int) -> None:
    """Move ``rid`` from in flight onto the ready queue under its key."""
    try:
        state.in_flight.remove(rid)
    except KeyError:
        raise ProtocolError(f"deliver of request {rid}, which is not in flight") from None
    heappush(state.ready, (state.keys[rid], state.delivered, rid))
    state.delivered += 1


def _emit_orders(state: EngineState) -> list[int]:
    """Order pending ids from the front of the ready queue while it is stable."""
    emitted: list[int] = []
    while state.ready or state.tied:
        # the front: the pending id the policy selects next
        if not is_stable(state.tied[0] if state.tied else state.ready[0][2], state):
            break
        rid = state.pop()
        state.output.append(rid)
        emitted.append(rid)
    return emitted


@dataclass(frozen=True)
class Schedule:
    """One run's request ids, grouped by issue and delivery tick, and their keys.

    Groups are sorted ascending; ``ticks`` lists every tick with a group,
    ascending, and ``keys`` maps an id to its selection key (``_schedule``).
    """

    issues: dict[int, list[int]]
    delivers: dict[int, list[int]]
    ticks: tuple[int, ...]
    keys: dict[int, Key]


class PlanEntry(NamedTuple):
    """One request of ``Prepared.plan``: the request after adversaries, its delivery
    and its ``score_parts`` (relevant sum, irrelevant values in summation order).

    A delivery that draws nothing has ``delay_at`` None and ``tick`` set (None:
    never): an override, or a constant delay already folded into eta.
    """

    request: Request
    tick: int | None
    delay_at: Callable[[float], float] | None  # its client model's, one per model
    relev: float
    values: tuple[float, ...]


def _draw_delay(delay_at: Callable[[float], float], prefix: int, rid: int) -> float:
    """``DelayModel.sample(client, Stream(child(prefix, rid)))`` with no Stream, from a
    plan entry's ``delay_at``: a delay model draws at most one uniform. ``prefix`` is
    ``derive(seed, TAG_DELAY)``."""
    return delay_at(first_random(child(prefix, rid)))


def _total(e: PlanEntry, delay: float, slot: int) -> float:
    """``score`` of ``delayed(e.request, delay, eta_feature)`` bit for bit, with no
    Request; ``slot`` is eta's place in ``e.values``. A zero delay keeps the total."""
    if not delay:
        return e.relev + sum(e.values)
    values = list(e.values)
    values[slot] += delay
    return e.relev + sum(values)


@dataclass(frozen=True)
class Prepared:
    """A scenario compiled for repeated seeded runs.

    ``plan`` has one entry per request, in the scenario's request order, and
    ``eta_slot`` is the eta feature's place in each entry's ``values``.
    ``_schedule`` and the pair kernel both read them and draw and key
    with ``_draw_delay`` and ``_key_of``. Loading rejects a scenario
    whose perceived totals could overflow.
    """

    scenario: ScenarioConfig
    drain: int
    plan: tuple[PlanEntry, ...]
    eta_slot: int


def prepare(scenario: ScenarioConfig) -> Prepared:
    """Compile the plan of the scenario's ``deliveries`` (adversaries applied at load,
    constant delays folded in) with their score parts, once. A run orders by
    ``scenario.policy``."""
    part = scenario.partition
    plan = tuple([PlanEntry(r, tick, delay_at, *score_parts(r, part))
                  for r, tick, delay_at in scenario.deliveries])
    slot = list(part.irrelevant).index(scenario.eta_feature)  # in score's summation order
    return Prepared(scenario, scenario.drain(), plan, slot)


def _key_of(prep: Prepared) -> Callable[[PlanEntry, float, float], Key]:
    """Each policy's key, written once: ``key(e, d, tick)`` for a plan entry with drawn
    delay ``d`` (0.0: none), delivered at ``tick``. fcfs: ``(tick, id)``. ttl:
    ``(deadline, id)``, with ``d`` folded into the deadline as ``delayed`` folds it
    when the deadline feature is eta. fair: the perceived total, which ``_fair_key``
    turns into the key. Built per call: the ``--jobs`` pool pickles ``Prepared``."""
    policy = prep.scenario.policy
    if isinstance(policy, FairPolicy):
        slot = prep.eta_slot
        return lambda e, d, tick: _total(e, d, slot)
    if isinstance(policy, FcfsPolicy):
        return lambda e, d, tick: (tick, e.request.id)
    f, bump = policy.deadline_feature, policy.deadline_feature == prep.scenario.eta_feature
    return lambda e, d, tick: (e.request.features[f] + d if d and bump else e.request.features[f],
                               e.request.id)


def _schedule(prep: Prepared, root: int) -> Schedule:
    """The schedule of the seed whose ``derive(seed)`` is ``root``: the plan's ids
    by tick, and each one's key (``_key_of``; ttl: every request's, since stability
    reads in-flight keys; otherwise a delivered one's)."""
    policy = prep.scenario.policy
    fair, ttl = isinstance(policy, FairPolicy), isinstance(policy, TtlPolicy)
    key = _key_of(prep)
    issues: dict[int, list[int]] = {}
    delivers: dict[int, list[int]] = {}
    keys: dict[int, Key] = {}
    delay_prefix, noise_prefix = child(root, TAG_DELAY), child(root, TAG_NOISE)
    for e in prep.plan:
        r, tick, d = e.request, e.tick, 0.0
        rid = r.id
        if e.delay_at is not None:
            d = _draw_delay(e.delay_at, delay_prefix, rid)
            tick = r.issue_tick + math.ceil(d)
        issues.setdefault(r.issue_tick, []).append(rid)
        if tick is not None:
            delivers.setdefault(tick, []).append(rid)
        if tick is not None or ttl:
            k = key(e, d, tick)
            keys[rid] = _fair_key(policy, k, noise_prefix, rid) if fair else k
    for group in (*issues.values(), *delivers.values()):
        group.sort()
    return Schedule(issues, delivers, tuple(sorted(issues.keys() | delivers)), keys)


def run_prepared(prep: Prepared, seed: int) -> Trace:
    root = derive(seed)
    sched = _schedule(prep, root)
    state = EngineState(policy=prep.scenario.policy, keys=sched.keys,
                        pick_stream=Stream(child(root, TAG_PICK)),
                        stability_gating=prep.scenario.stability_gating)
    events: list[Event] = []
    # Stability depends only on the in-flight set, which changes only at
    # these ticks, so no other tick can emit an order.
    for t in sched.ticks:
        for rid in sched.issues.get(t, ()):
            _apply_issue(state, rid)
            events.append(Event(t, ISSUE, rid))
        for rid in sched.delivers.get(t, ()):
            _apply_deliver(state, rid)
            events.append(Event(t, DELIVER, rid))
        for rid in _emit_orders(state):
            events.append(Event(t, ORDER, rid))
    horizon = (sched.ticks[-1] if sched.ticks else 0) + prep.drain
    return Trace(events=tuple(events), final_order=tuple(state.output), seed=seed,
                 horizon=horizon)


def pair_count(prep: Prepared, pair: tuple[int, int], seed_lo: int,
               seed_hi: int) -> tuple[int, int | None]:
    """Count the seeds in [seed_lo, seed_hi) whose run orders pair[0] before pair[1].

    Exact shortcut for the engine: the result equals reading
    ``run_prepared(prep, seed).final_order`` for every seed. Returns
    (count, missing), where ``missing`` is the first seed whose final
    order lacks either request, or None. One rule decides every policy
    (``_decide``), and only a fair seed whose two keys tie exactly runs
    the engine.

    It sorts ``prep.plan`` by issue tick once per call (ties in request
    order). Per seed, a drawn delivery tick is the issue tick plus the
    ``_draw_delay`` delay rounded up, and a drawn request's key comes from
    ``_key_of``, as in ``_schedule``. When requests block (gated fair or
    ttl), a seed draws every drawn entry; otherwise only the pair's own.
    When no request that matters draws, the range is decided at once.
    The seeds go in blocks of ``BLOCK``, and each block takes its roots,
    delay prefixes and pair noise draws (``_pair_noise``) from ``rng.Lanes``.

    A seed draws the pair's own delays first. Gated fair, with every
    request delivered at some tick, a pair delivered at or after the last
    issue tick L is ordered in the final burst: from any t >= L the
    fixpoint reads the latest delivery of all, M >= t, and before M the
    request delivered at M is in flight. Such a seed goes to
    ``_burst_count`` without the other draws, which cannot change its count.
    Every total is finite, so a fair key is finite or +-inf, never NaN.
    """
    policy = prep.scenario.policy
    fair = isinstance(policy, FairPolicy)
    blocked = prep.scenario.stability_gating and not isinstance(policy, FcfsPolicy)
    key = _key_of(prep)
    plan = sorted(prep.plan, key=lambda e: e.request.issue_tick)
    issue_ticks = [e.request.issue_tick for e in plan]
    place = {e.request.id: i for i, e in enumerate(plan)}
    at = (place[pair[0]], place[pair[1]])
    # Every delivery tick (inf: never) and key, by issue tick; a drawn one is set per seed.
    ticks = [math.inf if e.tick is None else e.tick for e in plan]
    keys = [key(e, 0.0, t) for e, t in zip(plan, ticks)]
    drawn = [(i, issue_ticks[i], e.delay_at, e.request.id, e)
             for i, e in enumerate(plan) if e.delay_at is not None and (blocked or i in at)]
    seeds = range(seed_lo, seed_hi)
    if not drawn:
        first = _decide(prep, ticks, keys, at, issue_ticks, blocked)
        if first is None:
            return 0, seeds[0] if seeds else None
        if first is not BURST:
            return len(seeds) * first, None
        total_a, total_b = keys[at[0]], keys[at[1]]
        return sum(_burst_count(prep, pair, block, _pair_noise(policy, pair, Lanes.derive(block)),
                                total_a, total_b) for block in _blocks(seeds)), None
    own = [d for d in drawn if d[0] in at]
    rest = [d for d in drawn if d[0] not in at]
    # The final burst needs a latest delivery: no request may be never delivered.
    final = blocked and fair and all(e.tick is not None or e.delay_at is not None for e in plan)
    last_issue, (ia, ib) = issue_ticks[-1], at
    ceil = math.ceil
    count, missing = 0, None
    for block in _blocks(seeds):
        roots = Lanes.derive(block)
        prefixes = roots.child(TAG_DELAY).values()
        noise = _pair_noise(policy, pair, roots) if fair else None
        for j, seed in enumerate(block):
            # A seed sets every drawn entry that it reads, so ticks and keys are not copied.
            prefix = prefixes[j]
            for i, issue, delay_at, rid, e in own:
                d = _draw_delay(delay_at, prefix, rid)
                ticks[i] = issue + ceil(d)
                keys[i] = key(e, d, ticks[i])
            if final and ticks[ia] >= last_issue and ticks[ib] >= last_issue:
                first = BURST
            else:
                for i, issue, delay_at, rid, e in rest:
                    d = _draw_delay(delay_at, prefix, rid)
                    ticks[i] = issue + ceil(d)
                    if not fair:  # only gated ttl reads another request's key: its blockers'
                        keys[i] = key(e, d, ticks[i])
                first = _decide(prep, ticks, keys, at, issue_ticks, blocked)
            if first is BURST:
                draws = None if noise is None else [column[j:j + 1] for column in noise]
                count += _burst_count(prep, pair, (seed,), draws, keys[ia], keys[ib])
            elif first is None:
                if missing is None:
                    missing = seed
            else:
                count += first
    return count, missing


def _blocks(seeds: range):
    """``seeds`` in consecutive ranges of ``BLOCK``, the last one shorter."""
    return (seeds[k:k + BLOCK] for k in range(0, len(seeds), BLOCK))


def _pair_noise(policy: FairPolicy, pair: tuple[int, int], roots: Lanes) -> tuple | None:
    """The pair's noise draws in each lane of roots ``derive(seed)``, as four columns
    ``(u_a, state_a, u_b, state_b)``: ``state_a`` is ``derive(seed, TAG_NOISE, pair[0])``
    and ``u_a`` its ``first_random``, and likewise for pair[1]. None when the policy
    adds no noise."""
    if policy.spec is None:
        return None
    prefix = roots.child(TAG_NOISE)
    a, b = prefix.child(pair[0]), prefix.child(pair[1])
    return a.first_random(), a.values(), b.first_random(), b.values()


def _burst_count(prep: Prepared, pair: tuple[int, int], seeds, noise, total_a: float,
                 total_b: float) -> int:
    """Seeds on which pair[0] precedes pair[1], both ordered in one fair burst.

    ``noise`` holds the pair's noise draws (``_pair_noise``), each column
    in step with ``seeds``. The burst is emitted in key order, so the two
    ``_fair_key``s, taken seed by seed from the draws, decide a seed
    unless they tie; a tied seed also depends on the pick stream, so it
    runs through the engine and reads the run's final order.
    """
    policy = prep.scenario.policy
    spec, high = policy.spec, policy.direction == "highest_first"
    if spec is None:  # every seed's keys are the two totals
        if total_a != total_b:
            return len(seeds) * ((total_a > total_b) if high else (total_a < total_b))
        return sum(_engine_first(prep, pair, seed) for seed in seeds)
    count = 0
    for seed, u_a, state_a, u_b, state_b in zip(seeds, *noise):
        adj_a = total_a + value_at(spec, u_a, state_a)
        adj_b = total_b + value_at(spec, u_b, state_b)
        if adj_a == adj_b:
            count += _engine_first(prep, pair, seed)
        elif (adj_a > adj_b) if high else (adj_a < adj_b):  # _fair_key's negation, exactly
            count += 1
    return count


def _engine_first(prep: Prepared, pair: tuple[int, int], seed: int) -> bool:
    """Whether the seed's engine run orders pair[0] before pair[1]."""
    order = run_prepared(prep, seed).final_order
    return order.index(pair[0]) < order.index(pair[1])


def _decide(prep: Prepared, ticks: list, keys: list, at: tuple[int, int],
            issue_ticks: list[int], blocked: bool) -> int | str | None:
    """Whether pair[0] goes first on a seed that gives these delivery ticks (inf: never)
    and keys, listed by issue tick with the pair at ``at``: 1 or 0; None if either is
    never ordered; ``BURST`` if both are ordered in one fair burst, where the seed's
    noise decides (``_burst_count``).

    A pair request is ordered at the first tick at or after its delivery
    at which none of its blockers is in flight (``_order_tick``). When
    ``blocked`` (gating on, not fcfs), every request blocks under fair
    and a request with a lesser key under ttl; otherwise none does (an
    in-flight fcfs request always has a later key). Two requests ordered
    at one tick go in key order.
    """
    fair = isinstance(prep.scenario.policy, FairPolicy)
    ia, ib = at
    ta, tb = ticks[ia], ticks[ib]
    if blocked and ta != math.inf and tb != math.inf:
        if fair:
            latest_a = latest_b = list(accumulate(ticks, max))
        else:
            latest_a, latest_b = (list(accumulate(
                (t if k < keys[i] else -math.inf for t, k in zip(ticks, keys)), max)) for i in at)
        ta, tb = _order_tick(ta, issue_ticks, latest_a), _order_tick(tb, issue_ticks, latest_b)
    if ta == math.inf or tb == math.inf:
        return None
    if ta != tb:
        return int(ta < tb)
    if fair:
        return BURST
    return int(keys[ia] < keys[ib])


def _order_tick(t: float, issue_ticks: list[int], latest_by: list[float]) -> float:
    """The first tick at or after t, a request's delivery, at which none of its blockers
    is in flight (issued, not delivered): the fixpoint of t <- the latest delivery among
    its blockers issued by t. inf: one of them is never delivered. ``latest_by[k]`` is
    the latest delivery among the blockers within the first k + 1 requests (-inf: none)."""
    while (latest := latest_by[bisect_right(issue_ticks, t) - 1]) > t:
        t = latest
    return t


def run(scenario: ScenarioConfig, seed: int = 0) -> Trace:
    """Simulate one full run under the scenario's policy; identical inputs yield
    identical traces."""
    return run_prepared(prepare(scenario), seed)


class Step(NamedTuple):
    """One row tick of a trace: the ids received there (ascending) and ordered there
    (in output order), and whether an order row there lands before an earlier row, so
    that the output before the tick may not be a prefix of its output."""

    tick: int
    received: tuple[int, ...]
    ordered: tuple[int, ...]
    reorders: bool


@dataclass(frozen=True)
class History:
    """What a trace's rows hold at each tick, from one pass over them (``history_of``).

    ``ticks`` maps each kind to each request's tick in its row of that
    kind, as written (negative or past the horizon). At tick t a request
    is received once it has a deliver row at a tick <= t, and the output
    lists the order rows at ticks <= t in row order (negative ticks count
    as 0, rows past the horizon are ignored). ``steps`` has one entry per
    tick with such a row, since no other tick changes the received set or
    the output. ``order_rows`` holds each order row that counts as
    (tick, id), in row order, its tick clamped at 0.
    """

    steps: tuple[Step, ...]
    order_rows: tuple[tuple[int, int], ...]
    ticks: dict[str, dict[int, int]]

    def output_at(self, u: int) -> tuple[int, ...]:
        """The output at tick u, rebuilt from all the order rows: callers rebuild it only
        at a tick that reorders."""
        return tuple(rid for t, rid in self.order_rows if t <= u)


def history_of(events, horizon: int) -> History:
    """The ``History`` of the rows ``events`` up to ``horizon``, in O(events log events).

    A second row of one kind for one request raises ProtocolError. A
    tick's ordered ids come from its own order rows, which keep their row
    order in the output.
    """
    ticks: dict[str, dict[int, int]] = {ISSUE: {}, DELIVER: {}, ORDER: {}}
    delivers: dict[int, list[int]] = {}
    orders: dict[int, list[int]] = {}  # row tick -> its order rows' places in order_rows
    order_rows: list[tuple[int, int]] = []
    for at_tick, kind, rid in events:
        if rid in (kind_ticks := ticks[kind]):
            raise ProtocolError(f"request {rid} has a second {kind} row")
        kind_ticks[rid] = at_tick
        t = max(at_tick, 0)
        if t > horizon:
            continue
        if kind == DELIVER:
            delivers.setdefault(t, []).append(rid)
        elif kind == ORDER:
            orders.setdefault(t, []).append(len(order_rows))
            order_rows.append((t, rid))
    steps, last = [], -1  # last: the latest order row applied
    for t in sorted(delivers.keys() | orders):
        rows = orders.get(t, ())
        steps.append(Step(t, tuple(sorted(delivers.get(t, ()))),
                          tuple(order_rows[row][1] for row in rows),
                          bool(rows) and rows[0] < last))
        if rows:
            last = max(last, rows[-1])
    return History(tuple(steps), tuple(order_rows), ticks)


def snapshots_from_events(events, horizon: int) -> tuple[Snapshot, ...]:
    """The per-tick snapshots 0..horizon of ``history_of(events, horizon)``.

    A tick without a row repeats the previous Snapshot object. It costs
    O(horizon), so only tests and the bench tracer read it.
    """
    history = history_of(events, horizon)
    snap, snapshots = Snapshot(frozenset(), frozenset(), ()), []
    received, pending, ordered = set(), set(), set()
    for t, new_received, new_ordered, reorders in history.steps:
        snapshots.extend([snap] * (t - len(snapshots)))
        output = history.output_at(t) if reorders else snap.output + new_ordered
        received.update(new_received)
        ordered.update(new_ordered)
        pending.update(rid for rid in new_received if rid not in ordered)
        pending.difference_update(new_ordered)
        snap = Snapshot(frozenset(received), frozenset(pending), output)
        snapshots.append(snap)
    snapshots.extend([snap] * (horizon + 1 - len(snapshots)))
    return tuple(snapshots)


def serialize_trace(trace: Trace) -> str:
    """Line format: "tick,event_kind,request_id" rows, then the final order."""
    lines = [f"# fairorder-trace v1 seed={trace.seed} horizon={trace.horizon}"]
    for t, kind, rid in trace.events:
        lines.append(f"{t},{kind},{rid}")
    lines.append("order:" + ",".join(str(i) for i in trace.final_order))
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> Trace:
    """Rebuild a Trace from its serialized form, with its ``history`` already built.

    A file has at most one header line and one ``order:`` line. A header
    horizon must be >= 0 and no row tick may lie past it, a request has at
    most one row of each kind, and the ``order:`` line must list the rows'
    output at the horizon (``history.output_at(horizon)``).
    """
    seed, last, header = 0, 0, False  # last: the latest row tick, and at least 0
    last_line = 0  # the first line with a row at tick ``last``
    horizon: int | None = None
    events: list[Event] = []
    final_order: tuple[int, ...] | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        try:
            if line.startswith("#"):
                if header:
                    raise ValueError("second header line")
                header = True
                for part in line.split():
                    if part.startswith("seed="):
                        seed = int(part[5:])
                    if part.startswith("horizon="):
                        horizon = int(part[8:])
                        if horizon < 0:
                            raise ValueError(f"negative horizon {horizon}")
            elif line.startswith("order:"):
                if final_order is not None:
                    raise ValueError("second order line")
                body = line[len("order:"):]
                final_order = tuple(int(x) for x in body.split(",")) if body else ()
            elif line:
                parts = line.split(",")
                if len(parts) != 3:
                    raise ValueError("expected tick,kind,id")
                tick, kind, rid = int(parts[0]), parts[1], int(parts[2])
                if kind not in (ISSUE, DELIVER, ORDER):
                    raise ValueError(f"unknown event kind {kind!r}")
                events.append(Event(tick, kind, rid))
                if tick > last:
                    last, last_line = tick, lineno
        except ValueError as exc:
            raise TraceParseError(f"line {lineno}: {exc}") from exc
    if final_order is None:
        raise TraceParseError("missing final order line")
    if horizon is None:
        horizon = last
    elif last > horizon:
        raise TraceParseError(f"line {last_line}: row tick {last} is past the horizon {horizon}")
    try:
        history = history_of(events, horizon)
    except ProtocolError as exc:
        raise TraceParseError(str(exc)) from exc
    output = history.output_at(horizon)
    if final_order != output:
        at = next((i for i, (a, b) in enumerate(zip(final_order, output)) if a != b),
                  min(len(final_order), len(output)))
        raise TraceParseError(f"order line differs from the order rows' output at position {at}")
    trace = Trace(events=tuple(events), final_order=final_order, seed=seed, horizon=horizon)
    trace.__dict__["history"] = history  # what Trace.history would build
    return trace
