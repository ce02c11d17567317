"""Discrete-event simulator of one ordering server.

A run processes a scenario's issue and delivery events tick by tick and
lets the active policy move requests from the pending set into the
output order. Everything is a pure function of (scenario, policy,
seed): delays and noise samples are derived statelessly from the seed
and the request id, so replaying a seed reproduces the trace bit for
bit, and recording a full trace versus only the final order cannot
change any sampled value.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .adversary import DelayKind, _with_eta_bump, apply_delay
from .model import FeaturePartition, Request, score
from .noise import NoiseSpec, sample
from .rng import Stream, derive, tag
from .scenario import FairPolicy, FcfsPolicy, Policy, ScenarioConfig, TtlPolicy

TAG_DELAY = tag("delay")
TAG_NOISE = tag("noise")
TAG_PICK = tag("pick")


class ProtocolError(RuntimeError):
    """An event violates the state-transition protocol."""


class TraceParseError(ValueError):
    """A serialized trace is malformed."""


ISSUE = "issue"
DELIVER = "deliver"
POLICY_STEP = "policy_step"
ORDER = "order"


@dataclass(frozen=True)
class Event:
    """One step input or output.

    ``issue`` carries the request itself, ``deliver`` and ``order``
    carry a request id. ``policy_step`` is an input command only; the
    trace records its emissions as ``order`` events.
    """

    at_tick: int
    kind: str
    request: Request | None = None
    request_id: int | None = None

    @property
    def rid(self) -> int | None:
        if self.request is not None:
            return self.request.id
        return self.request_id


@dataclass
class EngineState:
    """Server-side state: client queues, received set, pending set, output."""

    tick: int = 0
    client_pending: dict[int, dict[int, Request]] = field(default_factory=dict)
    server_received: dict[int, Request] = field(default_factory=dict)
    pending: dict[int, Request] = field(default_factory=dict)
    output: list[int] = field(default_factory=list)
    deliver_ticks: dict[int, int] = field(default_factory=dict)

    def in_flight(self) -> list[Request]:
        """Requests issued but not yet delivered."""
        return [r for q in self.client_pending.values() for r in q.values()]


@dataclass(frozen=True)
class Snapshot:
    received: frozenset[int]
    pending: frozenset[int]
    output: tuple[int, ...]


@dataclass(frozen=True)
class Trace:
    """Complete timed record of one run (snapshots indexed by tick)."""

    events: tuple[Event, ...]
    snapshots: tuple[Snapshot, ...]
    final_order: tuple[int, ...]
    seed: int
    issue_ticks: dict[int, int]
    deliver_ticks: dict[int, int]
    order_ticks: dict[int, int]

    @property
    def horizon(self) -> int:
        return len(self.snapshots) - 1


class PolicyRuntime:
    """Per-run policy context: noise cache, tie-break stream, gating."""

    def __init__(self, policy: Policy, partition, seed: int, stability_gating: bool = True,
                 perceived_totals: dict[int, float] | None = None):
        self.policy = policy
        self.partition = partition
        self.seed = seed
        self.stability_gating = stability_gating
        self.pick_stream = Stream(derive(seed, TAG_PICK))
        self.noise_cache: dict[int, float] = {}
        self._score_cache: dict[int, float] = dict(perceived_totals or ())

    def perceived(self, r: Request) -> float:
        s = self._score_cache.get(r.id)
        if s is None:
            s = score(r, self.partition).total
            self._score_cache[r.id] = s
        return s

    def noise_for(self, r: Request) -> float:
        y = self.noise_cache.get(r.id)
        if y is None:
            spec = self.policy.spec if isinstance(self.policy, FairPolicy) else None
            y = 0.0 if spec is None else sample(spec, Stream(derive(self.seed, TAG_NOISE, r.id)))
            self.noise_cache[r.id] = y
        return y

    def adjusted(self, r: Request) -> float:
        return self.perceived(r) + self.noise_for(r)


def is_stable(r: Request, state: EngineState, policy: Policy, stability_gating: bool = True) -> bool:
    """True iff no in-flight request can still take priority over ``r``.

    Under fcfs a delivered request is immediately stable (later arrivals
    order later by definition). Under ttl, stability requires every
    in-flight request to carry a strictly later (deadline, id) key.
    Under fair, noise is unbounded in general, so any in-flight request
    could end up ahead: stability requires an empty in-flight window.
    With gating disabled everything is immediately stable.
    """
    if not stability_gating or isinstance(policy, FcfsPolicy):
        return True
    flight = state.in_flight()
    if isinstance(policy, TtlPolicy):
        i = policy.deadline_feature
        key = (r.features[i], r.id)
        return all((f.features[i], f.id) > key for f in flight)
    return not flight


def fair_policy_step(pending, part, spec: NoiseSpec | None, rng: Stream, *,
                     noise_cache: dict[int, float] | None = None,
                     perceived: dict[int, float] | None = None,
                     direction: str = "lowest_first") -> Request:
    """Select the next request: minimum noise-adjusted score, ties uniform.

    Each request's working score is its perceived score plus one noise
    sample; the sample is taken once per request and cached, so
    re-running the step never re-rolls an already-adjusted request.
    ``perceived`` optionally supplies precomputed score totals.
    """
    pending = list(pending)
    if not pending:
        raise ProtocolError("fair policy step on an empty pending set")
    cache = noise_cache if noise_cache is not None else {}
    adjusted = []
    for r in pending:
        y = cache.get(r.id)
        if y is None:
            y = 0.0 if spec is None else sample(spec, rng)
            cache[r.id] = y
        total = perceived.get(r.id) if perceived is not None else None
        if total is None:
            total = score(r, part).total
        adjusted.append(total + y)
    best = max(adjusted) if direction == "highest_first" else min(adjusted)
    high_priority = [r for r, a in zip(pending, adjusted) if a == best]
    if len(high_priority) == 1:
        return high_priority[0]
    return high_priority[rng.randrange(len(high_priority))]


def _select(stable: list[Request], state: EngineState, rt: PolicyRuntime) -> Request:
    policy = rt.policy
    if isinstance(policy, FcfsPolicy):
        return min(stable, key=lambda r: (state.deliver_ticks[r.id], r.id))
    if isinstance(policy, TtlPolicy):
        i = policy.deadline_feature
        return min(stable, key=lambda r: (r.features[i], r.id))
    for r in stable:
        rt.noise_for(r)
    return fair_policy_step(stable, rt.partition, policy.spec, rt.pick_stream,
                            noise_cache=rt.noise_cache, perceived=rt._score_cache,
                            direction=policy.direction)


def _apply_issue(state: EngineState, r: Request) -> None:
    state.client_pending.setdefault(r.client_id, {})[r.id] = r


def _apply_deliver(state: EngineState, rid: int) -> Request:
    if rid in state.server_received:
        raise ProtocolError(f"request {rid} delivered twice")
    for q in state.client_pending.values():
        r = q.pop(rid, None)
        if r is not None:
            state.server_received[rid] = r
            state.pending[rid] = r
            state.deliver_ticks[rid] = state.tick
            return r
    raise ProtocolError(f"deliver of unknown request {rid}")


def _emit_orders(state: EngineState, rt: PolicyRuntime) -> list[int]:
    emitted: list[int] = []
    while state.pending:
        stable = [r for r in state.pending.values()
                  if is_stable(r, state, rt.policy, rt.stability_gating)]
        if not stable:
            break
        r = _select(stable, state, rt)
        del state.pending[r.id]
        state.output.append(r.id)
        emitted.append(r.id)
    return emitted


def step(state: EngineState, event: Event, runtime: PolicyRuntime) -> EngineState:
    """Apply one event to the state (updated in place and returned)."""
    if event.at_tick < state.tick:
        raise ProtocolError(f"event at tick {event.at_tick} is in the past (now {state.tick})")
    state.tick = event.at_tick
    if event.kind == ISSUE:
        _apply_issue(state, event.request)
    elif event.kind == DELIVER:
        _apply_deliver(state, event.request_id)
    elif event.kind == POLICY_STEP:
        _emit_orders(state, runtime)
    else:
        raise ProtocolError(f"unknown event kind {event.kind!r}")
    return state


@dataclass(frozen=True)
class Prepared:
    """A scenario compiled for repeated seeded runs.

    When delays are deterministic (constant models or explicit
    overrides) the whole schedule and the perceived score totals are
    fixed across seeds and precomputed here; only noise samples and
    tie-breaks then consume randomness per trial.
    """

    scenario: ScenarioConfig
    policy: Policy
    partition: FeaturePartition
    requests: tuple[Request, ...]
    drain: int
    static_schedule: tuple[tuple[int | None, Request], ...] | None
    static_issues: dict[int, list[Request]] | None
    static_delivers: dict[int, list[Request]] | None
    static_last_event: int
    static_totals: dict[int, float] | None


def prepare(scenario: ScenarioConfig, policy: Policy | None = None) -> Prepared:
    """Apply adversaries and precompute whatever does not depend on the seed."""
    policy = policy if policy is not None else scenario.policy
    partition = scenario.partition
    reqs = scenario.build_requests()
    needs_rng = False
    static: list[tuple[int | None, Request]] = []
    for r in reqs:
        if r.id in scenario.deliver_overrides:
            static.append((scenario.deliver_overrides[r.id], r))
            continue
        model = scenario.delay.for_client(r.client_id)
        if model.kind is DelayKind.CONSTANT:
            # A zero delay leaves the features untouched (adding 0.0 would turn -0.0 into 0.0).
            bumped = _with_eta_bump(r, scenario.eta_feature, model.d) if model.d else r
            static.append((r.issue_tick + math.ceil(model.d), bumped))
        else:
            needs_rng = True
    if needs_rng:
        return Prepared(scenario, policy, partition, reqs, scenario.drain(),
                        None, None, None, 0, None)
    issues, delivers, last_event = _group_schedule(static)
    totals = {r.id: score(r, partition).total for _, r in static}
    return Prepared(scenario, policy, partition, reqs, scenario.drain(),
                    tuple(static), issues, delivers, last_event, totals)


def _group_schedule(schedule):
    issues: dict[int, list[Request]] = {}
    delivers: dict[int, list[Request]] = {}
    for tick, r in schedule:
        issues.setdefault(r.issue_tick, []).append(r)
        if tick is not None:
            delivers.setdefault(tick, []).append(r)
    for group in issues.values():
        group.sort(key=lambda r: r.id)
    for group in delivers.values():
        group.sort(key=lambda r: r.id)
    last_event = max(list(issues) + list(delivers), default=0)
    return issues, delivers, last_event


def run_prepared(prep: Prepared, seed: int, record: bool = True) -> Trace:
    scenario = prep.scenario
    if prep.static_schedule is not None:
        issues, delivers = prep.static_issues, prep.static_delivers
        last_event, totals = prep.static_last_event, prep.static_totals
    else:
        schedule: list[tuple[int | None, Request]] = []
        for r in prep.requests:
            if r.id in scenario.deliver_overrides:
                schedule.append((scenario.deliver_overrides[r.id], r))
            else:
                rng = Stream(derive(seed, TAG_DELAY, r.id))
                schedule.append(apply_delay(r, scenario.delay, rng, scenario.eta_feature))
        issues, delivers, last_event = _group_schedule(schedule)
        totals = {r.id: score(r, prep.partition).total for _, r in schedule}
    horizon = last_event + prep.drain

    rt = PolicyRuntime(prep.policy, prep.partition, seed, scenario.stability_gating,
                       perceived_totals=totals)
    state = EngineState()
    events: list[Event] = []
    snapshots: list[Snapshot] = []
    issue_ticks: dict[int, int] = {}
    order_ticks: dict[int, int] = {}

    if record:
        ticks = range(horizon + 1)
    else:
        ticks = sorted(set(issues) | set(delivers))
    for t in ticks:
        state.tick = t
        for r in issues.get(t, ()):
            _apply_issue(state, r)
            issue_ticks[r.id] = t
            if record:
                events.append(Event(t, ISSUE, request=r))
        for r in delivers.get(t, ()):
            _apply_deliver(state, r.id)
            if record:
                events.append(Event(t, DELIVER, request_id=r.id))
        for rid in _emit_orders(state, rt):
            order_ticks[rid] = t
            if record:
                events.append(Event(t, ORDER, request_id=rid))
        if record:
            snapshots.append(Snapshot(frozenset(state.server_received),
                                      frozenset(state.pending),
                                      tuple(state.output)))
    return Trace(
        events=tuple(events),
        snapshots=tuple(snapshots),
        final_order=tuple(state.output),
        seed=seed,
        issue_ticks=issue_ticks,
        deliver_ticks=dict(state.deliver_ticks),
        order_ticks=order_ticks,
    )


def static_pair_count(prep: Prepared, pair: tuple[int, int], seed_lo: int,
                      seed_hi: int) -> tuple[int, int | None]:
    """Count the seeds in [seed_lo, seed_hi) whose run orders pair[0] before pair[1].

    Exact shortcut for a static schedule; the result equals running
    ``run_prepared(prep, seed, record=False)`` for every seed. Returns
    (count, missing), where ``missing`` is the first seed whose final
    order lacks either request (count is then 0), or None.

    On a static schedule the tick at which each request is ordered does
    not depend on the seed: stability depends only on the in-flight set.
    One reference run gives those ticks, and if the pair orders at
    different ticks, or under fcfs/ttl (which draw no randomness), it
    decides every seed. Within one fair burst the policy emits in
    adjusted-score order, so two noise draws decide the pair unless the
    adjusted scores tie; such seeds, which also depend on the pick
    stream, run through the engine. So does every seed when a perceived
    score is not finite: infinite noise could then make some adjusted
    score NaN, which changes how the engine selects within the burst.
    """
    a, b = pair
    ref = run_prepared(prep, seed_lo, record=False)
    ticks = ref.order_ticks
    if a not in ticks or b not in ticks:
        return 0, seed_lo

    def engine_first(order: tuple[int, ...]) -> bool:
        return order.index(a) < order.index(b)

    policy = prep.policy
    if ticks[a] != ticks[b] or not isinstance(policy, FairPolicy):
        return (seed_hi - seed_lo if engine_first(ref.final_order) else 0), None
    totals = prep.static_totals
    seeds = range(seed_lo, seed_hi)
    if not all(math.isfinite(t) for t in totals.values()):
        return sum(engine_first(run_prepared(prep, s, record=False).final_order)
                   for s in seeds), None
    spec = policy.spec
    low_first = policy.direction != "highest_first"
    total_a, total_b = totals[a], totals[b]
    adj_a, adj_b = total_a, total_b
    count = 0
    for seed in seeds:
        if spec is not None:
            adj_a = total_a + sample(spec, Stream(derive(seed, TAG_NOISE, a)))
            adj_b = total_b + sample(spec, Stream(derive(seed, TAG_NOISE, b)))
        if adj_a < adj_b:
            count += low_first
        elif adj_a > adj_b:
            count += not low_first
        else:
            count += engine_first(run_prepared(prep, seed, record=False).final_order)
    return count, None


def run(scenario: ScenarioConfig, policy: Policy | None = None, seed: int = 0,
        record: bool = True) -> Trace:
    """Simulate one full run; identical inputs yield identical traces."""
    return run_prepared(prepare(scenario, policy), seed, record)


def serialize_trace(trace: Trace) -> str:
    """Line format: "tick,event_kind,request_id" rows, then the final order."""
    lines = [f"# fairorder-trace v1 seed={trace.seed} horizon={trace.horizon}"]
    for ev in trace.events:
        lines.append(f"{ev.at_tick},{ev.kind},{ev.rid}")
    lines.append("order:" + ",".join(str(i) for i in trace.final_order))
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> Trace:
    """Rebuild a Trace (snapshots included) from its serialized form."""
    seed = 0
    horizon: int | None = None
    events: list[Event] = []
    final_order: tuple[int, ...] | None = None
    issue_ticks: dict[int, int] = {}
    deliver_ticks: dict[int, int] = {}
    order_ticks: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for part in line.split():
                if part.startswith("seed="):
                    seed = int(part[5:])
                if part.startswith("horizon="):
                    horizon = int(part[8:])
            continue
        if line.startswith("order:"):
            body = line[len("order:"):]
            final_order = tuple(int(x) for x in body.split(",")) if body else ()
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise TraceParseError(f"line {lineno}: expected tick,kind,id")
        try:
            tick, kind, rid = int(parts[0]), parts[1], int(parts[2])
        except ValueError as exc:
            raise TraceParseError(f"line {lineno}: {exc}") from exc
        if kind not in (ISSUE, DELIVER, ORDER):
            raise TraceParseError(f"line {lineno}: unknown event kind {kind!r}")
        events.append(Event(tick, kind, request_id=rid))
        if kind == ISSUE:
            issue_ticks[rid] = tick
        elif kind == DELIVER:
            if rid in deliver_ticks:
                raise TraceParseError(f"line {lineno}: request {rid} delivered twice")
            deliver_ticks[rid] = tick
        else:
            if rid in order_ticks:
                raise TraceParseError(f"line {lineno}: request {rid} ordered twice")
            order_ticks[rid] = tick
    if final_order is None:
        raise TraceParseError("missing final order line")
    if horizon is None:
        horizon = max([ev.at_tick for ev in events], default=0)
    # Snapshots are reconstructed from the event rows alone; semantic
    # disagreements with the final-order line are left for the checkers
    # (forged traces must parse so they can be judged).
    order_sequence = [ev.request_id for ev in events if ev.kind == ORDER]
    snapshots = []
    for t in range(horizon + 1):
        received = frozenset(rid for rid, tk in deliver_ticks.items() if tk <= t)
        output = tuple(rid for rid in order_sequence if order_ticks[rid] <= t)
        snapshots.append(Snapshot(received, received - set(output), output))
    return Trace(
        events=tuple(events),
        snapshots=tuple(snapshots),
        final_order=final_order,
        seed=seed,
        issue_ticks=issue_ticks,
        deliver_ticks=deliver_ticks,
        order_ticks=order_ticks,
    )
