"""Trace validators for the ordering validity properties.

Each checker inspects a complete Trace and returns a Verdict carrying a
counterexample witness on failure. The four core properties:

  order determinism   a request is never ordered before it is received
  non-blocking        every delivered request eventually appears in the
                      final order (by the trace's quiescence horizon)
  consistency         between two ticks with no new deliveries, the
                      order may only grow, and only with requests that
                      were already received at the start of the gap
  monotonic order     the emitted order is extension-only over time

Consistency is checked in this prefix-compatible form rather than as
literal equality of orders: a server that keeps ordering already
received requests during delivery-quiet periods must not be flagged,
or non-blocking would be unsatisfiable. The time-indexed checks walk
the rows with ``TraceWalk``, so they cost O(events) whatever the horizon.

The module also hosts policy-compliance checking against a partial
order of required precedences, an optional stronger liveness check,
and the two-execution harness that demonstrates why validity plus a
non-trivial policy is unachievable without a stability horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .engine import Trace, TraceWalk, run
from .model import Request
from .noise import ConfigurationError
from .scenario import Policy, ScenarioConfig

ORDER_DETERMINISM = "order_determinism"
NON_BLOCKING = "non_blocking"
CONSISTENCY = "consistency"
MONOTONIC_ORDER = "monotonic_order"
POLICY_COMPLIANCE = "policy_compliance"
STRONG_NON_BLOCKING = "strong_non_blocking"

CORE_PROPERTIES = (ORDER_DETERMINISM, NON_BLOCKING, CONSISTENCY, MONOTONIC_ORDER)


@dataclass(frozen=True)
class Verdict:
    property: str
    passed: bool
    witness: tuple | None = None

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise ValueError("a failing verdict needs a witness")

    def line(self) -> str:
        status = "pass" if self.passed else "fail"
        witness = "" if self.witness is None else ";".join(str(w) for w in self.witness)
        return f"{self.property},{status},{witness}"


class PolicyPredicate:
    """A strict partial order of required precedences over request ids.

    Built from explicit (before, after) id pairs. Each id's set of ids
    reachable through them is found by its own graph walk, O(ids x pairs)
    in all; a pair set with a cycle is rejected, naming the least id on
    one. ``closure``, the transitive closure as pairs, is built on first
    use.
    """

    def __init__(self, pairs):
        self.pairs = frozenset((int(a), int(b)) for a, b in pairs)
        succ: dict[int, set[int]] = {}
        for a, b in self.pairs:
            succ.setdefault(a, set()).add(b)
        self._reach: dict[int, frozenset[int]] = {}
        for a in sorted(succ):
            seen, todo = set(), list(succ[a])
            while todo:
                b = todo.pop()
                if b not in seen:
                    seen.add(b)
                    todo.extend(succ.get(b, ()))
            if a in seen:
                raise ConfigurationError(f"precedence pairs contain a cycle through {a}")
            self._reach[a] = frozenset(seen)

    @cached_property
    def closure(self) -> frozenset[tuple[int, int]]:
        return frozenset((a, b) for a, later in self._reach.items() for b in later)

    @classmethod
    def from_key(cls, requests, key) -> "PolicyPredicate":
        """Comparator form: r1 must precede r2 whenever key(r1) < key(r2)."""
        pairs = [(r1.id, r2.id) for r1 in requests for r2 in requests
                 if key(r1) < key(r2)]
        return cls(pairs)

    def must_precede(self, a: int, b: int) -> bool:
        return b in self._reach.get(a, ())

    def ids(self) -> frozenset[int]:
        return frozenset(x for pair in self.pairs for x in pair)


def check_order_determinism(trace: Trace) -> Verdict:
    """Every request's ordering tick must be at or after its delivery tick."""
    for rid, otick in sorted(trace.order_ticks.items()):
        dtick = trace.deliver_ticks.get(rid)
        if dtick is None or otick < dtick:
            return Verdict(ORDER_DETERMINISM, False, (otick, rid))
    return Verdict(ORDER_DETERMINISM, True)


def check_non_blocking(trace: Trace) -> Verdict:
    """Every delivered request must be in the final order by the horizon."""
    ordered = set(trace.final_order)
    for rid in sorted(trace.deliver_ticks):
        if rid not in ordered:
            return Verdict(NON_BLOCKING, False, (trace.horizon, rid))
    return Verdict(NON_BLOCKING, True)


def _is_prefix(shorter: tuple, longer: tuple) -> bool:
    return len(shorter) <= len(longer) and longer[: len(shorter)] == shorter


def _order_steps(trace: Trace):
    """Yield (walk, tick, divergence) at each tick 1..horizon with an order row, where
    divergence is None if the output before the tick is a prefix of the output at it."""
    walk = TraceWalk(trace.events, trace.horizon)
    for t in walk:
        if t and t in walk.orders:
            divergence = None
            if walk.prev is not None and not _is_prefix(walk.prev, cur := tuple(walk.output)):
                divergence = _first_divergence(walk.prev, cur)
            yield walk, t, divergence


class OrderSweep:
    """The consistency and monotonic-order witnesses of one trace, from one walk.

    The walk runs on first use of ``witnesses``; ``check_all`` hands one
    sweep to both checkers, so the trace is walked once.
    """

    def __init__(self, trace: Trace):
        self.trace = trace

    @cached_property
    def witnesses(self) -> tuple[tuple | None, tuple | None]:
        """(consistency, monotonic order) witnesses, None where the property holds."""
        consistency = monotonic = None
        for walk, t, divergence in _order_steps(self.trace):
            if monotonic is None and divergence:
                monotonic = (t, *divergence)
            if consistency is None and not walk.received_grew:
                consistency = (t, *divergence) if divergence else _unreceived_growth(walk, t)
            if consistency and monotonic:
                break
        return consistency, monotonic


def _unreceived_growth(walk: TraceWalk, t: int) -> tuple | None:
    """(t, least id) among the ids that grew the order at t without being received."""
    illegal = set(walk.output[walk.grown:]) - walk.received
    if illegal:  # an id already ordered did not grow the order
        illegal -= set(walk.output[:walk.grown])
    return (t, min(illegal)) if illegal else None


def _sweep_of(trace: Trace, sweep: OrderSweep | None) -> OrderSweep:
    """``sweep`` if it walks ``trace`` itself, else a new sweep of ``trace``."""
    return sweep if sweep is not None and sweep.trace is trace else OrderSweep(trace)


def check_consistency(trace: Trace, sweep: OrderSweep | None = None) -> Verdict:
    """Quiet periods may only extend the order with already-received requests.

    ``sweep``, an ``OrderSweep`` of ``trace``, shares its walk with
    ``check_monotonic_order``.
    """
    witness = _sweep_of(trace, sweep).witnesses[0]
    return Verdict(CONSISTENCY, witness is None, witness)


def _first_divergence(a: tuple, b: tuple) -> tuple:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return (x, y)
    return (a[min(len(a), len(b)) - 1] if a else -1,)


def check_monotonic_order(trace: Trace, sweep: OrderSweep | None = None) -> Verdict:
    """Each tick's order must be a prefix of the next one.

    ``sweep``, an ``OrderSweep`` of ``trace``, shares its walk with
    ``check_consistency``.
    """
    witness = _sweep_of(trace, sweep).witnesses[1]
    return Verdict(MONOTONIC_ORDER, witness is None, witness)


def check_policy_compliance(trace: Trace, pred: PolicyPredicate) -> Verdict:
    """All required precedences must hold in the final order."""
    known = set(trace.issue_ticks) | set(trace.deliver_ticks) | set(trace.final_order)
    missing = pred.ids() - known
    if missing:
        raise ConfigurationError(f"predicate references unknown request ids {sorted(missing)}")
    position = {rid: i for i, rid in enumerate(trace.final_order)}
    for a, b in sorted(pred.closure):
        if a in position and b in position and position[a] > position[b]:
            return Verdict(POLICY_COMPLIANCE, False, (trace.order_ticks.get(b, -1), a, b))
        if b in position and a not in position:
            return Verdict(POLICY_COMPLIANCE, False, (trace.order_ticks.get(b, -1), a, b))
    return Verdict(POLICY_COMPLIANCE, True)


def check_strong_non_blocking(trace: Trace) -> Verdict:
    """Stronger liveness: a tick with pending requests must order something.

    Optional utilization-style check; gated policies legitimately fail
    it while they wait for stability.
    """
    walk = TraceWalk(trace.events, trace.horizon)
    for t in walk:  # a row tick's state lasts until the next, so it stalls first there
        if walk.pending and t < trace.horizon and t + 1 not in walk.orders:
            return Verdict(STRONG_NON_BLOCKING, False, (t, min(walk.pending)))
    return Verdict(STRONG_NON_BLOCKING, True)


def check_all(trace: Trace) -> list[Verdict]:
    """The four core verdicts; consistency and monotonic order share one walk."""
    sweep = OrderSweep(trace)
    return [
        check_order_determinism(trace),
        check_non_blocking(trace),
        check_consistency(trace, sweep),
        check_monotonic_order(trace, sweep),
    ]


@dataclass(frozen=True)
class HarnessResult:
    applicable: bool
    trace_only_r2: Trace | None
    trace_both: Trace | None
    verdict: Verdict | None
    failed_property: str | None


def impossibility_harness(policy: Policy, pred: PolicyPredicate,
                          scenario: ScenarioConfig) -> HarnessResult:
    """Two-execution construction showing validity breaks in asynchrony.

    Picks a predicate pair (r1 must precede r2) issued by different
    clients. Execution one delivers only r2; by non-blocking the policy
    orders it at some tick t'. Execution two additionally delivers r1,
    but only at t'+1, so the two runs are indistinguishable until then.
    A policy without a stability horizon must already have ordered r2,
    so in the second execution either the required precedence or
    non-blocking fails. Pairs originated at a single client are trivial
    (the client could order them itself) and are reported
    not-applicable.
    """
    by_id = {r.id: r for r in scenario.requests}
    pair: tuple[Request, Request] | None = None
    for a, b in sorted(pred.pairs):
        if a in by_id and b in by_id and by_id[a].client_id != by_id[b].client_id:
            pair = (by_id[a], by_id[b])
            break
    if pair is None:
        return HarnessResult(False, None, None, None, None)
    r1, r2 = pair

    base = replace(
        scenario,
        stability_gating=False,
        deliver_overrides={**scenario.deliver_overrides, r1.id: None,
                           r2.id: r2.issue_tick},
    )
    trace_r2 = run(base, policy, seed=scenario.trials.base_seed if scenario.trials else 0)
    if r2.id not in trace_r2.order_ticks:
        raise ConfigurationError("policy is not non-blocking: r2 never ordered alone")
    t_prime = trace_r2.order_ticks[r2.id]

    both = replace(
        base,
        deliver_overrides={**base.deliver_overrides, r1.id: t_prime + 1},
    )
    trace_both = run(both, policy, seed=trace_r2.seed)

    compliance = check_policy_compliance(trace_both, pred)
    liveness = check_non_blocking(trace_both)
    if not compliance.passed:
        return HarnessResult(True, trace_r2, trace_both, compliance, POLICY_COMPLIANCE)
    if not liveness.passed:
        return HarnessResult(True, trace_r2, trace_both, liveness, NON_BLOCKING)
    # Both properties held: the construction failed to demonstrate the
    # theorem for this policy (e.g. it secretly waits). Surface that.
    return HarnessResult(True, trace_r2, trace_both, compliance, None)
