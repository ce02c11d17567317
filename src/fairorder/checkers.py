"""Trace validators for the ordering validity properties.

Each checker inspects a complete Trace and returns a Verdict carrying a
counterexample witness on failure. The four core properties:

  order determinism   each request's rows follow the chain issue ->
                      deliver -> order: an order row needs a deliver
                      row at or before its tick, and a deliver row an
                      issue row at or before its tick
  non-blocking        every delivered request eventually appears in the
                      final order (by the trace's quiescence horizon)
  consistency         between two ticks with no new deliveries, the
                      order may only grow, and only with requests that
                      were already received at the start of the gap
  monotonic order     the emitted order is extension-only over time

Consistency is checked in this prefix-compatible form rather than as
literal equality of orders: a server that keeps ordering already
received requests during delivery-quiet periods must not be flagged,
or non-blocking would be unsatisfiable. The time-indexed checks read
the trace's ``history``, its row ticks, so they cost O(events) whatever
the horizon; they rebuild a full output only at a reordering tick, and
only until they have their witness.

The module also hosts policy-compliance checking against a partial
order of required precedences, an optional stronger liveness check,
and the two-execution harness that demonstrates why validity plus a
non-trivial policy is unachievable without a stability horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from .engine import History, Trace, run
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
    """The chain rule issue -> deliver -> order: a request's order row needs a deliver
    row at or before its tick, and its deliver row an issue row at or before its tick.
    The witness is the least (tick, id) of a row that breaks it."""
    rules = ((trace.order_ticks, trace.deliver_ticks), (trace.deliver_ticks, trace.issue_ticks))
    broken = [(t, rid) for later, earlier in rules for rid, t in later.items()
              if t < earlier.get(rid, math.inf)]
    if broken:
        return Verdict(ORDER_DETERMINISM, False, min(broken))
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


def _first_divergence(a: tuple, b: tuple) -> tuple:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return (x, y)
    return (a[min(len(a), len(b)) - 1] if a else -1,)


def _reordering(history: History, t: int) -> tuple | None:
    """(t, divergence) if the output before tick t is not a prefix of the output at t,
    else None. Only a tick that ``reorders`` can give one; it rebuilds both outputs."""
    before, at = history.output_at(t - 1), history.output_at(t)
    return None if _is_prefix(before, at) else (t, *_first_divergence(before, at))


def check_consistency(trace: Trace) -> Verdict:
    """Quiet periods may only extend the order with already-received requests."""
    history, received = trace.history, set()
    for t, new_received, ordered, reorders in history.steps:
        received.update(new_received)
        if not t or new_received:
            continue
        witness = reorders and _reordering(history, t)
        if not witness:
            illegal = [rid for rid in ordered if rid not in received]
            witness = (t, min(illegal)) if illegal else None
        if witness:
            return Verdict(CONSISTENCY, False, witness)
    return Verdict(CONSISTENCY, True)


def check_monotonic_order(trace: Trace) -> Verdict:
    """Each tick's order must be a prefix of the next one."""
    history = trace.history
    for step in history.steps:
        if step.reorders and (witness := _reordering(history, step.tick)):
            return Verdict(MONOTONIC_ORDER, False, witness)
    return Verdict(MONOTONIC_ORDER, True)


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
    history, pending, ordered = trace.history, set(), set()
    for t, received, new_ordered, _ in history.steps:
        ordered.update(new_ordered)
        pending.update(rid for rid in received if rid not in ordered)
        pending.difference_update(new_ordered)
        # a row tick's state lasts until the next, so it stalls first there
        if pending and t < trace.horizon and t + 1 not in history.orders:
            return Verdict(STRONG_NON_BLOCKING, False, (t, min(pending)))
    return Verdict(STRONG_NON_BLOCKING, True)


def check_all(trace: Trace) -> list[Verdict]:
    """The four core verdicts."""
    return [
        check_order_determinism(trace),
        check_non_blocking(trace),
        check_consistency(trace),
        check_monotonic_order(trace),
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
    not-applicable. ``policy`` becomes the scenario's policy before the
    pair search, so a policy the loader would reject raises
    ConfigurationError, applicable or not.
    """
    scenario = replace(scenario, policy=policy)
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
    trace_r2 = run(base, seed=scenario.trials.base_seed if scenario.trials else 0)
    if r2.id not in trace_r2.order_ticks:
        raise ConfigurationError("policy is not non-blocking: r2 never ordered alone")
    t_prime = trace_r2.order_ticks[r2.id]

    both = replace(
        base,
        deliver_overrides={**base.deliver_overrides, r1.id: t_prime + 1},
    )
    trace_both = run(both, seed=trace_r2.seed)

    compliance = check_policy_compliance(trace_both, pred)
    liveness = check_non_blocking(trace_both)
    if not compliance.passed:
        return HarnessResult(True, trace_r2, trace_both, compliance, POLICY_COMPLIANCE)
    if not liveness.passed:
        return HarnessResult(True, trace_r2, trace_both, liveness, NON_BLOCKING)
    # Both properties held: the construction failed to demonstrate the
    # theorem for this policy (e.g. it secretly waits). Surface that.
    return HarnessResult(True, trace_r2, trace_both, compliance, None)
