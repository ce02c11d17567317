"""Spans and counts recorded from outside the program, for the traced pass.

The traced pass runs a workload's commands in this process through
`fairorder.cli.main`. `patched` replaces public functions at the module
attributes their callers look up (so `fairorder.engine.is_stable`, not
`fairorder.is_stable`) with wrappers that record a span or a count, and
puts the originals back afterwards. Nothing in the program changes.

A span records name, start, end, parent span and group. A command
(`cli.main`) and each seeded engine run (`engine.run_prepared`) open a
new group that their child spans share. Self time is a span's duration
minus the time its direct children cover, accumulated as spans close.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from array import array


class Tracer:
    """In-memory spans and counters; written out once at the end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.group = array("i")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.cells: dict[str, list] = {}
        self._stack: list[int] = []
        self._child: list[float] = []
        self._groups = 0

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[label]

    def cell(self, label: str) -> list:
        """A one-element counter that wrappers and result hooks add to."""
        return self.cells.setdefault(label, [0])

    def span(self, label, fn, new_group=False, on_result=None):
        """Wrap ``fn`` so that every call records one span named ``label``."""
        nid = self._id(label)
        start, end, names, parents, groups = (self.start, self.end, self.name,
                                              self.parent, self.group)
        stack, child, calls, self_s = self._stack, self._child, self.calls, self.self_s
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent = stack[-1] if stack else -1
            if new_group or parent < 0:
                tracer._groups += 1
                groups.append(tracer._groups)
            else:
                groups.append(groups[parent])
            names.append(nid)
            parents.append(parent)
            end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            calls[nid] += 1
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[idx] = t1
                stack.pop()
                d = t1 - t0
                self_s[nid] += d - child.pop()
                if child:
                    child[-1] += d
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, label, fn):
        """Wrap ``fn`` so that every call adds one to the counter ``label``."""
        cell = self.cell(label)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counts(self) -> dict[str, int]:
        """Every exact count: span calls per name and every counter cell."""
        out = {f"{n}.calls": c for n, c in zip(self.names, self.calls)}
        out.update({label: cell[0] for label, cell in self.cells.items()})
        return out

    def self_times(self) -> dict[str, float]:
        return dict(zip(self.names, self.self_s))

    def write(self, path) -> None:
        """Header line (JSON), then the five span arrays back to back in native order."""
        columns = [("start", self.start), ("end", self.end), ("name", self.name),
                   ("parent", self.parent), ("group", self.group)]
        header = {"format": "fairorder-bench-spans v1", "names": self.names,
                  "spans": len(self.start), "byteorder": sys.byteorder,
                  "columns": [[label, arr.typecode, arr.itemsize] for label, arr in columns]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(f)


def _plan(t: Tracer, mod):
    """(module, attribute, wrapper) for every function the traced pass observes."""
    engine, stats, cli = mod["engine"], mod["stats"], mod["cli"]
    checkers, quorum, model = mod["checkers"], mod["quorum"], mod["model"]
    scenario, rng = mod["scenario"], mod["rng"]

    draws = t.cell("rng.stream.draws")
    sample_draws = t.cell("noise.sample.draws")
    trace_bytes = t.cell("engine.trace_bytes")
    view_bytes = t.cell("quorum.view_bytes")
    events = t.cell("engine.events")
    horizon = t.cell("engine.horizon_ticks")
    sample = engine.sample

    def counted_sample(spec, stream):
        before = draws[0]
        y = sample(spec, stream)
        sample_draws[0] += draws[0] - before
        return y

    def recorded(trace):
        if trace.snapshots:  # record=True runs only
            events[0] += len(trace.events)
            horizon[0] = max(horizon[0], trace.horizon)

    def add_len(cell):
        def hook(text):
            cell[0] += len(text.encode())
        return hook

    derive = t.span("rng.derive", engine.derive)
    prepare = t.span("engine.prepare", engine.prepare)
    run_prepared = t.span("engine.run_prepared", engine.run_prepared, new_group=True,
                          on_result=recorded)
    check_noise_bound = t.span("model.check_noise_bound", model.check_noise_bound)
    plan = [
        (rng.Stream, "next_u64", t.count("rng.stream.draws", rng.Stream.next_u64)),
        (engine, "derive", derive),
        (cli, "derive", derive),
        (engine, "sample", t.span("noise.sample", counted_sample)),
        (engine, "apply_delay", t.span("adversary.apply_delay", engine.apply_delay)),
        (scenario, "check_noise_bound", check_noise_bound),
        (stats, "check_noise_bound", check_noise_bound),
        (model, "adjacent", t.count("model.adjacent.calls", model.adjacent)),
        (cli, "load_scenario", t.span("scenario.load_scenario", cli.load_scenario)),
        (cli, "lint_scenario", t.span("scenario.lint_scenario", cli.lint_scenario)),
        (engine, "prepare", prepare),
        (stats, "prepare", prepare),
        (engine, "run_prepared", run_prepared),
        (stats, "run_prepared", run_prepared),
        (engine, "fair_policy_step", t.span("engine.fair_policy_step", engine.fair_policy_step)),
        (engine, "is_stable", t.count("engine.is_stable.calls", engine.is_stable)),
        (cli, "serialize_trace", t.span("engine.serialize_trace", cli.serialize_trace,
                                        on_result=add_len(trace_bytes))),
        (cli, "parse_trace", t.span("engine.parse_trace", cli.parse_trace)),
        (checkers, "check_all", t.span("checkers.check_all", checkers.check_all)),
        (quorum, "replicate_trace", t.span("quorum.replicate_trace", quorum.replicate_trace)),
        (quorum, "check_prefix_consistency",
         t.span("quorum.check_prefix_consistency", quorum.check_prefix_consistency)),
        (quorum, "serialize_view", t.span("quorum.serialize_view", quorum.serialize_view,
                                          on_result=add_len(view_bytes))),
        (stats, "estimate_order_probability",
         t.span("stats.estimate_order_probability", stats.estimate_order_probability)),
    ]
    for prop in ("consistency", "monotonic_order", "order_determinism", "non_blocking"):
        attr = f"check_{prop}"
        plan.append((checkers, attr, t.span(f"checkers.{prop}", getattr(checkers, attr))))
    for attr in ("certify_ordering_equality", "certify_k_ordering_equality", "certify_additive"):
        plan.append((stats, attr, t.span("stats.certify", getattr(stats, attr))))
    return plan


def load_program():
    """Import the fairorder modules the traced pass wraps (from sys.path)."""
    return {name: importlib.import_module(f"fairorder.{name}")
            for name in ("cli", "engine", "stats", "checkers", "quorum", "model",
                         "scenario", "rng")}


@contextlib.contextmanager
def patched(tracer: Tracer, mod):
    """Install the tracer's wrappers for the duration of the block."""
    plan = _plan(tracer, mod)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in plan]
    try:
        for owner, attr, wrapper in plan:
            setattr(owner, attr, wrapper)
        yield tracer.span("cli.main", mod["cli"].main, new_group=True)
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
