"""The bench's traced pass must find every attribute it wraps.

`bench/tracing.py` wraps module attributes from outside (for example
`fairorder.engine.is_stable`). A refactor that renames or drops one of
them would crash the traced pass, or, for an attribute only assigned,
silently measure nothing. Building the wrapper plan here, without
installing it, turns that into a test failure.
"""

import importlib.util
from pathlib import Path

from fairorder.engine import run
from fairorder.scenario import two_request_gap_scenario

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_exists():
    tracing = load_tracing()
    plan = tracing._plan(tracing.Tracer(), tracing.load_program())
    assert plan
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in plan
               if not hasattr(owner, attr)]
    assert missing == []


def test_only_recorded_runs_carry_snapshots():
    # The traced pass counts events and horizon ticks of runs whose snapshots are truthy.
    scenario = two_request_gap_scenario(gap=1.0)
    assert run(scenario, seed=3).snapshots
    assert not run(scenario, seed=3, record=False).snapshots
