"""The bench's scripts must find every library name they use.

`bench/tracing.py` wraps module attributes from outside (for example
`fairorder.engine.is_stable`). A refactor that renames or drops one of
them would crash the traced pass, or, for an attribute only assigned,
silently measure nothing. Building the wrapper plan here, without
installing it, turns that into a test failure. `bench/probe.py`, the
setup probe behind `setup_s`, loads and lints a scenario through `cli`;
running its `main` here holds it to the load and lint it measures.
"""

import importlib.util
import json
from pathlib import Path

from fairorder.engine import run
from fairorder.scenario import two_request_gap_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_exists():
    tracing = load_bench("tracing")
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


def test_setup_probe_loads_and_lints_a_scenario_and_builds_a_sweep(tmp_path, capsys):
    probe = load_bench("probe")
    # Requests 0 and 1 share a relevant value, and client 1's bribe of 2 puts their eta
    # gap past lambda 1: lint warns once.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "feature_count": 2, "relevant": [0], "lambda": 1.0, "eta_feature": 1,
        "clients": [{"id": c, "requests": [{"id": c, "issue_tick": 0, "features": [1.0, 0.0]}]}
                    for c in range(2)],
        "adversaries": [{"client_id": 1, "bribe": 2.0}],
        "policy": {"kind": "fcfs"},
    }))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"sweep": {"epsilons": [0.5, 1.0], "gaps": [0, 1, 2],
                                           "n_trials": 10}}))
    assert probe.main(str(scenario)) == 0
    assert probe.main(str(sweep)) == 0
    assert capsys.readouterr().out == "warnings=1\ncells=6\n"
