"""Every config document the project ships must load.

The bench generator (`bench/workloads.py`) writes the input files of the
four workloads, and the README shows example documents. A tightening of
the input schema that rejected one of them would break the benchmark or
the docs. Generating the inputs here, without changing the generator,
and loading each document the way its command does turns that into a
test failure.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from fairorder.scenario import (lint_scenario, randomizer_from_dict, read_input,
                                scenario_from_dict, sweep_from_dict)

ROOT = Path(__file__).resolve().parents[1]


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


def load(doc) -> None:
    """Load ``doc`` with the loader of its command; lint a scenario as `run` does."""
    if "sweep" in doc:
        sweep_from_dict(doc)
    elif "randomizer" in doc:
        randomizer_from_dict(doc)
    else:
        lint_scenario(scenario_from_dict(doc))


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_generated_bench_inputs_load(tmp_path, workload, seed):
    WORKLOADS.generate(workload, seed, tmp_path)
    load(read_input(tmp_path / WORKLOADS.WORKLOADS[workload].config))


def test_readme_examples_load():
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    docs = [json.loads(block) for block in blocks]
    assert {"sweep", "randomizer", "clients"} <= {key for doc in docs for key in doc}
    for doc in docs:
        load(doc)
