"""Workload definitions and the seeded generator of their input files.

Each workload is a fixed list of `fairorder` CLI commands over input
files that `generate` writes from the workload seed. The program sees
only those files and the `--seed` given on its command line; both are
pure functions of (workload, seed).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

TRACE_REQUESTS = 1000
TRACE_SERVERS = 4
SWEEP_EPSILONS = (0.5, 1.0, 2.0)
SWEEP_GAPS = (0.0, 1.0, 2.0)
SWEEP_TRIALS = 25_000
CERTIFY_TRIALS = 20_000


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload pass."""

    name: str                      # role: sweep, certify, run, check or quorum
    argv: tuple[str, ...]          # fairorder arguments; {in}, {out} and {seed} are filled in
    expected_exit: frozenset[int]  # exit codes the correctness check accepts


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str           # generated config file the setup probe loads
    commands: tuple[Command, ...]
    trials: int           # seeded engine runs in one pass
    primary: str          # command whose --jobs 1 vs --jobs 2 ratio is stats.jobs_speedup


def _sweep(rng: random.Random, inputs: Path) -> None:
    inputs.joinpath("sweep.json").write_text(json.dumps({
        "sweep": {"epsilons": SWEEP_EPSILONS, "gaps": SWEEP_GAPS,
                  "n_trials": SWEEP_TRIALS, "lambda": 1.0},
    }, indent=1))


def _certify(rng: random.Random, inputs: Path) -> None:
    shared = float(rng.randrange(20))  # requests 0 and 1 are adjacent: same relevant value
    clients = []
    for cid in range(8):
        relevant = shared if cid < 2 else float(rng.randrange(20))
        clients.append({"id": cid, "requests": [
            {"id": cid, "issue_tick": rng.randrange(2), "features": [relevant, 0.0]}]})
    lam = 5.0
    doc = {
        "feature_count": 2, "relevant": [0], "lambda": lam, "eta_feature": 1,
        "clients": clients,
        "delay": {"kind": "uniform", "lo": 0, "hi": 3},
        "adversaries": [{"client_id": 1, "bribe": 2.0}],
        "noise": {"kind": "bounded_laplace", "epsilon": 1.0, "sensitivity": lam,
                  "bound": 3 * lam},
        "policy": {"kind": "fair", "direction": "highest_first"},
        "trials": {"n_trials": CERTIFY_TRIALS, "base_seed": 0, "confidence": 0.99,
                   "pair": [0, 1]},
    }
    inputs.joinpath("scenario.json").write_text(json.dumps(doc, indent=1))


def _trace(rng: random.Random, inputs: Path, tick_of) -> None:
    clients: dict[int, list] = {}
    for rid in range(TRACE_REQUESTS):
        clients.setdefault(rng.randrange(16), []).append(
            {"id": rid, "issue_tick": tick_of(rid),
             "features": [float(rng.randrange(20)), 0.0]})
    doc = {
        "feature_count": 2, "relevant": [0], "lambda": 50.0, "eta_feature": 1,
        "clients": [{"id": c, "requests": reqs} for c, reqs in sorted(clients.items())],
        "delay": {"kind": "uniform", "lo": 0, "hi": 3},
        "noise": {"kind": "laplace", "epsilon": 1.0, "sensitivity": 50.0},
        "policy": {"kind": "fair"},
        "multi_server": {"n": TRACE_SERVERS, "f": 1, "lags": list(range(TRACE_SERVERS))},
    }
    inputs.joinpath("scenario.json").write_text(json.dumps(doc, indent=1))


TRACE_COMMANDS = (
    Command("run", ("run", "--config", "{in}/scenario.json", "--seed", "{seed}",
                    "--out", "{out}/run"), frozenset({0})),
    Command("check", ("check", "{out}/run/trace.txt", "--out", "{out}/check"), frozenset({0})),
    Command("quorum", ("quorum", "--config", "{in}/scenario.json", "--seed", "{seed}",
                       "--out", "{out}/quorum"), frozenset({0})),
)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sweep_static",
            "2-request static-schedule trials: rng + noise + one record=False engine run, "
            "the path an exact pair kernel replaces",
            "sweep.json",
            (Command("sweep", ("sweep", "--config", "{in}/sweep.json", "--seed", "{seed}",
                               "--jobs", "1", "--out", "{out}/sweep"),
                     # 3 = inconclusive, allowed only for the gap-0 cells (see checks)
                     frozenset({0, 3})),),
            9 * SWEEP_TRIALS, "sweep"),
        Workload(
            "certify_delay",
            "random delays turn the static path off; bounded-Laplace rejection and "
            "multi-tick engine runs; a static-only kernel must not move it",
            "scenario.json",
            (Command("certify", ("certify", "--config", "{in}/scenario.json",
                                 "--seed", "{seed}", "--jobs", "1", "--out", "{out}/certify"),
                     frozenset({0})),),
            CERTIFY_TRIALS, "certify"),
        Workload(
            "trace_burst",
            "N=1000 arrivals denser than the largest delay: all pend and emit in one burst, "
            "so pending-set rescans and the O(N^2) lint dominate",
            "scenario.json", TRACE_COMMANDS, 2, "run"),
        Workload(
            "trace_sparse",
            "N=1000 arrivals 10 ticks apart: a 10^4-tick horizon, so per-tick snapshots, "
            "parse_trace and tick-indexed checkers dominate",
            "scenario.json", TRACE_COMMANDS, 2, "run"),
    )
}

_GENERATORS = {
    "sweep_static": _sweep,
    "certify_delay": _certify,
    "trace_burst": lambda rng, inputs: _trace(rng, inputs, lambda rid: rid // 4),
    "trace_sparse": lambda rng, inputs: _trace(rng, inputs, lambda rid: 10 * rid),
}


def generate(workload: str, seed: int, inputs: Path) -> int:
    """Write the workload's input files under ``inputs``; return the CLI --seed.

    String seeding of ``random.Random`` hashes with SHA-512, so the
    inputs do not depend on PYTHONHASHSEED or the process.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    _GENERATORS[workload](rng, inputs)
    return rng.randrange(1, 2**31)


def argv_for(cmd: Command, inputs: Path, out: Path, cli_seed: int) -> list[str]:
    fill = {"{in}": str(inputs), "{out}": str(out), "{seed}": str(cli_seed)}
    result = []
    for arg in cmd.argv:
        for key, value in fill.items():
            arg = arg.replace(key, value)
        result.append(arg)
    return result
