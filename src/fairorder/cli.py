"""Batch experiment runner.

Subcommands:
  run         simulate one trace, validate it, write trace.txt/verdicts.txt
  certify     Monte Carlo estimate + fairness certification, write report.csv
  sweep       (epsilon x gap) grid of estimates vs the closed forms
  check       validate a serialized trace file
  randomizer  sweep shared-randomizer instances, check agreement
  quorum      replicate a run into a multi-server view and check it

Every command is deterministic given (config, seed): repeated
invocations produce byte-identical output files. Exit codes: 0 pass,
1 fail, 2 configuration problem, 3 inconclusive, 4 liveness error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import checkers, quorum, randomizer, stats
from .engine import parse_trace, run, serialize_trace
from .model import ParameterError
from .noise import ConfigurationError, order_probability_at_gap
from .rng import derive, tag
from .scenario import (ScenarioConfig, TrialsBlock, lint_scenario, load_scenario,
                       randomizer_from_dict, read_input, sweep_from_dict,
                       two_request_gap_scenario)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3
EXIT_LIVENESS = 4

SEED_ENV = "FAIRORDER_SEED"


def _resolve_seed(args, scenario: ScenarioConfig | None = None, default: int = 0) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigurationError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    if scenario is not None and scenario.trials is not None:
        return scenario.trials.base_seed
    return default


def _trial_count(args, default: int) -> int:
    """The --trials override if given (it must be positive), else ``default``."""
    if args.trials is None:
        return default
    if args.trials <= 0:
        raise ConfigurationError(f"--trials must be positive, got {args.trials}")
    return args.trials


def _write(args, name: str, text: str) -> None:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {out / name}: {exc}") from exc


def _report(args, verdicts) -> int:
    """Write verdicts.txt and print its lines; pass iff every verdict passed."""
    lines = "\n".join(v.line() for v in verdicts)
    _write(args, "verdicts.txt", lines + "\n")
    print(lines)
    return EXIT_PASS if all(v.passed for v in verdicts) else EXIT_FAIL


def _verdict_exit(verdicts) -> int:
    """Exit code of certifier verdicts: fail if any failed, else inconclusive if any was."""
    verdicts = set(verdicts)
    if stats.FAIL in verdicts:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE if stats.INCONCLUSIVE in verdicts else EXIT_PASS


def cmd_run(args) -> int:
    scenario = load_scenario(args.config)
    seed = _resolve_seed(args, scenario)
    for warning in lint_scenario(scenario):
        print(f"warning: {warning}")
    trace = run(scenario, seed=seed)
    _write(args, "trace.txt", serialize_trace(trace))
    return _report(args, checkers.check_all(trace))


def cmd_check(args) -> int:
    return _report(args, checkers.check_all(read_input(args.trace, "trace", parse_trace)))


def cmd_certify(args) -> int:
    scenario = load_scenario(args.config)
    if scenario.trials is None or scenario.trials.pair is None:
        print("error: certify needs a trials block with a pair", file=sys.stderr)
        return EXIT_CONFIG
    n_trials = _trial_count(args, scenario.trials.n_trials)
    seed = _resolve_seed(args, scenario)
    for warning in lint_scenario(scenario):
        print(f"warning: {warning}")
    try:
        report = stats.certify_scenario(scenario, n_trials, seed, jobs=args.jobs)
    except stats.LivenessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIVENESS
    _write(args, "report.csv", stats.reports_csv([report]))
    status = report.verdict
    if not report.in_contract:
        print("out-of-contract: noise-bound assumption violated; "
              f"verdict '{status}' is not a fairness claim")
    print(f"pair={report.pair} p_hat={report.p_hat:.6f} k={report.k:g} "
          f"bound={report.bound:g} verdict={status}")
    return _verdict_exit([status])


def cmd_sweep(args) -> int:
    grid = sweep_from_dict(read_input(args.config))
    n_trials = _trial_count(args, grid.n_trials)
    base_seed = _resolve_seed(args, default=grid.base_seed)
    lines = ["epsilon,n,analytic_p,p_hat,ratio,bound,verdict"]
    verdicts = []
    sweep_tag = tag("sweep")
    cells = [(e, n) for e in grid.epsilons for n in grid.gaps]
    for cell, (epsilon, n) in enumerate(cells):
        seed = derive(base_seed, sweep_tag, cell)
        scenario = replace(two_request_gap_scenario(gap=n, epsilon=epsilon, lam=grid.lam),
                           trials=TrialsBlock(n_trials, seed, pair=(0, 1), force_k=n))
        report = stats.certify_scenario(scenario, n_trials, seed, jobs=args.jobs)
        analytic = order_probability_at_gap(n, epsilon)[0]
        lines.append(
            f"{epsilon},{n},{analytic},{report.p_hat},{report.ratio_hat},"
            f"{report.bound},{report.verdict}"
        )
        verdicts.append(report.verdict)
    _write(args, "report.csv", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return _verdict_exit(verdicts)


def cmd_randomizer(args) -> int:
    block = randomizer_from_dict(read_input(args.config))
    replicas, spec = block.replicas, block.spec
    instances = _trial_count(args, block.instances)
    values, disagreements = randomizer.correct_value_stream(
        replicas, spec, _resolve_seed(args), instances, block.strategy)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    print(f"instances={instances} disagreements={disagreements} "
          f"mean={mean:.6f} variance={var:.6f} (target {2 * spec.scale ** 2:.6f})")
    return EXIT_PASS if disagreements == 0 else EXIT_FAIL


def cmd_quorum(args) -> int:
    scenario = load_scenario(args.config)
    if scenario.multi_server is None:
        print("error: config lacks a multi_server block", file=sys.stderr)
        return EXIT_CONFIG
    ms = scenario.multi_server
    trace = run(scenario, seed=_resolve_seed(args, scenario))
    view = quorum.replicate_trace(trace, ms.n, ms.f, ms.lags, ms.byzantine_servers)
    verdict = quorum.check_prefix_consistency(view)
    _write(args, "view.txt", quorum.serialize_view(view))
    return _report(args, [verdict])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairorder",
        description="fair-ordering simulator, validator, and certifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--seed", type=int, default=None,
                       help=f"base seed (fallback: ${SEED_ENV}, then config)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--trials", type=int, default=None, help="override trial count")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for trials (at most the CPU count)")

    common(sub.add_parser("run", help="simulate and validate one trace"))
    common(sub.add_parser("certify", help="Monte Carlo fairness certification"))
    common(sub.add_parser("sweep", help="epsilon x gap certification grid"))
    check = sub.add_parser("check", help="validate a serialized trace file")
    check.add_argument("trace", help="trace file path")
    check.add_argument("--out", default=".", help="output directory")
    common(sub.add_parser("randomizer", help="shared-randomizer sweep"))
    common(sub.add_parser("quorum", help="multi-server view checks"))
    return parser


_COMMANDS = {
    "run": cmd_run,
    "certify": cmd_certify,
    "sweep": cmd_sweep,
    "check": cmd_check,
    "randomizer": cmd_randomizer,
    "quorum": cmd_quorum,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = Path(args.out)
        if out.exists() and not out.is_dir():
            raise ConfigurationError(f"--out {args.out} is not a directory")
        if getattr(args, "jobs", 1) < 1:
            raise ConfigurationError(f"--jobs must be positive, got {args.jobs}")
        return _COMMANDS[args.command](args)
    except (ConfigurationError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
