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
import json
import os
import sys
from pathlib import Path

from . import checkers, quorum, randomizer, stats
from .engine import parse_trace, run, serialize_trace, TraceParseError
from .model import ParameterError
from .noise import ConfigurationError, NoiseSpec, order_probability_at_gap, uniform_delta
from .rng import derive, tag
from .scenario import (FairPolicy, ScenarioConfig, lint_scenario, load_scenario,
                       sweep_from_dict, two_request_gap_scenario)

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


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def cmd_run(args) -> int:
    scenario = load_scenario(args.config)
    seed = _resolve_seed(args, scenario)
    for warning in lint_scenario(scenario):
        print(f"warning: {warning}")
    trace = run(scenario, seed=seed)
    out = Path(args.out)
    _write(out, "trace.txt", serialize_trace(trace))
    verdicts = checkers.check_all(trace)
    _write(out, "verdicts.txt", "\n".join(v.line() for v in verdicts) + "\n")
    for v in verdicts:
        print(v.line())
    return EXIT_PASS if all(v.passed for v in verdicts) else EXIT_FAIL


def cmd_check(args) -> int:
    try:
        trace = parse_trace(Path(args.trace).read_text())
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TraceParseError as exc:
        print(f"error: malformed trace: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    verdicts = checkers.check_all(trace)
    _write(Path(args.out), "verdicts.txt", "\n".join(v.line() for v in verdicts) + "\n")
    for v in verdicts:
        print(v.line())
    return EXIT_PASS if all(v.passed for v in verdicts) else EXIT_FAIL


def _certify_report(scenario: ScenarioConfig, report: stats.FairnessReport):
    """Pick the certifier matching the scenario's mechanism."""
    noise = scenario.noise
    if isinstance(scenario.policy, FairPolicy) and scenario.policy.spec is not None:
        noise = scenario.policy.spec
    force_k = scenario.trials.force_k if scenario.trials else None
    if noise is not None and noise.kind.value == "uniform":
        delta = noise.delta
        if delta is None:
            delta = uniform_delta(scenario.lam, noise.bound)
        return stats.certify_additive(report, 0.0, delta)
    epsilon = noise.epsilon if noise is not None else 1.0
    if force_k is not None:
        return stats.certify_k_ordering_equality(report, epsilon, k=force_k)
    if report.k_relev == 0:
        return stats.certify_ordering_equality(report, epsilon)
    return stats.certify_k_ordering_equality(report, epsilon)


def cmd_certify(args) -> int:
    scenario = load_scenario(args.config)
    if scenario.trials is None or scenario.trials.pair is None:
        print("error: certify needs a trials block with a pair", file=sys.stderr)
        return EXIT_CONFIG
    trials = scenario.trials
    n_trials = _trial_count(args, trials.n_trials)
    seed = _resolve_seed(args, scenario)
    warnings = lint_scenario(scenario)
    for warning in warnings:
        print(f"warning: {warning}")
    try:
        report = stats.estimate_order_probability(
            scenario, scenario.policy, trials.pair, n_trials, seed,
            confidence=trials.confidence, jobs=args.jobs,
        )
    except stats.LivenessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIVENESS
    report = _certify_report(scenario, report)
    _write(Path(args.out), "report.csv", stats.reports_csv([report]))
    status = report.verdict
    if not report.in_contract:
        print("out-of-contract: noise-bound assumption violated; "
              f"verdict '{status}' is not a fairness claim")
    print(f"pair={report.pair} p_hat={report.p_hat:.6f} k={report.k:g} "
          f"bound={report.bound:g} verdict={status}")
    if status == stats.PASS:
        return EXIT_PASS
    if status == stats.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def cmd_sweep(args) -> int:
    grid = sweep_from_dict(json.loads(Path(args.config).read_text()))
    n_trials = _trial_count(args, grid.n_trials)
    base_seed = _resolve_seed(args, default=grid.base_seed)
    lines = ["epsilon,n,analytic_p,p_hat,ratio,bound,verdict"]
    worst = EXIT_PASS
    sweep_tag = tag("sweep")
    cells = [(e, n) for e in grid.epsilons for n in grid.gaps]
    for cell, (epsilon, n) in enumerate(cells):
        scenario = two_request_gap_scenario(gap=n, epsilon=epsilon, lam=grid.lam)
        report = stats.estimate_order_probability(
            scenario, scenario.policy, (0, 1), n_trials,
            derive(base_seed, sweep_tag, cell), jobs=args.jobs)
        report = stats.certify_k_ordering_equality(report, epsilon, k=n)
        analytic = order_probability_at_gap(n, epsilon)[0]
        lines.append(
            f"{epsilon},{n},{analytic},{report.p_hat},{report.ratio_hat},"
            f"{report.bound},{report.verdict}"
        )
        if report.verdict == stats.FAIL:
            worst = EXIT_FAIL
        elif report.verdict == stats.INCONCLUSIVE and worst == EXIT_PASS:
            worst = EXIT_INCONCLUSIVE
    _write(Path(args.out), "report.csv", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return worst


def cmd_randomizer(args) -> int:
    doc = json.loads(Path(args.config).read_text())
    block = doc.get("randomizer")
    if not block:
        print("error: config lacks a 'randomizer' block", file=sys.stderr)
        return EXIT_CONFIG
    replicas = randomizer.ReplicaSet(
        n=int(block["n"]), f=int(block["f"]),
        byzantine_ids=frozenset(int(i) for i in block.get("byzantine", ())),
    )
    spec = NoiseSpec(
        kind=block.get("kind", "laplace"),
        epsilon=float(block.get("epsilon", 1.0)),
        sensitivity=float(block.get("sensitivity", 1.0)),
        bound=block.get("bound"),
    )
    strategy = randomizer.ByzantineStrategy(block.get("strategy", "constant"))
    instances = _trial_count(args, int(block.get("instances", 1000)))
    seed = _resolve_seed(args)
    disagreements = 0
    values = []
    for instance in range(instances):
        outcome = randomizer.run_randomizer(replicas, spec, instance, seed, strategy)
        if not randomizer.check_agreement(outcome, replicas):
            disagreements += 1
        values.append(outcome.per_replica[min(replicas.correct_ids)])
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
    seed = _resolve_seed(args, scenario)
    trace = run(scenario, seed=seed)
    view = quorum.replicate_trace(trace, ms.n, ms.f, ms.lags, ms.byzantine_servers)
    verdict = quorum.check_prefix_consistency(view)
    out = Path(args.out)
    _write(out, "view.txt", quorum.serialize_view(view))
    _write(out, "verdicts.txt", verdict.line() + "\n")
    print(verdict.line())
    return EXIT_PASS if verdict.passed else EXIT_FAIL


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
        p.add_argument("--jobs", type=int, default=1, help="worker processes for trials")

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
        return _COMMANDS[args.command](args)
    except (ConfigurationError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
