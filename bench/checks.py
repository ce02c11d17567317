"""Correctness checks on the outputs of one workload pass, and their negative control.

Every CLI invocation is one operation. It fails when its exit code is
unexpected, when its outputs fail the workload's content checks, or when
its output bytes (files and stdout) differ from the first pass of the
same seed. `negative_control` feeds corrupted copies of real outputs to
the same checks and reports how many were caught, which shows that
`failed` can rise above 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from workloads import (CERTIFY_TRIALS, SWEEP_EPSILONS, SWEEP_GAPS, SWEEP_TRIALS, TRACE_REQUESTS,
                       TRACE_SERVERS, WORKLOADS)

STDOUT = "<stdout>"
CONFIDENCE = 0.99
CERTIFY_HEADER = "pair_a,pair_b,n_trials,count_first,p_hat,k,epsilon,bound,radius,verdict"
SWEEP_HEADER = "epsilon,n,analytic_p,p_hat,ratio,bound,verdict"
SWEEP_GRID = [(e, n) for e in SWEEP_EPSILONS for n in SWEEP_GAPS]
CORE_PROPERTIES = ("order_determinism", "non_blocking", "consistency", "monotonic_order")


@dataclass(frozen=True)
class OpResult:
    """Exit code and output bytes (files by name, plus stdout) of one invocation."""

    exit_code: int
    outputs: dict[str, bytes]


def hoeffding_radius(n: int) -> float:
    return math.sqrt(math.log(2.0 / (1.0 - CONFIDENCE)) / (2.0 * n))


def analytic_p(gap: float, epsilon: float) -> float:
    """Pr[lower score first] for two Laplace-noised scores gap*lambda apart."""
    x = gap * epsilon
    return 1.0 - (2.0 + x) / 4.0 * math.exp(-x)


def _text(op: OpResult, name: str) -> str:
    data = op.outputs.get(name)
    if data is None:
        raise ValueError(f"missing output {name}")
    return data.decode()


def _check_sweep(op: OpResult) -> list[str]:
    lines = _text(op, "report.csv").splitlines()
    if lines[:1] != [SWEEP_HEADER] or len(lines) != 1 + len(SWEEP_GRID):
        return ["report.csv does not hold the header and one row per cell"]
    radius = hoeffding_radius(SWEEP_TRIALS)
    problems = []
    inconclusive = False
    for row, (epsilon, gap) in zip(lines[1:], SWEEP_GRID):
        e, n, analytic, p_hat, _ratio, _bound, verdict = row.split(",")
        if (float(e), float(n)) != (epsilon, gap):
            problems.append(f"cell {row!r} is out of grid order")
            continue
        expect = analytic_p(gap, epsilon)
        if abs(float(analytic) - expect) > 1e-12:
            problems.append(f"cell eps={e} gap={n}: analytic_p {analytic} != {expect!r}")
        if abs(float(p_hat) - expect) > 3 * radius:
            problems.append(f"cell eps={e} gap={n}: |p_hat - analytic_p| > 3R (R={radius:.5f})")
        # A gap-0 cell sits exactly on its bound; the certifier's documented
        # error budget lets it read inconclusive (p_hat within 3R, never fail).
        if verdict == "inconclusive" and gap == 0.0:
            inconclusive = True
        elif verdict != "pass":
            problems.append(f"cell eps={e} gap={n}: verdict {verdict}")
    if op.exit_code != (3 if inconclusive else 0):
        problems.append(f"exit code {op.exit_code} disagrees with the cell verdicts")
    return problems


def _check_certify(op: OpResult) -> list[str]:
    problems = []
    stdout = _text(op, STDOUT).splitlines()
    if any(line.startswith("out-of-contract") for line in stdout):
        problems.append("certify printed an out-of-contract line")
    if not stdout or not stdout[-1].endswith("verdict=pass"):
        problems.append("certify did not print verdict=pass")
    lines = _text(op, "report.csv").splitlines()
    if lines[:1] != [CERTIFY_HEADER] or len(lines) != 2:
        return problems + ["report.csv does not hold the header and one row"]
    f = lines[1].split(",")
    if f[:3] != ["0", "1", str(CERTIFY_TRIALS)]:
        problems.append(f"report row {lines[1]!r} is not pair (0, 1) at {CERTIFY_TRIALS} trials")
    elif int(f[3]) / CERTIFY_TRIALS != float(f[4]):
        problems.append("report p_hat != count_first / n_trials")
    if f[-1] != "pass":
        problems.append(f"report verdict {f[-1]}")
    return problems


def _order_line(trace: str) -> list[int]:
    last = trace.rstrip("\n").rsplit("\n", 1)[-1]
    if not last.startswith("order:"):
        raise ValueError("trace lacks a final order line")
    return [int(x) for x in last[len("order:"):].split(",")]


def _check_run(op: OpResult) -> list[str]:
    problems = []
    verdicts = _text(op, "verdicts.txt").splitlines()
    if verdicts != [f"{p},pass," for p in CORE_PROPERTIES]:
        problems.append(f"run verdicts are not all pass: {verdicts}")
    trace = _text(op, "trace.txt")
    order = _order_line(trace)
    if sorted(order) != list(range(TRACE_REQUESTS)):
        problems.append("order line is not a permutation of all request ids")
    rows = [line.split(",") for line in trace.splitlines()[1:-1]]
    kinds = [r[1] for r in rows]
    if [int(r[2]) for r in rows if r[1] == "order"] != order:
        problems.append("order rows disagree with the order line")
    if kinds.count("issue") != TRACE_REQUESTS or kinds.count("deliver") != TRACE_REQUESTS:
        problems.append("trace does not issue and deliver every request once")
    return problems


def _check_quorum(op: OpResult, run: OpResult) -> list[str]:
    problems = []
    if _text(op, "verdicts.txt") != "prefix_consistency,pass,\n":
        problems.append("prefix_consistency does not pass")
    order = ",".join(str(i) for i in _order_line(_text(run, "trace.txt")))
    finals = [line for line in _text(op, "view.txt").splitlines() if line.startswith("order:")]
    if finals != [f"order:{i}:{order}" for i in range(TRACE_SERVERS)]:
        problems.append("a server's final view order differs from the run's order")
    return problems


def verify_pass(workload: str, ops: dict[str, OpResult],
                reference: dict[str, OpResult] | None) -> dict[str, list[str]]:
    """Problems found in each operation of one pass (an empty list means it passed)."""
    problems: dict[str, list[str]] = {}
    for cmd in WORKLOADS[workload].commands:
        op = ops[cmd.name]
        found = []
        if op.exit_code not in cmd.expected_exit:
            found.append(f"unexpected exit code {op.exit_code}")
        try:
            if cmd.name == "sweep":
                found += _check_sweep(op)
            elif cmd.name == "certify":
                found += _check_certify(op)
            elif cmd.name == "run":
                found += _check_run(op)
            elif cmd.name == "check":
                if op.outputs.get("verdicts.txt") != ops["run"].outputs.get("verdicts.txt"):
                    found.append("check's verdicts differ from run's")
            elif cmd.name == "quorum":
                found += _check_quorum(op, ops["run"])
        except (ValueError, IndexError) as exc:  # includes UnicodeDecodeError
            found.append(f"malformed output: {exc}")
        if reference is not None and op.outputs != reference[cmd.name].outputs:
            found.append("output bytes differ from the first pass with this seed")
        problems[cmd.name] = found
    return problems


def _with_output(ops, name, key, data):
    changed = dict(ops)
    changed[name] = replace(ops[name], outputs={**ops[name].outputs, key: data})
    return changed


def _with_exit(ops, name, code):
    changed = dict(ops)
    changed[name] = replace(ops[name], exit_code=code)
    return changed


def _flip_byte(data: bytes) -> bytes:
    i = len(data) // 2
    return data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1:]


def _move_p_hat(report: bytes) -> bytes:
    """Move the p_hat of the fifth sweep cell 4R further from its analytic value."""
    lines = report.decode().splitlines()
    f = lines[5].split(",")
    p_hat, analytic = float(f[3]), float(f[2])
    f[3] = repr(p_hat + math.copysign(4 * hoeffding_radius(SWEEP_TRIALS), p_hat - analytic))
    lines[5] = ",".join(f)
    return ("\n".join(lines) + "\n").encode()


def _swap_order_rows(trace: bytes) -> bytes:
    lines = trace.decode().split("\n")
    rows = [i for i, line in enumerate(lines) if ",order," in line]
    a, b = rows[0], rows[1]
    lines[a], lines[b] = lines[b], lines[a]
    return "\n".join(lines).encode()


def _corruptions(workload: str, ops: dict[str, OpResult]):
    """(label, corrupted pass, compare against the true pass?) for each kind."""
    if workload == "sweep_static":
        report = ops["sweep"].outputs["report.csv"]
        return [
            ("report.csv p_hat moved by 4R", _with_output(ops, "sweep", "report.csv",
                                                          _move_p_hat(report)), False),
            ("sweep exit code 1", _with_exit(ops, "sweep", 1), False),
            ("changed byte in report.csv", _with_output(ops, "sweep", "report.csv",
                                                        _flip_byte(report)), True),
        ]
    if workload == "certify_delay":
        report = ops["certify"].outputs["report.csv"]
        stdout = ops["certify"].outputs[STDOUT]
        return [
            ("out-of-contract line", _with_output(
                ops, "certify", STDOUT, b"out-of-contract: injected\n" + stdout), False),
            ("report.csv verdict inconclusive", _with_output(
                ops, "certify", "report.csv", report.replace(b",pass\n", b",inconclusive\n")),
             False),
            ("changed byte in report.csv", _with_output(ops, "certify", "report.csv",
                                                        _flip_byte(report)), True),
        ]
    trace = ops["run"].outputs["trace.txt"]
    verdicts = ops["check"].outputs["verdicts.txt"]
    return [
        ("trace.txt with two order rows swapped", _with_output(
            ops, "run", "trace.txt", _swap_order_rows(trace)), False),
        ("check verdicts differ from run's", _with_output(
            ops, "check", "verdicts.txt", verdicts.replace(b",pass,", b",fail,1", 1)), False),
        ("changed byte in view.txt", _with_output(
            ops, "quorum", "view.txt", _flip_byte(ops["quorum"].outputs["view.txt"])), True),
        ("quorum exit code 1", _with_exit(ops, "quorum", 1), False),
    ]


def negative_control(workload: str, ops: dict[str, OpResult]) -> tuple[int, list[str]]:
    """Feed each corruption of a correct pass to the checks; return (cases, missed labels)."""
    cases = _corruptions(workload, ops)
    missed = []
    for label, corrupted, with_reference in cases:
        problems = verify_pass(workload, corrupted, ops if with_reference else None)
        if not any(problems.values()):
            missed.append(label)
    return len(cases), missed
