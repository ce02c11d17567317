"""fairorder benchmark (standard library only).

Run from the root of a checkout:

    python3 bench/run.py --workload trace_burst --seed 1 --seconds 30 --trace 0

The benchmark generates the workload's input files from --seed, then runs
the real `fairorder` CLI commands from `src/`, each in a fresh process,
one at a time (a closed loop with one caller and --jobs 1). It prints
human-readable lines, then as its last line one JSON object with the
keys correct, attempted, failed and metrics.

--trace 0 repeats passes over the workload's commands for --seconds
seconds and reports the end-to-end metrics (medians over passes).
--trace 1 runs one reference pass, then the same commands in-process
untraced and twice traced (see tracing.py), and reports the per-module
metrics. See bench/README.md for every metric's definition.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracing
from checks import STDOUT, OpResult, negative_control, verify_pass
from workloads import WORKLOADS, argv_for, generate

MIN_PASSES = 3
PROCESS_TIMEOUT_S = 60
SETUP_PROBES_TRACED = 3
WORK_DIR = ".bench_work"


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failed operation of the program)."""


def machine_facts(root: Path) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    commit = "absent (not a git checkout)"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == root:
            commit = lines[1]
    src = hashlib.sha256()
    for path in sorted((root / "src" / "fairorder").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy,
            "git_commit": commit, "src_sha256": src.hexdigest()[:16]}


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FAIRORDER_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, int, float, bytes]:
    """Run one process to completion: (wall s, exit code, max RSS MiB, stdout bytes).

    A process still running after PROCESS_TIMEOUT_S is killed, which
    counts as an unexpected exit code rather than stalling the run.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.DEVNULL)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # wait4 also reports the child's max RSS
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above, so tell Popen
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, log.read_bytes()


def collect(out_dir: Path, stdout: bytes, exit_code: int) -> OpResult:
    outputs = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*")) if p.is_file()}
    outputs[STDOUT] = stdout
    return OpResult(exit_code, outputs)


def out_dir_of(argv: list[str]) -> Path:
    return Path(argv[argv.index("--out") + 1])


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.work = root / WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
        self.inputs = self.work / "in"
        self.cli_seed = generate(workload, seed, self.inputs)
        self.env = child_env(root)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, OpResult] | None = None
        self._runs = 0

    def rel(self, path: Path) -> Path:
        return path.relative_to(self.root)

    def argv(self, cmd, out: Path) -> list[str]:
        return argv_for(cmd, self.rel(self.inputs), self.rel(out), self.cli_seed)

    def next_out(self, label: str) -> Path:
        self._runs += 1
        return self.work / f"{self._runs:03d}-{label}"

    def warm_up(self) -> None:
        """Compile the program's bytecode once, so no timed process pays for it."""
        _, code, _, _ = spawn([sys.executable, "-c", "import fairorder.cli"], self.env,
                              self.work / "warmup.log")
        if code != 0:
            raise BenchError("cannot import fairorder from src/")

    def probe(self) -> float:
        wall, code, _, _ = spawn(
            [sys.executable, "bench/probe.py", str(self.rel(self.inputs / self.workload.config))],
            self.env, self.work / "probe.log")
        if code != 0:
            raise BenchError(f"setup probe exited {code}")
        return wall

    def record(self, ops: dict[str, OpResult]) -> None:
        """Verify one pass; the first verified pass becomes the byte reference."""
        found = verify_pass(self.workload.name, ops, self.reference)
        for name, problems in found.items():
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{name}: {p}" for p in problems]
        if self.reference is None:
            self.reference = ops

    def subprocess_pass(self, jobs: int | None = None):
        """One pass, each command in its own process: (ops, walls, peak RSS MiB)."""
        out = self.next_out("pass")
        ops, walls, rss = {}, {}, 0.0
        for cmd in self.workload.commands:
            argv = self.argv(cmd, out)
            if jobs is not None and cmd.name == self.workload.primary:
                argv = with_jobs(argv, jobs)
            log = out / f"{cmd.name}.stdout"
            log.parent.mkdir(parents=True, exist_ok=True)
            wall, code, peak, stdout = spawn(
                [sys.executable, "-m", "fairorder.cli", *argv], self.env, log)
            ops[cmd.name] = collect(self.root / out_dir_of(argv), stdout, code)
            walls[cmd.name] = wall
            rss = max(rss, peak)
        return ops, walls, rss

    def inprocess_pass(self, main) -> tuple[dict[str, OpResult], float]:
        """One pass through ``main`` in this process: (ops, wall s)."""
        out = self.next_out("inproc")
        ops = {}
        t0 = time.perf_counter()
        for cmd in self.workload.commands:
            argv = self.argv(cmd, out)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects its argv this way
                    code = exc.code if isinstance(exc.code, int) else 1
            ops[cmd.name] = collect(self.root / out_dir_of(argv), buf.getvalue().encode(), code)
        return ops, time.perf_counter() - t0

    def control(self) -> str:
        try:
            cases, missed = negative_control(self.workload.name, self.reference)
        except (KeyError, IndexError, ValueError) as exc:
            self.problems.append(f"negative control cannot corrupt the first pass: {exc!r}")
            return "not run"
        if missed:
            self.problems += [f"negative control not detected: {m}" for m in missed]
        return f"{cases - len(missed)}/{cases} corrupted outputs counted as failures"

    # ---- --trace 0 ---------------------------------------------------------

    def timed(self, seconds: float) -> tuple[dict, dict]:
        walls, setups, per_cmd, rss, rounds = [], [], {}, 0.0, []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            setups.append(self.probe())
            ops, cmd_walls, peak = self.subprocess_pass()
            self.record(ops)
            walls.append(sum(cmd_walls.values()))
            for name, w in cmd_walls.items():
                per_cmd.setdefault(name, []).append(w)
            rss = max(rss, peak)
            now = time.perf_counter()
            rounds.append(now - t0)
            # Start another pass only if it is expected to end within the budget.
            if len(walls) >= MIN_PASSES and now - start + statistics.median(rounds) > seconds:
                break
        print("pass walls (s): " + " ".join(f"{w:.3f}" for w in walls))
        wall_s = statistics.median(walls)
        setup_s = statistics.median(setups)
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "trials_per_s": (self.workload.trials / (wall_s - setup_s), "1/s"),
            "peak_rss_mb": (rss, "MiB"),
        }
        extra = {f"{name}_s": (statistics.median(w), "s") for name, w in per_cmd.items()}
        extra["passes"] = (len(walls), "count")
        return metrics, extra

    # ---- --trace 1 ---------------------------------------------------------

    def traced(self) -> tuple[dict, dict]:
        setup_s = statistics.median(self.probe() for _ in range(SETUP_PROBES_TRACED))
        ops, ref_walls, _ = self.subprocess_pass()
        self.record(ops)

        sys.path.insert(0, str(self.root / "src"))
        mod = tracing.load_program()
        src = (self.root / "src" / "fairorder").resolve()
        if Path(mod["cli"].__file__).resolve().parent != src:
            raise BenchError(f"imported fairorder from {mod['cli'].__file__}, not {src}")
        ops, untraced_wall = self.inprocess_pass(mod["cli"].main)
        self.record(ops)

        counts, traced_walls = [], []
        for _ in range(2):
            tracer = tracing.Tracer()
            with tracing.patched(tracer, mod) as main:
                ops, wall = self.inprocess_pass(main)
            self.record(ops)
            counts.append(tracer.counts())
            traced_walls.append(wall)
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                          if counts[0].get(k) != counts[1].get(k))
            self.problems.append(f"traced counts differ between two traced passes: {diff}")
        covered = sum(tracer.self_s)
        if covered > wall:
            self.problems.append(f"self times sum to {covered:.6f} s > traced wall {wall:.6f} s")
        traced_bytes = sum(len(data) for op in ops.values()
                           for name, data in op.outputs.items() if name != STDOUT)

        # stats.jobs_speedup: post-setup throughput of the primary command, --jobs 2 / --jobs 1.
        ops, jobs2_walls, _ = self.subprocess_pass(jobs=2)
        self.record(ops)
        primary = self.workload.primary
        speedup = (ref_walls[primary] - setup_s) / (jobs2_walls[primary] - setup_s)

        spans_path = self.root / WORK_DIR / f"spans-{self.workload.name}.bin"
        tracer.write(spans_path)
        metrics = per_module_metrics(tracer, traced_bytes)
        metrics["stats.jobs_speedup"] = (speedup, "ratio")
        metrics["bench.tracing_overhead"] = (statistics.mean(traced_walls) / untraced_wall, "ratio")
        extra = {"traced_wall_s": (wall, "s"), "untraced_inprocess_wall_s": (untraced_wall, "s"),
                 "spans": (len(tracer.start), "count"), "setup_s": (setup_s, "s")}
        print(f"spans written to {self.rel(spans_path)}")
        return metrics, extra


def with_jobs(argv: list[str], jobs: int) -> list[str]:
    if "--jobs" in argv:
        i = argv.index("--jobs")
        return argv[:i + 1] + [str(jobs)] + argv[i + 2:]
    return argv + ["--jobs", str(jobs)]


# Per-module metrics reported by --trace 1: (metric, unit). Self times come
# from spans, every other value from an exact count.
SELF_TIMES = [
    "rng.derive", "noise.sample", "adversary.apply_delay", "model.check_noise_bound",
    "scenario.load_scenario", "scenario.lint_scenario", "engine.prepare",
    "engine.run_prepared", "engine.fair_policy_step", "engine.serialize_trace",
    "engine.parse_trace", "checkers.check_all", "checkers.consistency",
    "checkers.monotonic_order", "checkers.order_determinism", "checkers.non_blocking",
    "quorum.replicate_trace", "quorum.check_prefix_consistency", "quorum.serialize_view",
    "stats.estimate_order_probability", "stats.certify", "cli.main",
]
COUNTS = [
    ("rng.derive.calls", "count"), ("rng.stream.draws", "count"),
    ("noise.sample.calls", "count"), ("adversary.apply_delay.calls", "count"),
    ("model.adjacent.calls", "count"), ("engine.prepare.calls", "count"),
    ("engine.run_prepared.calls", "count"), ("engine.fair_policy_step.calls", "count"),
    ("engine.is_stable.calls", "count"), ("engine.trace_bytes", "bytes"),
    ("engine.horizon_ticks", "ticks"), ("engine.events", "count"),
    ("quorum.view_bytes", "bytes"),
]


def per_module_metrics(tracer, bytes_written: int) -> dict:
    counts = tracer.counts()
    self_times = tracer.self_times()
    metrics = {f"{name}.self_s": (self_times.get(name, 0.0), "s") for name in SELF_TIMES}
    metrics.update({name: (counts.get(name, 0), unit) for name, unit in COUNTS})
    samples = counts.get("noise.sample.calls", 0)
    metrics["noise.draws_per_sample"] = (
        counts["noise.sample.draws"] / samples if samples else 0.0, "draws/sample")
    metrics["cli.bytes_written"] = (bytes_written, "bytes")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "fairorder" / "cli.py").is_file():
        print("error: run from a fairorder checkout root (src/fairorder/cli.py not found)",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    try:
        bench.warm_up()
        metrics, extra = bench.traced() if args.trace else bench.timed(args.seconds)
        control = bench.control()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    facts = machine_facts(root)
    correct = bench.failed == 0 and not bench.problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {bench.workload.why}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<40} {bench.failed / bench.attempted:>14.6g} failed/attempted "
          f"({bench.failed}/{bench.attempted} CLI invocations)")
    print(f"  negative control: {control}")
    for problem in bench.problems:
        print(f"  problem: {problem}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
