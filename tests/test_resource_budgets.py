"""Peak memory budgets: a trace costs memory in proportion to its events, and a
pair count in proportion to one block of seeds.

Each case runs under ``tracemalloc`` and asserts the peak of Python
allocations, with no timer. A budget is about twice the peak measured
when it was set. A trace, parsed trace or quorum view that kept state
for every tick up to the horizon would exceed the three horizon budgets
by orders of magnitude: one entry per tick is 3·10^7 entries for the
check case alone.
"""

import json
import tracemalloc
from dataclasses import replace

import pytest

from fairorder.adversary import DelayModel
from fairorder.checkers import check_all
from fairorder.cli import main
from fairorder.engine import pair_count, parse_trace, prepare, run, serialize_trace
from fairorder.model import Request
from fairorder.noise import NoiseSpec
from fairorder.quorum import check_prefix_consistency, replicate_trace, serialize_view
from fairorder.rng import Stream
from fairorder.scenario import FairPolicy, ScenarioConfig, two_request_gap_scenario

MIB = 2**20


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def burst_scenario(n: int) -> ScenarioConfig:
    """n fair requests, four per tick, delays 0-3: they pend and emit in bursts."""
    gen = Stream(20)
    requests = tuple(Request(rid, gen.randrange(16), (float(gen.randrange(20)), 0.0), rid // 4)
                     for rid in range(n))
    return ScenarioConfig(
        feature_count=2, relevant=(0,), lam=50.0, requests=requests, eta_feature=1,
        delay=DelayModel(kind="uniform", lo=0.0, hi=3.0),
        policy=FairPolicy(spec=NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=50.0)),
        assume_noise_bound=False,
    )


def test_burst_record_run_through_every_trace_consumer():
    scenario = burst_scenario(20_000)
    kept = []

    def pipeline():
        trace = parse_trace(serialize_trace(run(scenario, seed=5)))
        view = replicate_trace(trace, n=4, f=1, lags=(0, 1, 2, 3))
        kept.extend([trace, check_all(trace), check_prefix_consistency(view),
                     serialize_view(view)])

    peak = peak_bytes(pipeline)  # about 46 MiB when set
    assert peak < 96 * MIB
    trace, verdicts, prefix, _ = kept
    assert len(trace.events) == 60_000
    assert all(v.passed for v in verdicts) and prefix.passed


def test_a_pair_count_block_holds_a_bounded_number_of_draws():
    # Gated fair, 2,000 requests, the pair issued first and delivered before the last
    # issue tick: every seed reads every delay. A block of all 64 seeds would hold
    # 128,000 delay uniforms (4.4 MiB peak when set); blocks of 8 seeds peaked at 1.1 MiB.
    gen = Stream(21)
    requests = tuple(Request(rid, rid % 16, (float(gen.randrange(20)), 0.0),
                             0 if rid < 2 else 1 + rid // 4)
                     for rid in range(2000))
    prep = prepare(replace(burst_scenario(2), requests=requests))
    results = []
    peak = peak_bytes(lambda: results.append(pair_count(prep, (0, 1), 0, 64)))
    assert peak < 2 * MIB
    count, missing = results[0]
    assert missing is None and 0 < count < 64


@pytest.mark.parametrize("shape", ["static", "certify_delay"])
def test_a_pair_count_holds_its_columns_to_one_block(shape):
    # A block's columns (delays, ticks, totals, noise) are lists over its lanes, freed
    # before the next block: 25,000 or 5,000 seeds peak as one block of 1,024 does (0.28
    # and 0.39 MiB when set). Columns over the whole range would hold 25 or 5 times as much.
    if shape == "static":
        prep = prepare(two_request_gap_scenario(1.0))
        seeds = 25_000
    else:
        issue_ticks = Stream(22)
        requests = tuple(Request(rid, rid, (4.0 if rid < 2 else float(rid), 0.0),
                                 issue_ticks.randrange(2)) for rid in range(8))
        prep = prepare(replace(burst_scenario(2), requests=requests, lam=5.0,
                               policy=FairPolicy(direction="highest_first", spec=NoiseSpec(
                                   kind="bounded_laplace", epsilon=1.0, sensitivity=5.0,
                                   bound=15.0))))
        seeds = 5_000
    results = []
    peak = peak_bytes(lambda: results.append(pair_count(prep, (0, 1), 0, seeds)))
    assert peak < 1 * MIB
    count, missing = results[0]
    assert missing is None and 0 < count < seeds


TWO_REQUESTS = {
    "feature_count": 2, "relevant": [0], "lambda": 1.0, "eta_feature": 1,
    "clients": [{"id": c, "requests": [{"id": c, "issue_tick": 0, "features": [1.0 + c, 0.0]}]}
                for c in range(2)],
    "delay": {"kind": "constant", "d": 1},
    "policy": {"kind": "fcfs"},
}


def far_issue_tick(tmp_path):
    doc = json.loads(json.dumps(TWO_REQUESTS))
    doc["clients"][1]["requests"][0]["issue_tick"] = 50_000_000
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    return ["run", "--config", str(tmp_path / "scenario.json")]


def far_header_horizon(tmp_path):
    (tmp_path / "trace.txt").write_text(
        "# fairorder-trace v1 seed=0 horizon=30000000\n0,issue,0\n1,deliver,0\n2,order,0\n"
        "order:0\n")
    return ["check", str(tmp_path / "trace.txt")]


def long_lag(tmp_path):
    doc = dict(TWO_REQUESTS, multi_server={"n": 4, "f": 1, "lags": [0, 20_000_000, 0, 0]})
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    return ["quorum", "--config", str(tmp_path / "scenario.json")]


@pytest.mark.parametrize("argv_for", [far_issue_tick, far_header_horizon, long_lag],
                         ids=["run_issue_tick_5e7", "check_horizon_3e7", "quorum_lag_2e7"])
def test_a_far_tick_costs_no_memory(tmp_path, capsys, argv_for):
    argv = argv_for(tmp_path) + ["--out", str(tmp_path / "out")]
    codes = []
    peak = peak_bytes(lambda: codes.append(main(argv)))  # under 0.1 MiB when set
    assert codes == [0]
    assert "pass" in capsys.readouterr().out
    assert peak < 1 * MIB
