"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines. Monte Carlo criteria use fixed base seeds, so results
are reproducible bit for bit; tolerances are three Hoeffding radii at
99% confidence unless a criterion states otherwise.
"""

import json
import math
import time

import pytest

from gen import random_scenario
from forge import (forge_drop_from_output, forge_order_before_delivery,
                   forge_permuted_prefix, forge_phantom_receipt)
from oracles import order_probability_oracle
from fairorder.adversary import ByzantineClientSpec
from fairorder.checkers import (CONSISTENCY, MONOTONIC_ORDER, NON_BLOCKING,
                                ORDER_DETERMINISM, PolicyPredicate, check_all,
                                impossibility_harness)
from fairorder.cli import main
from fairorder.engine import run
from fairorder.model import Request
from fairorder.noise import (NoiseSpec, dp_ratio_bound, laplace_order_probability,
                             order_probability_at_gap, uniform_delta)
from fairorder.quorum import (check_prefix_consistency, global_ordered,
                              global_received, replicate_trace)
from fairorder.randomizer import (ByzantineStrategy, ReplicaSet, check_agreement,
                                  correct_value_stream, run_randomizer)
from fairorder.rng import Stream, derive, tag
from fairorder.scenario import (FairPolicy, FcfsPolicy, ScenarioConfig, TtlPolicy,
                                lint_scenario, two_request_gap_scenario)
from fairorder.stats import (FAIL, PASS, certify_additive, certify_k_ordering_equality,
                             estimate_order_probability, hoeffding_radius)

BASE_SEED = 20260811
RADIUS_1E6 = 0.0016276  # hoeffding radius at 10^6 trials, 99% confidence
JOBS = 2


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} {name}{suffix}")
    assert passed, f"criterion {number}: {name} {detail}"


def test_01_closed_form_matches_integration_oracle():
    start = time.perf_counter()
    worst = 0.0
    for n in (0.0, 0.5, 1.0, 2.0, 4.0):
        closed = laplace_order_probability(0.0, n, 1.0)
        oracle = order_probability_oracle(0.0, n, 1.0)
        worst = max(worst, abs(closed - oracle))
    elapsed = time.perf_counter() - start
    report(1, "closed form vs double-integration oracle",
           worst <= 1e-8 and elapsed < 1.0,
           f"max |diff| {worst:.2e}, {elapsed:.2f}s")


def test_02_gap_formula_identity():
    start = time.perf_counter()
    worst = 0.0
    for n in (0.0, 0.5, 1.0, 2.0, 4.0):
        for epsilon in (0.5, 1.0, 2.0):
            for lam in (0.1, 1.0, 10.0):
                p_gap = order_probability_at_gap(n, epsilon)[0]
                p_loc = laplace_order_probability(0.0, n * lam, lam / epsilon)
                worst = max(worst, abs(p_gap - p_loc))
    elapsed = time.perf_counter() - start
    report(2, "normalized gap formula equals location form",
           worst <= 1e-12 and elapsed < 1.0,
           f"max |diff| {worst:.2e} over 45 grid points, {elapsed:.2f}s")


def test_03_ratio_bound_inequality():
    start = time.perf_counter()
    rng = Stream(derive(BASE_SEED, tag("ratio-bound")))
    violations = 0
    for _ in range(10_000):
        n = 10.0 * rng.random()
        epsilon = 4.0 * rng.random()
        if dp_ratio_bound(n, epsilon) > math.exp(n * epsilon):
            violations += 1
    elapsed = time.perf_counter() - start
    report(3, "probability ratio never exceeds exp(n*epsilon)",
           violations == 0 and elapsed < 1.0,
           f"{violations} violations in 10000 draws, {elapsed:.2f}s")


def test_04_end_to_end_monte_carlo():
    assert hoeffding_radius(10**6, 0.99) == pytest.approx(RADIUS_1E6, abs=1e-7)
    tol = 3 * RADIUS_1E6
    start = time.perf_counter()
    results = []
    for gap, expected in ((0.0, 0.5), (1.0, 0.7240904)):
        scenario = two_request_gap_scenario(gap=gap, epsilon=1.0)
        rep = estimate_order_probability(
            scenario, (0, 1), 10**6,
            derive(BASE_SEED, tag("e2e"), int(gap)), jobs=JOBS)
        results.append((gap, rep.p_hat, expected))
    elapsed = time.perf_counter() - start
    ok = all(abs(p - e) <= tol for _, p, e in results) and elapsed < 120
    report(4, "million-trial estimates match the closed forms", ok,
           "; ".join(f"gap {g:g}: {p:.5f} vs {e:.5f}" for g, p, e in results)
           + f"; {elapsed:.0f}s")


def test_05_k_certification_sweep():
    start = time.perf_counter()
    cells = []
    for epsilon in (0.5, 1.0, 2.0):
        for n in (0.0, 1.0, 2.0, 4.0):
            scenario = two_request_gap_scenario(gap=n, epsilon=epsilon)
            rep = estimate_order_probability(
                scenario, (0, 1), 10**5,
                derive(BASE_SEED, tag("sweep"), int(10 * epsilon), int(n)), jobs=JOBS)
            rep = certify_k_ordering_equality(rep, epsilon, k=n)
            cells.append((epsilon, n, rep.verdict))
    wrong = two_request_gap_scenario(gap=2.0, epsilon=1.0)
    wrong_rep = estimate_order_probability(
        wrong, (0, 1), 10**5, derive(BASE_SEED, tag("wrong-k")), jobs=JOBS)
    wrong_rep = certify_k_ordering_equality(wrong_rep, 1.0, k=1.0)
    elapsed = time.perf_counter() - start
    all_pass = all(v == PASS for _, _, v in cells)
    ok = all_pass and wrong_rep.verdict == FAIL and elapsed < 180
    bad = [(e, n, v) for e, n, v in cells if v != PASS]
    report(5, "12-cell grid certifies; deliberate wrong-k cell fails", ok,
           f"grid {'clean' if all_pass else bad}, wrong-k {wrong_rep.verdict}, {elapsed:.0f}s")


def test_06_uniform_noise_delta():
    delta = uniform_delta(5.0, 100.0)
    assert delta == 0.05
    scenario = two_request_gap_scenario(
        gap=0.0, epsilon=1.0, lam=5.0, kind="uniform", bound=100.0, eta_b=5.0)
    rep = estimate_order_probability(
        scenario, (0, 1), 10**6, derive(BASE_SEED, tag("uniform")), jobs=JOBS)
    certified = certify_additive(rep, 0.0, delta)
    gap = abs(2 * rep.p_hat - 1)
    ok = gap <= delta + 3 * RADIUS_1E6 and certified.verdict == PASS
    report(6, "uniform mechanism stays within its additive delta", ok,
           f"|2p-1| {gap:.4f} <= {delta + 3 * RADIUS_1E6:.4f}, verdict {certified.verdict}")


def test_07_validity_suite_and_mutations():
    gen = Stream(derive(BASE_SEED, tag("validity")))
    failures = []
    for i in range(100):
        for kind in ("fcfs", "ttl", "fair"):
            scenario = random_scenario(gen, kind)
            trace = run(scenario, seed=gen.randrange(1_000_000))
            for verdict in check_all(trace):
                if not verdict.passed:
                    failures.append((i, kind, verdict.property))
    base = ScenarioConfig(
        feature_count=2, relevant=(0,), lam=1.0,
        requests=tuple(Request(i, i, (0.0, 0.0), 0) for i in range(3)),
        eta_feature=1, policy=FcfsPolicy(), deliver_overrides={0: 1, 1: 2, 2: 4},
    )
    honest = run(base, seed=0)
    # Each forgery fails exactly its targets; a phantom receipt is also an order
    # before delivery (see forge.forge_phantom_receipt).
    mutations = {
        (ORDER_DETERMINISM,): forge_order_before_delivery(honest, rid=1, early_tick=1),
        (NON_BLOCKING,): forge_drop_from_output(honest, rid=2),
        (CONSISTENCY, ORDER_DETERMINISM): forge_phantom_receipt(honest, rid=2),
        (MONOTONIC_ORDER,): forge_permuted_prefix(honest, at_tick=2),
    }
    targeted_ok = True
    for targets, forged in mutations.items():
        statuses = {v.property: v.passed for v in check_all(forged)}
        expected = {prop: prop not in targets for prop in statuses}
        targeted_ok = targeted_ok and statuses == expected
    report(7, "validity suite over 300 randomized runs; targeted mutations isolated",
           not failures and targeted_ok,
           f"failures {failures[:3]}, mutations {'isolated' if targeted_ok else 'leaked'}")


def test_08_impossibility_demonstration():
    scenario = ScenarioConfig(
        feature_count=2, relevant=(0,), lam=1.0,
        requests=(Request(0, 0, (1.0, 0.0), 0), Request(1, 1, (2.0, 0.0), 0)),
        eta_feature=1,
    )
    pred = PolicyPredicate([(0, 1)])
    policies = [FcfsPolicy(), TtlPolicy(deadline_feature=0),
                FairPolicy(spec=NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0))]
    outcomes = []
    agree = True
    for policy in policies:
        result = impossibility_harness(policy, pred, scenario)
        outcomes.append(result.failed_property)
        t_prime = result.trace_only_r2.order_ticks[1]
        ev = lambda trace: [(e.at_tick, e.kind, e.rid)
                            for e in trace.events if e.at_tick <= t_prime]
        agree = agree and ev(result.trace_only_r2) == ev(result.trace_both)
    ok = all(o in ("policy_compliance", "non_blocking") for o in outcomes) and agree
    report(8, "every ungated policy breaks validity under unbounded delay", ok,
           f"failed properties {outcomes}, prefix agreement {agree}")


def test_09_shared_randomizer():
    spec = NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0)  # b = 1
    replicas = ReplicaSet(n=4, f=1, byzantine_ids={2})
    disagreements = 0
    for strategy in ByzantineStrategy:
        for i in range(1000):
            outcome = run_randomizer(replicas, spec, i,
                                     derive(BASE_SEED, tag("rzr"), i), strategy)
            if not check_agreement(outcome, replicas):
                disagreements += 1
    values, _ = correct_value_stream(replicas, spec, derive(BASE_SEED, tag("rzr-stream")),
                                     instances=100_000)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    ok = disagreements == 0 and abs(mean) <= 0.02 and abs(var - 2.0) <= 0.04
    report(9, "randomizer agreement and output distribution", ok,
           f"disagreements {disagreements}, mean {mean:+.4f}, variance {var:.4f}")


def test_10_multi_server_views():
    gen = Stream(derive(BASE_SEED, tag("quorum")))
    bad = 0
    monotone = True
    for _ in range(100):
        trace = run(random_scenario(gen, "fcfs"), seed=gen.randrange(1_000_000))
        lags = tuple(gen.randrange(4) for _ in range(4))
        view = replicate_trace(trace, n=4, f=1, lags=lags)
        if not check_prefix_consistency(view).passed:
            bad += 1
        for t in range(view.horizon):
            if not (global_received(view, t) <= global_received(view, t + 1)
                    and global_ordered(view, t) <= global_ordered(view, t + 1)):
                monotone = False
    base = ScenarioConfig(
        feature_count=2, relevant=(0,), lam=1.0,
        requests=tuple(Request(i, i, (0.0, 0.0), 0) for i in range(3)),
        eta_feature=1, policy=FcfsPolicy(), deliver_overrides={0: 1, 1: 2, 2: 3},
    )
    # The first two orders swap at tick 2; server 1, a tick behind, still shows (0,).
    forged = replicate_trace(forge_permuted_prefix(run(base, seed=0), at_tick=2),
                             n=4, f=1, lags=(0, 1, 0, 0))
    caught = not check_prefix_consistency(forged).passed
    report(10, "lag-replicated views consistent; forged swap caught",
           bad == 0 and monotone and caught,
           f"{bad} inconsistent views, monotone {monotone}, swap caught {caught}")


def fee_scenario(bribe):
    lam = 5.0
    spec = NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=lam)
    return ScenarioConfig(
        feature_count=2, relevant=(0,), lam=lam,
        requests=(Request(0, 0, (100.0, 0.0), 0), Request(1, 1, (100.0, 0.0), 0)),
        eta_feature=1,
        adversaries=(ByzantineClientSpec(client_id=0, bribe=bribe),),
        noise=spec,
        policy=FairPolicy(spec=spec, direction="highest_first"),
        fee_mode=True,
    )


def test_11_bribery_application():
    scenario = fee_scenario(bribe=5.0)
    assert lint_scenario(scenario) == []
    rep = estimate_order_probability(
        scenario, (0, 1), 10**6, derive(BASE_SEED, tag("bribe")), jobs=JOBS)
    win = rep.p_hat
    bound = 0.7241 + 3 * RADIUS_1E6
    oversized = fee_scenario(bribe=15.0)
    warnings = lint_scenario(oversized)
    flagged = any("assumption-violation" in w for w in warnings)
    rep_out = estimate_order_probability(oversized, (0, 1), 100,
                                         derive(BASE_SEED, tag("bribe3")))
    ok = win <= bound and rep.in_contract and flagged and not rep_out.in_contract
    report(11, "bounded bribery stays within the worst-case adjacent odds", ok,
           f"briber win {win:.5f} <= {bound:.5f}; 3x bribe flagged {flagged}")


def test_12_cli_determinism(tmp_path):
    scenario_doc = {
        "feature_count": 2, "relevant": [0], "lambda": 1.0, "eta_feature": 1,
        "clients": [
            {"id": 0, "requests": [{"id": 0, "issue_tick": 0, "features": [1.0, 0.0]}]},
            {"id": 1, "requests": [{"id": 1, "issue_tick": 1, "features": [2.0, 0.0]}]},
        ],
        "delay": {"kind": "uniform", "lo": 0, "hi": 3},
        "policy": {"kind": "fair"},
        "noise": {"kind": "laplace", "epsilon": 1.0, "sensitivity": 1.0},
    }
    sweep_doc = {"sweep": {"epsilons": [0.5, 1.0], "gaps": [0.0, 1.0],
                           "n_trials": 2000, "base_seed": 9}}
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(scenario_doc))
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps(sweep_doc))
    identical = True
    for cmd, cfg, artifact in (("run", run_cfg, "trace.txt"),
                               ("run", run_cfg, "verdicts.txt"),
                               ("sweep", sweep_cfg, "report.csv")):
        out_a, out_b = tmp_path / f"{cmd}-a", tmp_path / f"{cmd}-b"
        main([cmd, "--config", str(cfg), "--seed", "31", "--out", str(out_a)])
        main([cmd, "--config", str(cfg), "--seed", "31", "--out", str(out_b)])
        identical = identical and (
            (out_a / artifact).read_bytes() == (out_b / artifact).read_bytes())
    report(12, "repeated invocations produce byte-identical outputs", identical)
