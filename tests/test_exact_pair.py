"""The pair kernel against the exact Pr[a before b] over drawn delays.

``exact_pair_probability`` enumerates every combination of delivery
buckets of a small fcfs or ttl scenario and runs the engine on each one.
``pair_count`` over a fixed block of seeds must land within the Hoeffding
radius of that p, at confidence 1 - 1e-6, gated and ungated and in both
directions of each pair.
"""

import math

import pytest

from fairorder.adversary import DelayModel
from fairorder.engine import pair_count, prepare
from fairorder.model import Request
from fairorder.scenario import FcfsPolicy, ScenarioConfig, TtlPolicy
from oracles import delay_buckets, exact_pair_probability

N_SEEDS = 20_000
RADIUS = math.sqrt(math.log(2 / 1e-6) / (2 * N_SEEDS))
SEED_BLOCKS = (0, 10**9)

# Features: (relevant, eta, deadline). Requests 1 and 3 are issued after request 0 but
# have lesser deadlines, so gated ttl holds 0 back while either is in flight.
REQUESTS = (Request(id=0, client_id=0, features=(2.0, 0.0, 1.5), issue_tick=0),
            Request(id=1, client_id=1, features=(1.0, 0.0, 1.0), issue_tick=2),
            Request(id=2, client_id=2, features=(0.0, 0.0, 3.0), issue_tick=1),
            Request(id=3, client_id=0, features=(3.0, 0.0, 0.0), issue_tick=3),
            Request(id=4, client_id=3, features=(4.0, 0.0, 2.0), issue_tick=0),
            Request(id=5, client_id=4, features=(0.5, 0.0, 4.0), issue_tick=1))
DELAY = DelayModel(kind="uniform", lo=0.0, hi=4.0, per_client={
    2: DelayModel(kind="uniform", lo=0.5, hi=2.5),
    3: DelayModel(kind="constant", d=2.0),
    4: DelayModel(kind="uniform", lo=1.5, hi=1.5),
})
POLICIES = {"fcfs": FcfsPolicy(), "ttl_deadline": TtlPolicy(deadline_feature=2),
            "ttl_relevant": TtlPolicy(deadline_feature=0)}
PAIRS = ((0, 1), (1, 0), (2, 4), (3, 0), (5, 2))


def scenario(policy, gating, **extra) -> ScenarioConfig:
    return ScenarioConfig(feature_count=3, relevant=(0,), lam=10.0, requests=REQUESTS,
                          eta_feature=1, delay=DELAY, policy=policy, stability_gating=gating,
                          **extra)


def test_buckets_of_a_uniform_delay_are_its_integer_cells():
    assert delay_buckets(DelayModel(kind="uniform", lo=0.0, hi=4.0)) == [
        (k, 0.25) for k in (1, 2, 3, 4)]
    assert delay_buckets(DelayModel(kind="uniform", lo=0.5, hi=2.5)) == [
        (1, 0.25), (2, 0.5), (3, 0.25)]
    assert delay_buckets(DelayModel(kind="uniform", lo=1.5, hi=1.5)) == [(2, 1)]
    assert delay_buckets(DelayModel(kind="constant", d=0.0)) == [(0, 1)]


def test_gating_changes_the_exact_ttl_probability():
    # Ungated, 0 goes first whenever it arrives before 1 (delivered at 1..4 against
    # 3..6); gated, only when it arrives before 1 is issued at tick 2, at tick 1.
    policy = POLICIES["ttl_deadline"]
    gated = exact_pair_probability(scenario(policy, True), (0, 1))
    ungated = exact_pair_probability(scenario(policy, False), (0, 1))
    assert gated == 0.25
    assert ungated == 0.8125


@pytest.mark.parametrize("pair", PAIRS, ids=map(str, PAIRS))
@pytest.mark.parametrize("gating", [True, False], ids=["gated", "ungated"])
@pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES.keys())
def test_pair_count_is_within_the_radius_of_the_exact_probability(policy, gating, pair):
    config = scenario(policy, gating)
    p = float(exact_pair_probability(config, pair))
    prep = prepare(config)
    for lo in SEED_BLOCKS:
        count, missing = pair_count(prep, pair, lo, lo + N_SEEDS)
        assert missing is None
        assert abs(count / N_SEEDS - p) <= RADIUS, (lo, count / N_SEEDS, p)


@pytest.mark.parametrize("gating", [True, False], ids=["gated", "ungated"])
def test_a_never_delivered_blocker_holds_back_only_gated_ttl(gating):
    # Request 3 never arrives and has the least deadline; it is issued at tick 3, before
    # request 1 can arrive, so gated ttl never orders 1 and every seed is missing.
    config = scenario(POLICIES["ttl_deadline"], gating, deliver_overrides={3: None})
    p = float(exact_pair_probability(config, (0, 1)))
    assert (p == 0) == gating
    count, missing = pair_count(prepare(config), (0, 1), 0, N_SEEDS)
    assert abs(count / N_SEEDS - p) <= RADIUS
    assert missing == (0 if gating else None)
