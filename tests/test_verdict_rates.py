"""Wrong-verdict rates of the fixed-n certifier against its documented budget.

The gap pair's Pr[0 before 1] is known in closed form
(``order_probability_at_gap``), so its threshold can be placed with
``force_k`` inside the bound, exactly on it (k from ``dp_ratio_bound``),
and more than 4R past it. ``certify_scenario`` then certifies each of
BLOCKS disjoint base-seed blocks of TRIALS trials. The documented
budget (``stats``): a true p inside or on the bound passes, and one more
than 4R past it fails, each with probability at least the confidence;
inside the bound no block fails. Each wrong-verdict count must stay
within the binomial tail bound of that budget.

The same holds where the pair kernel decides seeds by order-tick and key
columns alone: fcfs, and ttl whose deadline feature is not eta, gated and
ungated, on ``test_exact_pair``'s six requests. There Pr[a before b] is
exact (``oracles.exact_pair_probability``) and, with no noise, the
certifier's epsilon is 1, so k places the threshold at e^k / (1 + e^k).
"""

import math
from dataclasses import replace

import pytest

from fairorder.noise import dp_ratio_bound, order_probability_at_gap
from fairorder.scenario import FcfsPolicy, TrialsBlock, TtlPolicy, two_request_gap_scenario
from fairorder.stats import FAIL, PASS, certify_scenario, hoeffding_radius
from oracles import exact_pair_probability
from test_exact_pair import scenario as six_requests

GAP, EPSILON = 4.0, 1.0
BLOCKS, TRIALS, CONFIDENCE = 300, 400, 0.99
TAIL = 1e-6  # the chance that a program within its budget fails one count


def allowed_wrong(n: int, rate: float, tail: float = TAIL) -> int:
    """The least c with Pr[Binomial(n, rate) > c] <= tail."""
    pmf = [math.comb(n, i) * rate**i * (1 - rate)**(n - i) for i in range(n + 1)]
    above = 1.0
    for c in range(n + 1):
        above -= pmf[c]
        if above <= tail:
            return c
    return n


def verdicts(force_k: float, scenario=None, pair=(0, 1)) -> list[str]:
    """The verdict of each block, with the threshold placed by ``force_k``; by default on
    the gap pair."""
    trials = TrialsBlock(TRIALS, 0, confidence=CONFIDENCE, pair=pair, force_k=force_k)
    scenario = replace(scenario or two_request_gap_scenario(GAP, EPSILON), trials=trials)
    return [certify_scenario(scenario, TRIALS, block * TRIALS).verdict for block in range(BLOCKS)]


P_LOW, _ = order_probability_at_gap(GAP, EPSILON)  # request 0 has the lower score
R = hoeffding_radius(TRIALS, CONFIDENCE)
PLACEMENTS = {
    # The paper's bound at the score gap, e^(gap * eps), which the exact ratio never exceeds.
    "inside": GAP,
    # e^(k * eps) is the exact ratio Pr[low first] / Pr[high first]: thr is p itself.
    "on": math.log(dp_ratio_bound(GAP, EPSILON)) / EPSILON,
    # k = 0 puts thr at 1/2, more than 4R below max(p, 1 - p).
    "past": 0.0,
}


def test_the_placements_are_where_they_are_named():
    def thr(k):
        bound = math.exp(k * EPSILON)
        return bound / (1 + bound)

    assert thr(PLACEMENTS["inside"]) > P_LOW
    assert thr(PLACEMENTS["on"]) == pytest.approx(P_LOW, abs=1e-12)
    assert P_LOW - thr(PLACEMENTS["past"]) > 4 * R


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_wrong_verdicts_stay_within_the_budget(placement):
    seen = verdicts(PLACEMENTS[placement])
    limit = allowed_wrong(BLOCKS, 1 - CONFIDENCE)
    if placement == "past":
        assert sum(v != FAIL for v in seen) <= limit
    else:
        assert sum(v != PASS for v in seen) <= limit
    if placement == "inside":
        assert FAIL not in seen


def test_the_tail_bound_is_a_handful_of_blocks():
    # Mean 3 wrong verdicts in 300 at the 1% budget; more than 14 has odds below 1e-6.
    assert allowed_wrong(BLOCKS, 1 - CONFIDENCE) == 14


# (policy, gating, deliver_overrides, pair) on the six requests, with max(p, 1 - p) in
# (1/2 + 4R, 1), so that all three placements exist. Gated ttl orders the six by key
# unless some deliveries are fixed early.
EXACT = {
    "fcfs_gated": (FcfsPolicy(), True, {}, (0, 1)),
    "fcfs_ungated": (FcfsPolicy(), False, {}, (0, 1)),
    "ttl_deadline_gated": (TtlPolicy(deadline_feature=2), True, {1: 2}, (2, 3)),
    "ttl_deadline_ungated": (TtlPolicy(deadline_feature=2), False, {}, (0, 3)),
    "ttl_relevant_gated": (TtlPolicy(deadline_feature=0), True, {1: 2, 5: 1}, (3, 4)),
    "ttl_relevant_ungated": (TtlPolicy(deadline_feature=0), False, {}, (1, 2)),
}


def exact_case(name):
    """The case's scenario, its pair, and the exact max(p, 1 - p) for that pair."""
    policy, gating, overrides, pair = EXACT[name]
    config = six_requests(policy, gating, deliver_overrides=overrides)
    p = float(exact_pair_probability(config, pair))
    return config, pair, max(p, 1 - p)


def exact_placements(q: float) -> dict[str, float]:
    """k inside the bound, on it (e^k = q / (1 - q), so thr is q) and past it (thr 1/2)."""
    on = math.log(q / (1 - q))
    return {"inside": on + 1.0, "on": on, "past": 0.0}


def test_the_exact_placements_are_where_they_are_named():
    def thr(k):
        return math.exp(k) / (1 + math.exp(k))

    for name in EXACT:
        _, _, q = exact_case(name)
        assert q < 1
        ks = exact_placements(q)
        assert thr(ks["inside"]) > q
        assert thr(ks["on"]) == pytest.approx(q, abs=1e-12)
        assert q - thr(ks["past"]) > 4 * R


@pytest.mark.parametrize("placement", ["inside", "on", "past"])
@pytest.mark.parametrize("name", sorted(EXACT))
def test_wrong_verdicts_on_the_exact_probability_stay_within_the_budget(name, placement):
    config, pair, q = exact_case(name)
    seen = verdicts(exact_placements(q)[placement], config, pair)
    limit = allowed_wrong(BLOCKS, 1 - CONFIDENCE)
    if placement == "past":
        assert sum(v != FAIL for v in seen) <= limit
    else:
        assert sum(v != PASS for v in seen) <= limit
    if placement == "inside":
        assert FAIL not in seen
