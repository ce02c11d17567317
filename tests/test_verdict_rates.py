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
"""

import math
from dataclasses import replace

import pytest

from fairorder.noise import dp_ratio_bound, order_probability_at_gap
from fairorder.scenario import TrialsBlock, two_request_gap_scenario
from fairorder.stats import FAIL, PASS, certify_scenario, hoeffding_radius

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


def verdicts(force_k: float) -> list[str]:
    """The verdict of each block, with the threshold placed by ``force_k``."""
    trials = TrialsBlock(TRIALS, 0, confidence=CONFIDENCE, pair=(0, 1), force_k=force_k)
    scenario = replace(two_request_gap_scenario(GAP, EPSILON), trials=trials)
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
