"""Every delivery schedule of a small scope, under every policy, gated and ungated.

Four requests are issued at ticks 0 and 1, and each is delivered 1, 2 or
3 ticks after its issue, or never: 4^4 = 256 schedules, set through
``deliver_overrides``. On every one, the engine's trace passes the three
safety verdicts, and all four core verdicts when every request is
delivered; and ``pair_count`` equals one engine run per seed. The
exact Pr[a before b] over drawn delays is not computed here.
"""

from dataclasses import replace
from itertools import product

import pytest

from fairorder.checkers import CONSISTENCY, MONOTONIC_ORDER, ORDER_DETERMINISM, check_all
from fairorder.engine import pair_count, prepare, run_prepared
from fairorder.model import Request
from fairorder.noise import NoiseSpec
from fairorder.scenario import FairPolicy, FcfsPolicy, ScenarioConfig, TtlPolicy
from oracles import engine_pair_count

SAFETY = {CONSISTENCY, MONOTONIC_ORDER, ORDER_DETERMINISM}
OFFSETS = (1, 2, 3, None)  # None: never delivered
PAIRS = ((0, 1), (1, 0), (0, 3), (2, 1))
POLICIES = {
    "fcfs": FcfsPolicy(),
    "ttl": TtlPolicy(deadline_feature=0),
    "fair": FairPolicy(),
    "fair_laplace": FairPolicy(spec=NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0)),
}


def small_scope(policy, gating) -> ScenarioConfig:
    # Requests 0 and 1 tie on every feature, so fair breaks their tie from the pick
    # stream; request 3's deadline ties request 1's, so ttl breaks it by id.
    reqs = (Request(id=0, client_id=0, features=(1.0, 0.0), issue_tick=0),
            Request(id=1, client_id=1, features=(1.0, 0.0), issue_tick=0),
            Request(id=2, client_id=2, features=(0.0, 0.5), issue_tick=1),
            Request(id=3, client_id=3, features=(1.0, 2.0), issue_tick=1))
    return ScenarioConfig(feature_count=2, relevant=(0,), lam=1.0, requests=reqs,
                          eta_feature=1, policy=policy, stability_gating=gating)


@pytest.mark.parametrize("gating", [True, False])
@pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES.keys())
def test_every_schedule_is_safe_and_counted_as_the_engine_runs(policy, gating):
    base = small_scope(policy, gating)
    for offsets in product(OFFSETS, repeat=len(base.requests)):
        overrides = {r.id: None if off is None else r.issue_tick + off
                     for r, off in zip(base.requests, offsets)}
        prep = prepare(replace(base, deliver_overrides=overrides))
        verdicts = check_all(run_prepared(prep, 0))
        failed = {v.property for v in verdicts if not v.passed}
        assert not failed & SAFETY, (offsets, verdicts)
        if None not in offsets:
            assert not failed, (offsets, verdicts)
        for pair in PAIRS:
            assert pair_count(prep, pair, 0, 8) == engine_pair_count(prep, pair, 0, 8), \
                (offsets, pair)
