"""The exact pair kernel against a per-seed engine loop.

`pair_count` decides most seeds from the pair's order ticks and two
noise draws, and runs the engine only for ties. These tests hold it to
the engine's own answer on every seed of a block, not to a close p_hat,
on static schedules and on schedules with random delays.
"""

from dataclasses import replace
from functools import cache
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from fairorder import engine, noise
from fairorder.adversary import ByzantineClientSpec, DelayModel
from fairorder.engine import BLOCK, pair_count, prepare, run_prepared
from fairorder.model import Request
from fairorder.noise import ConfigurationError, NoiseSpec
from fairorder.rng import Stream
from fairorder.scenario import (FairPolicy, FcfsPolicy, ScenarioConfig, TtlPolicy,
                                two_request_gap_scenario)
from fairorder.stats import LivenessError, estimate_order_probability
from oracles import engine_pair_count


def is_static(prep):
    """True when no delivery draws: every seed gives the same schedule."""
    return all(e.delay_at is None for e in prep.plan)


SPECS = {
    "laplace": NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0),
    "bounded_laplace": NoiseSpec(kind="bounded_laplace", epsilon=0.5, sensitivity=1.0, bound=1.5),
    "uniform": NoiseSpec(kind="uniform", epsilon=1.0, sensitivity=1.0, bound=1.0),
    "none": None,
}


@st.composite
def static_scenarios(draw):
    n = draw(st.integers(2, 6))
    # Small integer features make equal perceived scores (zero-noise ties) common.
    requests = tuple(
        Request(id=i, client_id=draw(st.integers(0, 2)),
                features=(float(draw(st.integers(0, 2))), float(draw(st.integers(0, 1)))),
                issue_tick=draw(st.integers(0, 3)))
        for i in range(n)
    )
    ds = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    delay = DelayModel(kind="constant", d=draw(ds),
                       per_client=draw(st.dictionaries(st.integers(0, 2),
                                                       ds.map(lambda d: DelayModel(d=d)),
                                                       max_size=2)))
    overrides = {}
    for r in requests:
        if draw(st.integers(0, 4)) == 0:
            overrides[r.id] = draw(st.one_of(st.none(), st.integers(r.issue_tick, 6)))
    kind = draw(st.sampled_from(["fair"] * 6 + ["fcfs", "ttl"]))
    if kind == "fair":
        policy = FairPolicy(spec=SPECS[draw(st.sampled_from(sorted(SPECS)))],
                            direction=draw(st.sampled_from(["lowest_first", "highest_first"])))
    elif kind == "ttl":
        policy = TtlPolicy(deadline_feature=draw(st.integers(0, 1)))
    else:
        policy = FcfsPolicy()
    bribes = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=3, max_size=3))
    return ScenarioConfig(
        feature_count=2, relevant=(0,), lam=1.0, requests=requests, eta_feature=1,
        delay=delay, policy=policy,
        adversaries=tuple(ByzantineClientSpec(client_id=c, bribe=b) for c, b in enumerate(bribes)),
        stability_gating=draw(st.booleans()), deliver_overrides=overrides,
    )


@settings(max_examples=200, deadline=None)
@given(scenario=static_scenarios(), data=st.data(), seed_lo=st.integers(0, 10**9),
       n_seeds=st.integers(1, 40))
def test_kernel_count_equals_engine_loop(scenario, data, seed_lo, n_seeds):
    prep = prepare(scenario)
    assert is_static(prep)
    ids = [r.id for r in scenario.requests]
    a = data.draw(st.sampled_from(ids))
    b = data.draw(st.sampled_from([i for i in ids if i != a]))
    seed_hi = seed_lo + n_seeds
    assert (pair_count(prep, (a, b), seed_lo, seed_hi)
            == engine_pair_count(prep, (a, b), seed_lo, seed_hi))


def test_undelivered_request_still_raises_liveness_error():
    reqs = tuple(Request(id=i, client_id=i, features=(0.0, 0.0), issue_tick=0) for i in range(3))
    scenario = ScenarioConfig(feature_count=2, relevant=(0,), lam=1.0, requests=reqs,
                              eta_feature=1, policy=FairPolicy(spec=SPECS["laplace"]),
                              stability_gating=False, deliver_overrides={1: None})
    prep = prepare(scenario)
    assert pair_count(prep, (0, 1), 40, 90) == (0, 40) == engine_pair_count(
        prep, (0, 1), 40, 90)
    with pytest.raises(LivenessError, match="seed 40"):
        estimate_order_probability(scenario, (0, 1), 50, 40)


def test_kernel_skips_the_engine_unless_scores_tie():
    reqs = (Request(id=0, client_id=0, features=(0.0, 0.0), issue_tick=0),
            Request(id=1, client_id=1, features=(1.0, 0.0), issue_tick=0))
    scenario = ScenarioConfig(feature_count=2, relevant=(0,), lam=1.0, requests=reqs,
                              eta_feature=1, policy=FairPolicy(spec=SPECS["laplace"]))
    prep = prepare(scenario)
    with mock.patch.object(engine, "run_prepared", wraps=run_prepared) as runs:
        count, missing = pair_count(prep, (0, 1), 0, 500)
    assert runs.call_count == 0
    assert (count, missing) == engine_pair_count(prep, (0, 1), 0, 500)


KEY_ORDERED = {"fcfs": FcfsPolicy(), "ttl": TtlPolicy(deadline_feature=0),
               "ttl_eta": TtlPolicy(deadline_feature=1)}


@pytest.mark.parametrize("delay", [DelayModel(), DelayModel(kind="uniform", lo=0.0, hi=3.0)],
                         ids=["static", "random"])
@pytest.mark.parametrize("gating", [True, False], ids=["gated", "ungated"])
@pytest.mark.parametrize("policy", KEY_ORDERED.values(), ids=KEY_ORDERED.keys())
def test_fcfs_and_ttl_never_run_the_engine(policy, gating, delay):
    # Their keys never tie, so the order ticks and the keys decide every seed.
    reqs = tuple(Request(id=i, client_id=i, features=(float(2 - i), float(i % 2)),
                         issue_tick=i % 2)
                 for i in range(3))
    scenario = ScenarioConfig(feature_count=2, relevant=(0,), lam=1.0, requests=reqs,
                              eta_feature=1, policy=policy, delay=delay,
                              stability_gating=gating)
    prep = prepare(scenario)
    for pair in [(0, 1), (1, 0), (0, 2), (2, 1)]:
        with mock.patch.object(engine, "run_prepared", wraps=run_prepared) as runs:
            count, missing = pair_count(prep, pair, 30, 230)
        assert runs.call_count == 0
        assert (count, missing) == engine_pair_count(prep, pair, 30, 230)


def overflow_scenario(big, **kw):
    """Request 2 has features (big, big, 0) and the noise scale overflows to inf."""
    spec = NoiseSpec(kind="laplace", epsilon=1e-300, sensitivity=1e10)
    reqs = tuple(Request(id=i, client_id=i, features=feats, issue_tick=0)
                 for i, feats in enumerate([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                                            (big, big, 0.0)]))
    return ScenarioConfig(feature_count=3, relevant=(0, 1), lam=1.0, requests=reqs,
                          eta_feature=2, policy=FairPolicy(spec=spec), **kw)


def test_non_finite_scores_run_every_seed_through_the_engine():
    # At 1e308, request 2's total overflows to inf: a seed whose noise for it is -inf
    # would give it a NaN adjusted score, so loading rejects the scenario. At 1e307
    # every adjusted score is +-inf, and the kernel still counts as the engine does.
    with pytest.raises(ConfigurationError, match="request 2's perceived score can overflow"):
        overflow_scenario(1e308)
    prep = prepare(overflow_scenario(1e307))
    assert is_static(prep)
    for pair in [(0, 1), (0, 2), (2, 1)]:
        assert pair_count(prep, pair, 0, 100) == engine_pair_count(prep, pair, 0, 100)


def test_totals_are_unbounded_when_a_delay_can_overflow_them():
    # 5e307 doubled is finite; with a delay of up to 5e307 added it is not. An
    # override replaces the delay, so it adds nothing to the bound.
    def scenario(**kw):
        reqs = tuple(Request(id=i, client_id=i, features=(0.0, 5e307), issue_tick=0)
                     for i in range(2))
        return ScenarioConfig(feature_count=2, relevant=(0,), lam=1.0, requests=reqs,
                              eta_feature=1, policy=FairPolicy(spec=SPECS["laplace"]),
                              **kw)

    with pytest.raises(ConfigurationError, match="request 0's perceived score can overflow"):
        scenario(delay=DelayModel(kind="uniform", lo=0.0, hi=5e307))
    scenario(delay=DelayModel(kind="uniform", lo=0.0, hi=5e307), deliver_overrides={0: 1, 1: 1})
    scenario(delay=DelayModel())
    # A bribe or a misreport lands in the eta feature, so it counts toward the bound too.
    for adversary in (ByzantineClientSpec(client_id=1, bribe=5e307),
                      ByzantineClientSpec(client_id=1, time_misreport=5 * 10**307)):
        with pytest.raises(ConfigurationError, match="request 1's perceived score"):
            scenario(adversaries=(adversary,))


def random_delays():
    uniform = st.builds(lambda lo, width: DelayModel(kind="uniform", lo=lo, hi=lo + width),
                        st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 1.0, 2.5]))
    heavy = st.builds(lambda scale, cap: DelayModel(kind="capped_heavy_tail", scale=scale,
                                                    cap=cap),
                      st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.0, 1.0, 3.0]))
    return st.one_of(uniform, heavy)


@st.composite
def random_scenarios(draw, kinds=("fair",) * 8 + ("fcfs", "ttl")):
    n = draw(st.integers(2, 7))
    requests = tuple(
        Request(id=i, client_id=draw(st.integers(0, 3)),
                features=(float(draw(st.integers(0, 2))), float(draw(st.integers(0, 1)))),
                issue_tick=draw(st.integers(0, 4)))
        for i in range(n)
    )
    base = draw(random_delays())
    per_client = draw(st.dictionaries(
        st.integers(0, 3),
        st.one_of(random_delays(), st.sampled_from([0.0, 1.0, 2.0]).map(lambda d: DelayModel(d=d))),
        max_size=3))
    delay = replace(base, per_client=per_client)
    overrides = {}
    for r in requests:
        if draw(st.integers(0, 5)) == 0:
            overrides[r.id] = draw(st.one_of(st.none(), st.integers(r.issue_tick, 7)))
    kind = draw(st.sampled_from(kinds))
    if kind == "fair":
        policy = FairPolicy(spec=SPECS[draw(st.sampled_from(sorted(SPECS)))],
                            direction=draw(st.sampled_from(["lowest_first", "highest_first"])))
    elif kind == "ttl":
        policy = TtlPolicy(deadline_feature=draw(st.integers(0, 1)))
    else:
        policy = FcfsPolicy()
    bribes = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=4, max_size=4))
    return ScenarioConfig(
        feature_count=2, relevant=(0,), lam=1.0, requests=requests, eta_feature=1,
        delay=delay, policy=policy,
        adversaries=tuple(ByzantineClientSpec(client_id=c, bribe=b) for c, b in enumerate(bribes)),
        stability_gating=draw(st.booleans()), deliver_overrides=overrides,
    )


@settings(max_examples=300, deadline=None)
@given(scenario=random_scenarios(), data=st.data(), seed_lo=st.integers(0, 10**9),
       n_seeds=st.integers(1, 30))
def test_kernel_count_equals_engine_loop_on_random_delays(scenario, data, seed_lo, n_seeds):
    prep = prepare(scenario)
    assume(not is_static(prep))
    ids = [r.id for r in scenario.requests]
    a = data.draw(st.sampled_from(ids))
    b = data.draw(st.sampled_from([i for i in ids if i != a]))
    seed_hi = seed_lo + n_seeds
    assert (pair_count(prep, (a, b), seed_lo, seed_hi)
            == engine_pair_count(prep, (a, b), seed_lo, seed_hi))


@settings(max_examples=300, deadline=None)
@given(scenario=random_scenarios(kinds=("fcfs", "ttl")), data=st.data(),
       seed_lo=st.integers(0, 10**9), n_seeds=st.integers(1, 20))
def test_fcfs_and_ttl_count_as_the_engine_seed_for_seed(scenario, data, seed_lo, n_seeds):
    # Uniform, capped heavy-tail and per-client constant delays, a deadline at a
    # relevant feature or at eta (1), gated or not, fixed and never-delivered overrides,
    # and either request of the pair first.
    prep = prepare(scenario)
    ids = [r.id for r in scenario.requests]
    pair = tuple(data.draw(st.permutations(ids))[:2])
    for seed in range(seed_lo, seed_lo + n_seeds):
        with mock.patch.object(engine, "run_prepared", wraps=run_prepared) as runs:
            result = pair_count(prep, pair, seed, seed + 1)
        assert runs.call_count == 0
        assert result == engine_pair_count(prep, pair, seed, seed + 1)


@st.composite
def multi_feature_scenarios(draw):
    """Random delays over 3-4 features, 2-3 of them irrelevant, eta at any of those.

    The kernel sums a drawn pair request's irrelevant values itself, so
    values whose float sum depends on the order (+-1e16 against 0.1 and
    the delay), -0.0, and zero delays (a zero-width uniform at 0) check
    that it adds them as ``score`` does.
    """
    feature_count = draw(st.integers(3, 4))
    n_irrelevant = draw(st.integers(2, min(3, feature_count - 1)))
    shuffled = draw(st.permutations(range(feature_count)))
    irrelevant = sorted(shuffled[:n_irrelevant])
    eta = draw(st.sampled_from(irrelevant))
    noise_values = st.sampled_from([-0.0, 0.1, 0.2, 1e16, -1e16])
    requests = tuple(
        Request(id=i, client_id=draw(st.integers(0, 3)),
                features=tuple(draw(noise_values) if j in irrelevant
                               else float(draw(st.integers(0, 2)))
                               for j in range(feature_count)),
                issue_tick=draw(st.integers(0, 4)))
        for i in range(draw(st.integers(2, 6)))
    )
    delays = st.one_of(st.just(DelayModel(kind="uniform", lo=0.0, hi=0.0)), random_delays())
    delay = replace(draw(delays), per_client=draw(st.dictionaries(st.integers(0, 3), delays,
                                                                 max_size=3)))
    # No noise (ties go to the engine) is the case where a total's last bit shows.
    spec = SPECS[draw(st.sampled_from(["none", "none", "laplace", "uniform"]))]
    policy = FairPolicy(spec=spec,
                        direction=draw(st.sampled_from(["lowest_first", "highest_first"])))
    return ScenarioConfig(
        feature_count=feature_count, relevant=tuple(sorted(shuffled[n_irrelevant:])), lam=1.0,
        requests=requests, eta_feature=eta, delay=delay, policy=policy,
        stability_gating=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(scenario=multi_feature_scenarios(), data=st.data(), seed_lo=st.integers(0, 10**9),
       n_seeds=st.integers(1, 30))
def test_kernel_count_equals_engine_loop_on_multi_feature_delays(scenario, data, seed_lo,
                                                                 n_seeds):
    prep = prepare(scenario)
    assume(not is_static(prep))
    ids = [r.id for r in scenario.requests]
    a = data.draw(st.sampled_from(ids))
    b = data.draw(st.sampled_from([i for i in ids if i != a]))
    seed_hi = seed_lo + n_seeds
    assert (pair_count(prep, (a, b), seed_lo, seed_hi)
            == engine_pair_count(prep, (a, b), seed_lo, seed_hi))


@pytest.mark.parametrize("eta", [1, 2])
def test_drawn_pair_totals_sum_in_score_order(eta):
    # A delay below 1 vanishes into 1e16 when added at the eta feature first, as the
    # engine adds it, and survives if added to the undelayed total of 0.0.
    reqs = (Request(id=0, client_id=0, features=(0.0, 1e16, -1e16), issue_tick=0),
            Request(id=1, client_id=1, features=(0.0, 0.1, 0.2), issue_tick=0))
    scenario = ScenarioConfig(feature_count=3, relevant=(0,), lam=1.0, requests=reqs,
                              eta_feature=eta, delay=DelayModel(kind="uniform", lo=0.0, hi=1.0),
                              policy=FairPolicy(spec=None))
    prep = prepare(scenario)
    assert pair_count(prep, (0, 1), 0, 50) == (50, None) == engine_pair_count(prep, (0, 1), 0, 50)


VALUE_AT = engine.value_at


def rounded_value_at(spec, u, state):
    """Noise rounded to whole units, at the call both the kernel and the engine make."""
    return float(round(VALUE_AT(spec, u, state)))


@settings(max_examples=300, deadline=None)
@given(scenario=st.one_of(static_scenarios(), random_scenarios()), data=st.data(),
       seed_lo=st.integers(0, 10**9), n_seeds=st.integers(1, 30))
def test_kernel_count_equals_engine_loop_on_rounded_noise(scenario, data, seed_lo, n_seeds):
    prep = prepare(scenario)
    ids = [r.id for r in scenario.requests]
    a = data.draw(st.sampled_from(ids))
    b = data.draw(st.sampled_from([i for i in ids if i != a]))
    seed_hi = seed_lo + n_seeds
    with mock.patch.object(engine, "value_at", rounded_value_at):
        assert (pair_count(prep, (a, b), seed_lo, seed_hi)
                == engine_pair_count(prep, (a, b), seed_lo, seed_hi))


@pytest.mark.parametrize("delay", [DelayModel(), DelayModel(kind="uniform", lo=1.0, hi=1.0)],
                         ids=["static", "random"])
def test_rounded_noise_sends_tied_seeds_to_the_engine(delay):
    # Equal totals and noise rounded to whole units tie on about a third of the seeds.
    # A uniform delay of width 0 draws from its stream, so the kernel draws it per seed.
    reqs = tuple(Request(id=i, client_id=i, features=(0.0, 0.0), issue_tick=0) for i in range(2))
    scenario = ScenarioConfig(feature_count=2, relevant=(0,), lam=1.0, requests=reqs,
                              eta_feature=1, policy=FairPolicy(spec=SPECS["laplace"]),
                              delay=delay)
    prep = prepare(scenario)
    assert is_static(prep) == (delay.kind == "constant")
    with mock.patch.object(engine, "value_at", rounded_value_at):
        with mock.patch.object(engine, "run_prepared", wraps=run_prepared) as runs:
            count, missing = pair_count(prep, (0, 1), 0, 300)
        assert (count, missing) == engine_pair_count(prep, (0, 1), 0, 300)
    assert runs.call_count > 50


def delay_scenario(**extra):
    """Four requests issued at ticks 0-1 with uniform 0-3 delays, as in a certify run."""
    reqs = tuple(Request(id=i, client_id=i, features=(float(i % 2), 0.0), issue_tick=i // 2)
                 for i in range(4))
    extra.setdefault("policy", FairPolicy(spec=SPECS["laplace"]))
    return ScenarioConfig(feature_count=2, relevant=(0,), lam=1.0, requests=reqs,
                          eta_feature=1, delay=DelayModel(kind="uniform", lo=0.0, hi=3.0),
                          **extra)


def test_random_delays_skip_the_engine_unless_scores_tie():
    prep = prepare(delay_scenario())
    with mock.patch.object(engine, "run_prepared", wraps=run_prepared) as runs:
        count, missing = pair_count(prep, (0, 1), 0, 500)
    assert runs.call_count == 0
    assert (count, missing) == engine_pair_count(prep, (0, 1), 0, 500)


def test_random_delay_kernel_builds_no_request_or_stream():
    prep = prepare(delay_scenario())
    built = []
    post_init = Request.__post_init__

    def counting_post_init(self):
        built.append(self.id)
        post_init(self)

    with mock.patch.object(Request, "__post_init__", counting_post_init), \
            mock.patch.object(engine, "Stream", wraps=Stream) as engine_streams, \
            mock.patch.object(noise, "Stream", wraps=Stream) as noise_streams:
        count, missing = pair_count(prep, (0, 1), 0, 500)
    assert built == []
    assert engine_streams.call_count == noise_streams.call_count == 0
    assert (count, missing) == engine_pair_count(prep, (0, 1), 0, 500)


def test_gated_pair_waits_for_later_deliveries():
    # Gated, a request is ordered only once nothing is in flight; by delivery tick
    # alone, the pair would often land in different bursts.
    prep = prepare(delay_scenario())
    ungated = prepare(delay_scenario(stability_gating=False))
    assert pair_count(prep, (0, 3), 0, 300) == engine_pair_count(prep, (0, 3), 0, 300)
    assert pair_count(ungated, (0, 3), 0, 300) == engine_pair_count(ungated, (0, 3), 0, 300)
    assert pair_count(prep, (0, 3), 0, 300) != pair_count(ungated, (0, 3), 0, 300)


def test_undelivered_request_issued_first_blocks_a_gated_pair():
    scenario = delay_scenario(deliver_overrides={2: None})
    prep = prepare(scenario)
    assert pair_count(prep, (0, 1), 40, 90) == (0, 40) == engine_pair_count(prep, (0, 1), 40, 90)
    with pytest.raises(LivenessError, match="seed 40"):
        estimate_order_probability(scenario, (0, 1), 50, 40)
    ungated = prepare(delay_scenario(deliver_overrides={2: None}, stability_gating=False))
    count, missing = pair_count(ungated, (0, 1), 40, 90)
    assert missing is None and (count, missing) == engine_pair_count(ungated, (0, 1), 40, 90)


def test_non_finite_totals_run_every_random_seed_through_the_engine():
    # As in the static case, with random delays: loading rejects the total that can
    # overflow, and with every adjusted score +-inf the kernel counts as the engine does.
    delay = DelayModel(kind="uniform", lo=0.0, hi=1.0)
    with pytest.raises(ConfigurationError, match="request 2's perceived score can overflow"):
        overflow_scenario(1e308, delay=delay)
    prep = prepare(overflow_scenario(1e307, delay=delay))
    assert not is_static(prep)
    for pair in [(0, 1), (0, 2), (2, 1)]:
        assert pair_count(prep, pair, 0, 100) == engine_pair_count(prep, pair, 0, 100)


@st.composite
def final_burst_scenarios(draw):
    """Random-delay fair scenarios whose pair (0, 1) is delivered at or after the last
    issue tick on most seeds: the pair is issued at the last issue tick, or every delay
    is at least that tick. Otherwise one pair request may be issued at tick 0, so that it
    alone is delivered before that tick on some seeds. Request 2 may be never delivered,
    and a pair request may have a fixed delivery tick."""
    n = draw(st.integers(3, 7))
    last = draw(st.integers(1, 3))
    long_delays = draw(st.booleans())
    late = {0, 1} if long_delays else draw(st.sampled_from([{0, 1}, {0, 1}, {0}, {1}]))
    requests = tuple(
        Request(id=i, client_id=draw(st.integers(0, 3)),
                features=(float(draw(st.integers(0, 2))), float(draw(st.integers(0, 1)))),
                issue_tick=last if i == n - 1 or (i in late and not long_delays)
                else 0 if i < 2 else draw(st.integers(0, last)))
        for i in range(n)
    )
    lo = float(last) if long_delays else draw(st.sampled_from([0.0, 0.5]))
    delay = DelayModel(kind="uniform", lo=lo, hi=lo + draw(st.sampled_from([0.0, 1.0, 2.5])),
                       per_client=draw(st.dictionaries(
                           st.integers(0, 3),
                           st.builds(lambda cap: DelayModel(kind="capped_heavy_tail", scale=1.0,
                                                            cap=lo + cap),
                                     st.sampled_from([0.0, 1.0, 3.0])),
                           max_size=0 if long_delays else 2)))
    overrides = {}
    if draw(st.integers(0, 4)) == 0:
        overrides[2] = None
    if draw(st.integers(0, 3)) == 0:
        rid = draw(st.integers(0, 1))
        overrides[rid] = draw(st.integers(requests[rid].issue_tick, last + 3))
    policy = FairPolicy(spec=SPECS[draw(st.sampled_from(["bounded_laplace"] * 3 + sorted(SPECS)))],
                        direction=draw(st.sampled_from(["lowest_first", "highest_first"])))
    bribes = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=4, max_size=4))
    return ScenarioConfig(
        feature_count=2, relevant=(0,), lam=1.0, requests=requests, eta_feature=1,
        delay=delay, policy=policy,
        adversaries=tuple(ByzantineClientSpec(client_id=c, bribe=b) for c, b in enumerate(bribes)),
        stability_gating=draw(st.sampled_from([True] * 4 + [False])), deliver_overrides=overrides,
    )


@settings(max_examples=300, deadline=None)
@given(scenario=final_burst_scenarios(), reverse=st.booleans(), seed_lo=st.integers(0, 10**9),
       n_seeds=st.integers(1, 30))
def test_kernel_count_equals_engine_loop_in_the_final_burst(scenario, reverse, seed_lo,
                                                            n_seeds):
    prep = prepare(scenario)
    assume(not is_static(prep))
    pair = (1, 0) if reverse else (0, 1)
    seed_hi = seed_lo + n_seeds
    assert (pair_count(prep, pair, seed_lo, seed_hi)
            == engine_pair_count(prep, pair, seed_lo, seed_hi))


def certify_shaped(issue_tick, **extra):
    """Eight one-request clients with uniform 0-3 delays, bounded-Laplace noise,
    highest_first and a bribing client 1, as in the certify_delay bench workload;
    ``issue_tick(i)`` is request i's issue tick."""
    reqs = tuple(Request(id=i, client_id=i, features=(float(4 if i < 2 else 3 * i), 0.0),
                         issue_tick=issue_tick(i))
                 for i in range(8))
    spec = NoiseSpec(kind="bounded_laplace", epsilon=1.0, sensitivity=5.0, bound=15.0)
    return ScenarioConfig(feature_count=2, relevant=(0,), lam=5.0, requests=reqs,
                          eta_feature=1, delay=DelayModel(kind="uniform", lo=0.0, hi=3.0),
                          policy=FairPolicy(spec=spec, direction="highest_first"),
                          adversaries=(ByzantineClientSpec(client_id=1, bribe=2.0),), **extra)


def test_final_burst_draws_only_the_pairs_delays():
    # Issued at ticks 0-1 with delays in (0, 3], the pair is delivered at tick 1 or later
    # on every seed, so only its two delays matter.
    prep = prepare(certify_shaped(lambda i: i % 2))
    with mock.patch.object(engine, "_draw_delay", wraps=engine._draw_delay) as draws:
        count, missing = pair_count(prep, (0, 1), 0, 400)
    assert draws.call_count == 2 * 400
    assert {call.args[2] for call in draws.call_args_list} == {0, 1}
    assert (count, missing) == engine_pair_count(prep, (0, 1), 0, 400)


@pytest.mark.parametrize("policy", KEY_ORDERED.values(), ids=KEY_ORDERED.keys())
@pytest.mark.parametrize("gating", [True, False], ids=["gated", "ungated"])
def test_fcfs_and_ttl_draw_the_pair_unless_gated_ttl(policy, gating):
    # Nothing blocks under fcfs or ungated, so a seed draws the pair's two delays. Gated,
    # a ttl request waits on every in-flight request with a lesser key, so a seed draws
    # all eight delivery ticks (with the deadline at eta, the delays set the keys too).
    prep = prepare(replace(certify_shaped(lambda i: i % 2), policy=policy,
                           stability_gating=gating))
    with mock.patch.object(engine, "_draw_delay", wraps=engine._draw_delay) as draws:
        count, missing = pair_count(prep, (0, 1), 0, 400)
    drawn = 8 if gating and isinstance(policy, TtlPolicy) else 2
    assert draws.call_count == drawn * 400
    assert {call.args[2] for call in draws.call_args_list} == set(range(drawn))
    assert (count, missing) == engine_pair_count(prep, (0, 1), 0, 400)


def test_a_pair_delivered_before_the_last_issue_tick_draws_every_entry():
    # The pair is issued at tick 0 and the rest at tick 2: a seed that delivers either
    # pair request at tick 1 or 2 goes through the fixpoint, which reads every delivery.
    prep = prepare(certify_shaped(lambda i: 0 if i < 2 else 2))
    seen = set()
    for seed in range(60):
        delivered = run_prepared(prep, seed).deliver_ticks
        early = frozenset(rid for rid in (0, 1) if delivered[rid] < 2)
        seen.add(early)
        with mock.patch.object(engine, "_draw_delay", wraps=engine._draw_delay) as draws:
            result = pair_count(prep, (0, 1), seed, seed + 1)
        assert sorted(call.args[2] for call in draws.call_args_list) == (
            list(range(8)) if early else [0, 1])
        assert result == engine_pair_count(prep, (0, 1), seed, seed + 1)
    assert seen == {frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})}


def test_a_never_delivered_request_keeps_every_draw_and_the_missing_seed():
    # With request 5 never delivered there is no latest delivery, so no final burst:
    # every seed draws its seven delays and the pair is missing from the first seed on.
    prep = prepare(certify_shaped(lambda i: i % 2, deliver_overrides={5: None}))
    with mock.patch.object(engine, "_draw_delay", wraps=engine._draw_delay) as draws:
        result = pair_count(prep, (0, 1), 40, 90)
    assert draws.call_count == 7 * 50
    assert result == (0, 40) == engine_pair_count(prep, (0, 1), 40, 90)


# Pairs whose seeds span several blocks: a static fair pair, and the certify-shaped pair
# with a drawn delay of width 0, so that its totals stay 2 apart and rounded noise ties.
BLOCK_PAIRS = {
    "static": lambda: two_request_gap_scenario(),
    "delay": lambda: replace(certify_shaped(lambda i: i % 2),
                             delay=DelayModel(kind="uniform", lo=1.0, hi=1.0)),
}
SEED_LO, SEED_HI = 77, 77 + 2 * BLOCK + 5


@cache
def rounded_block_count(name, seed_lo, seed_hi):
    """(pair_count, engine runs it made) over the seeds, with rounded noise."""
    prep = prepare(BLOCK_PAIRS[name]())
    with mock.patch.object(engine, "value_at", rounded_value_at), \
            mock.patch.object(engine, "run_prepared", wraps=run_prepared) as runs:
        return pair_count(prep, (0, 1), seed_lo, seed_hi), runs.call_count


@pytest.mark.parametrize("name", sorted(BLOCK_PAIRS))
def test_kernel_equals_the_engine_loop_over_several_blocks(name):
    result, runs = rounded_block_count(name, SEED_LO, SEED_HI)
    assert runs > 50  # tied seeds went to the engine
    with mock.patch.object(engine, "value_at", rounded_value_at):
        assert result == engine_pair_count(prepare(BLOCK_PAIRS[name]()), (0, 1), SEED_LO,
                                           SEED_HI)


@pytest.mark.parametrize("offset", [1, 300, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK],
                         ids=["start", "inside", "before-edge", "edge", "after-edge",
                              "second-edge"])
@pytest.mark.parametrize("name", sorted(BLOCK_PAIRS))
def test_a_split_range_counts_the_sum_of_its_parts(name, offset):
    # --jobs counts chunks of a range apart and adds them up.
    split = SEED_LO + offset
    (count, missing), _ = rounded_block_count(name, SEED_LO, SEED_HI)
    (left, left_missing), _ = rounded_block_count(name, SEED_LO, split)
    (right, right_missing), _ = rounded_block_count(name, split, SEED_HI)
    assert missing is left_missing is right_missing is None
    assert count == left + right
