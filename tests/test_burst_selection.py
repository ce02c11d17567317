"""Burst selection from the ready queue against a rescan of the pending set.

The engine keeps the pending ids in a heap keyed by the policy's
selection key and checks stability on its front only. These tests hold
it to ``oracles.emit_orders_by_rescan``, which rescans the pending ids
for every order: the same events, order ticks and final order, and the
pick stream left in the same state. They also bound the number of
stability checks a burst makes, and the in-flight entries those checks
read, so a return to either rescan shows up without a timer.
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fairorder import engine
from fairorder.adversary import ByzantineClientSpec, DelayModel
from fairorder.engine import prepare, run_prepared
from fairorder.model import Request
from fairorder.noise import ConfigurationError, NoiseSpec
from fairorder.scenario import FairPolicy, FcfsPolicy, ScenarioConfig, TtlPolicy
from oracles import emit_orders_by_rescan, ttl_stable_by_scan

SPECS = {
    "laplace": NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0),
    "bounded_laplace": NoiseSpec(kind="bounded_laplace", epsilon=0.5, sensitivity=1.0, bound=1.5),
    "uniform": NoiseSpec(kind="uniform", epsilon=1.0, sensitivity=1.0, bound=1.0),
    "none": None,
}

SAMPLE_STATE = engine.sample_state


def rounded_sample(spec, state):
    """Noise rounded to whole units, so that adjusted scores tie in groups."""
    return float(round(SAMPLE_STATE(spec, state)))


def run_with(emit, prep, seed):
    """(trace, next pick-stream draw) of one recorded run with ``emit`` as the burst loop."""
    states = []

    def spy(state):
        states.append(state)
        return emit(state)

    with mock.patch.object(engine, "_emit_orders", spy):
        trace = run_prepared(prep, seed, record=True)
    return trace, states[0].pick_stream.next_u64() if states else None


def outcome(emit, prep, seed):
    """What a run shows of its burst loop."""
    trace, pick = run_with(emit, prep, seed)
    return trace.events, trace.final_order, trace.order_ticks, pick


def delays():
    constant = st.sampled_from([0.0, 1.0, 2.0]).map(lambda d: DelayModel(d=d))
    uniform = st.builds(lambda lo, width: DelayModel(kind="uniform", lo=lo, hi=lo + width),
                        st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 1.0, 2.5]))
    heavy = st.builds(lambda scale, cap: DelayModel(kind="capped_heavy_tail", scale=scale,
                                                    cap=cap),
                      st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([1.0, 3.0]))
    return st.one_of(constant, uniform, heavy)


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 14))
    # Small integer features and whole-unit constant delays make equal perceived
    # totals common, so zero or rounded noise gives tie groups of 3 and more.
    requests = tuple(
        Request(id=i, client_id=draw(st.integers(0, 3)),
                features=(float(draw(st.integers(0, 2))), float(draw(st.integers(0, 1)))),
                issue_tick=draw(st.integers(0, 4)))
        for i in range(n)
    )
    per_client = draw(st.dictionaries(st.integers(0, 3), delays(), max_size=2))
    delay = replace(draw(delays()), per_client=per_client)
    overrides = {}
    for r in requests:
        if draw(st.integers(0, 5)) == 0:
            overrides[r.id] = draw(st.one_of(st.none(), st.integers(r.issue_tick, 8)))
    kind = draw(st.sampled_from(["fair"] * 4 + ["fcfs", "ttl"]))
    if kind == "fair":
        policy = FairPolicy(spec=SPECS[draw(st.sampled_from(sorted(SPECS)))],
                            direction=draw(st.sampled_from(["lowest_first", "highest_first"])))
    elif kind == "ttl":
        policy = TtlPolicy(deadline_feature=draw(st.integers(0, 1)))
    else:
        policy = FcfsPolicy()
    bribes = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=4, max_size=4))
    return ScenarioConfig(
        feature_count=2, relevant=(0,), lam=1.0, requests=requests, eta_feature=1,
        delay=delay, policy=policy,
        adversaries=tuple(ByzantineClientSpec(client_id=c, bribe=b) for c, b in enumerate(bribes)),
        stability_gating=draw(st.booleans()), deliver_overrides=overrides,
    )


@settings(max_examples=400, deadline=None)
@given(scenario=scenarios(), seed=st.integers(0, 10**9), quantized=st.booleans())
def test_ready_queue_matches_the_rescan(scenario, seed, quantized):
    prep = prepare(scenario)
    with mock.patch.object(engine, "sample_state", rounded_sample if quantized else SAMPLE_STATE):
        assert (outcome(engine._emit_orders, prep, seed)
                == outcome(emit_orders_by_rescan, prep, seed))


IS_STABLE = engine.is_stable


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios(), deadline_feature=st.integers(0, 1), seed=st.integers(0, 10**9))
def test_ttl_stability_matches_a_scan_of_the_in_flight_requests(scenario, deadline_feature,
                                                                 seed):
    # The rescan oracle calls the engine's is_stable too, so hold it to the definition here.
    scenario = replace(scenario, policy=TtlPolicy(deadline_feature=deadline_feature),
                       stability_gating=True)
    checked = []

    def is_stable(rid, state):
        got = IS_STABLE(rid, state)
        checked.append(got == ttl_stable_by_scan(rid, state))
        return got

    with mock.patch.object(engine, "is_stable", is_stable):
        run_prepared(prepare(scenario), seed)
    assert all(checked)


def test_pick_stream_breaks_a_large_tie_group_as_the_rescan_does():
    # Twelve equal totals, no noise, one burst: every order but the last draws.
    reqs = tuple(Request(id=i, client_id=i, features=(1.0, 0.0), issue_tick=0)
                 for i in range(12))
    scenario = ScenarioConfig(feature_count=2, relevant=(0,), lam=1.0, requests=reqs,
                              eta_feature=1, policy=FairPolicy(spec=None))
    prep = prepare(scenario)
    orders = set()
    for seed in range(20):
        got = outcome(engine._emit_orders, prep, seed)
        assert got == outcome(emit_orders_by_rescan, prep, seed)
        orders.add(got[1])
    assert len(orders) == 20


@pytest.mark.parametrize("direction", ["lowest_first", "highest_first"])
@pytest.mark.parametrize("gating", [True, False])
@pytest.mark.parametrize("delay", [DelayModel(), DelayModel(kind="uniform", lo=0.0, hi=2.0)])
def test_nan_adjusted_score_raises_on_the_same_seeds(direction, gating, delay):
    # The noise scale overflows to inf, so every noise draw is +-inf. Were request 2's
    # total inf as well, a seed whose noise for it is -inf would give it a NaN adjusted
    # score: loading rejects that scenario. With its total large but finite, its adjusted
    # score is +-inf, and the ready queue orders the infinities as the rescan does.
    spec = NoiseSpec(kind="laplace", epsilon=1e-300, sensitivity=1e10)

    def scenario(big):
        reqs = tuple(Request(id=i, client_id=i, features=feats, issue_tick=i % 2)
                     for i, feats in enumerate([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                                                (big, big, 0.0), (3.0, 0.0, 0.0)]))
        return ScenarioConfig(feature_count=3, relevant=(0, 1), lam=1.0, requests=reqs,
                              eta_feature=2, policy=FairPolicy(spec=spec, direction=direction),
                              delay=delay, stability_gating=gating)

    with pytest.raises(ConfigurationError, match="request 2's perceived score can overflow"):
        scenario(1e308)
    prep = prepare(scenario(1e307))
    for seed in range(60):
        assert outcome(engine._emit_orders, prep, seed) == outcome(emit_orders_by_rescan, prep,
                                                                   seed)


def burst_scenario(policy, n=2000, stragglers=0):
    """n requests, four issued per tick; request 0 is held in flight until all others land.

    Request 0 has the smallest deadline, so under ttl as under fair nothing
    is stable before it arrives, and all n requests are ordered in one burst.
    The stragglers, issued at tick 0 with later deadlines than all n, stay
    in flight through that burst and land one tick after it.
    """
    reqs = tuple(Request(id=i, client_id=i % 16, features=(float(i % 20), 0.0),
                         issue_tick=i // 4)
                 for i in range(n))
    reqs += tuple(Request(id=i, client_id=i % 16, features=(100.0, 0.0), issue_tick=0)
                  for i in range(n, n + stragglers))
    overrides = {0: n} | {i: n + 1 for i in range(n, n + stragglers)}
    return ScenarioConfig(feature_count=2, relevant=(0,), lam=50.0, requests=reqs,
                          eta_feature=1, delay=DelayModel(d=1.0), policy=policy,
                          deliver_overrides=overrides, assume_noise_bound=False)


class CountingSet(set):
    """A set that counts the entries read from it, by lookup, removal or iteration."""

    def __init__(self):
        super().__init__()
        self.reads = 0

    def __contains__(self, item):
        self.reads += 1
        return super().__contains__(item)

    def remove(self, item):
        self.reads += 1
        super().remove(item)

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


@pytest.mark.parametrize("policy,stragglers", [
    (FairPolicy(spec=NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=50.0)), 0),
    (TtlPolicy(deadline_feature=0), 0),
    (TtlPolicy(deadline_feature=0), 1000),
], ids=["fair", "ttl", "ttl_stragglers"])
def test_one_burst_checks_stability_a_linear_number_of_times(policy, stragglers):
    n = 2000
    prep = prepare(burst_scenario(policy, n, stragglers))
    in_flight = CountingSet()
    make_state = engine.EngineState
    with mock.patch.object(engine, "is_stable", wraps=engine.is_stable) as checks, \
            mock.patch.object(engine, "EngineState",
                              lambda **kw: make_state(in_flight=in_flight, **kw)):
        trace = run_prepared(prep, 7, record=True)
    assert {trace.order_ticks[i] for i in range(n)} == {n}
    assert len(trace.final_order) == n + stragglers
    # One failed check per delivery tick before the burst, one per order in it;
    # a rescan of the pending set makes about n^2 / 2.
    assert checks.call_count <= 4 * n
    # Under ttl, a check that compares the front with every in-flight request
    # reads about n * stragglers entries over the burst.
    assert in_flight.reads <= 4 * (n + stragglers)


@pytest.mark.parametrize("policy", [
    FcfsPolicy(), TtlPolicy(deadline_feature=1),
    FairPolicy(spec=NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=50.0),
               direction="highest_first"),
], ids=["fcfs", "ttl", "fair"])
def test_a_run_builds_no_request(policy):
    # Every request draws a delay of at least 0.5, so a run that rebuilt each delayed
    # request would build 200; the keys fold the delays in without building any.
    reqs = tuple(Request(id=i, client_id=i % 16, features=(float(i % 20), 0.0),
                         issue_tick=i // 4)
                 for i in range(200))
    scenario = ScenarioConfig(feature_count=2, relevant=(0,), lam=50.0, requests=reqs,
                              eta_feature=1, delay=DelayModel(kind="uniform", lo=0.5, hi=3.0),
                              policy=policy, assume_noise_bound=False)
    prep = prepare(scenario)
    post_init = Request.__post_init__
    emit, held = engine._emit_orders, []

    def spy(state):
        held.extend(state.in_flight)
        held.extend(entry[-1] for entry in state.ready)
        held.extend(state.tied)
        return emit(state)

    with mock.patch.object(Request, "__post_init__", autospec=True,
                           side_effect=post_init) as built, \
            mock.patch.object(engine, "_emit_orders", spy):
        trace = run_prepared(prep, 7, record=True)
    assert len(trace.final_order) == 200
    assert built.call_count == 0
    # The run's state holds ids: its in-flight set and ready queue carry no Request.
    assert held and all(type(rid) is int for rid in held)
