"""The engine's schedule, compiled from ``Prepared.plan``, against the plain reference.

``prepare`` decides each request's delivery and score parts once, and
``_schedule`` draws each delay and computes each selection key from
them. The reference rebuilds every request per seed instead, from the
adversary fold of ``oracles.reported_requests``: the delay is
``DelayModel.sample(client, Stream(derive(seed, TAG_DELAY, rid)))``, put
through ``delayed``, and the key is read off the delayed request (its
deadline feature, or its ``score`` plus its noise ``sample``).
These tests hold the two equal bit for bit: the delivery tick, each
key, the ids each tick lists, and the order it lists them in.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from fairorder.adversary import ByzantineClientSpec, DelayModel, delayed
from fairorder.engine import TAG_DELAY, TAG_NOISE, _schedule, pair_count, prepare, run
from fairorder.model import FeaturePartition, Request, score
from fairorder.noise import NoiseSpec, sample
from fairorder.rng import Stream, derive
from fairorder.scenario import FairPolicy, FcfsPolicy, ScenarioConfig, TtlPolicy
from oracles import engine_pair_count, reported_requests

# Values whose float sum depends on the order, and -0.0, which adding 0.0 would turn to 0.0.
VALUES = st.sampled_from([-0.0, 0.0, 0.1, 0.2, 3.0, 1e16, -1e16])


def delay_models():
    zero = st.sampled_from([DelayModel(), DelayModel(kind="uniform", lo=0.0, hi=0.0),
                            DelayModel(kind="capped_heavy_tail", scale=1.0, cap=0.0)])
    constant = st.sampled_from([0.5, 1.0, 2.5]).map(lambda d: DelayModel(d=d))
    uniform = st.builds(lambda lo, width: DelayModel(kind="uniform", lo=lo, hi=lo + width),
                        st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.25, 3.0]))
    heavy = st.builds(lambda scale, cap: DelayModel(kind="capped_heavy_tail", scale=scale,
                                                    cap=cap),
                      st.sampled_from([0.5, 2.0]), st.sampled_from([0.0, 1.0, 4.0]))
    return st.one_of(zero, constant, uniform, heavy)


@st.composite
def scenarios(draw):
    feature_count = draw(st.integers(2, 4))
    shuffled = draw(st.permutations(range(feature_count)))
    n_irrelevant = draw(st.integers(1, feature_count - 1))
    irrelevant = sorted(shuffled[:n_irrelevant])
    requests = tuple(
        Request(id=rid, client_id=draw(st.integers(0, 3)),
                features=tuple(draw(VALUES) for _ in range(feature_count)),
                issue_tick=draw(st.integers(0, 4)))
        for rid in draw(st.lists(st.integers(0, 50), min_size=1, max_size=7, unique=True))
    )
    delay = replace(draw(delay_models()),
                    per_client=draw(st.dictionaries(st.integers(0, 3), delay_models(),
                                                    max_size=3)))
    overrides = {}
    for r in requests:
        if draw(st.integers(0, 4)) == 0:
            overrides[r.id] = draw(st.one_of(st.none(), st.integers(r.issue_tick, 8)))
    adversaries = tuple(
        ByzantineClientSpec(client_id=c, time_misreport=draw(st.integers(-2, 2)),
                            bribe=draw(st.sampled_from([0.0, 0.5, 1e16])))
        for c in draw(st.lists(st.integers(0, 3), max_size=3, unique=True)))
    kind = draw(st.sampled_from(["fcfs", "ttl", "fair"]))
    if kind == "fcfs":
        policy = FcfsPolicy()
    elif kind == "ttl":  # every feature index, eta's included
        policy = TtlPolicy(deadline_feature=draw(st.integers(0, feature_count - 1)))
    else:
        policy = FairPolicy(spec=draw(st.sampled_from(SPECS)),
                            direction=draw(st.sampled_from(["lowest_first", "highest_first"])))
    return ScenarioConfig(
        feature_count=feature_count, relevant=tuple(sorted(shuffled[n_irrelevant:])),
        lam=1.0, requests=requests, eta_feature=draw(st.sampled_from(irrelevant)),
        delay=delay, adversaries=adversaries, deliver_overrides=overrides,
        policy=policy, assume_noise_bound=False)


SPECS = [None, NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0),
         NoiseSpec(kind="bounded_laplace", epsilon=0.5, sensitivity=1.0, bound=1.5),
         NoiseSpec(kind="uniform", epsilon=1.0, sensitivity=1.0, bound=1.0)]


def reference(scenario, seed):
    """Per request id: (delivery tick or None, its issue tick, its key).

    The key comes from the delayed request: under fcfs and fair only for a
    request that is delivered (None otherwise).
    """
    eta, part, policy = scenario.eta_feature, scenario.partition, scenario.policy
    out = {}
    for r in reported_requests(scenario):
        delivered = r
        if r.id in scenario.deliver_overrides:
            tick = scenario.deliver_overrides[r.id]
        else:
            d = scenario.delay.sample(r.client_id, Stream(derive(seed, TAG_DELAY, r.id)))
            tick, delivered = delayed(r, d, eta)
        if isinstance(policy, TtlPolicy):
            key = (delivered.features[policy.deadline_feature], r.id)
        elif tick is None:
            key = None
        elif isinstance(policy, FcfsPolicy):
            key = (tick, r.id)
        else:
            noise = 0.0 if policy.spec is None else sample(
                policy.spec, Stream(derive(seed, TAG_NOISE, r.id)))
            key = score(delivered, part).total + noise
            if policy.direction == "highest_first":
                key = -key
        out[r.id] = (tick, r.issue_tick, key)
    return out


def key_bits(key):
    """A key's exact value: its floats in ``float.hex``, its ints as they are."""
    if key is None:
        return None
    parts = key if isinstance(key, tuple) else (key,)
    return tuple(x.hex() if isinstance(x, float) else (type(x).__name__, x) for x in parts)


def groups(scenario, want):
    """Per tick, the ids issued and the ids delivered, gathered in request order and
    then listed by id, as the engine lists each tick's group."""
    issues, delivers = {}, {}
    for r in reported_requests(scenario):
        tick, _, _ = want[r.id]
        issues.setdefault(r.issue_tick, []).append(r.id)
        if tick is not None:
            delivers.setdefault(tick, []).append(r.id)
    return ({t: sorted(ids) for t, ids in issues.items()},
            {t: sorted(ids) for t, ids in delivers.items()})


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios(), seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
def test_schedule_equals_the_reference(scenario, seeds):
    prep = prepare(scenario)
    for seed in seeds:
        sched = _schedule(prep, derive(seed))
        want = reference(scenario, seed)
        issued = {rid: t for t, group in sched.issues.items() for rid in group}
        delivered = {rid: t for t, group in sched.delivers.items() for rid in group}
        assert issued.keys() == want.keys()
        assert sched.keys.keys() == {rid for rid, (_, _, key) in want.items() if key is not None}
        for rid, (tick, issue_tick, key) in want.items():
            assert issued[rid] == issue_tick
            assert delivered.get(rid) == tick
            assert key_bits(sched.keys.get(rid)) == key_bits(key)
        issues, delivers = groups(scenario, want)
        assert sched.issues == issues
        assert sched.delivers == delivers
        ticks = {issue_tick for _, issue_tick, _ in want.values()}
        ticks |= {t for t, _, _ in want.values() if t is not None}
        assert sched.ticks == tuple(sorted(ticks))


def request_bits(requests):
    """Requests with each feature in ``float.hex``, so that -0.0 and 0.0 differ."""
    return [(r.id, r.client_id, tuple(x.hex() for x in r.features), r.issue_tick,
             r.declared_tick) for r in requests]


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_reported_requests_equal_the_oracle(scenario):
    # Bribes of 0, 0.5 and 1e16, misreports from -2 to 2, clients with no adversary.
    assert request_bits(scenario.reported) == request_bits(reported_requests(scenario))
    assert scenario.partition == FeaturePartition.from_relevant(scenario.relevant,
                                                                scenario.feature_count)
    # replace builds a new config, which applies its own adversaries and partition.
    honest = replace(scenario, adversaries=(), relevant=())
    assert request_bits(honest.reported) == request_bits(scenario.requests)
    assert honest.partition == FeaturePartition.from_relevant((), scenario.feature_count)


def out_of_order_scenario(delay, gating):
    # Request order 5, 1, 3, 0 (clients 0, 0, 1, 2); issue order 5, 3, 0, 1; ids 1, 3 and
    # 0 all arrive at tick 5 with equal totals, so the fair policy's pick stream decides.
    reqs = (Request(id=5, client_id=0, features=(1.0, 0.0), issue_tick=0),
            Request(id=1, client_id=0, features=(1.0, 0.0), issue_tick=5),
            Request(id=3, client_id=1, features=(1.0, 0.0), issue_tick=2),
            Request(id=0, client_id=2, features=(1.0, 0.0), issue_tick=4))
    return ScenarioConfig(feature_count=2, relevant=(0,), lam=1.0, requests=reqs,
                          eta_feature=1, delay=delay, deliver_overrides={3: 5, 0: 5},
                          policy=FairPolicy(), stability_gating=gating)


# Recorded from the engine before the plan existed; a zero delay that draws (uniform on
# [0, 0]) and a constant zero one must give the same runs, gated or not.
TIED_EVENTS = [(0, "issue", 5), (0, "deliver", 5), (0, "order", 5), (2, "issue", 3),
               (4, "issue", 0), (5, "issue", 1), (5, "deliver", 0), (5, "deliver", 1),
               (5, "deliver", 3), (5, "order", 1), (5, "order", 3), (5, "order", 0)]
TIED_ORDERS = [(5, 1, 3, 0), (5, 3, 0, 1), (5, 1, 3, 0), (5, 3, 0, 1), (5, 0, 1, 3),
               (5, 3, 1, 0), (5, 3, 0, 1), (5, 3, 0, 1), (5, 1, 0, 3), (5, 1, 3, 0),
               (5, 3, 1, 0), (5, 1, 3, 0)]
TIED_COUNTS = {(1, 3): 91, (3, 0): 97, (0, 1): 107, (5, 1): 200}


@pytest.mark.parametrize("gating", [True, False])
@pytest.mark.parametrize("delay", [DelayModel(), DelayModel(kind="uniform", lo=0.0, hi=0.0)])
def test_tied_burst_of_out_of_order_clients_keeps_its_runs(delay, gating):
    scenario = out_of_order_scenario(delay, gating)
    trace = run(scenario, seed=0)
    assert [(e.at_tick, e.kind, e.rid) for e in trace.events] == TIED_EVENTS
    assert [run(scenario, seed=s).final_order for s in range(12)] == TIED_ORDERS
    prep = prepare(scenario)
    for pair, count in TIED_COUNTS.items():
        assert pair_count(prep, pair, 0, 200) == (count, None)
        assert engine_pair_count(prep, pair, 0, 200) == (count, None)


def test_entries_of_one_client_model_share_one_delay_callable():
    # Clients 0 and 2 draw from the root model, client 1 from its own, client 3 is
    # constant; request 1, client 0's second, has an override. Two requests per client.
    delay = DelayModel(kind="uniform", lo=0.0, hi=3.0,
                       per_client={1: DelayModel(kind="capped_heavy_tail", scale=1.0, cap=4.0),
                                   3: DelayModel(d=2.0)})
    reqs = tuple(Request(id=2 * c + k, client_id=c, features=(1.0, 0.0), issue_tick=k)
                 for c in range(4) for k in range(2))
    scenario = ScenarioConfig(feature_count=2, relevant=(0,), lam=1.0, requests=reqs,
                              eta_feature=1, delay=delay, deliver_overrides={1: 3})
    calls = {}
    for e in prepare(scenario).plan:
        calls.setdefault(e.request.client_id, []).append(e.delay_at)
    assert calls[3] == [None, None] and calls[0][1] is None
    root, own = calls[0][0], calls[1][0]
    assert all(f is root for f in calls[2]) and all(f is own for f in calls[1])
    assert root is not own
    assert root.__self__ is delay and own.__self__ is delay.per_client[1]
