"""The exact pair kernel against a per-seed engine loop.

`static_pair_count` decides most seeds of a static schedule from two
noise draws and runs the engine only for ties. These tests hold it to
the engine's own answer on every seed of a block, not to a close p_hat.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fairorder import engine
from fairorder.adversary import ByzantineClientSpec, DelayModel
from fairorder.engine import TAG_NOISE, prepare, run_prepared, static_pair_count
from fairorder.model import Request
from fairorder.noise import NoiseSpec
from fairorder.rng import Stream, derive
from fairorder.scenario import FairPolicy, FcfsPolicy, ScenarioConfig, TtlPolicy
from fairorder.stats import LivenessError, estimate_order_probability


def engine_pair_count(prep, pair, seed_lo, seed_hi):
    """(count, first missing seed) from one full engine run per seed."""
    a, b = pair
    count, missing = 0, None
    for seed in range(seed_lo, seed_hi):
        order = run_prepared(prep, seed, record=False).final_order
        if a in order and b in order:
            count += order.index(a) < order.index(b)
        elif missing is None:
            missing = seed
    return count, missing


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


SAMPLE = engine.sample


def rounded_sample(spec, rng):
    """Noise rounded to whole units, so that many seeds tie and fall back."""
    return float(round(SAMPLE(spec, rng)))


@settings(max_examples=200, deadline=None)
@given(scenario=static_scenarios(), data=st.data(), seed_lo=st.integers(0, 10**9),
       n_seeds=st.integers(1, 40), quantized=st.booleans())
def test_kernel_count_equals_engine_loop(scenario, data, seed_lo, n_seeds, quantized):
    prep = prepare(scenario)
    assert prep.static_schedule is not None
    ids = [r.id for r in scenario.requests]
    a = data.draw(st.sampled_from(ids))
    b = data.draw(st.sampled_from([i for i in ids if i != a]))
    seed_hi = seed_lo + n_seeds
    with mock.patch.object(engine, "sample", rounded_sample if quantized else SAMPLE):
        assert (static_pair_count(prep, (a, b), seed_lo, seed_hi)
                == engine_pair_count(prep, (a, b), seed_lo, seed_hi))


def test_undelivered_request_still_raises_liveness_error():
    reqs = tuple(Request(id=i, client_id=i, features=(0.0, 0.0), issue_tick=0) for i in range(3))
    scenario = ScenarioConfig(feature_count=2, relevant=(0,), lam=1.0, requests=reqs,
                              eta_feature=1, policy=FairPolicy(spec=SPECS["laplace"]),
                              stability_gating=False, deliver_overrides={1: None})
    prep = prepare(scenario)
    assert static_pair_count(prep, (0, 1), 40, 90) == (0, 40) == engine_pair_count(
        prep, (0, 1), 40, 90)
    with pytest.raises(LivenessError, match="seed 40"):
        estimate_order_probability(scenario, None, (0, 1), 50, 40)


def test_kernel_skips_the_engine_unless_scores_tie():
    reqs = (Request(id=0, client_id=0, features=(0.0, 0.0), issue_tick=0),
            Request(id=1, client_id=1, features=(1.0, 0.0), issue_tick=0))
    scenario = ScenarioConfig(feature_count=2, relevant=(0,), lam=1.0, requests=reqs,
                              eta_feature=1, policy=FairPolicy(spec=SPECS["laplace"]))
    prep = prepare(scenario)
    with mock.patch.object(engine, "run_prepared", wraps=run_prepared) as runs:
        count, missing = static_pair_count(prep, (0, 1), 0, 500)
    assert runs.call_count == 1  # the reference run only
    assert (count, missing) == engine_pair_count(prep, (0, 1), 0, 500)


def test_non_finite_scores_run_every_seed_through_the_engine():
    # Request 2's score overflows to inf and so does the noise scale: whenever its
    # noise is -inf its adjusted score is NaN and the engine's selection fails,
    # even on seeds where the noise of requests 0 and 1 alone would decide the pair.
    spec = NoiseSpec(kind="laplace", epsilon=1e-300, sensitivity=1e10)
    reqs = tuple(Request(id=i, client_id=i, features=feats, issue_tick=0)
                 for i, feats in enumerate([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                                            (1e308, 1e308, 0.0)]))
    scenario = ScenarioConfig(feature_count=3, relevant=(0, 1), lam=1.0, requests=reqs,
                              eta_feature=2, policy=FairPolicy(spec=spec))
    prep = prepare(scenario)

    def engine_fails(seed):
        try:
            engine_pair_count(prep, (0, 1), seed, seed + 1)
        except ValueError:
            return True
        return False

    def noise(seed, rid):
        return SAMPLE(spec, Stream(derive(seed, TAG_NOISE, rid)))

    seed = next(s for s in range(1, 200) if engine_fails(s) and not engine_fails(s - 1)
                and noise(s, 0) != noise(s, 1))
    assert static_pair_count(prep, (0, 1), seed - 1, seed) == engine_pair_count(
        prep, (0, 1), seed - 1, seed)
    with pytest.raises(ValueError):
        static_pair_count(prep, (0, 1), seed - 1, seed + 1)
