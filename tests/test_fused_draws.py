"""The per-seed prefix and the Stream-free first draw against the plain derivation.

The engine derives a run's noise with one ``values_at(spec, us,
states)`` call over its fair requests, each ``state = child(derive(seed,
TAG_NOISE), rid)`` and ``u = first_random(state)``, and `pair_count` calls
``values_at`` once for the same states and first draws of a whole block,
taken from its ``rng.Lanes``, instead of ``sample(spec, Stream(derive(seed, TAG_NOISE,
rid)))`` per seed. Each delay comes from the client's model resolved once in
``Prepared.plan``: a drawing model's ``delay_at`` of its state's first
draw, or a constant already folded into the request, instead of
``DelayModel.sample(client, Stream(state))``. These tests hold the forms
equal bit for bit, so no count, trace or report can move.
"""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st

from fairorder import noise
from fairorder.adversary import DelayModel, delayed
from fairorder.engine import prepare
from fairorder.model import Request
from fairorder.noise import NoiseSpec, sample, values_at
from fairorder.rng import Lanes, Stream, child, derive, first_random
from fairorder.scenario import ScenarioConfig

# Full 64-bit values, negative ones and ones past 64 bits, which derivation masks.
INTS = st.one_of(st.integers(0, 2**64 - 1), st.integers(-2**70, -1),
                 st.integers(2**64, 2**80), st.integers(-3, 3))

SPECS = {
    "laplace": NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0),
    # Scale 2 against a bound of 1.5: about half of all first draws are rejected.
    "bounded_laplace": NoiseSpec(kind="bounded_laplace", epsilon=0.5, sensitivity=1.0,
                                 bound=1.5),
    "uniform": NoiseSpec(kind="uniform", epsilon=1.0, sensitivity=1.0, bound=1.0),
}


class CountingStream(Stream):
    """A Stream that counts its 64-bit draws."""

    __slots__ = ("draws",)

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        return super().next_u64()


@given(seed=INTS, parts=st.lists(INTS, max_size=4), part=INTS)
def test_child_of_a_derived_prefix_is_the_longer_derivation(seed, parts, part):
    assert child(derive(seed, *parts), part) == derive(seed, *parts, part)


@given(state=INTS)
def test_first_random_is_the_first_draw_of_the_stream(state):
    assert first_random(state).hex() == Stream(state).random().hex()


@settings(max_examples=300)
@given(kind=st.sampled_from(sorted(SPECS)), state=INTS)
def test_values_at_the_first_draw_equals_sample_on_a_fresh_stream(kind, state):
    spec = SPECS[kind]
    (y,) = values_at(spec, [first_random(state)], [state])
    assert y.hex() == sample(spec, Stream(state)).hex()


def draws_of(spec, state):
    rng = CountingStream(state)
    sample(spec, rng)
    return rng.draws


def test_bounded_laplace_rejection_continues_on_the_same_stream():
    spec = SPECS["bounded_laplace"]
    rejected = next(s for s in range(10_000) if draws_of(spec, s) >= 3)
    accepted = next(s for s in range(10_000) if draws_of(spec, s) == 1)
    with mock.patch.object(noise, "Stream", wraps=Stream) as streams:
        assert (values_at(spec, [first_random(rejected)], [rejected])[0].hex()
                == sample(spec, Stream(rejected)).hex())
        assert streams.call_count == 1  # built once, after the first draw was rejected
        assert (values_at(spec, [first_random(accepted)], [accepted])[0].hex()
                == sample(spec, Stream(accepted)).hex())
        assert streams.call_count == 1  # an accepted first draw builds none


# Scale 2 against a bound of 0.05: about 98% of first draws are rejected.
NARROW = NoiseSpec(kind="bounded_laplace", epsilon=0.5, sensitivity=1.0, bound=0.05)


def assert_block_equals_sample(spec, states):
    """``values_at`` over a block of lanes against ``sample`` on each lane's fresh Stream."""
    lanes = Lanes.of(states)
    want = [sample(spec, Stream(s)).hex() for s in lanes.values()]
    assert [y.hex() for y in values_at(spec, lanes.first_random(), lanes.values())] == want


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(SPECS)), states=st.lists(INTS, min_size=1, max_size=80))
def test_values_at_a_block_equals_sample_lane_for_lane(kind, states):
    assert_block_equals_sample(SPECS[kind], states)


def test_a_narrow_bound_rejects_at_any_lane_and_builds_a_stream_per_rejection():
    rejected = [s for s in range(2000) if draws_of(NARROW, s) > 1]
    accepted = [s for s in range(2000) if draws_of(NARROW, s) == 1]
    blocks = {"first and last": [rejected[0], *accepted[:5], rejected[1]],
              "every": rejected[:64], "none": accepted[:5], "one": rejected[:1]}
    for states in blocks.values():
        with mock.patch.object(noise, "Stream", wraps=Stream) as streams:
            assert_block_equals_sample(NARROW, states)
        assert streams.call_count == len(set(states) & set(rejected))  # none for an accepted


def test_one_rule_rejects_outside_the_bound_and_nan():
    bound = SPECS["bounded_laplace"].bound
    ys = [math.nan, bound, -bound, math.nextafter(bound, math.inf), -math.inf, 0.0]
    assert noise._rejected(SPECS["bounded_laplace"], ys) == [0, 3, 4]
    assert noise._rejected(SPECS["laplace"], ys) == []


DELAYS = {
    "constant": DelayModel(kind="constant", d=1.5),
    "uniform": DelayModel(kind="uniform", lo=0.5, hi=3.0),
    "zero-width uniform": DelayModel(kind="uniform", lo=2.0, hi=2.0),
    "zero uniform": DelayModel(kind="uniform", lo=0.0, hi=0.0),
    "heavy tail": DelayModel(kind="capped_heavy_tail", scale=2.0, cap=5.0),
    "heavy tail, cap 0": DelayModel(kind="capped_heavy_tail", scale=2.0, cap=0.0),
    # Client 1 draws a heavy tail, client 2 a constant, client 3 a zero-width uniform;
    # every other client the base uniform.
    "per-client": DelayModel(kind="uniform", lo=0.0, hi=1e-3, per_client={
        1: DelayModel(kind="capped_heavy_tail", scale=1e6, cap=1e300),
        2: DelayModel(kind="constant", d=0.0),
        3: DelayModel(kind="uniform", lo=7.0, hi=7.0)}),
}


@settings(max_examples=300)
@given(kind=st.sampled_from(sorted(DELAYS)), client=st.integers(0, 4), rid=st.integers(0, 2**20),
       prefix=INTS)
def test_plan_delay_equals_sample_on_a_fresh_stream(kind, client, rid, prefix):
    model = DELAYS[kind]
    r = Request(id=rid, client_id=client, features=(0.0, -0.0), issue_tick=3)
    scenario = ScenarioConfig(feature_count=2, relevant=(0,), lam=1.0, requests=(r,),
                              eta_feature=1, delay=model)
    (entry,) = prepare(scenario).plan
    want = model.sample(client, Stream(child(prefix, rid)))
    if model.for_client(client).kind == "constant":
        # Drawn once at prepare, from no stream, and folded into the request.
        tick, folded = delayed(r, want, 1)
        assert entry.delay_at is None and entry.tick == tick
        assert [x.hex() for x in entry.request.features] == [x.hex() for x in folded.features]
    else:
        engine_draw = entry.delay_at(first_random(child(prefix, rid)))
        kernel_draw = entry.delay_at(Lanes.of([prefix]).child(rid).first_random()[0])
        assert engine_draw.hex() == kernel_draw.hex() == want.hex()
