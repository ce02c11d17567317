"""`rng.Lanes` against the scalar steps it batches.

A block of lanes must hold, in every lane, the same integer as the
scalar `derive` and `child`, and give the same float as the scalar
`first_random`: `pair_count` reads its roots, delay prefixes and noise
draws from lanes, and its counts rest on those being the engine's.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from fairorder.engine import BLOCK, TAG_NOISE
from fairorder.rng import Lanes, child, derive, first_random

MASK = (1 << 64) - 1

# Any int: a seed or part is masked to 64 bits, so negative and wide values must match too.
ints = st.one_of(st.integers(0, MASK), st.integers(-(1 << 70), 1 << 70),
                 st.sampled_from([0, MASK, -1, 1 << 64, -(1 << 64)]))


def assert_steps_match(lanes, part):
    """``child`` and ``first_random`` of every lane against the scalar steps."""
    states = list(lanes.values())
    children = lanes.child(part)
    assert list(children.values()) == [child(s, part) for s in states]
    assert ([u.hex() for u in children.first_random()]
            == [first_random(child(s, part)).hex() for s in states])


def assert_lanes_match(seeds: range, part):
    roots = Lanes.derive(seeds)
    assert roots.n == len(seeds)
    assert list(roots.values()) == [derive(s) for s in seeds]
    assert_steps_match(roots, part)


@settings(max_examples=200, deadline=None)
@given(states=st.lists(ints, max_size=40), part=ints)
@example(states=[0, MASK, -1, -(1 << 63)], part=0)
@example(states=[MASK, 0], part=MASK)
def test_every_lane_equals_the_scalar_steps(states, part):
    assert_steps_match(Lanes.of(states), part)


@settings(max_examples=200, deadline=None)
@given(start=ints, n=st.integers(1, 60), part=ints)
@example(start=-300, n=60, part=0)
@example(start=MASK - 30, n=60, part=0)
def test_a_seed_range_derives_as_derive_does(start, n, part):
    assert_lanes_match(range(start, start + n), part)


@settings(max_examples=50, deadline=None)
@given(lo=st.integers(MASK - 40, MASK + 2), n=st.integers(1, 60), part=ints)
def test_a_seed_range_across_two_to_the_64_wraps_as_derive_does(lo, n, part):
    assert_lanes_match(range(lo, lo + n), part)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("start", [0, 10**6, -(1 << 64) - 300, (1 << 64) - 500],
                         ids=["zero", "million", "negative", "across-2**64"])
def test_block_lengths_around_the_kernel_block(start, n):
    assert_lanes_match(range(start - n // 2, start + n - n // 2), TAG_NOISE)


@given(states=st.lists(ints, max_size=20))
def test_packed_states_read_back_masked(states):
    lanes = Lanes.of(states)
    assert list(lanes.values()) == [s & MASK for s in states]
    assert lanes.first_random() == [first_random(s & MASK) for s in states]
