"""Deterministic random streams with stateless seed derivation.

Every random quantity in a run is drawn from a stream derived from the
run seed plus a purpose tag (and usually a request id or instance id).
Streams for different purposes never share state, so adding a consumer
of randomness to one module cannot perturb the draws seen by another,
and a value such as "the noise sample of request 7" is a pure function
of (seed, 7) regardless of when it is drawn.

The generator is SplitMix64: a 64-bit Weyl sequence pushed through an
avalanching finalizer. It is small, portable, and fast enough to build
a fresh stream per request per trial.

Derivation is a chain of ``child`` steps, one per part, so
``derive(seed, tag, rid) == child(derive(seed, tag), rid)``. A caller
that needs every request of one seed computes the ``(seed, tag)``
prefix once and takes one ``child`` per request. Each child state is
the same integer either way, so no draw made from it can change.
``first_random(state)`` is the first draw of ``Stream(state)``, for a
caller that usually needs only that one.

``Lanes`` takes the same steps for a block of states at once: n 64-bit
states packed at a 128-bit stride in one int. A finalizer step is then
one shift, AND, XOR or multiply by a constant of that int; a lane's
product fits in its 128 bits and each step masks the lane back to 64,
so no bit crosses into the next lane. Every lane holds the integer the
scalar step gives, so the draws made from it are the same floats.
``Lanes.derive`` packs a range of seeds without a per-seed step, as
start-in-every-lane plus a cached ramp, and ``Lanes.first_random`` reads
its floats back through ``array('d')``.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from collections.abc import Iterable
from functools import lru_cache
from itertools import repeat
from operator import sub

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_ONE = 0x3FF0000000000000  # the bits of 1.0: under them, a 52-bit x is 1 + x * 2**-52


def _finalize(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def tag(name: str) -> int:
    """Stable 64-bit tag for a purpose name (independent of PYTHONHASHSEED)."""
    return int.from_bytes(hashlib.blake2b(name.encode(), digest_size=8).digest(), "big")


def child(parent: int, part: int) -> int:
    """One derivation step: ``child(derive(seed, *parts), p) == derive(seed, *parts, p)``."""
    return _finalize((parent + _GAMMA) & _MASK ^ (part & _MASK))


def derive(seed: int, *parts: int) -> int:
    """Derive a child seed from a parent seed and integer parts.

    Pure and stateless: the same arguments always yield the same child.
    """
    z = _finalize((seed & _MASK) ^ _GAMMA)
    for p in parts:
        z = child(z, p)
    return z


def _unit(x: int) -> float:
    """A 64-bit draw as a uniform in the open interval (0, 1)."""
    return ((x >> 12) + 0.5) * 2.0**-52


def first_random(state: int) -> float:
    """``Stream(state).random()`` without building the Stream."""
    return _unit(_finalize((state + _GAMMA) & _MASK))


class Stream:
    """A seeded SplitMix64 stream of uniform draws."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _finalize(self._state)

    def random(self) -> float:
        """Uniform in the open interval (0, 1)."""
        return _unit(self.next_u64())

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free."""
        if n <= 0:
            raise ValueError("randrange requires n > 0")
        limit = (_MASK + 1) - (_MASK + 1) % n
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n


_STRIDE = 16  # bytes per lane: a 64-bit state, then the high half of its products
_SWAP = sys.byteorder == "big"  # lanes are packed little-endian


@lru_cache(maxsize=8)
def _repeated(n: int) -> tuple[int, int, int]:
    """(1, the lane mask, GAMMA), each repeated in all n lanes."""
    ones = ((1 << 128 * n) - 1) // ((1 << 128) - 1)
    return ones, _MASK * ones, _GAMMA * ones


@lru_cache(maxsize=8)
def _ramp(n: int) -> int:
    """j in lane j, for each of n lanes."""
    return Lanes.of(range(n)).packed


def _finalize_lanes(z: int, mask: int) -> int:
    """``_finalize`` of every lane of ``z``, whose lanes are each below 2**64."""
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31) & mask


class Lanes:
    """A block of n 64-bit states: lane j is bits [128j, 128j + 64) of ``packed``,
    and bits [128j + 64, 128j + 128) are 0.

    ``Lanes.of(states)`` packs states, masked to 64 bits as a Stream masks
    its seed. ``Lanes.derive(seeds)`` holds each ``derive(seed)`` of a
    range, ``child`` takes one ``child`` step in every lane, and ``values``
    and ``first_random`` read the lanes back through an ``array``.
    """

    __slots__ = ("n", "packed")

    def __init__(self, n: int, packed: int):
        self.n, self.packed = n, packed

    @classmethod
    def of(cls, states: Iterable[int]) -> Lanes:
        """The states, one lane each, in order."""
        words = array("Q", [s & _MASK for s in states])
        spread = array("Q", bytes(_STRIDE * len(words)))
        spread[::2] = words
        if _SWAP:
            spread.byteswap()
        return cls(len(words), int.from_bytes(spread.tobytes(), "little"))

    @classmethod
    def derive(cls, seeds: range) -> Lanes:
        """``derive(seed)`` of each seed of ``seeds``, one lane each; its step must be 1."""
        n = len(seeds)
        ones, mask, gamma = _repeated(n)
        # Lane j holds start + j < 2**65 before the mask: no carry reaches the next lane.
        packed = ((seeds.start & _MASK) * ones + _ramp(n)) & mask
        return cls(n, _finalize_lanes(packed ^ gamma, mask))

    def child(self, part: int) -> Lanes:
        """``child(state, part)`` of each lane's state."""
        ones, mask, gamma = _repeated(self.n)
        z = (self.packed + gamma) & mask ^ (part & _MASK) * ones
        return Lanes(self.n, _finalize_lanes(z, mask))

    def values(self) -> array:
        """Each lane's state, in lane order."""
        return self._low_words(self.packed, "Q")

    def first_random(self) -> list[float]:
        """``first_random(state)`` of each lane's state."""
        ones, mask, gamma = _repeated(self.n)
        # Each lane's top 52 bits x under the bits of 1.0 (the next lane's low 12 land past
        # the lane's 64) read as the double 1 + x * 2**-52, and
        # (1 + x * 2**-52) - (1 - 2**-53) is _unit's (x + 0.5) * 2**-52 exactly.
        top = _finalize_lanes((self.packed + gamma) & mask, mask) >> 12 | _ONE * ones
        return list(map(sub, self._low_words(top, "d"), repeat(1.0 - 2.0**-53)))

    def _low_words(self, packed: int, typecode: str) -> array:
        """The low 64 bits of each lane of ``packed``, as an array of ``typecode``."""
        spread = array(typecode)
        spread.frombytes(packed.to_bytes(_STRIDE * self.n, "little"))
        if _SWAP:
            spread.byteswap()
        return spread[::2]
