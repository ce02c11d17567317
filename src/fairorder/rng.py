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
"""

from __future__ import annotations

import hashlib

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


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
