"""Random d-digit candidates drawn from a wheel.

The paper's filters keep the last digits 1, 3, 7, 9 and drop the
digital roots 3, 6, 9, that is, they drop multiples of 2 and 5 and then
multiples of 3. What survives is exactly the integers coprime to the
wheel modulus W = 10 (last digit only) or W = 30 (both filters); W = 1
keeps everything. So each filter policy is one modulus, and a candidate
is one draw from the residues coprime to it. The draw's arithmetic keeps
every candidate inside the d-digit range and coprime to W; a test pins
that at both ends of every pool, so Candidate makes no check of its own.

A seeded stream (KeyedStream) reads SHAKE-256 (FIPS 202) keyed by seed
and index, so seeded runs are independent as far as SHAKE-256 is a
pseudorandom function, and a candidate costs one hash. Seeded output
differs from versions that seeded a Mersenne Twister per stream.
"""

from __future__ import annotations

import functools
import math
import random
from enum import Enum
from hashlib import shake_256
from typing import NamedTuple

MAX_SEED = 2**64 - 1


class FilterPolicy(Enum):
    """The wheel modulus W: candidates are the integers coprime to W."""

    NONE = 1
    LAST_DIGIT = 10
    BOTH = 30

    def __init__(self, wheel: int) -> None:
        self.wheel = wheel
        self.label = self.name.lower().replace("_", "-")
        # Residues o in [0, W) with gcd(10^(d-1) + o, W) = 1: 10^(d-1) = 10
        # (mod 30) for every d >= 2, so one table serves every digit count.
        self.offsets = tuple(o for o in range(wheel) if math.gcd(10 + o, wheel) == 1)


@functools.lru_cache(maxsize=128)
def _pool(digits: int, wheel: int) -> tuple[int, int]:
    """10^(d-1) and the d-digit pool's size: 9*10^(d-1)/W whole wheel periods
    of phi(W) members each. Keyed by W: an int hashes in C, an enum member
    through Enum.__hash__."""
    if digits < 2:
        raise ValueError("digit count must be >= 2; the 1-digit pool is degenerate")
    low = 10 ** (digits - 1)
    return low, 9 * low // wheel * len(FilterPolicy(wheel).offsets)


class Candidate(NamedTuple):
    """A d-digit pool member. The draw guarantees it and a test pins that; nothing re-checks it."""

    n: int
    digits: int


class KeyedStream:
    """Stream `index` of `seed`: SHAKE-256 over (seed, index, draw counter).

    Draw j reads SHAKE-256 of 24 bytes: the seed, the index and j, each as
    8 little-endian bytes. getrandbits(k) reads the first ceil(k/8) output
    bytes as a little-endian integer and keeps its low k bits. randrange(n)
    reads L = bit_length(n) + 64 bits, r, and returns r % n, unless r falls
    in the last, incomplete block of n values (r - r % n > 2^L - n); then
    it draws again with the next counter. So every draw is exactly
    uniform, and a redraw has probability below 2^-64.

    No __slots__: a profiler may replace a method on one stream, as
    bench/spans.py does with choice.
    """

    def __init__(self, seed: int, index: int) -> None:
        self._key = seed.to_bytes(8, "little") + index.to_bytes(8, "little")
        self._counter = 0

    def getrandbits(self, k: int) -> int:
        digest = shake_256(self._key + self._counter.to_bytes(8, "little")).digest((k + 7) >> 3)
        self._counter += 1
        return int.from_bytes(digest, "little") & ((1 << k) - 1)

    def randrange(self, n: int) -> int:
        """Uniform in [0, n)."""
        if n < 1:
            raise ValueError(f"empty range for randrange({n})")
        bits = n.bit_length() + 64
        limit = (1 << bits) - n
        while True:
            r = self.getrandbits(bits)
            q = r % n
            if r - q <= limit:
                return q

    def randint(self, a: int, b: int) -> int:
        """Uniform in [a, b]."""
        return a + self.randrange(b - a + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


Stream = KeyedStream | random.Random


def make_stream(seed: int | None, index: int = 0) -> Stream:
    """Deterministic per-candidate stream, or system randomness if unseeded.

    The one place an unseeded run gets its randomness: every sampler and
    test takes the stream as a required argument.

    Stream `index` of `seed` is KeyedStream(seed, index). Seed and index
    each fit in 64 bits and are hashed at fixed width, so distinct
    (seed, index) pairs never share a stream: candidates can be produced
    independently (and in parallel), the overall output stays
    reproducible, and different seeds give independent runs, as far as
    SHAKE-256 is a pseudorandom function.
    """
    if seed is None:
        return random.SystemRandom()
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    if not 0 <= index <= MAX_SEED:
        raise ValueError(f"stream index must fit in 64 bits, got {index}")
    return KeyedStream(seed, index)


def random_candidate(digits: int, policy: FilterPolicy, rng: Stream) -> Candidate:
    """Uniform draw from the filtered pool of exactly-d-digit integers.

    The d-digit range [10^(d-1), 10^d) is 9*10^(d-1)/W whole wheel
    periods, so one uniform draw below the pool count, split into a
    period and a coprime offset within it, gives a uniform pool member.
    """
    low, size = _pool(digits, policy.wheel)
    period, k = divmod(rng.randrange(size), len(policy.offsets))
    return Candidate(low + policy.wheel * period + policy.offsets[k], digits)


def pool_size(digits: int, policy: FilterPolicy) -> int:
    """Exact count of d-digit integers surviving the policy: 9*10^(d-1)/W * phi(W)."""
    return _pool(digits, policy.wheel)[1]
