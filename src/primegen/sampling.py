"""Random d-digit candidates drawn from a wheel.

The paper's filters keep the last digits 1, 3, 7, 9 and drop the
digital roots 3, 6, 9, that is, they drop multiples of 2 and 5 and then
multiples of 3. What survives is exactly the integers coprime to the
wheel modulus W = 10 (last digit only) or W = 30 (both filters); W = 1
keeps everything. So each filter policy is one modulus, and a candidate
is one draw from the residues coprime to it.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum

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
def _digit_range(digits: int) -> tuple[int, int]:
    """[10^(d-1), 10^d) as its two ends, worked out once per digit count."""
    return 10 ** (digits - 1), 10**digits


@functools.lru_cache(maxsize=128)
def _wheel_periods(digits: int, wheel: int) -> int:
    """Whole wheel periods in the d-digit range: 9*10^(d-1)/W."""
    return 9 * _digit_range(digits)[0] // wheel


@dataclass(frozen=True)
class Candidate:
    """A d-digit integer."""

    n: int
    digits: int

    def __post_init__(self) -> None:
        low, high = _digit_range(self.digits)
        if not low <= self.n < high:
            raise ValueError(f"{self.n} does not have exactly {self.digits} digits")


def passes_filter(n: int, policy: FilterPolicy) -> bool:
    """True iff n survives the policy's filters, i.e. n is coprime to its wheel."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.gcd(n, policy.wheel) == 1


def make_stream(seed: int | None, index: int = 0) -> random.Random:
    """Deterministic per-candidate RNG stream, or system randomness if unseeded.

    The one place an unseeded run gets its randomness: every sampler and
    test takes the stream as a required argument.

    Stream `index` of `seed` is random.Random((index << 64) | seed). The
    seed fits in 64 bits, so distinct (seed, index) pairs never share a
    stream: candidates can be produced independently (and in parallel),
    the overall output stays reproducible, and different seeds give
    independent runs.
    """
    if seed is None:
        return random.SystemRandom()
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    if index < 0:
        raise ValueError("stream index must be non-negative")
    return random.Random((index << 64) | seed)


def random_candidate(digits: int, policy: FilterPolicy, rng: random.Random) -> Candidate:
    """Uniform draw from the filtered pool of exactly-d-digit integers.

    The d-digit range [10^(d-1), 10^d) is 9*10^(d-1)/W whole wheel
    periods, so a uniform period and a uniform coprime offset within it
    give a uniform pool member in one draw, with no rejection.
    """
    if digits < 2:
        raise ValueError("digit count must be >= 2; the 1-digit pool is degenerate")
    w = policy.wheel
    offset = w * rng.randrange(_wheel_periods(digits, w)) + rng.choice(policy.offsets)
    return Candidate(_digit_range(digits)[0] + offset, digits)


def pool_size(digits: int, policy: FilterPolicy) -> Decimal:
    """Exact count of d-digit integers surviving the policy: 9*10^(d-1)/W * phi(W)."""
    if digits < 2:
        raise ValueError("digit count must be >= 2")
    return Decimal(9 * len(policy.offsets)).scaleb(digits - 1) / policy.wheel
