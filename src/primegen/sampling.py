"""Random d-digit candidates drawn from a wheel.

The paper's filters keep the last digits 1, 3, 7, 9 and drop the
digital roots 3, 6, 9, that is, they drop multiples of 2 and 5 and then
multiples of 3. What survives is exactly the integers coprime to the
wheel modulus W = 10 (last digit only) or W = 30 (both filters); W = 1
keeps everything. So each filter policy is one modulus, and a candidate
is one draw from the residues coprime to it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .scireal import SciReal

# Residues o in [0, W) with gcd(10^(d-1) + o, W) = 1: 10^(d-1) = 10 (mod 30)
# for every d >= 2, so one table per modulus serves every digit count.
WHEEL_OFFSETS = {w: tuple(o for o in range(w) if math.gcd(10 + o, w) == 1) for w in (1, 10, 30)}
WHEEL_LABELS = {1: "none", 10: "last-digit", 30: "both"}

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class FilterPolicy:
    """The wheel modulus W in {1, 10, 30}: candidates are the integers coprime to W."""

    wheel: int = 30

    def __post_init__(self) -> None:
        if self.wheel not in WHEEL_OFFSETS:
            raise ValueError(f"wheel modulus must be one of {sorted(WHEEL_OFFSETS)}, got {self.wheel}")

    @classmethod
    def none(cls) -> "FilterPolicy":
        return cls(1)

    @classmethod
    def last_digit_only(cls) -> "FilterPolicy":
        return cls(10)

    @classmethod
    def both(cls) -> "FilterPolicy":
        return cls(30)

    @property
    def label(self) -> str:
        return WHEEL_LABELS[self.wheel]


@dataclass(frozen=True)
class Candidate:
    """A d-digit integer."""

    n: int
    digits: int

    def __post_init__(self) -> None:
        if self.n < 10 ** (self.digits - 1) or self.n >= 10**self.digits:
            raise ValueError(f"{self.n} does not have exactly {self.digits} digits")


def passes_filter(n: int, policy: FilterPolicy) -> bool:
    """True iff n survives the policy's filters, i.e. n is coprime to its wheel."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.gcd(n, policy.wheel) == 1


def make_stream(seed: int | None, index: int = 0) -> random.Random:
    """Deterministic per-candidate RNG stream, or system randomness if unseeded.

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


def random_candidate(digits: int, policy: FilterPolicy, rng: random.Random | None = None) -> Candidate:
    """Uniform draw from the filtered pool of exactly-d-digit integers.

    The d-digit range [10^(d-1), 10^d) is 9*10^(d-1)/W whole wheel
    periods, so a uniform period and a uniform coprime offset within it
    give a uniform pool member in one draw, with no rejection.
    """
    if digits < 2:
        raise ValueError("digit count must be >= 2; the 1-digit pool is degenerate")
    if rng is None:
        rng = random.SystemRandom()
    w = policy.wheel
    low = 10 ** (digits - 1)
    return Candidate(low + w * rng.randrange(9 * low // w) + rng.choice(WHEEL_OFFSETS[w]), digits)


def pool_size(digits: int, policy: FilterPolicy) -> SciReal:
    """Exact count of d-digit integers surviving the policy: 9*10^(d-1)/W * phi(W)."""
    if digits < 2:
        raise ValueError("digit count must be >= 2")
    w = policy.wheel
    return SciReal.from_int(9 * 10 ** (digits - 1) // w * len(WHEEL_OFFSETS[w]))
