"""Random d-digit candidates restricted to a filtered pool.

The filters drop integers that cannot be prime: even numbers and
multiples of 5 (last digit not 1, 3, 7, 9) and multiples of 3 (digital
root 3, 6 or 9). A filtered pool therefore contains no multiple of 2,
3 or 5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arith import digital_root
from .scireal import SciReal

ALLOWED_LAST_DIGITS = (1, 3, 7, 9)
EXCLUDED_DIGITAL_ROOTS = (3, 6, 9)

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class FilterPolicy:
    """Which composite-excluding filters are active. Flags are independent."""

    last_digit_filter: bool = True
    digital_root_filter: bool = True

    @classmethod
    def none(cls) -> "FilterPolicy":
        return cls(False, False)

    @classmethod
    def last_digit_only(cls) -> "FilterPolicy":
        return cls(True, False)

    @classmethod
    def both(cls) -> "FilterPolicy":
        return cls(True, True)

    @property
    def label(self) -> str:
        if self.last_digit_filter and self.digital_root_filter:
            return "both"
        if self.last_digit_filter:
            return "last-digit"
        if self.digital_root_filter:
            return "digital-root"
        return "none"


@dataclass(frozen=True)
class Candidate:
    """A d-digit integer; its filter attributes are derived from the value."""

    n: int
    digits: int

    def __post_init__(self) -> None:
        if self.n < 10 ** (self.digits - 1) or self.n >= 10**self.digits:
            raise ValueError(f"{self.n} does not have exactly {self.digits} digits")

    @property
    def dr(self) -> int:
        return digital_root(self.n)

    @property
    def last_digit(self) -> int:
        return self.n % 10

    @classmethod
    def from_value(cls, n: int) -> "Candidate":
        if n < 1:
            raise ValueError("candidate must be positive")
        return cls(n=n, digits=len(str(n)))


def passes_filter(n: int, policy: FilterPolicy) -> bool:
    """True iff n survives every active filter."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if policy.last_digit_filter and n % 10 not in ALLOWED_LAST_DIGITS:
        return False
    if policy.digital_root_filter and digital_root(n) in EXCLUDED_DIGITAL_ROOTS:
        return False
    return True


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

    Leading digit uniform in 1..9, middle digits uniform, last digit
    uniform over the allowed set; digital-root rejection then keeps the
    draw uniform over the surviving pool (expected 1.5 tries).
    """
    if digits < 2:
        raise ValueError("digit count must be >= 2; the 1-digit pool is degenerate")
    if rng is None:
        rng = random.SystemRandom()
    last_choices = ALLOWED_LAST_DIGITS if policy.last_digit_filter else tuple(range(10))
    middle_span = 10 ** (digits - 2)
    high = 10 ** (digits - 1)
    while True:
        n = rng.randint(1, 9) * high + rng.randrange(middle_span) * 10 + rng.choice(last_choices)
        if not policy.digital_root_filter or digital_root(n) not in EXCLUDED_DIGITAL_ROOTS:
            return Candidate(n, digits)


def pool_size(digits: int, policy: FilterPolicy) -> SciReal:
    """Exact count of d-digit integers surviving the policy.

    9*10^(d-1) unfiltered; the last-digit filter keeps 4 of 10 endings
    (36*10^(d-2)); the digital-root filter keeps exactly two-thirds of
    either pool, giving 24*10^(d-2) when both are active.
    """
    if digits < 2:
        raise ValueError("digit count must be >= 2")
    if policy.last_digit_filter:
        count = 36 * 10 ** (digits - 2)
    else:
        count = 9 * 10 ** (digits - 1)
    if policy.digital_root_filter:
        count = count * 2 // 3
    return SciReal.from_int(count)
