"""Prime-density estimation for d-digit integers.

The d-digit prime count from the prime-number-theorem estimate
pi(x) ~ x / ln x, its bracket from Dusart's explicit pi(x) bounds, and
the prior probability that a filtered candidate is prime. The single-row
counts are Decimals; the density table reads float mantissas at each
row's decade from digit_prime_mantissas, closed forms of the same
differences.

A filter policy keeps the integers coprime to its wheel modulus W, a
fraction phi(W)/W of them, and no prime above 5 is lost, so the exact
density gain is W/phi(W): 1, 2.5 or 3.75 (``corrected``, the default).
A widely circulated shortcut credits the digital-root step (W = 10 to
30) with a gain of 3 instead of 3/2; ``published`` mode reproduces the
reference constants that follow from that factor.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from decimal import Decimal
from enum import Enum

from .sampling import FilterPolicy

LN10 = math.log(10.0)


class Mode(str, Enum):
    PUBLISHED = "published"
    CORRECTED = "corrected"


def digit_prime_count(k: int) -> Decimal:
    """Approximate count of k-digit primes: x / ln x at x = 10^k less its value at 10^(k-1).

    Algebraically equal to 10^(k-1) (9k-10) / (ln 10 k(k-1)).
    """
    if k < 2:
        raise ValueError("digit count must be >= 2")
    top, bottom = Decimal(10) ** k, Decimal(10) ** (k - 1)
    return top / top.ln() - bottom / bottom.ln()


def digit_prime_count_bounds(k: int) -> tuple[Decimal, Decimal]:
    """Rigorous bracket on the k-digit prime count from Dusart's pi(x) bounds.

    x/(ln x - 1) < pi(x) < x/(ln x - 1.1) for x >= 60184 (arXiv:1002.0442);
    the cross differences lower(10^k) - upper(10^(k-1)) and
    upper(10^k) - lower(10^(k-1)) bracket the count. Needs
    10^(k-1) >= 60184, so k >= 6.
    """
    if k < 6:
        raise ValueError("digit count must be >= 6 for a valid bracket")
    (top_low, top_up), (bot_low, bot_up) = [
        (x / (ln_x - 1), x / (ln_x - Decimal("1.1"))) for x in (Decimal(10) ** k, Decimal(10) ** (k - 1))
        for ln_x in [x.ln()]
    ]
    return top_low - bot_up, top_up - bot_low


def digit_prime_mantissas(lo: int, hi: int) -> Iterator[tuple[float, float, float]]:
    """digit_prime_count(k) and both digit_prime_count_bounds(k) over 10^(k-1), for k = lo..hi, lo >= 2.

    Float closed forms: with a = k ln 10 and b = (k-1) ln 10 the count is
    10/a - 1/b, and the bracket 10/(a-1) - 1/(b-1.1) to 10/(a-1.1) - 1/(b-1).
    The bracket is meaningful only from k = 6 on.
    """
    if lo < 2:
        raise ValueError("digit count must be >= 2")
    for k in range(lo, hi + 1):
        a, b = k * LN10, (k - 1) * LN10
        yield 10 / a - 1 / b, 10 / (a - 1) - 1 / (b - 1.1), 10 / (a - 1.1) - 1 / (b - 1)


def base_prime_prob(k: int) -> float:
    """Probability an unrestricted k-digit draw is prime: (9k-10)/(9k(k-1) ln 10)."""
    if k < 2:
        raise ValueError("digit count must be >= 2")
    return (9 * k - 10) / (9 * k * (k - 1) * LN10)


def filtered_prime_prob(k: int, policy: FilterPolicy, mode: Mode = Mode.CORRECTED) -> float:
    """Prior probability that a filtered k-digit candidate is prime.

    base_prime_prob scaled by the density gain of the policy's wheel,
    W/phi(W), doubled at W = 30 in published mode. For very small k the
    published-mode product can exceed 1, where the underlying
    approximation is meaningless; the value is returned as computed.
    """
    factor = policy.wheel / len(policy.offsets)
    return base_prime_prob(k) * (2 * factor if mode is Mode.PUBLISHED and policy is FilterPolicy.BOTH else factor)
