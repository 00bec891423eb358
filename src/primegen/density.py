"""Prime-density estimation for d-digit integers.

Prime-number-theorem approximations to pi(x), the d-digit prime count,
Dusart's explicit pi(x) bounds, and the prior probability that a
filtered candidate is prime.

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

DUSART_MIN = 60184


class Mode(str, Enum):
    PUBLISHED = "published"
    CORRECTED = "corrected"


def pnt_estimate(x: "int | float | Decimal") -> Decimal:
    """x / ln x, the prime-number-theorem approximation to pi(x)."""
    value = Decimal(x)
    if not (value.is_finite() and value >= 2):
        raise ValueError("x must be a finite number >= 2")
    return _pnt(value, value.ln())


def _pnt(value: Decimal, ln_x: Decimal) -> Decimal:
    return value / ln_x


def digit_prime_count(k: int) -> Decimal:
    """Approximate count of k-digit primes: pnt_estimate(10^k) - pnt_estimate(10^(k-1)).

    Algebraically equal to 10^(k-1) (9k-10) / (ln 10 k(k-1)).
    """
    if k < 2:
        raise ValueError("digit count must be >= 2")
    return _decade(k)[0] - _decade(k - 1)[0]


def dusart_bounds(x: "int | float | Decimal") -> tuple[Decimal, Decimal]:
    """Explicit bracket x/(ln x - 1) < pi(x) < x/(ln x - 1.1), valid for x >= 60184."""
    value = Decimal(x)
    if not (value.is_finite() and value >= DUSART_MIN):
        raise ValueError(f"bounds require a finite x >= {DUSART_MIN}")
    return _dusart(value, value.ln())


def _dusart(value: Decimal, ln_x: Decimal) -> tuple[Decimal, Decimal]:
    return value / (ln_x - 1), value / (ln_x - Decimal("1.1"))


def digit_prime_count_bounds(k: int) -> tuple[Decimal, Decimal]:
    """Rigorous bracket on the k-digit prime count from the pi(x) bounds.

    Cross differences: lower(10^k) - upper(10^(k-1)) below, and
    upper(10^k) - lower(10^(k-1)) above. Needs 10^(k-1) >= 60184, so
    k >= 6.
    """
    if k < 6:
        raise ValueError("digit count must be >= 6 for a valid bracket")
    _, top_low, top_up = _decade(k)
    _, bot_low, bot_up = _decade(k - 1)
    return top_low - bot_up, top_up - bot_low


def _decade(j: int) -> tuple[Decimal, Decimal, Decimal]:
    """pnt_estimate and the two dusart_bounds of x = 10^j, from one ln x.

    The Dusart pair is a valid bracket only for 10^j >= DUSART_MIN.
    """
    value = Decimal(10) ** j
    ln_x = value.ln()
    return _pnt(value, ln_x), *_dusart(value, ln_x)


def digit_prime_counts(lo: int, hi: int) -> Iterator[tuple[Decimal, Decimal, Decimal]]:
    """(digit_prime_count(k), *digit_prime_count_bounds(k)) for k = lo..hi, lo >= 2.

    Rows k - 1 and k share the decade 10^(k-1), so each decade is worked
    out once. The bounds are meaningful only from k = 6 on.
    """
    if lo < 2:
        raise ValueError("digit count must be >= 2")
    bot_pnt, bot_low, bot_up = _decade(lo - 1)
    for k in range(lo, hi + 1):
        top_pnt, top_low, top_up = _decade(k)
        yield top_pnt - bot_pnt, top_low - bot_up, top_up - bot_low
        bot_pnt, bot_low, bot_up = top_pnt, top_low, top_up


def base_prime_prob(k: int) -> float:
    """Probability an unrestricted k-digit draw is prime: (9k-10)/(9k(k-1) ln 10)."""
    if k < 2:
        raise ValueError("digit count must be >= 2")
    return (9 * k - 10) / (9 * k * (k - 1) * LN10)


def filter_factor(policy: FilterPolicy, mode: Mode = Mode.CORRECTED) -> float:
    """Density gain from the policy's wheel, W/phi(W); doubled at W = 30 in published mode."""
    factor = policy.wheel / len(policy.offsets)
    return 2 * factor if mode is Mode.PUBLISHED and policy is FilterPolicy.BOTH else factor


def filtered_prime_prob(k: int, policy: FilterPolicy, mode: Mode = Mode.CORRECTED) -> float:
    """Prior probability that a filtered k-digit candidate is prime.

    base_prime_prob scaled by the filter factor. For very small k the
    published-mode product can exceed 1, where the underlying
    approximation is meaningless; the value is returned as computed.
    """
    return base_prime_prob(k) * filter_factor(policy, mode)
