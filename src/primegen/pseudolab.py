"""Pseudoprime lab: liar counts, pseudoprimes and square roots of unity.

Liar counts, the absolute Euler check and the roots of unity come from
the prime factors of n, so they take trial division's bound on n; the
Fermat-pseudoprime and Carmichael scans share one congruence sieve and
one SCAN_CAP on its limit. Each refuses before any work past its bound.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import accumulate, compress, product

from .arith import decompose_pow2
from .errors import RefusalError
from .primality import factor_table, trial_division

SCAN_CAP = 10**7  # limit of both congruence-sieve scans: base 2 takes ~0.5 s there (Python 3.11)
CENSUS_CAP = 10**6  # largest n of a census sweep: bounds the memory of its factor_table(end)
# Odd n one census sweep may cover: ~0.7 s as csv at the top of the range
# (Python 3.11); rows are written as they come, so memory does not grow with it.
CENSUS_ROW_CAP = 10**5

_FLIP = bytes([1, 0]) + bytes(254)  # bytes.translate table swapping 0 and 1


@dataclass(frozen=True)
class LiarCensus:
    """Liar counts over all bases 1..n-1 for an odd composite n.

    Liar counts are nested (strong <= euler <= fermat); bases sharing a
    factor with n can satisfy none of the congruences and count as
    non-liars, but stay in total_bases so liar fractions are over the
    full range 1..n-1.
    """

    n: int
    total_bases: int
    fermat_liars: int
    euler_liars: int
    strong_liars: int


def _odd_composite_factors(n: int, what: str, factors: dict[int, int] | None = None) -> dict[int, int]:
    factors = factors or _factorize(n)
    if n % 2 == 0 or sum(factors.values()) < 2:
        raise ValueError(f"{what} needs an odd composite, got {n}")
    return factors


def liar_census(n: int, factors: dict[int, int] | None = None) -> LiarCensus:
    """Count the liars in [1, n-1] to the Fermat, Euler and strong rounds,
    from `factors` ({p: j}) when the caller has already factored n.

    Closed forms over the distinct primes p of n: the units mod p^j are
    cyclic of order p^(j-1)(p-1), p prime to n-1, so x^m = 1 has
    gcd(m, p-1) roots, x^m = -1 as many when v2(m) < v2(p-1) and none
    otherwise, and the Chinese remainder theorem multiplies the counts.
    With n-1 = 2^k n', omega primes and e = min v2(p-1) <= k:
      Fermat, a^(n-1) = 1: prod gcd(n-1, p-1);
      strong (Monier 1980), a^n' = 1 or a^(2^r n') = -1 with r < e:
        (1 + (2^(e omega) - 1)/(2^omega - 1)) prod gcd(n', p-1);
      Euler as tested here, a^((n-1)/2) = +-1: prod gcd((n-1)/2, p-1),
        doubled when e = k. Monier's Euler-Jacobi count is for another
        test, a^((n-1)/2) = (a/n): at n = 21 it gives 2, this one 4.
    """
    primes = list(_odd_composite_factors(n, "census", factors))
    k, odd = decompose_pow2(n - 1)
    e = min(decompose_pow2(p - 1)[0] for p in primes)
    omega = len(primes)
    fermat = math.prod(math.gcd(n - 1, p - 1) for p in primes)
    euler = math.prod(math.gcd((n - 1) // 2, p - 1) for p in primes) * (2 if e == k else 1)
    chains = 1 + (2 ** (e * omega) - 1) // (2**omega - 1)
    strong = chains * math.prod(math.gcd(odd, p - 1) for p in primes)
    return LiarCensus(n=n, total_bases=n - 1, fermat_liars=fermat, euler_liars=euler, strong_liars=strong)


def composite_censuses(start: int, end: int) -> Iterator[LiarCensus]:
    """The census of each odd composite in [start, end], from one factor_table(end);
    refused at call time, before any work, when a census of each odd n would pass
    CENSUS_CAP or there are more than CENSUS_ROW_CAP of them (odd n below 0: ValueError)."""
    odd = range(start | 1, end + 1, 2)
    if end > CENSUS_CAP or len(odd) > CENSUS_ROW_CAP:
        raise RefusalError(f"census over [{start}, {end}] would cover {len(odd)} odd n;"
                           f" caps: n <= {CENSUS_CAP}, {CENSUS_ROW_CAP} odd n")
    if odd and odd[0] < 0:
        raise ValueError("n must be non-negative")
    table = factor_table(max(end, 0))
    return (liar_census(n, _factorize(n, table)) for n in odd if table[n])


def _order(a: int, p: int, d: int, table: array) -> int:
    """ord_p(a) for a prime p and a^d = 1 (mod p): each prime q of d, read
    from `table` (a factor_table covering d), is stripped from d while
    a^(d/q) = 1 (mod p)."""
    for q in _factorize(d, table):
        while d % q == 0 and pow(a, d // q, p) == 1:
            d //= q
    return d


def _clear(flags: bytearray, start: int, step: int) -> None:
    flags[start::step] = bytes(len(range(start, len(flags), step)))


def _keep_congruent(flags: bytearray, p: int, e: int) -> None:
    # Odd-n flags (index i is n = 2i + 1): of the odd multiples of p, keep only
    # n = p (mod p lcm(2, e)), that is n/p = 1 (mod lcm(2, e)); none when e is 0.
    step = p * math.lcm(2, e) // 2
    kept = flags[p // 2 :: step] if e else None
    _clear(flags, p // 2, p)
    if e:
        flags[p // 2 :: step] = kept


def _congruence_sieve(limit: int, period: Callable[[int], int], *, korselt: bool = False) -> Iterator[int]:
    """Odd composites n in [9, limit], ascending, minus those that some
    prime p rules out.

    A member n divisible by the odd prime p has n = 1 (mod e) for
    e = period(p), a divisor of p - 1, so n = p (mod p lcm(2, e)) by the
    Chinese remainder theorem; e = 0 says p divides no member. With
    `korselt` no member is divisible by p^2 or has a prime factor above
    its square root, as for a Carmichael number.

    The flags cover odd n only and all per-n work is slice assignment.
    Each prime p <= r = isqrt(limit) keeps its congruent odd multiples.
    A prime P > r divides n only as n = k P with odd k <= limit // P <= r,
    and no second prime above r divides n. The P with period 0 (all of
    them when `korselt`) form a mask, and each odd k clears k P for
    every masked P at once: one AND-NOT of the mask with the odd multiples
    of k, as integers. The other P keep their congruent multiples one at
    a time. The sieve only removes numbers; the caller checks each one
    left, so its list stays exact.
    """
    size, r = (limit + 1) // 2, math.isqrt(limit)
    small = (r + 1) // 2  # flags[:small] are the odd n <= r
    flags = bytearray([1]) * size  # odd primes once sieved
    flags[0] = 0
    for i in range(1, small):
        if flags[i]:
            p = 2 * i + 1
            _clear(flags, p * p // 2, p)
    members = flags.translate(_FLIP)  # odd composites
    members[0] = 0
    for i in range(1, small):
        if flags[i]:
            p = 2 * i + 1
            _keep_congruent(members, p, period(p))
            if korselt:
                _clear(members, p * p // 2, p * p)
    mask = flags  # the primes above r
    mask[:small] = bytes(small)
    if not korselt:
        top = (limit // 3 + 1) // 2  # primes with an odd multiple 3P <= limit
        for i in compress(range(small, top), mask[small:top]):
            p = 2 * i + 1
            if e := period(p):
                mask[i] = 0
                _keep_congruent(members, p, e)
    for k in range(3, limit // (r + 1) + 1, 2):
        first = k // 2 + k * small  # n = k (2 small + 1), the first cofactor above r
        count = len(range(first, size, k))
        x, y = int.from_bytes(members[first::k], "big"), int.from_bytes(mask[small : small + count], "big")
        members[first::k] = (x ^ x & y).to_bytes(count, "big")  # x AND NOT y
    i = members.find(1)
    while i >= 0:
        yield 2 * i + 1
        i = members.find(1, i + 1)


def fermat_pseudoprimes(a: int, limit: int) -> list[int]:
    """Odd composite n <= limit, coprime to a, with a^(n-1) = 1 (mod n).

    a^(n-1) = 1 (mod n) gives a^(n-1) = 1 (mod p) for each prime p of n,
    so p does not divide a and ord_p(a) divides n - 1: the sieve's period
    is ord_p(a), or 0 when p | a. For a prime P above isqrt(limit) the
    cofactor k = n/P is at most limit // P and ord_P(a) divides k - 1, so
    it divides d = gcd(P - 1, lcm(1..limit//P - 1)); when a^d != 1
    (mod P), no multiple of P passes. Only pow(a, n - 1, n) admits an n.
    """
    if a < 2:
        raise ValueError("base must be >= 2")
    if limit > SCAN_CAP:
        raise RefusalError(f"scan capped at {SCAN_CAP}, got {limit}")
    if limit < 9:
        return []
    r = math.isqrt(limit)
    lcms = list(accumulate(range(1, r + 1), math.lcm, initial=1))  # lcms[j] = lcm(1..j)
    # d below divides both P - 1 < limit // K and lcm(1..K-1), K = limit // P
    table = factor_table(max(r, *(min(limit // k, lcms[k - 1]) for k in range(3, r + 1))))

    def period(p: int) -> int:
        d = p - 1 if p <= r else math.gcd(p - 1, lcms[limit // p - 1])
        return _order(a, p, d, table) if pow(a, d, p) == 1 else 0

    return [n for n in _congruence_sieve(limit, period) if pow(a, n - 1, n) == 1]


def carmichael_numbers(limit: int) -> list[int]:
    """Composites that are Fermat pseudoprimes to every coprime base.

    Korselt's criterion (squarefree, and p-1 divides n-1 for every prime
    factor p) characterizes them; base n-1 rules out every even
    composite, so only odd n are sieved, with period p - 1. A member's
    n/p = 1 (mod p - 1) exceeds 1, so n/p >= p: every prime factor is at
    most sqrt(n). Only the Korselt check on its factors admits an n.
    """
    if limit > SCAN_CAP:
        raise RefusalError(f"scan capped at {SCAN_CAP}, got {limit}")
    if limit < 9:
        return []
    survivors = _congruence_sieve(limit, lambda p: p - 1, korselt=True)
    return [n for n in survivors if _korselt(_factorize(n), n - 1)]


def _korselt(factors: dict[int, int], m: int) -> bool:
    # n = prod p^j is squarefree and p - 1 divides m for every prime p of n
    return all(j == 1 and m % (p - 1) == 0 for p, j in factors.items())


def is_absolute_euler_pseudoprime(n: int) -> bool:
    """True iff a^((n-1)/2) = +-1 (mod n) for every base coprime to n,
    that is, iff n is squarefree and p - 1 divides (n-1)/2 for every
    prime p of n: a base that generates the units mod p^j and is 1 mod
    n/p^j must give 1, so p^(j-1)(p-1) divides (n-1)/2, which p does not.
    """
    factors = _odd_composite_factors(n, "check")
    return _korselt(factors, (n - 1) // 2)


def _factorize(n: int, table: array | None = None) -> dict[int, int]:
    # each factor from `table` (a factor_table covering n) when given, else by trial division
    factors: dict[int, int] = {}
    while n > 1:
        p = (trial_division(n).smallest_factor if table is None else table[n]) or n
        factors[p] = factors.get(p, 0) + 1
        n //= p
    return factors


def _unity_roots_prime_power(p: int, e: int) -> list[int]:
    q = p**e
    if p != 2:
        return [1, q - 1]
    if e == 1:
        return [1]
    if e == 2:
        return [1, 3]
    half = q // 2
    return [1, half - 1, half + 1, q - 1]


def sqrt_of_unity(n: int) -> list[int]:
    """All x in [1, n-1] with x^2 = 1 (mod n), ascending.

    Factorization by trial division plus the Chinese remainder theorem:
    each prime power contributes its own roots, and a product of r odd
    prime powers yields 2^r of them.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    parts = []
    for p, e in _factorize(n).items():
        rest = n // p**e
        coefficient = rest * pow(rest, -1, p**e)  # 1 mod p^e, 0 mod every other part
        parts.append([r * coefficient for r in _unity_roots_prime_power(p, e)])
    return sorted(sum(combination) % n for combination in product(*parts))
