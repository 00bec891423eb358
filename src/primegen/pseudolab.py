"""Pseudoprime lab: liar counts, pseudoprimes and square roots of unity.

Liar counts, the absolute Euler check and the roots of unity come from
the prime factors of n; the Fermat-pseudoprime and Carmichael scans
sieve a range. Sweeps are capped and refuse to run past their caps
instead of silently taking hours.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

from .arith import decompose_pow2
from .errors import RefusalError
from .primality import factor_table, trial_division

FERMAT_SCAN_CAP = 10**7
CARMICHAEL_CAP = 10**6
CENSUS_CAP = 10**6
# Odd n one census sweep may cover: ~0.7 s and ~75 MB peak RSS as csv at
# the top of the range (Python 3.11).
CENSUS_ROW_CAP = 10**5
ABSOLUTE_EULER_CAP = 10**6
SQRT_UNITY_CAP = 10**9


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
    if n > CENSUS_CAP:
        raise RefusalError(f"census capped at {CENSUS_CAP}, got {n}")
    primes = list(_odd_composite_factors(n, "census", factors))
    k = decompose_pow2(n - 1).s
    e = min(decompose_pow2(p - 1).s for p in primes)
    omega = len(primes)
    fermat = math.prod(math.gcd(n - 1, p - 1) for p in primes)
    euler = math.prod(math.gcd((n - 1) // 2, p - 1) for p in primes) * (2 if e == k else 1)
    chains = 1 + (2 ** (e * omega) - 1) // (2**omega - 1)
    strong = chains * math.prod(math.gcd((n - 1) >> k, p - 1) for p in primes)
    return LiarCensus(n=n, total_bases=n - 1, fermat_liars=fermat, euler_liars=euler, strong_liars=strong)


def census_range(start: int, end: int) -> range:
    """The odd n in [start, end], refused before any work when a census of
    each would pass CENSUS_CAP or there are more than CENSUS_ROW_CAP of them."""
    odd = range(start | 1, end + 1, 2)
    if end > CENSUS_CAP or len(odd) > CENSUS_ROW_CAP:
        raise RefusalError(f"census over [{start}, {end}] would cover {len(odd)} odd n;"
                           f" caps: n <= {CENSUS_CAP}, {CENSUS_ROW_CAP} odd n")
    if odd and odd[0] < 0:
        raise ValueError("n must be non-negative")
    return odd


def composite_censuses(start: int, end: int) -> Iterator[LiarCensus]:
    """The census of each odd composite in census_range(start, end), factored from one factor_table(end)."""
    odd = census_range(start, end)
    table = factor_table(max(end, 0))
    for n in odd:
        if table[n]:
            yield liar_census(n, _factorize(n, table))


def _orders(a: int, table: array, bound: int) -> list[int]:
    """order[p] = ord_p(a) for each odd prime p <= bound not dividing a, else 0 (order[0] too):
    each prime q of p - 1, read from `table`, is stripped from d = p - 1 while a^(d/q) = 1 (mod p)."""
    order = [0] * (bound + 1)
    for p in range(3, bound + 1, 2):
        if table[p] or a % p == 0:
            continue
        d = m = p - 1
        while m > 1:
            q = table[m] or m
            while m % q == 0:
                m //= q
            while d % q == 0 and pow(a, d // q, p) == 1:
                d //= q
        order[p] = d
    return order


def fermat_pseudoprimes(a: int, limit: int) -> list[int]:
    """Odd composite n <= limit, coprime to a, with a^(n-1) = 1 (mod n).

    The modexp runs only when the sieve's prime p = table[n] passes a
    necessary condition: a^(n-1) = 1 (mod n) gives a^(n-1) = 1 (mod p),
    so p does not divide a (else a^(n-1) = 0) and ord_p(a) divides n - 1.
    Every n skipped fails the congruence and only that pow admits an n,
    so the list is exact.
    """
    if a < 2:
        raise ValueError("base must be >= 2")
    if limit > FERMAT_SCAN_CAP:
        raise RefusalError(f"scan capped at {FERMAT_SCAN_CAP}, got {limit}")
    if limit < 9:
        return []
    table = factor_table(limit)
    order = _orders(a, table, math.isqrt(limit))
    return [n for n in range(9, limit + 1, 2) if (d := order[table[n]]) and (n - 1) % d == 0 and pow(a, n - 1, n) == 1]


def carmichael_numbers(limit: int) -> list[int]:
    """Composites that are Fermat pseudoprimes to every coprime base.

    Korselt's criterion (squarefree, and p-1 divides n-1 for every prime
    factor p) characterizes them; base n-1 rules out every even
    composite, so only odd n are scanned. Any prime factor serves both
    tests, so the sieve need not give the smallest one.
    """
    if limit > CARMICHAEL_CAP:
        raise RefusalError(f"scan capped at {CARMICHAEL_CAP}, got {limit}")
    if limit < 9:
        return []
    table = factor_table(limit)
    found = []
    for n in range(9, limit + 1, 2):
        if not table[n]:
            continue
        m = n
        while m > 1:
            p = table[m] or m
            m //= p
            if m % p == 0 or (n - 1) % (p - 1):
                break
        else:
            found.append(n)
    return found


def is_absolute_euler_pseudoprime(n: int) -> bool:
    """True iff a^((n-1)/2) = +-1 (mod n) for every base coprime to n,
    that is, iff n is squarefree and p - 1 divides (n-1)/2 for every
    prime p of n: a base that generates the units mod p^j and is 1 mod
    n/p^j must give 1, so p^(j-1)(p-1) divides (n-1)/2, which p does not.
    """
    if n > ABSOLUTE_EULER_CAP:
        raise RefusalError(f"check capped at {ABSOLUTE_EULER_CAP}, got {n}")
    factors = _odd_composite_factors(n, "check")
    return all(j == 1 and ((n - 1) // 2) % (p - 1) == 0 for p, j in factors.items())


def _factorize(n: int, table: array | None = None) -> dict[int, int]:
    # each factor from `table` (a factor_table covering n) when given, else by trial division
    factors: dict[int, int] = {}
    while n > 1:
        p = (trial_division(n).smallest_factor if table is None else table[n]) or n
        factors[p] = factors.get(p, 0) + 1
        n //= p
    return factors


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    # moduli are coprime prime powers here
    return (r1 + (r2 - r1) * pow(m1, -1, m2) % m2 * m1) % (m1 * m2)


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
    if n > SQRT_UNITY_CAP:
        raise RefusalError(f"capped at {SQRT_UNITY_CAP}, got {n}")
    roots = [0]
    modulus = 1
    for p, e in _factorize(n).items():
        q = p**e
        roots = [_crt_pair(r, modulus, pr, q) for r in roots for pr in _unity_roots_prime_power(p, e)]
        modulus *= q
    return sorted(roots)
