"""Brute-force enumeration lab for pseudoprimes, liars and witnesses.

Everything here is desk-scale by design: sweeps are capped and refuse
to run past their caps instead of silently taking hours. Each n is
classified independently, so sweeps parallelize trivially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import extended_gcd
from .errors import RefusalError
from .primality import ExactOutcome, _chain, factor_table, trial_division

FERMAT_SCAN_CAP = 10**7
CARMICHAEL_CAP = 10**6
CENSUS_CAP = 10**6
# Bases one census sweep may classify, n - 1 for each odd n in its range:
# ~18 s at ~1.8 us per base (Python 3.11).
CENSUS_BASE_BUDGET = 10**7
ABSOLUTE_EULER_CAP = 10**6
SQRT_UNITY_CAP = 10**9


@dataclass(frozen=True)
class LiarCensus:
    """Exhaustive classification of all bases 1..n-1 for an odd composite n.

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


def liar_flags(n: int, a: int) -> tuple[bool, bool, bool]:
    """(fermat, euler, strong) liar flags for base a against odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    if not 1 <= a <= n - 1:
        raise ValueError("base must lie in [1, n-1]")
    chain = _chain(n, a)
    return chain[-1] == 1, chain[-2] in (1, n - 1), chain[0] == 1 or n - 1 in chain[:-1]


def liar_census(n: int) -> LiarCensus:
    """Classify every base in [1, n-1] under all three round tests."""
    if n > CENSUS_CAP:
        raise RefusalError(f"census capped at {CENSUS_CAP}, got {n}")
    if n % 2 == 0 or trial_division(n).outcome is not ExactOutcome.COMPOSITE:
        raise ValueError(f"census needs an odd composite, got {n}")
    fermat = euler = strong = 0
    for a in range(1, n):
        chain = _chain(n, a)
        fermat += chain[-1] == 1
        euler += chain[-2] in (1, n - 1)
        strong += chain[0] == 1 or n - 1 in chain[:-1]
    return LiarCensus(n=n, total_bases=n - 1, fermat_liars=fermat, euler_liars=euler, strong_liars=strong)


def census_range(start: int, end: int) -> range:
    """The odd n in [start, end], refused before any work when a census of
    each would pass CENSUS_CAP or classify more than CENSUS_BASE_BUDGET bases."""
    odd = range(start | 1, end + 1, 2)
    bases = len(odd) * (odd[0] + odd[-1] - 2) // 2 if odd else 0
    if end > CENSUS_CAP or bases > CENSUS_BASE_BUDGET:
        raise RefusalError(f"census over [{start}, {end}] would classify {bases} bases;"
                           f" caps: n <= {CENSUS_CAP}, {CENSUS_BASE_BUDGET} bases")
    return odd


def fermat_pseudoprimes(a: int, limit: int) -> list[int]:
    """Odd composite n <= limit, coprime to a, with a^(n-1) = 1 (mod n)."""
    if a < 2:
        raise ValueError("base must be >= 2")
    if limit > FERMAT_SCAN_CAP:
        raise RefusalError(f"scan capped at {FERMAT_SCAN_CAP}, got {limit}")
    if limit < 9:
        return []
    table = factor_table(limit)
    found = []
    for n in range(9, limit + 1, 2):
        if not table[n] or math.gcd(a, n) != 1:
            continue
        if pow(a, n - 1, n) == 1:
            found.append(n)
    return found


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
        squarefree = True
        korselt = True
        while m > 1:
            p = table[m] or m
            m //= p
            if m % p == 0:
                squarefree = False
                break
            if (n - 1) % (p - 1):
                korselt = False
                break
        if squarefree and korselt:
            found.append(n)
    return found


def is_absolute_euler_pseudoprime(n: int) -> bool:
    """True iff a^((n-1)/2) = +-1 (mod n) for every base coprime to n."""
    if n > ABSOLUTE_EULER_CAP:
        raise RefusalError(f"check capped at {ABSOLUTE_EULER_CAP}, got {n}")
    if n % 2 == 0 or trial_division(n).outcome is not ExactOutcome.COMPOSITE:
        raise ValueError(f"check needs an odd composite, got {n}")
    half = (n - 1) // 2
    for a in range(2, n - 1):
        if math.gcd(a, n) == 1 and pow(a, half, n) not in (1, n - 1):
            return False
    return True


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    while n > 1:
        p = trial_division(n).smallest_factor or n
        factors[p] = factors.get(p, 0) + 1
        n //= p
    return factors


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    # moduli are coprime prime powers here
    _, s, _ = extended_gcd(m1, m2)
    return (r1 + (r2 - r1) * s % m2 * m1) % (m1 * m2)


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
