"""Probabilistic primality tests and an exact trial-division oracle.

Three single-round tests (Fermat, Euler, Miller-Rabin) that read one
squaring chain, one driver running any set of them on one chain per base,
exact trial division for small inputs, and a two-stage gcd screen for
prime factors up to SMALL_PRIME_BOUND. Composite verdicts always carry
evidence and are never wrong; only "probable prime" can be a false
positive.
"""

from __future__ import annotations

import functools
import math
import os
from array import array
from dataclasses import dataclass
from enum import Enum

from . import arith
from .arith import decompose_pow2, mod_pow
from .errors import RefusalError
from .sampling import Stream

# Smallest head exponent m (n - 1 = 2^s * m), in bits, whose heads a^m are computed
# concurrently. mpz_powm releases the GIL, but each modexp makes 5 foreign calls, all but
# the result read releasing it, and the threads hand the GIL back and forth at each of
# those, which costs more than the overlap gains on small heads (x1.08 on 2^2048 + 1, m = 1).
# Measured on n, m having all but s of its bits, with whole chains and the first alone;
# not re-derived for heads only: compare_tests(p, 10) on a prime p, 10 seeds per side, pool
# against one chain at a time, in alternating pairs (2 CPUs, x86-64, GMP 6.2.1, Python 3.11,
# measured when a modexp made 13 foreign calls); pool wins at 512/768/1024/1152/1280/1536 bits:
# 0/20 (x0.74), 8/20 (x0.96), 26/40 (x1.14), 45/50 (x1.34), 67/70 (x1.24-1.44),
# 49/50 (x1.39-1.50). The least of 768/1024/1280/1536 bits winning 9 in 10; 1152 just did.
PARALLEL_MIN_BITS = 1280


@dataclass(frozen=True, kw_only=True)
class TestVerdict:
    """Verdict of one or more test rounds, read from its evidence.

    A verdict is composite iff it carries a witness base or a factor; with
    neither it is a probable prime. Rounds and drivers set only the witness;
    only a verdict reached without a base (experiment.EVEN) sets a factor.
    rounds_survived counts the rounds that reported "probable prime".
    """

    witness: int | None = None
    factor: int | None = None
    rounds_survived: int = 0

    @property
    def is_composite(self) -> bool:
        return self.witness is not None or self.factor is not None

    @property
    def is_probable_prime(self) -> bool:
        return self.witness is None and self.factor is None


def _check_round_args(n: int, a: int | None = None) -> None:
    if n < 5 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 5, got {n}")
    if a is not None and not 2 <= a <= n - 2:
        raise ValueError(f"base must lie in [2, {n - 2}], got {a}")


def _squarings(n: int, s: int, head: int) -> list[int]:
    """[head, head^2, ..., head^(2^s)] mod n: the chain that follows its head a^m."""
    chain = [head]
    for _ in range(s):
        chain.append(chain[-1] * chain[-1] % n)
    return chain


def _chain(n: int, a: int) -> list[int]:
    """[a^m, a^(2m), ..., a^(n-1)] mod n for odd n >= 3, where n - 1 = 2^s * m, m odd.
    Fermat reads the last entry, Euler the one before it, and the strong
    test the head plus any n - 1 before the last entry."""
    s, m = decompose_pow2(n - 1)
    return _squarings(n, s, mod_pow(a, m, n))


_PASSED = TestVerdict(rounds_survived=1)  # frozen: one instance serves every pass


# Each test's pass condition, written once, on n and the chain of one base.
ROUND_TESTS = {
    "fermat": lambda n, chain: chain[-1] == 1,
    "euler": lambda n, chain: chain[-2] in (1, n - 1),
    "miller_rabin": lambda n, chain: chain[0] == 1 or n - 1 in chain[:-1],
}


def fermat_round(n: int, a: int) -> TestVerdict:
    """Probable prime iff a^(n-1) = 1 (mod n).

    A base sharing a factor with n can never satisfy the congruence, so
    it is always a witness; gcd(witness, n) then recovers that factor.
    """
    _check_round_args(n, a)
    return _PASSED if ROUND_TESTS["fermat"](n, _chain(n, a)) else TestVerdict(witness=a)


def euler_round(n: int, a: int) -> TestVerdict:
    """Probable prime iff a^((n-1)/2) = +-1 (mod n).

    Never weaker than the Fermat round: the square of +-1 is 1, so every
    Euler liar is a Fermat liar. Not always sharper: on some n the two
    liar sets are equal, e.g. 1729, 2465 and 15841.
    """
    _check_round_args(n, a)
    return _PASSED if ROUND_TESTS["euler"](n, _chain(n, a)) else TestVerdict(witness=a)


def miller_rabin_round(n: int, a: int) -> TestVerdict:
    """One strong-pseudoprime round.

    With n - 1 = 2^s * m, the base passes iff a^m = 1 (mod n) or some
    chain entry before the last equals n - 1; odd primes always pass.
    """
    _check_round_args(n, a)
    return _PASSED if ROUND_TESTS["miller_rabin"](n, _chain(n, a)) else TestVerdict(witness=a)


def mr_transcript(n: int, a: int) -> tuple[int, ...]:
    """The squaring chain (a^m, a^(2m), ..., a^(n-1)) mod n of one Miller-Rabin
    round, built on request. With n - 1 = 2^s * m, m odd: s = len - 1 and
    m = (n - 1) >> s."""
    _check_round_args(n, a)
    return tuple(_chain(n, a))


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _pool():
    """One thread per CPU for the head modexps of a large n, created on first use."""
    from concurrent.futures import ThreadPoolExecutor  # not at import: most runs never need it

    return ThreadPoolExecutor(max_workers=_cpu_count(), thread_name_prefix="primegen-chain")


def _base_chains(n: int, rounds: int, rng: Stream, *, first_alone: bool = True):
    """(base, chain) for up to `rounds` uniform bases in [2, n-2] from `rng`.

    With first_alone the first base is drawn and judged alone, and a caller
    asks for the next only while a test is still open. The other bases are
    drawn at once and their chains read back in base order. For several of
    them, m of at least PARALLEL_MIN_BITS bits, GMP bound (its mpz_powm runs
    without the GIL; builtin pow holds it) and more than one CPU, every head
    a^m is computed on _pool() at once and the calling thread squares each
    into its chain as it reads it; otherwise each head is computed when its
    chain is asked for. Closing early cancels the heads not yet started.
    """
    s, m = decompose_pow2(n - 1)
    if first_alone:
        a = rng.randint(2, n - 2)
        yield a, _squarings(n, s, mod_pow(a, m, n))
    bases = [rng.randint(2, n - 2) for _ in range(rounds - first_alone)]
    concurrent = len(bases) > 1 and m.bit_length() >= PARALLEL_MIN_BITS and arith._libgmp() is not None and _cpu_count() > 1
    heads = (_pool().map if concurrent else map)(mod_pow, bases, [m] * len(bases), [n] * len(bases))
    yield from zip(bases, (_squarings(n, s, head) for head in heads))


def _multi_round(tests, n: int, rounds: int, rng: Stream, *, first_alone: bool = True) -> dict[str, TestVerdict]:
    """Verdicts of the named ROUND_TESTS on n over up to `rounds` bases that
    _base_chains(first_alone) draws from `rng`. One chain per base is read by
    each test still open; a failing test's verdict has rounds_survived = the
    bases it passed, and no further chain is read once every test has failed.
    """
    _check_round_args(n)
    if rounds < 1:
        raise ValueError("round count must be >= 1")
    verdicts: dict[str, TestVerdict | None] = dict.fromkeys(tests)
    for done, (a, chain) in enumerate(_base_chains(n, rounds, rng, first_alone=first_alone)):
        for test, verdict in verdicts.items():
            if verdict is None and not ROUND_TESTS[test](n, chain):
                verdicts[test] = TestVerdict(witness=a, rounds_survived=done)
        if all(verdicts.values()):
            return verdicts
    survived = TestVerdict(rounds_survived=rounds)
    return {test: verdict or survived for test, verdict in verdicts.items()}


def miller_rabin(n: int, rounds: int, rng: Stream) -> TestVerdict:
    """Up to `rounds` strong rounds with independent uniform bases in [2, n-2].

    Stops at the first witness. A surviving composite slips through with
    probability below 4^-rounds.
    """
    return _multi_round(("miller_rabin",), n, rounds, rng)["miller_rabin"]


def fermat_test(n: int, rounds: int, rng: Stream) -> TestVerdict:
    """Multi-round Fermat test, stopping at the first witness; unreliable against Carmichael numbers."""
    return _multi_round(("fermat",), n, rounds, rng)["fermat"]


def euler_test(n: int, rounds: int, rng: Stream) -> TestVerdict:
    """Multi-round Euler test, stopping at the first witness."""
    return _multi_round(("euler",), n, rounds, rng)["euler"]


def compare_tests(n: int, rounds: int, rng: Stream) -> dict[str, TestVerdict]:
    """Every ROUND_TESTS verdict on n from one base sequence, one chain per base serving all. All
    `rounds` bases are drawn before any is judged: the stream is always left `rounds` draws on."""
    return _multi_round(ROUND_TESTS, n, rounds, rng, first_alone=False)


class ExactOutcome(Enum):
    PRIME = "prime"
    COMPOSITE = "composite"
    UNIT = "unit"


@dataclass(frozen=True)
class ExactVerdict:
    outcome: ExactOutcome
    smallest_factor: int | None = None


ORACLE_BOUND = 10**12


def trial_division(n: int) -> ExactVerdict:
    """Exact primality by dividing by 2, 3, then 6k+-1 up to sqrt(n).

    Refuses inputs above ORACLE_BOUND rather than running unboundedly long.
    Composite verdicts carry the smallest prime factor; 1 is a unit.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > ORACLE_BOUND:
        raise RefusalError(f"{n} exceeds the exact-oracle bound {ORACLE_BOUND}")
    if n == 1:
        return ExactVerdict(ExactOutcome.UNIT)
    if n in (2, 3):
        return ExactVerdict(ExactOutcome.PRIME)
    if n % 2 == 0:
        return ExactVerdict(ExactOutcome.COMPOSITE, smallest_factor=2)
    if n % 3 == 0:
        return ExactVerdict(ExactOutcome.COMPOSITE, smallest_factor=3)
    f = 5
    while f * f <= n:
        if n % f == 0:
            return ExactVerdict(ExactOutcome.COMPOSITE, smallest_factor=f)
        if n % (f + 2) == 0:
            return ExactVerdict(ExactOutcome.COMPOSITE, smallest_factor=f + 2)
        f += 6
    return ExactVerdict(ExactOutcome.PRIME)


def factor_table(limit: int) -> array:
    """Sieve of Eratosthenes: table[i] is a prime factor of i when i is
    composite, and 0 when i is prime or i < 2, for 0 <= i <= limit.

    Even entries start at 2 (the repeated pattern 2, 0); each odd prime
    p <= sqrt(limit) marks its odd multiples from p^2 on, so an entry is
    some prime factor of i, not necessarily the smallest. The entries are
    2-byte, which holds every p for limit < 2^32.
    """
    table = array("H", [2, 0]) * (limit // 2 + 2)
    table[0] = table[2] = 0
    del table[limit + 1 :]
    for p in range(3, math.isqrt(limit) + 1, 2):
        if not table[p]:
            table[p * p :: 2 * p] = array("H", [p]) * ((limit - p * p) // (2 * p) + 1)
    return table


SMALL_PRIME_BOUND = 2000
SMALL_PRIMES_PRODUCT = math.prod(p for p, f in enumerate(factor_table(SMALL_PRIME_BOUND)) if p >= 2 and not f)
# The primes after the mod-30 wheel's 2, 3, 5 whose product, 215656441 < 2^30, fits one CPython digit.
FIRST_STAGE_PRODUCT = 7 * 11 * 13 * 17 * 19 * 23 * 29


def has_small_factor(n: int) -> bool:
    """True iff n > SMALL_PRIME_BOUND has a prime factor <= SMALL_PRIME_BOUND.

    Two gcds, far cheaper than a modexp: n's one-digit remainder against
    FIRST_STAGE_PRODUCT, then, for the numbers that pass, n against the
    product of all those primes. Never true for a prime; n <=
    SMALL_PRIME_BOUND is left to the caller's other tests.
    """
    return n > SMALL_PRIME_BOUND and (
        math.gcd(n % FIRST_STAGE_PRODUCT, FIRST_STAGE_PRODUCT) > 1 or math.gcd(n, SMALL_PRIMES_PRODUCT) > 1
    )
