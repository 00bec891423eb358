import math
import os
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from primegen import arith
from primegen.arith import mod_pow
from primegen.errors import RefusalError
from primegen import primality
from primegen.primality import (
    SMALL_PRIME_BOUND,
    ExactOutcome,
    compare_tests,
    euler_round,
    euler_test,
    factor_table,
    fermat_round,
    fermat_test,
    miller_rabin,
    miller_rabin_round,
    mr_transcript,
    small_factor,
    trial_division,
)
from primegen.sampling import make_stream

GMP_LOADS = arith._libgmp() is not None


class TestVerdictContract:
    Verdict = primality.TestVerdict  # not imported by name: pytest would collect a Test* class

    def test_no_evidence_is_a_probable_prime(self):
        verdict = self.Verdict()
        assert verdict.is_probable_prime and not verdict.is_composite

    def test_a_factor_alone_makes_a_composite(self):
        verdict = self.Verdict(factor=2)
        assert verdict.is_composite and not verdict.is_probable_prime

    def test_a_witness_alone_makes_a_composite(self):
        verdict = self.Verdict(witness=5)
        assert verdict.is_composite and not verdict.is_probable_prime

    def test_evidence_is_keyword_only(self):
        with pytest.raises(TypeError):
            self.Verdict(5)


class TestFermatRound:
    def test_carmichael_561_fools_base_2(self):
        assert fermat_round(561, 2).is_probable_prime

    def test_341_fools_base_2(self):
        assert fermat_round(341, 2).is_probable_prime

    def test_341_caught_by_base_5(self):
        verdict = fermat_round(341, 5)
        assert verdict.is_composite and verdict.witness == 5
        # 5^170 = 56 (mod 341), so 5^340 = 56^2 = 67 != 1
        assert mod_pow(5, 340, 341) == 56 * 56 % 341 == 67

    def test_shared_factor_reported(self):
        # a base sharing a factor with n is a witness, and gcd recovers the factor;
        # the round itself stores none (cli's `test` prints it)
        for a in (3, 33):  # gcd(33, 561) = 33
            verdict = fermat_round(561, a)
            assert verdict == primality.TestVerdict(witness=a) and math.gcd(verdict.witness, 561) == a

    def test_domain_errors(self):
        for n, a in ((4, 2), (3, 2), (9, 1), (9, 8), (561, 560)):
            for round_fn in (fermat_round, euler_round, miller_rabin_round, mr_transcript):
                with pytest.raises(ValueError):
                    round_fn(n, a)


class TestEulerRound:
    def test_561_caught_by_base_5(self):
        verdict = euler_round(561, 5)
        assert verdict.is_composite and verdict.witness == 5
        assert mod_pow(5, 280, 561) == 67

    def test_341_survives_base_2(self):
        assert euler_round(341, 2).is_probable_prime
        assert mod_pow(2, 170, 341) == 1

    def test_341_caught_by_base_5(self):
        verdict = euler_round(341, 5)
        assert verdict.is_composite and verdict.witness == 5
        assert mod_pow(5, 170, 341) == 56


class TestMillerRabinRound:
    def test_561_base_2_with_transcript(self):
        verdict = miller_rabin_round(561, 2)
        assert verdict.is_composite and verdict.witness == 2
        # 560 = 2^4 * 35: 2^35 = 263 (mod 561), then four squarings
        assert mr_transcript(561, 2) == (263, 166, 67, 1, 1)

    def test_strong_pseudoprime_2047(self):
        verdict = miller_rabin_round(2047, 2)
        assert verdict.is_probable_prime  # 2047 = 23 * 89

    def test_liar_7_for_25(self):
        assert miller_rabin_round(25, 7).is_probable_prime
        chain = mr_transcript(25, 7)
        assert chain[0] == 18 and chain[1] == 24

    def test_transcript_consistency_random(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randrange(5, 10**6) | 1
            a = rng.randint(2, n - 2)
            # independent split: strip factors of two one at a time
            s, m = 0, n - 1
            while m % 2 == 0:
                m, s = m // 2, s + 1
            chain = mr_transcript(n, a)
            assert len(chain) - 1 == s
            assert chain[0] == pow(a, m, n)
            for i in range(1, len(chain)):
                assert chain[i] == chain[i - 1] ** 2 % n
            assert chain[-1] == mod_pow(a, n - 1, n)

    def test_probable_prime_implies_fermat_condition(self):
        # a strong pass forces chain[s] = a^(n-1) = 1
        rng = random.Random(3)
        seen = 0
        while seen < 200:
            n = rng.randrange(5, 10**5) | 1
            a = rng.randint(2, n - 2)
            if miller_rabin_round(n, a).is_probable_prime:
                assert mr_transcript(n, a)[-1] == 1
                seen += 1


class TestSoundnessOnPrimes:
    def test_no_prime_has_a_witness(self, prime_flags):
        flags = prime_flags(10**5)
        rng = random.Random(99)
        for n in range(5, 10**5, 2):
            if not flags[n]:
                continue
            if n < 2000:
                bases = range(2, n - 1)
            else:
                bases = [rng.randint(2, n - 2) for _ in range(50)]
            for a in bases:
                rounds = (fermat_round(n, a), euler_round(n, a), miller_rabin_round(n, a))
                assert tuple(v.is_probable_prime for v in rounds) == (True, True, True), (n, a)


class TestMultiRoundDrivers:
    def test_carmichael_561_detected_quickly_by_strong_test(self):
        verdict = miller_rabin(561, 10, make_stream(42))
        assert verdict.is_composite
        assert verdict.rounds_survived <= 2

    def test_oracle_confirmed_prime_survives_all_rounds(self):
        assert trial_division(99991).outcome is ExactOutcome.PRIME
        verdict = miller_rabin(99991, 10, make_stream(1))
        assert verdict.is_probable_prime and verdict.rounds_survived == 10

    def test_nine_has_no_liar_bases_in_range(self):
        for a in range(2, 8):
            assert miller_rabin_round(9, a).is_composite
        for seed in range(5):
            assert miller_rabin(9, 3, make_stream(seed)).is_composite

    def test_fermat_test_on_carmichael_561(self):
        # every coprime base passes the Fermat congruence
        for a in range(2, 560):
            verdict = fermat_round(561, a)
            if verdict.is_composite:
                assert math.gcd(verdict.witness, 561) > 1
            else:
                assert mod_pow(a, 560, 561) == 1
        # so the driver either survives or stumbles on a shared factor
        verdict = fermat_test(561, 20, make_stream(8))
        if verdict.is_composite:
            assert math.gcd(verdict.witness, 561) > 1

    def test_euler_test_catches_561(self):
        liars = sum(mod_pow(a, 280, 561) in (1, 560) for a in range(1, 561))
        assert liars == 160  # liar density 160/560, so 20 rounds miss with p ~ 1e-11
        assert euler_test(561, 20, make_stream(0)).is_composite

    def test_small_prime_always_survives(self):
        for seed in range(3):
            assert fermat_test(7, 5, make_stream(seed)).is_probable_prime
            assert euler_test(7, 5, make_stream(seed)).is_probable_prime
            assert miller_rabin(7, 5, make_stream(seed)).is_probable_prime

    def test_drivers_match_a_pow_reference_exhaustive(self, liar_oracle):
        _assert_drivers_match_a_pow_reference(liar_oracle, range(5, 3001, 2), (1, 3, 10), (1, 2, 7))

    def test_domain_errors(self):
        rng = random.Random(0)
        for bad_n in (2, 3, 4):
            with pytest.raises(ValueError):
                miller_rabin(bad_n, 5, rng)
        with pytest.raises(ValueError):
            miller_rabin(561, 0, rng)


DRIVERS = {"fermat": fermat_test, "euler": euler_test, "miller_rabin": miller_rabin}


def _assert_drivers_match_a_pow_reference(liar_oracle, ns, round_counts, seeds):
    Verdict = primality.TestVerdict  # not imported by name: pytest would collect a Test* class

    # The reference runs each test on its own fresh stream of the same
    # seed and judges every base with builtin pow, not _chain.
    def reference(n, rounds, seed, test):
        rng = make_stream(seed)
        for done in range(rounds):
            a = rng.randint(2, n - 2)
            if not liar_oracle(n, a)[test]:
                return Verdict(witness=a, rounds_survived=done)
        return Verdict(rounds_survived=rounds)

    for n in ns:
        for rounds in round_counts:
            for seed in seeds:
                expected = {name: reference(n, rounds, seed, test) for test, name in enumerate(DRIVERS)}
                assert compare_tests(n, rounds, make_stream(seed)) == expected, (n, rounds, seed)
                for name, driver in DRIVERS.items():
                    assert driver(n, rounds, make_stream(seed)) == expected[name], (name, n, rounds, seed)


M2203 = 2**2203 - 1  # a Mersenne prime above PARALLEL_MIN_BITS
M1279 = 2**1279 - 1  # a Mersenne prime below it


def _as_host(monkeypatch, host):
    """Make the process see one CPU, or two CPUs with libgmp bound or not."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if host == "one CPU" else {0, 1}, raising=False)
    if host == "without libgmp":
        monkeypatch.setattr(arith, "_libgmp", lambda: None)  # builtin pow holds the GIL


@pytest.fixture
def pool_calls(monkeypatch):
    """Records each call of primality._pool; the process may run on two CPUs."""
    calls = []
    pool = primality._pool

    def counted():
        calls.append(1)
        return pool()

    monkeypatch.setattr(primality, "_pool", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return calls


@pytest.mark.skipif(not GMP_LOADS, reason="the concurrent path needs libgmp, which does not load on this host")
class TestConcurrentRounds:
    def test_drivers_match_a_pow_reference(self, monkeypatch, pool_calls, liar_oracle):
        monkeypatch.setattr(primality, "PARALLEL_MIN_BITS", 0)  # every n takes the concurrent path
        _assert_drivers_match_a_pow_reference(liar_oracle, range(5, 3001, 2), (10,), (1,))
        assert pool_calls

    @pytest.mark.parametrize("host", ["two CPUs", "one CPU", "without libgmp", "below the cutoff"])
    def test_witness_among_the_concurrent_bases(self, monkeypatch, pool_calls, host):
        # 2047 = 23 * 89 is a strong pseudoprime to base 2, and 3 is a witness
        if host != "below the cutoff":
            monkeypatch.setattr(primality, "PARALLEL_MIN_BITS", 0)
        _as_host(monkeypatch, host)
        draws, heads = [], []
        head = primality.mod_pow
        monkeypatch.setattr(primality, "mod_pow", lambda a, m, n: heads.append(a) or head(a, m, n))

        class Bases:
            def randint(self, lo, hi):
                draws.append(lo)
                return 2 if len(draws) == 1 else 3

        assert miller_rabin(2047, 10, Bases()) == primality.TestVerdict(witness=3, rounds_survived=1)
        assert len(draws) == 10  # the nine bases after the first are drawn before any is judged
        if host == "two CPUs":
            assert pool_calls
        else:
            assert not pool_calls and heads == [2, 3]  # no modexp is made past the witness
        # a real stream whose first base is the strong liar 1959 and second the
        # witness 3 is left where ten draws leave it, whether or not the pool ran
        rng, reference = make_stream(2), make_stream(2)
        draw, bases = rng.randint, iter([1959, 3])
        rng.randint = lambda lo, hi: next(bases, draw(lo, hi))  # every call draws from the stream
        assert miller_rabin(2047, 10, rng).rounds_survived == 1
        for _ in range(10):
            reference.randint(2, 2045)
        assert rng.getrandbits(64) == reference.getrandbits(64)

    def test_only_a_large_n_still_open_after_its_first_base_reaches_the_pool(self, pool_calls):
        assert miller_rabin(M1279, 10, make_stream(1)).rounds_survived == 10
        composite = miller_rabin(2**2048 + 1, 10, make_stream(1))
        assert composite.is_composite and composite.rounds_survived == 0  # a witness at its first base
        assert not pool_calls
        assert miller_rabin(M2203, 10, make_stream(1)).rounds_survived == 10
        assert pool_calls

    def test_only_the_heads_run_on_the_pool(self, monkeypatch, pool_calls):
        threads = {"head": [], "squarings": []}

        def on_thread(kind, fn):
            return lambda *args: threads[kind].append(threading.current_thread().name) or fn(*args)

        monkeypatch.setattr(primality, "mod_pow", on_thread("head", primality.mod_pow))
        monkeypatch.setattr(primality, "_squarings", on_thread("squarings", primality._squarings))
        survived = primality.TestVerdict(rounds_survived=10)
        assert compare_tests(M2203, 10, make_stream(1)) == dict.fromkeys(DRIVERS, survived)
        assert pool_calls
        assert len(threads["head"]) == 10 and all(name.startswith("primegen-chain") for name in threads["head"])
        assert threads["squarings"] == [threading.current_thread().name] * 10

    def test_an_early_verdict_waits_for_no_head(self, monkeypatch):
        # seed 1's first base is a witness to all three tests on 2^2048 + 3, a
        # multiple of 7 with m = (n - 1) / 2; the heads of the other nine block until released
        n = 2**2048 + 3
        first = make_stream(1).randint(2, n - 2)
        release, started, finished = threading.Event(), [], []
        head = primality.mod_pow

        def blocking(a, m, modulus):
            started.append(a)
            if a != first:
                release.wait(timeout=10)
            finished.append(a)
            return head(a, m, modulus)

        workers = 2
        pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="primegen-chain")
        _as_host(monkeypatch, "two CPUs")
        monkeypatch.setattr(primality, "_pool", lambda: pool)
        monkeypatch.setattr(primality, "mod_pow", blocking)
        try:
            verdicts = compare_tests(n, 10, make_stream(1))
            assert finished == [first]  # returned while the heads it started were still blocked
        finally:
            release.set()
            pool.shutdown()
        assert verdicts == dict.fromkeys(DRIVERS, primality.TestVerdict(witness=first))
        # a worker may take one more head once the first is done; the rest were cancelled
        assert first in started and len(started) <= workers + 1
        assert sorted(finished) == sorted(started)

    def test_no_pool_for_heads_with_a_small_exponent(self, monkeypatch, pool_calls):
        # 2^2048 + 1 - 1 = 2^2048: every head is a^1, and the squarings, which hold the GIL, are all the work
        verdicts = compare_tests(2**2048 + 1, 10, make_stream(1))
        assert all(verdict.is_composite and verdict.rounds_survived == 0 for verdict in verdicts.values())
        assert not pool_calls

    @pytest.mark.parametrize("host", ["without libgmp", "one CPU"])
    def test_no_pool_where_threads_cannot_overlap(self, monkeypatch, host):
        def refuse():
            raise AssertionError("no pool may be created")

        monkeypatch.setattr(primality, "_pool", refuse)
        _as_host(monkeypatch, host)
        survived = primality.TestVerdict(rounds_survived=10)
        assert compare_tests(M2203, 10, make_stream(1)) == dict.fromkeys(DRIVERS, survived)


class TestTrialDivision:
    def test_worked_examples(self):
        assert trial_division(561).smallest_factor == 3
        assert trial_division(341).smallest_factor == 11
        assert trial_division(97).outcome is ExactOutcome.PRIME

    def test_unit_and_zero(self):
        assert trial_division(1).outcome is ExactOutcome.UNIT
        assert trial_division(0).smallest_factor == 2

    def test_smallest_factor_is_prime_and_smallest(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(4, 10**6)
            verdict = trial_division(n)
            if verdict.outcome is ExactOutcome.COMPOSITE:
                f = verdict.smallest_factor
                assert n % f == 0
                assert trial_division(f).outcome is ExactOutcome.PRIME
                assert all(n % d for d in range(2, f))

    def test_refusal_above_bound(self, monkeypatch):
        with pytest.raises(RefusalError):
            trial_division(10**12 + 1)
        monkeypatch.setattr(primality, "ORACLE_BOUND", 10**13)
        assert trial_division(10**12 + 1).outcome is ExactOutcome.COMPOSITE


class TestFactorTable:
    def test_entries_against_the_sieve_oracle(self, prime_flags):
        for limit in (0, 1, 2, 3, 2000, 10**5):
            table = factor_table(limit)
            flags = prime_flags(limit)
            assert len(table) == limit + 1
            for n, p in enumerate(table):
                if p == 0:
                    assert n < 2 or flags[n], (limit, n)
                else:
                    assert flags[p] and n % p == 0 and p < n, (limit, n, p)


class TestSmallPrimeScreen:
    def test_product_is_over_exactly_the_primes_up_to_the_bound(self, prime_flags):
        flags = prime_flags(SMALL_PRIME_BOUND)
        assert primality.SMALL_PRIMES_PRODUCT == math.prod(p for p in range(SMALL_PRIME_BOUND + 1) if flags[p])

    def test_first_stage_is_one_digit_of_primes_up_to_the_bound(self):
        assert primality.FIRST_STAGE_PRODUCT < 2**30
        assert primality.SMALL_PRIMES_PRODUCT % primality.FIRST_STAGE_PRODUCT == 0

    @pytest.mark.parametrize("p", [3, 5, 7, 23, 29, 31, 1999, 2003])
    def test_a_large_prime_times_p(self, p):
        # 7..29 make up the first stage; 3, 5, 31 and 1999 are found by the second, 2003 by neither
        q = 2**521 - 1  # a Mersenne prime
        assert small_factor(p * q) == (p if p <= SMALL_PRIME_BOUND else 1)
        assert small_factor(q) == 1

    @pytest.mark.parametrize("digits", [100, 309, 617])
    def test_seeded_odd_numbers_agree_with_one_gcd(self, digits):
        rng = random.Random(digits)
        outcomes = set()
        for _ in range(1000):
            n = rng.randrange(10 ** (digits - 1), 10**digits) | 1
            d, first = small_factor(n), math.gcd(n, primality.FIRST_STAGE_PRODUCT)
            assert d == (first if first > 1 else math.gcd(n, primality.SMALL_PRIMES_PRODUCT)), n
            assert (d > 1) == (math.gcd(n, primality.SMALL_PRIMES_PRODUCT) > 1), n
            outcomes.add(d > 1)
        assert outcomes == {False, True}

    def test_rejects_exactly_the_numbers_with_a_small_factor(self, prime_flags):
        limit = 10**6
        flags = prime_flags(SMALL_PRIME_BOUND)
        small = bytearray(limit + 1)
        for p in range(SMALL_PRIME_BOUND + 1):
            if flags[p]:
                small[p::p] = b"\x01" * (limit // p)
        start = SMALL_PRIME_BOUND + 1
        screened = bytes(small_factor(n) > 1 for n in range(start, limit + 1))
        assert screened == small[start:], [start + i for i, b in enumerate(screened) if b != small[start + i]][:10]


class TestProvenWitness:
    def test_first_stage_lambda_is_a_multiple_of_each_p_minus_1(self):
        assert primality.FIRST_STAGE_PRODUCT == math.prod(primality.FIRST_STAGE_PRIMES)
        assert primality.FIRST_STAGE_LAMBDA == 55440
        assert all(primality.FIRST_STAGE_LAMBDA % (p - 1) == 0 for p in primality.FIRST_STAGE_PRIMES)

    def test_a_proven_witness_fails_all_three_rounds_exhaustive(self, prime_flags):
        # Every odd composite n in [9, 3000] with n's screen divisor (small_factor is
        # 1 up to the bound) and every base in [2, n - 2]: no Fermat liar, found by
        # builtin pow, is proven a witness; only a Fermat liar can pass a round. The
        # three rounds run on every 16th base, and say composite on each one proven.
        flags = prime_flags(3000)
        proven = 0
        for n in range(9, 3001, 2):
            d = small_factor(n)
            if flags[n] or d == 1:
                assert flags[n] or n <= SMALL_PRIME_BOUND, n
                continue
            liars = [a for a in range(2, n - 1) if pow(a, n - 1, n) == 1]
            assert not any(primality._proven_witness(n, a, d) for a in liars), n
            for a in range(2, n - 1, 16):
                if primality._proven_witness(n, a, d):
                    proven += 1
                    assert all(round_(n, a).is_composite for round_ in (fermat_round, euler_round, miller_rabin_round)), (n, a)
        assert proven > 25_000  # of about 58,000 bases

    @pytest.mark.parametrize(
        "n, d, verdict, heads, draws",
        [
            # 2051 = 7 * 293: 2^(2050 mod 55440) = 2^4 = 2 (mod 7), so the first base, 2, is proven
            (2051, 7, primality.TestVerdict(witness=2), [], 1),
            # 2047 = 23 * 89: 22 divides 2046, so no base coprime to 23 is proven; the strong
            # liar 2 drawn first gets its chain, then the witness 3, as with no divisor
            (2047, 23, primality.TestVerdict(witness=3, rounds_survived=1), [2, 3], 10),
        ],
    )
    def test_first_base_with_a_screen_divisor(self, monkeypatch, n, d, verdict, heads, draws):
        chained, drawn = [], []
        head = primality.mod_pow
        monkeypatch.setattr(primality, "mod_pow", lambda a, m, n: chained.append(a) or head(a, m, n))

        class Bases:
            def randint(self, lo, hi):
                drawn.append(lo)
                return 2 if len(drawn) == 1 else 3

        assert small_factor(n) == d
        assert miller_rabin(n, 10, Bases(), _divisor=d) == verdict
        assert chained == heads and len(drawn) == draws

    @pytest.mark.parametrize("d", [1999, 3 * 31, 31 * 67, 3 * 1999, 3 * 5 * 1999, 1997 * 1999])
    def test_second_stage_divisors_prove_with_one_prime_factor(self, d):
        # a prime gcd is used as it is, and a product, at or below the bound or above it,
        # through one prime from 31 up: 3 and 5 are divided out first
        q = 2**521 - 1  # a Mersenne prime
        n = d * q
        assert small_factor(n) == d
        proven = [a for a in range(2, 200) if primality._proven_witness(n, a, d)]
        assert proven and all(mod_pow(a, n - 1, n) != 1 for a in proven)
