import math
from collections import Counter

import pytest

from primegen import pseudolab
from primegen.errors import RefusalError
from primegen.primality import (
    ExactOutcome,
    euler_round,
    factor_table,
    fermat_round,
    miller_rabin,
    miller_rabin_round,
    trial_division,
)
from primegen.pseudolab import (
    SCAN_CAP,
    LiarCensus,
    carmichael_numbers,
    composite_censuses,
    fermat_pseudoprimes,
    is_absolute_euler_pseudoprime,
    liar_census,
    sqrt_of_unity,
)
from primegen.sampling import make_stream

CARMICHAELS_BELOW_10K = [561, 1105, 1729, 2465, 2821, 6601, 8911]


def odd_composites(limit, prime_flags):
    flags = prime_flags(limit)
    return [n for n in range(9, limit + 1, 2) if not flags[n]]


def census_via_oracle(n: int, liar_oracle) -> LiarCensus:
    """Independent census: classify each base with the builtin-pow oracle."""
    counts = [sum(col) for col in zip(*(liar_oracle(n, a) for a in range(1, n)))]
    return LiarCensus(n, n - 1, *counts)


class TestLiarFlags:
    def test_matches_round_tests_exhaustively(self, prime_flags, liar_oracle):
        flags = prime_flags(401)
        for n in range(5, 401, 2):
            if flags[n]:
                continue
            for a in range(2, n - 1):
                rounds = (fermat_round(n, a), euler_round(n, a), miller_rabin_round(n, a))
                assert tuple(v.is_probable_prime for v in rounds) == liar_oracle(n, a)


class TestLiarCensus:
    def test_fifteen(self):
        census = liar_census(15)
        assert census.strong_liars == 2  # exactly {1, 14}
        assert census.total_bases == 14

    def test_nine_touches_the_quarter_bound(self):
        census = liar_census(9)
        assert (census.total_bases, census.strong_liars) == (8, 2)
        assert census.strong_liars / census.total_bases == 0.25

    def test_carmichael_561(self):
        census = liar_census(561)
        assert census.fermat_liars == 320  # phi(561) = 2 * 10 * 16
        assert census.euler_liars == 160
        assert census.strong_liars <= 560 // 4

    def test_matches_oracle_census_for_every_odd_composite_to_2000(self, prime_flags, liar_oracle):
        for n in odd_composites(2000, prime_flags):
            assert liar_census(n) == census_via_oracle(n, liar_oracle), n

    @pytest.mark.parametrize(
        "n, fermat, euler, strong",
        [
            (999301, 3600, 1800, 1350),  # 181 * 5521, e = k = 2: Euler count doubled
            (999337, 64, 32, 22),  # 233 * 4289, e = k = 3
            (999999, 32, 2, 2),  # 3^3 * 7 * 11 * 13 * 37, not squarefree
        ],
    )
    def test_pinned_near_a_million(self, n, fermat, euler, strong):
        # values from census_via_oracle, a one-off exhaustive run over all n - 1 bases
        assert liar_census(n) == LiarCensus(n, n - 1, fermat, euler, strong)

    @pytest.mark.parametrize("n, liars, strong", [(2465, 1792, 70), (15841, 12960, 810)])
    def test_euler_liars_can_equal_fermat_liars(self, n, liars, strong, liar_oracle):
        # Carmichael numbers above the sweep's 2000 (5 * 17 * 29, 7 * 31 * 73) on which
        # the +-1 Euler round is no sharper than the Fermat round
        assert liar_census(n) == LiarCensus(n, n - 1, liars, liars, strong) == census_via_oracle(n, liar_oracle)

    def test_hierarchy_and_trivial_liars(self, prime_flags):
        for n in odd_composites(501, prime_flags):
            census = liar_census(n)
            assert 2 <= census.strong_liars <= census.euler_liars <= census.fermat_liars
            if n > 9:
                assert census.strong_liars / census.total_bases <= 0.25

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            liar_census(97)  # prime
        with pytest.raises(ValueError):
            liar_census(100)  # even
        with pytest.raises(RefusalError):
            liar_census(10**12 + 1)  # 73 * 137 * 99990001, above trial division's bound

    def test_above_a_million_matches_the_sieve_factors(self):
        # trial division factors n on its own; the census sweep reads the same factors from factor_table
        table = factor_table(2 * 10**6)
        for n in (1000001, 1024651, 1194649, 1398101, 1999999):  # 1024651 is Carmichael, 1194649 = 1093^2
            assert table[n], n
            factors, m = Counter(), n
            while table[m]:
                factors[table[m]] += 1
                m //= table[m]
            factors[m] += 1
            census = liar_census(n)
            assert census == liar_census(n, dict(factors))
            assert 2 <= census.strong_liars <= census.euler_liars <= census.fermat_liars


def test_composite_censuses_match_trial_division_factoring(prime_flags):
    for start, end in ((9, 9), (0, 1), (551, 1251), (999001, 10**6)):
        expected = [liar_census(n) for n in odd_composites(end, prime_flags) if n >= start]
        assert list(composite_censuses(start, end)) == expected
    assert list(composite_censuses(0, -1)) == []


class TestCensusRange:
    """composite_censuses' odd range and caps, checked when it is called."""

    def test_odd_members(self):
        assert [c.n for c in composite_censuses(9, 15)] == [9, 15]
        assert list(composite_censuses(10, 14)) == []
        assert list(composite_censuses(14, 13)) == []
        with pytest.raises(ValueError):
            composite_censuses(-3, 15)

    @pytest.mark.parametrize("start, end", [(9, 9), (9, 15), (10, 14), (551, 651), (2, 3000), (999001, 999999)])
    def test_row_cap_is_the_exact_odd_count(self, monkeypatch, start, end):
        def table(limit):
            raise AssertionError("factor table built before the caps were checked")

        rows = sum(n % 2 for n in range(start, end + 1))
        monkeypatch.setattr(pseudolab, "CENSUS_ROW_CAP", rows)
        composite_censuses(start, end)
        monkeypatch.setattr(pseudolab, "CENSUS_ROW_CAP", rows - 1)
        monkeypatch.setattr(pseudolab, "factor_table", table)
        with pytest.raises(RefusalError):
            composite_censuses(start, end)

    def test_readme_sweep_fits_the_budget(self):
        assert next(composite_censuses(9, 5000)).n == 9

    def test_top_of_the_range_fits_the_row_cap(self):
        assert next(composite_censuses(800001, 10**6)).n == 800001


class TestFermatPseudoprimes:
    def test_below_2000_base_2(self, prime_flags):
        found = fermat_pseudoprimes(2, 2000)
        assert found == [341, 561, 645, 1105, 1387, 1729, 1905]
        # independent completeness scan with the exact oracle
        flags = prime_flags(2000)
        rescan = [
            n
            for n in range(9, 2001, 2)
            if not flags[n] and math.gcd(2, n) == 1 and pow(2, n - 1, n) == 1
        ]
        assert found == rescan

    def test_tiny_limit_is_empty(self):
        assert fermat_pseudoprimes(2, 10) == []

    @pytest.mark.parametrize("a", [2, 3, 5, 6, 10, 15, 210, 1001, 2**61 - 1])
    def test_matches_a_sieve_and_pow_rescan(self, prime_flags, a):
        # 210 and 1001 share primes with the sieve, so some orders are stored as 0
        flags = prime_flags(10**5)
        for limit in (8, 9, 25, 10**4 + 1, 10**5):
            rescan = [n for n in range(9, limit + 1, 2) if not flags[n] and pow(a, n - 1, n) == 1]
            assert fermat_pseudoprimes(a, limit) == rescan, limit

    def test_square_of_a_wieferich_prime(self):
        # 1194649 = 1093^2 is a base-2 pseudoprime whose only sieve factor is 1093
        found = fermat_pseudoprimes(2, 1194649)
        assert len(found) == 274 and found[-1] == 1194649

    def test_order_condition_skips_most_modexps(self, monkeypatch):
        calls = 0

        def counting_pow(*args):
            nonlocal calls
            calls += 1
            return pow(*args)

        # a module global shadows the builtin, so every pow in pseudolab is counted
        monkeypatch.setattr(pseudolab, "pow", counting_pow, raising=False)
        assert len(fermat_pseudoprimes(2, 10**6)) == 245  # OEIS A001567
        assert calls < 10**5  # one per odd composite, ~4.2 * 10^5, without the condition

    def test_every_scan_hit_fools_the_fermat_round(self):
        for n in fermat_pseudoprimes(3, 3000):
            assert trial_division(n).outcome is ExactOutcome.COMPOSITE
            assert fermat_round(n, 3).is_probable_prime

    def test_errors(self):
        with pytest.raises(ValueError):
            fermat_pseudoprimes(1, 100)
        with pytest.raises(RefusalError):
            fermat_pseudoprimes(2, 10**7 + 1)


# p^2 - 1, p^2, (p + 1)^2 - 1 and (p + 1)^2, and their neighbours, put the sieve's
# split at isqrt(limit) on both parities; 317, the first prime above
# isqrt(99999) = 316, once fell between the small and the large primes.
SIEVE_EDGE_LIMITS = sorted(
    {q + d for p in (3, 5, 7, 11, 13, 31, 316) for q in (p * p, (p + 1) ** 2) for d in (-1, 0, 1)} | {99999}
)


def pow_rescan(a, limit, flags):
    return [n for n in range(9, limit + 1, 2) if not flags[n] and pow(a, n - 1, n) == 1]


class TestSieveEdges:
    def test_limits_cover_both_root_parities(self):
        assert {math.isqrt(limit) % 2 for limit in SIEVE_EDGE_LIMITS if limit >= 9} == {0, 1}
        assert 99999 in SIEVE_EDGE_LIMITS and math.isqrt(99999) == 316

    @pytest.mark.parametrize("a", [2, 3 * 5 * 7, 1001])
    def test_fermat_matches_a_pow_rescan(self, prime_flags, a):
        flags = prime_flags(SIEVE_EDGE_LIMITS[-1])
        for limit in SIEVE_EDGE_LIMITS:
            assert fermat_pseudoprimes(a, limit) == pow_rescan(a, limit, flags), limit

    def test_fermat_base_just_above_the_root(self, prime_flags):
        # a prime base P > isqrt(limit) divides no member, so every multiple of P goes
        flags = prime_flags(SIEVE_EDGE_LIMITS[-1])
        for limit in SIEVE_EDGE_LIMITS:
            a = next(q for q in range(math.isqrt(limit) + 1, 2 * limit) if flags[q])
            assert fermat_pseudoprimes(a, limit) == pow_rescan(a, limit, flags), limit

    def test_carmichael_matches_a_korselt_rescan(self, prime_flags):
        # every Carmichael number is a base-2 pseudoprime; Korselt from the test's own factoring
        flags = prime_flags(SIEVE_EDGE_LIMITS[-1])
        for limit in SIEVE_EDGE_LIMITS[::-1]:
            rescan = [
                n
                for n in pow_rescan(2, limit, flags)
                if all(n % (p * p) and (n - 1) % (p - 1) == 0 for p in _distinct_prime_factors(n))
            ]
            assert carmichael_numbers(limit) == rescan, limit

    def test_750_base_2_pseudoprimes_below_the_cap(self):
        found = fermat_pseudoprimes(2, SCAN_CAP)
        assert len(found) == 750  # OEIS A001567
        assert found[:7] == [341, 561, 645, 1105, 1387, 1729, 1905]


class TestCarmichaelNumbers:
    def test_exactly_seven_below_10k(self):
        found = carmichael_numbers(10**4)
        assert found == CARMICHAELS_BELOW_10K
        assert len(found) == 7 and found[0] == 561

    def test_none_below_500(self):
        assert carmichael_numbers(500) == []

    def test_2465_included_from_its_own_limit(self):
        assert 2465 in carmichael_numbers(2465)
        assert 2465 not in carmichael_numbers(2464)

    def test_exhaustive_universal_liar_crosscheck(self, prime_flags):
        # independent of the Korselt shortcut: a composite belongs iff no
        # coprime base fails the Fermat congruence
        expected = []
        for n in odd_composites(10**4, prime_flags):
            if all(pow(a, n - 1, n) == 1 for a in range(2, n - 1) if math.gcd(a, n) == 1):
                expected.append(n)
        assert carmichael_numbers(10**4) == expected

    def test_strong_test_beats_carmichael_evasion(self):
        for n in CARMICHAELS_BELOW_10K:
            assert miller_rabin(n, 10, make_stream(13, n)).is_composite

    def test_forty_three_below_a_million(self):
        # OEIS A002997
        found = carmichael_numbers(10**6)
        assert len(found) == 43
        assert found[:7] == CARMICHAELS_BELOW_10K and found[-1] == 997633

    def test_one_hundred_five_below_the_scan_cap(self):
        # OEIS A002997; Carmichael numbers are squarefree, so one is an absolute
        # Euler pseudoprime iff p - 1 divides (n - 1)/2 for each of its primes p
        found = carmichael_numbers(SCAN_CAP)
        assert len(found) == 105 and found[-1] == 9890881
        for n in found:
            expected = all((n - 1) // 2 % (p - 1) == 0 for p in _distinct_prime_factors(n))
            assert is_absolute_euler_pseudoprime(n) == expected, n

    def test_refusal(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sieve work before the cap check")

        monkeypatch.setattr(pseudolab, "_congruence_sieve", fail)
        monkeypatch.setattr(pseudolab, "factor_table", fail)
        assert SCAN_CAP == 10**7
        with pytest.raises(RefusalError):
            carmichael_numbers(SCAN_CAP + 1)
        with pytest.raises(RefusalError):
            fermat_pseudoprimes(2, SCAN_CAP + 1)


class TestSqrtOfUnity:
    def test_primes_have_exactly_plus_minus_one(self, prime_flags):
        flags = prime_flags(10**4)
        for p in (3, 5, 7, 97, 641, 9973):
            assert flags[p]
            assert sqrt_of_unity(p) == [1, p - 1]
        assert sqrt_of_unity(2) == [1]

    def test_three_prime_factors_give_eight_roots(self):
        roots = sqrt_of_unity(105)
        assert len(roots) == 8
        assert all(x * x % 105 == 1 for x in roots)

    def test_nine_prime_power_parts_give_1024_roots(self):
        n = 2**3 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23  # 892371480; the 2^3 part has four roots
        roots = sqrt_of_unity(n)
        assert len(roots) == 1024
        assert all(a < b for a, b in zip(roots, roots[1:]))
        assert all(x * x % n == 1 for x in roots)

    def test_eleven_primes_above_the_old_cap_give_1024_roots(self):
        n = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31  # 200560490130; the 2 part has one root
        roots = sqrt_of_unity(n)
        assert len(roots) == 1024
        assert all(a < b for a, b in zip(roots, roots[1:]))
        assert all(x * x % n == 1 for x in roots)

    def test_count_is_two_to_the_omega_for_odd_squarefree(self):
        for n in range(3, 10**4, 2):
            factors = _distinct_prime_factors(n)
            if any(n % (p * p) == 0 for p in factors):
                continue
            assert len(sqrt_of_unity(n)) == 2 ** len(factors)

    def test_matches_scan_for_every_small_modulus(self):
        # covers even moduli and powers of 2 as well as odd ones
        for n in range(2, 3001):
            assert sqrt_of_unity(n) == [x for x in range(1, n) if x * x % n == 1], n

    def test_crt_path_matches_scan(self):
        for n in (1000003, 2000341, 2097152, 3000000):
            via_crt = sqrt_of_unity(n)
            assert via_crt == [x for x in range(1, n) if x * x % n == 1]

    def test_bounds(self):
        with pytest.raises(ValueError):
            sqrt_of_unity(1)
        with pytest.raises(RefusalError):
            sqrt_of_unity(10**12 + 1)


def _distinct_prime_factors(n: int) -> list[int]:
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            factors.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        factors.append(m)
    return factors


class TestAbsoluteEulerPseudoprimes:
    def test_absolute_implies_every_coprime_base_lies(self):
        n = 1729
        for a in range(2, n - 1):
            if math.gcd(a, n) == 1:
                assert euler_round(n, a).is_probable_prime

    def test_matches_pow_scan_for_every_odd_composite_to_3000(self, prime_flags):
        for n in odd_composites(3000, prime_flags):
            half = (n - 1) // 2
            scan = all(pow(a, half, n) in (1, n - 1) for a in range(2, n - 1) if math.gcd(a, n) == 1)
            assert is_absolute_euler_pseudoprime(n) == scan, n

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            is_absolute_euler_pseudoprime(97)
        with pytest.raises(RefusalError):
            is_absolute_euler_pseudoprime(10**12 + 1)
