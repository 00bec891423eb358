import math
from decimal import Decimal

import pytest

from primegen.density import (
    LN10,
    Mode,
    base_prime_prob,
    digit_prime_count,
    digit_prime_count_bounds,
    digit_prime_mantissas,
    filtered_prime_prob,
)
from primegen.sampling import FilterPolicy

BOTH = FilterPolicy.BOTH
NONE = FilterPolicy.NONE
LAST = FilterPolicy.LAST_DIGIT


def digit_prime_count_exact(k: int, pi_exact) -> int:
    return pi_exact(10**k) - pi_exact(10 ** (k - 1))


class TestPntEstimate:
    """x / ln x, read through the digit counts, its differences at decades."""

    def test_one_million(self, pi_exact):
        # the counts telescope: their sum over 2-6 digits is the estimate at 10^6 less 10 / ln 10
        est = float(sum(digit_prime_count(k) for k in range(2, 7))) + 10 / LN10
        assert math.isclose(est, 1e6 / (6 * LN10), rel_tol=1e-12)
        assert math.isclose(est, 72382.41365, rel_tol=1e-9)
        ratio = est / pi_exact(10**6)
        assert 0.92 < ratio < 0.925

    def test_huge_argument_is_log_safe(self):
        # 10^4300 is far past the largest float; the Decimal count keeps its closed form
        mantissa = float(digit_prime_count(4300).scaleb(-4299))
        assert math.isclose(mantissa, (9 * 4300 - 10) / (LN10 * 4300 * 4299), rel_tol=1e-12)


class TestDigitPrimeCount:
    def test_reference_75(self):
        mantissa = float(digit_prime_count(75).scaleb(-74))
        assert math.isclose(mantissa, 0.052037087, rel_tol=1e-7)

    def test_six_digits_against_sieve(self, pi_exact):
        true_count = digit_prime_count_exact(6, pi_exact)
        assert true_count == 68906
        approx = float(digit_prime_count(6))
        assert abs(approx - true_count) / true_count < 0.12

    def test_two_digits(self, pi_exact):
        assert math.isclose(float(digit_prime_count(2)), (10 / LN10) * 4, rel_tol=1e-12)
        assert digit_prime_count_exact(2, pi_exact) == 21

    def test_identity_with_pnt_difference(self):
        for k in range(2, 101):
            closed_form = (9 * k - 10) / (LN10 * k * (k - 1))
            mantissa = float(digit_prime_count(k).scaleb(1 - k))
            assert math.isclose(mantissa, closed_form, rel_tol=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            digit_prime_count(1)


class TestDusartBounds:
    """x/(ln x - 1) < pi(x) < x/(ln x - 1.1) for x >= 60184, read through the
    6-digit bracket, whose lower decade 10^5 is the first above 60184."""

    def test_values_at_1e5(self):
        def pi_low(x, e):
            return x / (e * LN10 - 1.0)

        def pi_up(x, e):
            return x / (e * LN10 - 1.1)

        lower, upper = digit_prime_count_bounds(6)
        assert math.isclose(float(lower), pi_low(1e6, 6) - pi_up(1e5, 5), rel_tol=1e-12)
        assert math.isclose(float(upper), pi_up(1e6, 6) - pi_low(1e5, 5), rel_tol=1e-12)

    def test_ordering_at_validity_edge(self):
        lower, upper = digit_prime_count_bounds(6)
        assert lower < upper


class TestDigitPrimeCountBounds:
    def test_reference_interval_75(self):
        lower, upper = digit_prime_count_bounds(75)
        assert math.isclose(float(lower.scaleb(-74)), 0.05233970251, rel_tol=1e-4)
        assert math.isclose(float(upper.scaleb(-74)), 0.05237015782, rel_tol=1e-4)
        assert lower < upper

    def test_brackets_true_digit_count(self, pi_exact):
        for k in (6, 7):
            lower, upper = digit_prime_count_bounds(k)
            true_count = digit_prime_count_exact(k, pi_exact)
            assert float(lower) < true_count < float(upper)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            digit_prime_count_bounds(5)


class TestDigitPrimeCounts:
    def test_rows_equal_the_definitions(self):
        # exact Decimal equality: the single-row functions must equal the
        # differences of the definitions, written out here
        def pnt(x):
            return x / x.ln()

        def dusart(x):
            return x / (x.ln() - 1), x / (x.ln() - Decimal("1.1"))

        for k in range(6, 41):
            top, bottom = Decimal(10**k), Decimal(10 ** (k - 1))
            (top_low, top_up), (bot_low, bot_up) = dusart(top), dusart(bottom)
            assert digit_prime_count(k) == pnt(top) - pnt(bottom)
            assert digit_prime_count_bounds(k) == (top_low - bot_up, top_up - bot_low)

    def test_single_row_and_domain_error(self):
        [(count, _, _)] = digit_prime_mantissas(2, 2)
        assert math.isclose(count, float(digit_prime_count(2).scaleb(-1)), rel_tol=1e-12)
        with pytest.raises(ValueError):
            next(digit_prime_mantissas(1, 4))


class TestBasePrimeProb:
    def test_reference_75(self):
        assert abs(base_prime_prob(75) - 0.005781899) <= 5e-9

    def test_two_digits_formula_and_sieve(self, pi_exact):
        assert math.isclose(base_prime_prob(2), 8 / (18 * LN10), rel_tol=1e-12)
        true_fraction = digit_prime_count_exact(2, pi_exact) / 90
        assert math.isclose(true_fraction, 21 / 90, rel_tol=1e-12)
        assert abs(base_prime_prob(2) - true_fraction) < 0.05

    def test_monotone_decreasing(self):
        probs = [base_prime_prob(k) for k in range(2, 201)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            base_prime_prob(1)


class TestFilteredPrimeProb:
    def test_last_digit_reference(self):
        for mode in Mode:
            assert abs(filtered_prime_prob(75, LAST, mode) - 0.014454748) <= 5e-9

    def test_both_published_reference(self):
        assert abs(filtered_prime_prob(75, BOTH, Mode.PUBLISHED) - 0.043364243) <= 5e-8

    def test_both_corrected_reference(self):
        base, filtered = base_prime_prob(75), filtered_prime_prob(75, BOTH, Mode.CORRECTED)
        assert abs(filtered - 0.021682122) <= 1e-8
        assert filtered == pytest.approx(base * 3.75)
        assert 0 < base <= filtered < 1

    def test_factors(self):
        # W/phi(W) is exact in binary for every wheel; published mode doubles only the both-filters gain
        for policy, mode, factor in ((NONE, Mode.PUBLISHED, 1.0), (LAST, Mode.PUBLISHED, 2.5),
                                     (BOTH, Mode.PUBLISHED, 7.5), (BOTH, Mode.CORRECTED, 3.75)):
            assert filtered_prime_prob(75, policy, mode) == base_prime_prob(75) * factor

    def test_six_digit_corrected_value(self):
        assert math.isclose(filtered_prime_prob(6, BOTH, Mode.CORRECTED), 0.2654, rel_tol=1e-3)

    @pytest.mark.parametrize("digits", [4, 5, 6])
    def test_corrected_is_realistic_published_overshoots(self, digits, pi_exact):
        exact_density = digit_prime_count_exact(digits, pi_exact) / (24 * 10 ** (digits - 2))
        corrected = filtered_prime_prob(digits, BOTH, Mode.CORRECTED)
        published = filtered_prime_prob(digits, BOTH, Mode.PUBLISHED)
        corrected_err = abs(corrected - exact_density) / exact_density
        published_err = abs(published - exact_density) / exact_density
        assert corrected_err < 0.15
        assert corrected_err < published_err

    def test_domain_error(self):
        with pytest.raises(ValueError):
            filtered_prime_prob(1, BOTH)

