import math

import pytest

from primegen.density import (
    LN10,
    Mode,
    base_prime_prob,
    digit_prime_count,
    digit_prime_count_bounds,
    digit_prime_mantissas,
    dusart_bounds,
    filter_factor,
    filtered_prime_prob,
    pnt_estimate,
)
from primegen.sampling import FilterPolicy

BOTH = FilterPolicy.BOTH
NONE = FilterPolicy.NONE
LAST = FilterPolicy.LAST_DIGIT


def digit_prime_count_exact(k: int, pi_exact) -> int:
    return pi_exact(10**k) - pi_exact(10 ** (k - 1))


class TestPntEstimate:
    def test_one_million(self, pi_exact):
        est = float(pnt_estimate(10**6))
        assert math.isclose(est, 1e6 / (6 * LN10), rel_tol=1e-12)
        assert math.isclose(est, 72382.41365, rel_tol=1e-9)
        ratio = est / pi_exact(10**6)
        assert 0.92 < ratio < 0.925

    def test_fixed_point_when_log_is_one(self):
        x = math.e
        assert math.isclose(float(pnt_estimate(x)), x, rel_tol=1e-12)

    def test_huge_argument_is_log_safe(self):
        est = pnt_estimate(10**75)
        assert math.isclose(float(est), 1e75 / (75 * LN10), rel_tol=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            pnt_estimate(1)


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
    def test_values_at_1e5(self, pi_exact):
        lower, upper = dusart_bounds(10**5)
        assert math.isclose(float(lower), 1e5 / (5 * LN10 - 1.0), rel_tol=1e-12)
        assert math.isclose(float(upper), 1e5 / (5 * LN10 - 1.1), rel_tol=1e-12)
        assert float(lower) < pi_exact(10**5) < float(upper)

    @pytest.mark.parametrize("exponent", [5, 6, 7])
    def test_brackets_true_pi(self, exponent, pi_exact):
        lower, upper = dusart_bounds(10**exponent)
        true_pi = pi_exact(10**exponent)
        assert float(lower) < true_pi < float(upper)

    def test_ordering_at_validity_edge(self):
        lower, upper = dusart_bounds(60184)
        assert lower < upper

    def test_domain_error(self):
        with pytest.raises(ValueError):
            dusart_bounds(60183)


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
        # differences of the definitions
        for k in range(6, 41):
            (top_low, top_up), (bot_low, bot_up) = dusart_bounds(10**k), dusart_bounds(10 ** (k - 1))
            assert digit_prime_count(k) == pnt_estimate(10**k) - pnt_estimate(10 ** (k - 1))
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
        assert filter_factor(NONE) == 1.0
        assert filter_factor(LAST) == 2.5
        assert filter_factor(BOTH, Mode.PUBLISHED) == 7.5
        assert filter_factor(BOTH, Mode.CORRECTED) == 3.75

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


@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("estimate", [pnt_estimate, dusart_bounds])
def test_non_finite_argument_is_domain_error(estimate, x):
    with pytest.raises(ValueError):
        estimate(x)
