import math

import pytest

from primegen.confidence import bayes_confidence, rounds_for_confidence

FILTERED_PRIOR = 0.043364243  # 75 digits, both filters, published density factor
UNFILTERED_PRIOR = 0.005781899


class TestBayesConfidence:
    def test_unfiltered_reference_values(self):
        report = bayes_confidence(UNFILTERED_PRIOR, 4)
        assert abs(report.ratio - 171.9535573) <= 1e-7
        assert abs(report.lower_bound - 0.3283064) <= 1e-5

    def test_filtered_prior_exact_formula_values(self):
        # (1 - p)/p for the filtered prior; the circulated 10-digit reference
        # value 22.66047407 overstates this by exactly 0.6 (and drags
        # 0.911482523 with it), so the formula values are pinned here
        report = bayes_confidence(FILTERED_PRIOR, 4)
        assert abs(report.ratio - 22.060474041) <= 1e-7
        assert abs(report.lower_bound - 0.913826273) <= 1e-7

    def test_ten_rounds_reference_bound(self):
        report = bayes_confidence(FILTERED_PRIOR, 10)
        assert abs(report.lower_bound - 0.999978) <= 5e-6

    def test_even_prior_single_round(self):
        report = bayes_confidence(0.5, 1)
        assert report.ratio == 1.0
        assert report.lower_bound == 0.75

    def test_report_identities(self):
        report = bayes_confidence(0.3, 5)
        assert report.prior_p + report.prior_c == pytest.approx(1.0)
        assert report.lower_bound == pytest.approx(1.0 - report.slack)
        assert report.slack == pytest.approx(report.ratio / 4**5)

    def test_negative_lower_bound_reported_verbatim(self):
        report = bayes_confidence(1e-9, 1)
        assert report.lower_bound < 0
        assert 0 < report.exact_posterior < 1

    def test_lower_bound_never_exceeds_exact_posterior(self):
        # mathematically lower < exact < 1; the gap is slack^2/(1+slack)
        # and the distance to 1 is ~slack, both of which can fall below
        # one ulp in double precision, hence the epsilon and the <=
        for prior in (1e-9, 1e-4, 0.005781899, 0.043364243, 0.3, 0.9):
            for rounds in range(1, 31):
                report = bayes_confidence(prior, rounds)
                assert report.lower_bound <= report.exact_posterior + 1e-15
                assert report.exact_posterior <= 1.0
                assert report.lower_bound <= 1.0

    def test_monotone_in_rounds_and_prior(self):
        # strict growth until the bound saturates at 1.0 in double precision
        priors = (1e-4, 0.005781899, 0.043364243, 0.2, 0.5, 0.9)
        for prior in priors:
            bounds = [bayes_confidence(prior, m).lower_bound for m in range(1, 31)]
            assert all(a < b or b == 1.0 for a, b in zip(bounds, bounds[1:]))
            assert all(a <= b for a, b in zip(bounds, bounds[1:]))
        for rounds in (1, 4, 10, 20):
            bounds = [bayes_confidence(p, rounds).lower_bound for p in priors]
            assert all(a < b or b == 1.0 for a, b in zip(bounds, bounds[1:]))

    def test_domain_errors(self):
        for prior in (0.0, 1.0, -0.2, 1.5, 1e-320):
            with pytest.raises(ValueError):
                bayes_confidence(prior, 4)
        with pytest.raises(ValueError):
            bayes_confidence(0.5, 0)


class TestRoundsForConfidence:
    def test_reference_cases(self):
        assert rounds_for_confidence(FILTERED_PRIOR, 0.9) == 4
        assert rounds_for_confidence(FILTERED_PRIOR, 0.999978) == 10
        assert rounds_for_confidence(0.5, 0.75) == 1

    def test_three_rounds_fall_short_of_90_percent(self):
        assert bayes_confidence(FILTERED_PRIOR, 3).lower_bound < 0.9
        assert bayes_confidence(FILTERED_PRIOR, 4).lower_bound >= 0.9

    def test_inverse_property_on_grid(self):
        for prior in (1e-300, 1e-4, 0.0057, 0.0433, 0.2, 0.7):
            for target in (0.5, 0.9, 0.99, 0.9999, 0.999999, 1 - 1e-15, 0.9999999999999999):
                m = rounds_for_confidence(prior, target)
                assert bayes_confidence(prior, m).lower_bound >= target
                if m > 1:
                    assert bayes_confidence(prior, m - 1).lower_bound < target

    def test_equals_the_report_based_search(self):
        def by_report(prior, target):
            m = 1
            while bayes_confidence(prior, m).lower_bound < target:
                m += 1
            return m

        for prior in (1e-300, 1e-100, 1e-9, 1e-4, 0.0057, 0.0163, 0.0433, 0.2, 0.5, 0.7, 0.9, 0.999):
            for target in (0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 0.999999, 1 - 1e-9, 1 - 1e-12, 1 - 1e-15,
                           0.9999999999999999):
                assert rounds_for_confidence(prior, target) == by_report(prior, target), (prior, target)

    def test_matches_closed_form(self):
        for prior in (0.01, 0.043364243, 0.5):
            for target in (0.9, 0.999):
                ratio = (1 - prior) / prior
                closed = max(1, math.ceil(math.log(ratio / (1 - target), 4)))
                assert rounds_for_confidence(prior, target) == closed

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rounds_for_confidence(0.0, 0.9)
        with pytest.raises(ValueError):
            rounds_for_confidence(0.4, 1.0)
