import dataclasses
import json
import math
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from primegen import experiment, primality
from primegen.confidence import bayes_confidence, rounds_for_confidence
from primegen.density import Mode, filtered_prime_prob
from primegen.errors import RefusalError
from primegen.experiment import (
    ExperimentConfig,
    ExperimentRecord,
    ExperimentSummary,
    generate_prime,
    render_report,
    render_rows,
    run_experiment,
)
from primegen.primality import ExactOutcome, miller_rabin, trial_division
from primegen.primality import TestVerdict as Verdict
from primegen.sampling import Candidate, FilterPolicy, make_stream

BOTH = FilterPolicy.BOTH


def small_config(**overrides):
    base = dict(digits=6, count=50, rounds=10, seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_deterministic_records(self):
        first, summary_a = run_experiment(small_config())
        second, summary_b = run_experiment(small_config())
        assert [r.candidate.n for r in first] == [r.candidate.n for r in second]
        assert [r.label for r in first] == [r.label for r in second]
        assert summary_a == summary_b

    def test_record_invariants(self):
        config = small_config(count=200)
        records, summary = run_experiment(config)
        assert len(records) == 200
        assert [f.name for f in dataclasses.fields(ExperimentRecord)] == ["candidate", "verdict"]
        csv_rows = render_report(records, "csv", summary).splitlines()[1:]
        json_rows = json.loads(render_report(records, "json", summary))["records"]
        for r, csv_row, json_row in zip(records, csv_rows, json_rows, strict=True):
            assert math.gcd(r.candidate.n, BOTH.wheel) == 1
            # a record holds no bound: each PRIME row shows the summary's, each COMPOSITE row none
            if r.verdict.is_probable_prime:
                assert r.rounds_used == config.rounds
                assert csv_row.endswith(f",{summary.confidence_lower_bound:.9f}")
                assert json_row["confidence_lower_bound"] == summary.confidence_lower_bound
            else:
                assert r.rounds_used <= config.rounds
                assert csv_row.endswith(",")
                assert json_row["confidence_lower_bound"] is None
        assert summary.prime_count == sum(r.verdict.is_probable_prime for r in records)

    def test_summary_expectation_and_bound(self):
        config = small_config(mode=Mode.PUBLISHED)
        _, summary = run_experiment(config)
        prior = filtered_prime_prob(6, BOTH, Mode.PUBLISHED)
        assert summary.expected_primes == pytest.approx(config.count * prior)
        assert summary.confidence_lower_bound == pytest.approx(bayes_confidence(prior, 10).lower_bound)

    def test_verdicts_match_exact_oracle_at_six_digits(self):
        records, _ = run_experiment(small_config(count=10**4, seed=500))
        for r in records:
            exact = trial_division(r.candidate.n).outcome is ExactOutcome.PRIME
            assert r.verdict.is_probable_prime == exact

    def test_pooled_prime_fraction_matches_exact_density(self):
        # exact 6-digit filtered density is 68906/240000
        hits = total = 0
        for seed in range(20):
            records, _ = run_experiment(ExperimentConfig(digits=6, count=500, rounds=10, seed=seed))
            hits += sum(r.verdict.is_probable_prime for r in records)
            total += len(records)
        density = 68906 / 240000
        sigma = math.sqrt(density * (1 - density) / total)
        assert abs(hits / total - density) <= 3 * sigma

    def test_unfiltered_policy_matches_exact_oracle(self):
        records, _ = run_experiment(small_config(count=500, policy=FilterPolicy.NONE))
        even = [r for r in records if r.candidate.n % 2 == 0]
        assert even
        for r in even:
            assert (r.verdict.factor, r.verdict.witness, r.rounds_used) == (2, None, 0)
        for r in records:
            exact = trial_division(r.candidate.n).outcome is ExactOutcome.PRIME
            assert r.verdict.is_probable_prime == exact

    def test_config_validation(self, monkeypatch):
        def draw(*args):
            raise AssertionError("candidate drawn before the config was checked")

        monkeypatch.setattr(experiment, "random_candidate", draw)
        for kwargs in (dict(digits=1), dict(count=0), dict(rounds=0)):
            config = small_config(**kwargs)  # plain data: run_experiment owns the checks
            with pytest.raises(ValueError):
                run_experiment(config)

    def test_config_defaults_to_both_filters(self):
        assert ExperimentConfig(5, 1, 1, 0).policy is FilterPolicy.BOTH


class TestGeneratePrime:
    def test_six_digit_output_is_prime_by_oracle(self):
        result = generate_prime(6, 0.99, seed=21)
        assert trial_division(result.value).outcome is ExactOutcome.PRIME
        assert result.confidence.lower_bound >= 0.99
        assert result.attempts >= 1

    def test_seventy_five_digit_postconditions(self):
        result = generate_prime(75, 0.999, seed=5)
        assert len(str(result.value)) == 75
        assert result.value % 10 in (1, 3, 7, 9)
        assert math.gcd(result.value, BOTH.wheel) == 1
        assert result.confidence.lower_bound >= 0.999
        assert miller_rabin(result.value, 15, make_stream(None)).is_probable_prime

    @pytest.mark.parametrize("policy", list(FilterPolicy))
    def test_prior_is_the_drawn_pools(self, policy):
        result = generate_prime(20, 0.999, seed=3, policy=policy)
        assert result.confidence.prior_p == filtered_prime_prob(20, policy)
        assert result.confidence.lower_bound >= 0.999

    def test_617_digit_rounds_meet_the_target_for_the_drawn_pool(self):
        # the published prior (gain 7.5 in place of 30/8) would stop at 9
        # rounds, a bound of only 0.998558 for the pool actually drawn
        assert rounds_for_confidence(filtered_prime_prob(617, BOTH), 0.999) == 10
        assert rounds_for_confidence(filtered_prime_prob(617, BOTH, Mode.PUBLISHED), 0.999) == 9

    def test_unseeded_generation(self):
        result = generate_prime(12, 0.999999)
        assert len(str(result.value)) == 12
        assert trial_division(result.value).outcome is ExactOutcome.PRIME

    def test_deterministic_for_fixed_seed(self):
        a = generate_prime(20, 0.999, seed=77)
        b = generate_prime(20, 0.999, seed=77)
        assert (a.value, a.attempts, a.rounds) == (b.value, b.attempts, b.rounds)

    def test_adjacent_seeds_give_different_primes(self):
        assert generate_prime(75, 0.999, seed=2).value != generate_prime(75, 0.999, seed=3).value

    def test_small_factor_screen_changes_no_seeded_result(self, monkeypatch):
        def outcome(digits, seed):
            r = generate_prime(digits, 0.999, seed=seed)
            return r.value, r.attempts, r.rounds, r.confidence.lower_bound

        cases = [(digits, seed) for digits in (20, 75, 100) for seed in range(20)]
        screened = [outcome(*case) for case in cases]
        monkeypatch.setattr(experiment, "has_small_factor", lambda n: False)
        assert [outcome(*case) for case in cases] == screened

    def test_small_digit_sizes_around_the_screen_bound(self):
        # 2- and 3-digit candidates all lie below the screen bound; 4-digit ones straddle it
        values = []
        for digits in (2, 3, 4):
            for seed in range(30):
                result = generate_prime(digits, 1 - 1e-9, seed=seed)
                assert len(str(result.value)) == digits
                assert trial_division(result.value).outcome is ExactOutcome.PRIME
                values.append(result.value)
        assert any(1000 <= v <= primality.SMALL_PRIME_BOUND for v in values)
        assert any(v > primality.SMALL_PRIME_BOUND for v in values)

    def test_unfiltered_policy_below_the_screen_bound(self):
        # even candidates up to SMALL_PRIME_BOUND pass the screen and must be skipped
        for digits in (2, 3, 4):
            for seed in range(1, 21):
                result = generate_prime(digits, 0.999, seed=seed, policy=FilterPolicy.NONE)
                assert len(str(result.value)) == digits
                assert trial_division(result.value).outcome is ExactOutcome.PRIME

    def test_draws_uniformly_from_the_pools_primes(self, uniform_p_value):
        # Sample and threshold were fixed before the first run; never re-seed to pass.
        # 2860 seeds, 20 per three-digit prime: each value is one of them, and the
        # counts fail at a chi-square p-value below 1e-3.
        primes = [n for n in range(100, 1000) if trial_division(n).outcome is ExactOutcome.PRIME]
        assert len(primes) == 143
        index = {p: i for i, p in enumerate(primes)}
        values = [generate_prime(3, 0.999, seed=seed).value for seed in range(2860)]
        assert set(values) <= set(primes)
        assert uniform_p_value([index[v] for v in values], len(primes)) > 1e-3

    def test_attempt_cap_refuses(self, monkeypatch):
        monkeypatch.setattr(experiment, "MAX_ATTEMPTS", 0)
        with pytest.raises(RefusalError):
            generate_prime(6, 0.99, seed=3)

    def test_validation(self, monkeypatch):
        def draw(*args):
            raise AssertionError("candidate drawn before the arguments were checked")

        monkeypatch.setattr(experiment, "random_candidate", draw)
        with pytest.raises(ValueError):
            generate_prime(1, 0.9, seed=0)
        for target in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError):
                generate_prime(6, target, seed=0)


def _fake_records():
    prime = ExperimentRecord(candidate=Candidate(101, 3), verdict=Verdict(rounds_survived=10))
    composite = ExperimentRecord(candidate=Candidate(561, 3), verdict=Verdict(witness=2, rounds_survived=0))
    return [prime, composite]


SUMMARY = ExperimentSummary(digits=3, count=2, rounds=10, seed=0, policy="both", mode="corrected",
                            prime_count=1, expected_primes=0.5, confidence_lower_bound=0.99997)


class TestRenderReport:
    def test_table_two_lines(self):
        text = render_report(_fake_records(), "table", SUMMARY)
        assert text.splitlines() == ["101 PRIME", "561 COMPOSITE", "", *(f"{k}: {v}" for k, v in SUMMARY.fields())]

    def test_csv_header_and_rows(self):
        lines = render_report(_fake_records(), "csv", SUMMARY).splitlines()
        assert lines[0] == "number,verdict,rounds_used,confidence_lower_bound"
        assert lines[1] == "101,PRIME,10,0.999970000"
        assert lines[2] == "561,COMPOSITE,1,"

    def test_json_structure(self):
        payload = json.loads(render_report(_fake_records(), "json", SUMMARY))
        assert [r["number"] for r in payload["records"]] == [101, 561]
        assert payload["records"][0]["verdict"] == "PRIME"
        assert list(payload["summary"]) == [f.name for f in dataclasses.fields(ExperimentSummary)]

    def test_full_decimal_rendering_of_big_numbers(self):
        records, summary = run_experiment(ExperimentConfig(digits=75, count=3, rounds=5, seed=9))
        text = render_report(records, "table", summary)
        first_number = text.splitlines()[0].split()[0]
        assert len(first_number) == 75
        assert "e" not in first_number and "E" not in first_number

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(_fake_records(), "yaml", SUMMARY)

    def test_json_is_json_dumps_with_indent(self):
        # 2500 records span three chunks of experiment.JSON_CHUNK_ROWS
        for config in (ExperimentConfig(digits=75, count=20, rounds=5, seed=9),
                       ExperimentConfig(digits=12, count=2500, rounds=3, seed=5)):
            records, summary = run_experiment(config)
            bound = summary.confidence_lower_bound
            payload = {
                "records": [dict(zip(experiment.CSV_HEADER, (r.candidate.n, r.label, r.rounds_used,
                                                             bound if r.label == "PRIME" else None))) for r in records],
                "summary": summary.__dict__,
            }
            assert render_report(records, "json", summary) == json.dumps(payload, indent=2)


# text with quotes, backslashes, NUL and other control characters, non-ASCII characters and braces
texts = st.text(st.one_of(st.sampled_from('"\\\0\n\t\x1f{}é€😀'), st.characters()), max_size=8)
cells = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**400), 10**400), texts,
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-05]),
)


class TestJsonRows:
    """render_rows' json against json.dumps with indent=2, the layout it must reproduce,
    with two rows per _json_rows call so that short lists cross chunk seams."""

    @given(header=st.lists(texts, min_size=1, max_size=5, unique=True), data=st.data())
    def test_matches_json_dumps(self, header, data):
        rows = data.draw(st.lists(st.lists(cells, min_size=len(header), max_size=len(header)), max_size=7))
        objects = [dict(zip(header, row)) for row in rows]
        with mock.patch.object(experiment, "JSON_CHUNK_ROWS", 2):
            assert "".join(render_rows(header, rows, "json")) == json.dumps(objects, indent=2)
            # depth 1, inside an object: the key keeps its place in the object, or comes last
            assert "".join(render_rows(header, rows, "json", ({"rows": None, "n": 2}, "rows"))) == json.dumps(
                {"rows": objects, "n": 2}, indent=2)
            assert "".join(render_rows(header, rows, "json", ({"n": 2}, "rows"))) == json.dumps(
                {"n": 2, "rows": objects}, indent=2)

    def test_no_rows_is_an_empty_array(self):
        assert "".join(render_rows(["a"], [], "json")) == "[]"
        assert "".join(render_rows(["a"], iter(()), "json", ({"n": 2}, "rows"))) == json.dumps({"n": 2, "rows": []}, indent=2)
