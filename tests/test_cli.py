import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from primegen import arith, cli, experiment, primality, pseudolab
from primegen.cli import build_parser, main
from primegen.sampling import FilterPolicy


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDensityCommand:
    def test_csv_row_is_parseable_and_consistent(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--digits", "75", "--policy", "both", "--mode", "published", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["digits"] == "75"
        assert float(fields["pool_size"]) == pytest.approx(24e73, rel=1e-9)
        assert float(fields["filtered_prob"]) == pytest.approx(7.5 * float(fields["base_prob"]), rel=1e-6)

    def test_range_table_skips_bounds_below_six_digits(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--digits", "2-6", "--format", "table")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6  # header + 5 rows
        assert "dusart_lower" in lines[0]
        row2 = lines[1].split()
        row6 = lines[5].split()
        assert len(row2) == 5  # empty bound columns collapse in table mode
        assert len(row6) == 7

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--digits", "6-7", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["mode"] == "corrected"
        assert [row["digits"] for row in payload["rows"]] == [6, 7]

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "density", "--digits", "9-2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("digits", ["4301", "2-4301", "1000000"])
    def test_oversized_table_refused_before_any_row(self, capsys, monkeypatch, digits):
        def counts(lo, hi):
            raise AssertionError(f"rows {lo}-{hi} computed before the refusal")
            yield

        monkeypatch.setattr(cli, "digit_prime_counts", counts)
        code, out, err = run_cli(capsys, "density", "--digits", digits)
        assert code == 3
        assert out == "" and "refused" in err

    def test_published_density_above_one_noted_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, *"density --digits 2-4 --mode published --format csv".split())
        assert code == 0
        assert out == (
            "digits,pool_size,prime_count_estimate,dusart_lower,dusart_upper,base_prob,filtered_prob\n"
            "2,2.400000000e+1,1.737177928e+1,,,0.193019770,1.447648273\n"
            "3,2.400000000e+2,1.230501032e+2,,,0.136722337,1.025417527\n"
            "4,2.400000000e+3,0.940971377e+3,,,0.104552375,0.784142815\n"
        )
        assert err.startswith("note: filtered_prob >= 1 at 2, 3 digits;") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", ["2-4 --mode corrected", "4-6 --mode published"])
    def test_no_note_when_every_prob_is_below_one(self, capsys, argv):
        code, _, err = run_cli(capsys, "density", "--digits", *argv.split())
        assert code == 0 and err == ""


class TestConfidenceCommand:
    def test_explicit_prior_reference_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "confidence", "--prior", "0.005781899", "--rounds", "4", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["ratio"]) == pytest.approx(171.9535573, abs=1e-7)
        assert float(fields["lower_bound"]) == pytest.approx(0.3283064, abs=1e-5)

    def test_rounds_for_target_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "confidence",
            "--digits", "75", "--policy", "both", "--mode", "published",
            "--rounds", "4", "--target-confidence", "0.999978", "--format", "csv",
        )
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert code == 0
        assert fields["rounds_for_target"] == "10"

    def test_negative_bound_rendered_as_uninformative(self, capsys):
        code, out, _ = run_cli(capsys, "confidence", "--prior", "1e-9", "--rounds", "1")
        assert code == 0
        assert "lower_bound: < 0 (uninformative)" in out

    def test_out_of_range_prior_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "confidence", "--prior", "1.5", "--rounds", "4")
        assert code == 2
        assert "error" in err

    def test_prior_whose_odds_overflow_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "confidence", "--prior", "1e-320", "--rounds", "1")
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_rounds_for_target_at_huge_prior_odds(self, capsys):
        code, out, _ = run_cli(
            capsys, "confidence", "--prior", "1e-300", "--rounds", "1", "--target-confidence", "0.999999999999999"
        )
        assert code == 0
        assert out.splitlines()[-1] == "rounds_for_target: 524"


class TestTestCommand:
    def test_fermat_false_positive_is_flagged(self, capsys):
        # base 139 is a Fermat liar for 561 but an Euler (and strong) witness
        code, out, _ = run_cli(capsys, "test", "561", "--rounds", "1", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "trial_division: COMPOSITE (smallest factor 3)"
        assert lines[1].startswith("fermat[m=1]: PROBABLE_PRIME") and "false positive" in lines[1]
        assert lines[2] == "euler[m=1]: COMPOSITE (witness 139)"
        assert lines[3] == "miller_rabin[m=1]: COMPOSITE (witness 139)"

    def test_prime_input(self, capsys):
        code, out, _ = run_cli(capsys, "test", "97", "--rounds", "5", "--seed", "0")
        assert code == 0
        assert "trial_division: PRIME" in out
        assert out.count("PROBABLE_PRIME") == 3
        assert "false positive" not in out

    def test_unseeded_prime_input(self, capsys):
        code, out, _ = run_cli(capsys, "test", "97", "--rounds", "5")
        assert code == 0
        assert out.splitlines()[1:] == [f"{t}[m=5]: PROBABLE_PRIME" for t in ("fermat", "euler", "miller_rabin")]

    def test_even_input_skips_probabilistic_tests(self, capsys):
        code, out, err = run_cli(capsys, "test", "100", "--seed", "0")
        assert code == 0
        assert "COMPOSITE (smallest factor 2)" in out
        assert "skipped" in err

    def test_oracle_skipped_above_bound(self, capsys):
        big = 10**13 + 7  # odd, above the exact-oracle bound
        code, out, err = run_cli(capsys, "test", str(big), "--rounds", "5", "--seed", "3")
        assert code == 0
        assert "trial_division" not in out
        assert "skipped" in err

    def test_round_count_above_the_cap_refused_before_any_chain(self, capsys, monkeypatch):
        def chain(n, a):
            raise AssertionError("chain built before the refusal")

        monkeypatch.setattr(primality, "_chain", chain)
        rounds = str(cli.TEST_ROUND_CAP + 1)
        code, out, err = run_cli(capsys, "test", "170141183460469231731687303715884105727", "--rounds", rounds)
        assert code == 3
        assert out == "" and err.startswith("refused: ")

    def test_round_count_at_the_cap_runs(self, capsys):
        code, out, _ = run_cli(capsys, "test", "97", "--rounds", str(cli.TEST_ROUND_CAP), "--seed", "0")
        assert code == 0
        assert out.count(f"[m={cli.TEST_ROUND_CAP}]: PROBABLE_PRIME") == 3


class TestExperimentCommand:
    def test_byte_identical_runs(self, capsys):
        args = ("experiment", "--digits", "20", "--count", "30", "--rounds", "8", "--seed", "99")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_adjacent_seeds_share_no_candidates(self, capsys):
        numbers = []
        for seed in ("0", "1"):
            code, out, _ = run_cli(capsys, "experiment", "--digits", "75", "--count", "100", "--rounds", "10",
                                   "--seed", seed)
            assert code == 0
            numbers.append({line.split()[0] for line in out.splitlines()[:100]})
        assert len(numbers[0]) == len(numbers[1]) == 100
        assert not numbers[0] & numbers[1]

    def test_table_format_matches_figure_layout(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--digits", "75", "--count", "10", "--rounds", "10",
            "--seed", "4", "--mode", "published",
        )
        assert code == 0
        lines = out.splitlines()
        for line in lines[:10]:
            number, label = line.split()
            assert len(number) == 75
            assert label in ("PRIME", "COMPOSITE")
        assert any(line.startswith("confidence_lower_bound:") for line in lines)

    def test_csv_format_sends_summary_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "experiment", "--digits", "8", "--count", "5", "--rounds", "6",
            "--seed", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "number,verdict,rounds_used,confidence_lower_bound"
        assert len(lines) == 6
        assert "probable_primes:" in err

    def test_json_format_has_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--digits", "8", "--count", "5", "--rounds", "6",
            "--seed", "2", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert len(payload["records"]) == 5
        assert payload["summary"]["seed"] == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, err = run_cli(
            capsys, "experiment", "--digits", "8", "--count", "4", "--rounds", "5",
            "--seed", "6", "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("number,verdict")

    def test_unwritable_out_path_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "experiment", "--digits", "8", "--count", "4", "--seed", "6",
                                 "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not target.exists()

    def test_unfiltered_policy_tests_even_candidates(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--policy", "none", "--digits", "5", "--count", "5",
                               "--seed", "1")
        assert code == 0
        assert any(int(line.split()[0]) % 2 == 0 for line in out.splitlines()[:5])

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "--digits", "1", "--count", "5", "--rounds", "5", "--seed", "0")
        assert code == 2
        assert "error" in err


class TestGenerateCommand:
    def test_output_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--digits", "12", "--target-confidence", "0.999", "--seed", "8"
        )
        assert code == 0
        lines = out.splitlines()
        value = int(lines[0])
        assert len(str(value)) == 12
        fields = dict(line.split(": ") for line in lines[1:])
        assert float(fields["confidence_lower_bound"]) >= 0.999
        assert int(fields["attempts"]) >= 1


    def test_unfiltered_policy_below_the_screen_bound(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--policy", "none", "--digits", "4", "--seed", "2")
        assert code == 0
        value = int(out.splitlines()[0])
        assert all(value % p for p in range(2, 100))  # exact for values below 100^2


class TestLabCommand:
    def test_census_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "lab", "census", "--start", "9", "--end", "15")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,total_bases,fermat_liars,euler_liars,strong_liars"
        assert lines[1] == "9,8,2,2,2"
        assert lines[2] == "15,14,4,2,2"

    def test_census_json(self, capsys):
        code, out, _ = run_cli(capsys, "lab", "census", "--start", "9", "--end", "9", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload == [{"n": 9, "total_bases": 8, "fermat_liars": 2, "euler_liars": 2, "strong_liars": 2}]

    def test_carmichael_listing(self, capsys):
        code, out, _ = run_cli(capsys, "lab", "carmichael", "--limit", "3000")
        assert code == 0
        assert out.split() == ["561", "1105", "1729", "2465", "2821"]

    def test_pseudoprime_listing(self, capsys):
        code, out, _ = run_cli(capsys, "lab", "pseudoprimes", "--base", "2", "--limit", "600")
        assert code == 0
        assert out.split() == ["341", "561"]

    def test_sqrt_of_unity(self, capsys):
        code, out, _ = run_cli(capsys, "lab", "sqrt-of-unity", "15")
        assert code == 0
        assert out.strip() == "1 4 11 14"

    def test_absolute_euler(self, capsys):
        code, out, _ = run_cli(capsys, "lab", "absolute-euler", "1729")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run_cli(capsys, "lab", "absolute-euler", "561")
        assert code == 0 and out.strip() == "false"

    def test_refusal_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "lab", "carmichael", "--limit", str(10**8))
        assert code == 3
        assert "refused" in err

    def test_oversized_census_refused_before_any_row(self, capsys, monkeypatch):
        def census(n):
            raise AssertionError(f"census of {n} computed before the refusal")

        monkeypatch.setattr(pseudolab, "liar_census", census)
        code, out, err = run_cli(capsys, "lab", "census", "--start", "999001", "--end", "1000001")
        assert code == 3
        assert out == "" and "refused" in err

    def test_costly_census_below_the_cap_refused_before_any_row(self, capsys, monkeypatch):
        def census(n):
            raise AssertionError(f"census of {n} computed before the refusal")

        monkeypatch.setattr(pseudolab, "liar_census", census)
        code, out, err = run_cli(capsys, "lab", "census", "--start", "9", "--end", "1000000")
        assert code == 3
        assert out == "" and "refused" in err


class TestParser:
    def test_unknown_command_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_policy_choices_are_the_filter_policies(self):
        commands = next(a for a in build_parser()._actions if a.dest == "command").choices
        for name in ("generate", "experiment", "density", "confidence"):
            policy = next(a for a in commands[name]._actions if a.dest == "policy")
            assert policy.choices == sorted(p.label for p in FilterPolicy)


# Published mode doubles the both-filters factor, so its 2- and 3-digit
# priors are 1.45 and 1.03: no Bayes bound exists, and the command must
# say so before it draws a candidate.
@pytest.mark.parametrize("digits", ["2", "3"])
@pytest.mark.parametrize("command", ["generate", "experiment", "confidence"])
def test_published_prior_above_one_is_usage_error(capsys, monkeypatch, command, digits):
    def draw(*args):
        raise AssertionError("candidate drawn before the prior was checked")

    monkeypatch.setattr(experiment, "random_candidate", draw)
    code, out, err = run_cli(capsys, command, "--digits", digits, "--mode", "published")
    assert code == 2
    assert out == "" and "prior must be in (0, 1)" in err


# CLI stdout bytes are part of the behaviour contract. These commands run all
# three round tests through their drivers, the liar census, and every report
# renderer: tables with padded and empty columns, csv, json and key: value lines.
GOLDEN = {
    "test 561 --rounds 3 --seed 1": """\
trial_division: COMPOSITE (smallest factor 3)
fermat[m=3]: COMPOSITE (witness 66, factor 33)
euler[m=3]: COMPOSITE (witness 139)
miller_rabin[m=3]: COMPOSITE (witness 139)
""",
    "test 2047 --rounds 10 --seed 5": """\
trial_division: COMPOSITE (smallest factor 23)
fermat[m=10]: COMPOSITE (witness 1277)
euler[m=10]: COMPOSITE (witness 1277)
miller_rabin[m=10]: COMPOSITE (witness 1277)
""",
    "test 99991 --rounds 10 --seed 1": """\
trial_division: PRIME
fermat[m=10]: PROBABLE_PRIME
euler[m=10]: PROBABLE_PRIME
miller_rabin[m=10]: PROBABLE_PRIME
""",
    "test 170141183460469231731687303715884105727 --rounds 10 --seed 2": """\
fermat[m=10]: PROBABLE_PRIME
euler[m=10]: PROBABLE_PRIME
miller_rabin[m=10]: PROBABLE_PRIME
""",
    "lab census --start 551 --end 651": """\
n,total_bases,fermat_liars,euler_liars,strong_liars
551,550,4,2,2
553,552,36,36,18
555,554,8,2,2
559,558,36,18,18
561,560,320,160,10
565,564,16,8,6
567,566,4,2,2
573,572,4,4,2
575,574,4,2,2
579,578,4,2,2
581,580,4,4,2
583,582,4,2,2
585,584,32,32,2
589,588,36,36,18
591,590,4,2,2
595,594,24,6,6
597,596,4,4,2
603,602,4,2,2
605,604,8,4,2
609,608,16,16,2
611,610,4,2,2
615,614,8,2,2
621,620,4,4,2
623,622,4,2,2
625,624,4,4,4
627,626,8,2,2
629,628,16,8,6
633,632,4,4,2
635,634,4,2,2
637,636,72,36,18
639,638,4,2,2
645,644,112,56,14
649,648,4,4,2
651,650,40,10,10
""",
    "lab census --start 551 --end 651 --format json": """\
[
  {
    "n": 551,
    "total_bases": 550,
    "fermat_liars": 4,
    "euler_liars": 2,
    "strong_liars": 2
  },
  {
    "n": 553,
    "total_bases": 552,
    "fermat_liars": 36,
    "euler_liars": 36,
    "strong_liars": 18
  },
  {
    "n": 555,
    "total_bases": 554,
    "fermat_liars": 8,
    "euler_liars": 2,
    "strong_liars": 2
  },
  {
    "n": 559,
    "total_bases": 558,
    "fermat_liars": 36,
    "euler_liars": 18,
    "strong_liars": 18
  },
  {
    "n": 561,
    "total_bases": 560,
    "fermat_liars": 320,
    "euler_liars": 160,
    "strong_liars": 10
  },
  {
    "n": 565,
    "total_bases": 564,
    "fermat_liars": 16,
    "euler_liars": 8,
    "strong_liars": 6
  },
  {
    "n": 567,
    "total_bases": 566,
    "fermat_liars": 4,
    "euler_liars": 2,
    "strong_liars": 2
  },
  {
    "n": 573,
    "total_bases": 572,
    "fermat_liars": 4,
    "euler_liars": 4,
    "strong_liars": 2
  },
  {
    "n": 575,
    "total_bases": 574,
    "fermat_liars": 4,
    "euler_liars": 2,
    "strong_liars": 2
  },
  {
    "n": 579,
    "total_bases": 578,
    "fermat_liars": 4,
    "euler_liars": 2,
    "strong_liars": 2
  },
  {
    "n": 581,
    "total_bases": 580,
    "fermat_liars": 4,
    "euler_liars": 4,
    "strong_liars": 2
  },
  {
    "n": 583,
    "total_bases": 582,
    "fermat_liars": 4,
    "euler_liars": 2,
    "strong_liars": 2
  },
  {
    "n": 585,
    "total_bases": 584,
    "fermat_liars": 32,
    "euler_liars": 32,
    "strong_liars": 2
  },
  {
    "n": 589,
    "total_bases": 588,
    "fermat_liars": 36,
    "euler_liars": 36,
    "strong_liars": 18
  },
  {
    "n": 591,
    "total_bases": 590,
    "fermat_liars": 4,
    "euler_liars": 2,
    "strong_liars": 2
  },
  {
    "n": 595,
    "total_bases": 594,
    "fermat_liars": 24,
    "euler_liars": 6,
    "strong_liars": 6
  },
  {
    "n": 597,
    "total_bases": 596,
    "fermat_liars": 4,
    "euler_liars": 4,
    "strong_liars": 2
  },
  {
    "n": 603,
    "total_bases": 602,
    "fermat_liars": 4,
    "euler_liars": 2,
    "strong_liars": 2
  },
  {
    "n": 605,
    "total_bases": 604,
    "fermat_liars": 8,
    "euler_liars": 4,
    "strong_liars": 2
  },
  {
    "n": 609,
    "total_bases": 608,
    "fermat_liars": 16,
    "euler_liars": 16,
    "strong_liars": 2
  },
  {
    "n": 611,
    "total_bases": 610,
    "fermat_liars": 4,
    "euler_liars": 2,
    "strong_liars": 2
  },
  {
    "n": 615,
    "total_bases": 614,
    "fermat_liars": 8,
    "euler_liars": 2,
    "strong_liars": 2
  },
  {
    "n": 621,
    "total_bases": 620,
    "fermat_liars": 4,
    "euler_liars": 4,
    "strong_liars": 2
  },
  {
    "n": 623,
    "total_bases": 622,
    "fermat_liars": 4,
    "euler_liars": 2,
    "strong_liars": 2
  },
  {
    "n": 625,
    "total_bases": 624,
    "fermat_liars": 4,
    "euler_liars": 4,
    "strong_liars": 4
  },
  {
    "n": 627,
    "total_bases": 626,
    "fermat_liars": 8,
    "euler_liars": 2,
    "strong_liars": 2
  },
  {
    "n": 629,
    "total_bases": 628,
    "fermat_liars": 16,
    "euler_liars": 8,
    "strong_liars": 6
  },
  {
    "n": 633,
    "total_bases": 632,
    "fermat_liars": 4,
    "euler_liars": 4,
    "strong_liars": 2
  },
  {
    "n": 635,
    "total_bases": 634,
    "fermat_liars": 4,
    "euler_liars": 2,
    "strong_liars": 2
  },
  {
    "n": 637,
    "total_bases": 636,
    "fermat_liars": 72,
    "euler_liars": 36,
    "strong_liars": 18
  },
  {
    "n": 639,
    "total_bases": 638,
    "fermat_liars": 4,
    "euler_liars": 2,
    "strong_liars": 2
  },
  {
    "n": 645,
    "total_bases": 644,
    "fermat_liars": 112,
    "euler_liars": 56,
    "strong_liars": 14
  },
  {
    "n": 649,
    "total_bases": 648,
    "fermat_liars": 4,
    "euler_liars": 4,
    "strong_liars": 2
  },
  {
    "n": 651,
    "total_bases": 650,
    "fermat_liars": 40,
    "euler_liars": 10,
    "strong_liars": 10
  }
]
""",
    "lab absolute-euler 1729": """\
true
""",
    "density --digits 4-7": (
        "digits  pool_size       prime_count_estimate  dusart_lower    dusart_upper    base_prob    filtered_prob\n"
        "4       2.400000000e+3  0.940971377e+3                                        0.104552375  0.392071407  \n"
        "5       2.400000000e+4  0.760015343e+4                                        0.084446149  0.316673060  \n"
        "6       2.400000000e+5  0.636965240e+5        0.684269965e+5  0.691320090e+5  0.070773916  0.265402183  \n"
        "7       2.400000000e+6  0.548038275e+6        0.582814862e+6  0.587832939e+6  0.060893142  0.228349281  \n"
    ),
    "density --digits 4-7 --format csv": """\
digits,pool_size,prime_count_estimate,dusart_lower,dusart_upper,base_prob,filtered_prob
4,2.400000000e+3,0.940971377e+3,,,0.104552375,0.392071407
5,2.400000000e+4,0.760015343e+4,,,0.084446149,0.316673060
6,2.400000000e+5,0.636965240e+5,0.684269965e+5,0.691320090e+5,0.070773916,0.265402183
7,2.400000000e+6,0.548038275e+6,0.582814862e+6,0.587832939e+6,0.060893142,0.228349281
""",
    "density --digits 4-7 --format json": """\
{
  "policy": "both",
  "mode": "corrected",
  "rows": [
    {
      "digits": 4,
      "pool_size": "2.400000000e+3",
      "prime_count_estimate": "0.940971377e+3",
      "dusart_lower": "",
      "dusart_upper": "",
      "base_prob": "0.104552375",
      "filtered_prob": "0.392071407"
    },
    {
      "digits": 5,
      "pool_size": "2.400000000e+4",
      "prime_count_estimate": "0.760015343e+4",
      "dusart_lower": "",
      "dusart_upper": "",
      "base_prob": "0.084446149",
      "filtered_prob": "0.316673060"
    },
    {
      "digits": 6,
      "pool_size": "2.400000000e+5",
      "prime_count_estimate": "0.636965240e+5",
      "dusart_lower": "0.684269965e+5",
      "dusart_upper": "0.691320090e+5",
      "base_prob": "0.070773916",
      "filtered_prob": "0.265402183"
    },
    {
      "digits": 7,
      "pool_size": "2.400000000e+6",
      "prime_count_estimate": "0.548038275e+6",
      "dusart_lower": "0.582814862e+6",
      "dusart_upper": "0.587832939e+6",
      "base_prob": "0.060893142",
      "filtered_prob": "0.228349281"
    }
  ]
}
""",
    "confidence --prior 1e-9 --rounds 1": """\
prior_p: 0.000000001
prior_c: 0.999999999
rounds: 1
ratio: 999999999.000000000
slack: 249999999.750000000
lower_bound: < 0 (uninformative)
exact_posterior: 0.000000004
""",
    "confidence --digits 75 --rounds 4 --target-confidence 0.999978 --format csv": """\
prior_p,prior_c,rounds,ratio,slack,lower_bound,exact_posterior,rounds_for_target
0.021682119,0.978317881,4,45.120952539,0.176253721,0.823746279,0.850156716,11
""",
    "confidence --digits 75 --rounds 10 --format json": """\
{
  "prior_p": "0.021682119",
  "prior_c": "0.978317881",
  "rounds": 10,
  "ratio": "45.120952539",
  "slack": "0.000043031",
  "lower_bound": "0.999956969",
  "exact_posterior": "0.999956971"
}
""",
    "experiment --digits 12 --count 6 --rounds 5 --seed 3": """\
646057584557 COMPOSITE
604182145093 COMPOSITE
398497775279 COMPOSITE
892104228563 PRIME
517467084827 COMPOSITE
379802250091 COMPOSITE

candidates: 6
digits: 12
rounds: 5
seed: 3
policy: both
mode: corrected
probable_primes: 1
expected_primes: 0.806076879
confidence_lower_bound: 0.993707560
""",
    "experiment --digits 12 --count 6 --rounds 5 --seed 3 --format csv": """\
number,verdict,rounds_used,confidence_lower_bound
646057584557,COMPOSITE,1,
604182145093,COMPOSITE,1,
398497775279,COMPOSITE,1,
892104228563,PRIME,5,0.993707560
517467084827,COMPOSITE,1,
379802250091,COMPOSITE,1,
""",
    "experiment --digits 12 --count 6 --rounds 5 --seed 3 --format json": """\
{
  "records": [
    {
      "number": 646057584557,
      "verdict": "COMPOSITE",
      "rounds_used": 1,
      "confidence_lower_bound": null
    },
    {
      "number": 604182145093,
      "verdict": "COMPOSITE",
      "rounds_used": 1,
      "confidence_lower_bound": null
    },
    {
      "number": 398497775279,
      "verdict": "COMPOSITE",
      "rounds_used": 1,
      "confidence_lower_bound": null
    },
    {
      "number": 892104228563,
      "verdict": "PRIME",
      "rounds_used": 5,
      "confidence_lower_bound": 0.9937075598148466
    },
    {
      "number": 517467084827,
      "verdict": "COMPOSITE",
      "rounds_used": 1,
      "confidence_lower_bound": null
    },
    {
      "number": 379802250091,
      "verdict": "COMPOSITE",
      "rounds_used": 1,
      "confidence_lower_bound": null
    }
  ],
  "summary": {
    "digits": 12,
    "count": 6,
    "rounds": 5,
    "seed": 3,
    "policy": "both",
    "mode": "corrected",
    "prime_count": 1,
    "expected_primes": 0.8060768792901263,
    "confidence_lower_bound": 0.9937075598148466
  }
}
""",
    "generate --digits 20 --seed 5": """\
95193917651868548053
digits: 20
attempts: 38
rounds: 7
prior: 0.080954015
confidence_lower_bound: 0.999307087
""",
    "lab census --start 11 --end 13": """\
n,total_bases,fermat_liars,euler_liars,strong_liars
""",
    "lab census --start 11 --end 13 --format json": """\
[]
""",
    "density --digits 4300": (
        "digits  pool_size          prime_count_estimate  dusart_lower       dusart_upper       base_prob    filtered_prob\n"
        "4300    2.400000000e+4299  0.000908965e+4299     0.000909056e+4299  0.000909067e+4299  0.000100996  0.000378735  \n"
    ),
    "density --digits 1500-1502 --format json": """\
{
  "policy": "both",
  "mode": "corrected",
  "rows": [
    {
      "digits": 1500,
      "pool_size": "2.400000000e+1499",
      "prime_count_estimate": "0.002605574e+1499",
      "dusart_lower": "0.002606320e+1499",
      "dusart_upper": "0.002606412e+1499",
      "base_prob": "0.000289508",
      "filtered_prob": "0.001085656"
    },
    {
      "digits": 1501,
      "pool_size": "2.400000000e+1500",
      "prime_count_estimate": "0.002603838e+1500",
      "dusart_lower": "0.002604583e+1500",
      "dusart_upper": "0.002604675e+1500",
      "base_prob": "0.000289315",
      "filtered_prob": "0.001084932"
    },
    {
      "digits": 1502,
      "pool_size": "2.400000000e+1501",
      "prime_count_estimate": "0.002602105e+1501",
      "dusart_lower": "0.002602849e+1501",
      "dusart_upper": "0.002602941e+1501",
      "base_prob": "0.000289123",
      "filtered_prob": "0.001084210"
    }
  ]
}
""",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_golden_stdout(capsys, monkeypatch, command):
    # as the package runs, then as on a host without libgmp: builtin pow only
    for libgmp in (arith._libgmp, lambda: None):
        monkeypatch.setattr(arith, "_libgmp", libgmp)
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert out == GOLDEN[command]


def test_test_command_builds_one_chain_per_base_for_all_three_tests(capsys, monkeypatch):
    bases = []
    chain = primality._chain

    def counted(n, a):
        bases.append(a)
        return chain(n, a)

    monkeypatch.setattr(primality, "_chain", counted)
    command = "test 170141183460469231731687303715884105727 --rounds 10 --seed 2"
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0 and out == GOLDEN[command]
    assert len(bases) == 10  # one chain per base serves all three tests on a prime, not three


def test_closed_stdout_exits_quietly():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    argv = [sys.executable, "-m", "primegen.cli", "lab", "census", "--start", "9", "--end", "200000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"n,total_bases,fermat_liars,euler_liars,strong_liars\n"
        proc.stdout.close()  # the census rows are ~1.7 MB, far more than a pipe buffers
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


def test_experiment_csv_writes_summary_to_stderr(capsys):
    code, _, err = run_cli(capsys, *"experiment --digits 12 --count 6 --rounds 5 --seed 3 --format csv".split())
    assert code == 0
    assert err == "probable_primes: 1\nexpected_primes: 0.806076879\nconfidence_lower_bound: 0.993707560\n"
