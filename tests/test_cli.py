import json

import pytest

from primegen.cli import main


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


class TestParser:
    def test_unknown_command_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
