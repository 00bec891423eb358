import dataclasses
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from primegen import arith, cli, experiment, primality, pseudolab
from primegen.cli import build_parser, main
from primegen.density import digit_prime_count, digit_prime_count_bounds
from primegen.sampling import FilterPolicy, pool_size


class FixedBase:
    """A stream stub whose every base is the one given."""

    def __init__(self, base):
        self.base = base

    def randint(self, lo, hi):
        return self.base


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a round's modexp is made or a candidate drawn."""
    def fail(*args):
        raise AssertionError("modexp made or candidate drawn before the check")

    monkeypatch.setattr(primality, "mod_pow", fail)
    monkeypatch.setattr(experiment, "random_candidate", fail)


class TestDensityCommand:
    def test_bad_range_is_usage_error(self, capsys):
        for digits in ("9-2", "1", "6-5", "5-", "-5", "a", "5-x", ""):
            code, out, err = run_cli(capsys, "density", "--digits", digits)
            assert code == 2
            assert out == "" and err == f"error: bad digit range {digits!r}\n"

    @pytest.mark.parametrize("digits", ["4301", "2-4301", "1000000"])
    def test_oversized_table_refused_before_any_row(self, capsys, monkeypatch, digits):
        def counts(lo, hi):
            raise AssertionError(f"rows {lo}-{hi} computed before the refusal")
            yield

        monkeypatch.setattr(cli, "digit_prime_mantissas", counts)
        code, out, err = run_cli(capsys, "density", "--digits", digits)
        assert code == 3
        assert out == "" and "refused" in err

    def test_table_prints_the_decimal_rows_at_every_admitted_size(self, capsys):
        # the table's float closed forms, printed, against the Decimal single-row API
        def at(value, k):
            return f"{float(value.scaleb(1 - k)):.9f}e{k - 1:+d}"

        def counts(k):
            bounds = [at(v, k) for v in digit_prime_count_bounds(k)] if k >= 6 else ["", ""]
            return [str(k), at(digit_prime_count(k), k), *bounds]

        cap = experiment.DIGIT_CAP
        expected = [counts(k) for k in range(2, cap + 1)]
        for policy in FilterPolicy:
            code, out, _ = run_cli(capsys, "density", "--digits", f"2-{cap}", "--policy", policy.label, "--format", "csv")
            assert code == 0
            header, *rows = [line.split(",") for line in out.splitlines()]
            assert [row[:1] + row[2:5] for row in rows] == expected
            assert [row[1] for row in rows] == [at(Decimal(pool_size(k, policy)), k) for k in range(2, cap + 1)]
            # the same rows as json, over more than one chunk of experiment.JSON_CHUNK_ROWS
            code, out, _ = run_cli(capsys, "density", "--digits", "2-1200", "--policy", policy.label, "--format", "json")
            objects = [dict(zip(header, [int(row[0]), *row[1:]])) for row in rows[:1199]]
            assert code == 0
            assert out == json.dumps({"policy": policy.label, "mode": "corrected", "rows": objects}, indent=2) + "\n"

    def test_published_density_above_one_noted_on_stderr(self, capsys):
        code, _, err = run_cli(capsys, *"density --digits 2-4 --mode published --format csv".split())
        assert code == 0
        assert err.startswith("note: filtered_prob >= 1 at 2, 3 digits;") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", ["2-4 --mode corrected", "4-6 --mode published"])
    def test_no_note_when_every_prob_is_below_one(self, capsys, argv):
        code, _, err = run_cli(capsys, "density", "--digits", *argv.split())
        assert code == 0 and err == ""


class TestConfidenceCommand:
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
    def test_fermat_false_positive_is_flagged(self, capsys, monkeypatch):
        # base 139 is a Fermat liar for 561 but an Euler (and strong) witness
        monkeypatch.setattr(cli, "make_stream", lambda seed: FixedBase(139))
        code, out, _ = run_cli(capsys, "test", "561", "--rounds", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "trial_division: COMPOSITE (smallest factor 3)"
        assert lines[1].startswith("fermat[m=1]: PROBABLE_PRIME") and "false positive" in lines[1]
        assert lines[2] == "euler[m=1]: COMPOSITE (witness 139)"
        assert lines[3] == "miller_rabin[m=1]: COMPOSITE (witness 139)"

    def test_shared_factor_at_large_n(self, capsys, monkeypatch):
        # n is the product of the Mersenne primes p = 2^521 - 1 and 2^607 - 1, past the exact
        # oracle: base p prints the factor gcd(p, n) = p on every line, base 3 shares none
        p = 2**521 - 1
        n = p * (2**607 - 1)
        for base, evidence in ((p, f"witness {p}, factor {p}"), (3, "witness 3")):
            monkeypatch.setattr(cli, "make_stream", lambda seed: FixedBase(base))
            code, out, err = run_cli(capsys, "test", str(n), "--rounds", "1")
            assert code == 0 and err == "exact oracle: skipped (above bound)\n"
            assert out.splitlines() == [f"{t}[m=1]: COMPOSITE ({evidence})" for t in ("fermat", "euler", "miller_rabin")]

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

    def test_round_count_above_the_cap_refused_before_any_chain(self, capsys, no_work):
        rounds = str(cli.ROUND_CAP + 1)
        code, out, err = run_cli(capsys, "test", "170141183460469231731687303715884105727", "--rounds", rounds)
        assert code == 3
        assert out == "" and err.startswith("refused: ")

    def test_zero_rounds_is_usage_error_before_any_output(self, capsys, no_work):
        # 9 is in the exact oracle's range: a check after the oracle would follow its verdict line
        code, out, err = run_cli(capsys, "test", "9", "--rounds", "0")
        assert code == 2
        assert out == "" and err == "error: round count must be >= 1\n"

    # 9 gets the exact oracle's verdict line and 4 skips the probabilistic tests:
    # a seed checked only where the stream is first used would miss both
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("n", ["9", "4"])
    def test_seed_outside_64_bits_is_usage_error_before_any_output(self, capsys, no_work, n, seed):
        code, out, err = run_cli(capsys, "test", n, "--seed", seed)
        assert code == 2
        assert out == "" and err == f"error: seed must fit in 64 bits, got {seed}\n"

    def test_round_count_at_the_cap_runs(self, capsys):
        code, out, _ = run_cli(capsys, "test", "97", "--rounds", str(cli.ROUND_CAP), "--seed", "0")
        assert code == 0
        assert out.count(f"[m={cli.ROUND_CAP}]: PROBABLE_PRIME") == 3


class TestExperimentCommand:
    def test_adjacent_seeds_share_no_candidates(self, capsys):
        numbers = []
        for seed in ("0", "1"):
            code, out, _ = run_cli(capsys, "experiment", "--digits", "75", "--count", "100", "--rounds", "10",
                                   "--seed", seed)
            assert code == 0
            numbers.append({line.split()[0] for line in out.splitlines()[:100]})
        assert len(numbers[0]) == len(numbers[1]) == 100
        assert not numbers[0] & numbers[1]

    def test_unfiltered_policy_tests_even_candidates(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--policy", "none", "--digits", "5", "--count", "5",
                               "--seed", "1")
        assert code == 0
        assert any(int(line.split()[0]) % 2 == 0 for line in out.splitlines()[:5])

    def test_usage_error_exit_code(self, capsys, no_work):
        code, out, err = run_cli(capsys, "experiment", "--digits", "1", "--count", "5", "--rounds", "5", "--seed", "0")
        assert code == 2
        assert out == "" and err == "error: digit count must be >= 2\n"

    def test_round_count_above_the_cap_refused_before_any_draw(self, capsys, no_work):
        code, out, err = run_cli(capsys, "experiment", "--count", "1", "--rounds", str(cli.ROUND_CAP + 1))
        assert code == 3
        assert out == "" and err.startswith("refused: ")


class TestGenerateCommand:
    def test_unfiltered_policy_below_the_screen_bound(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--policy", "none", "--digits", "4", "--seed", "2")
        assert code == 0
        value = int(out.splitlines()[0])
        assert all(value % p for p in range(2, 100))  # exact for values below 100^2


class TestLabCommand:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_census_bytes_match_the_whole_list_rendered_at_once(self, capsys, fmt):
        # ~2000 rows, so json spans more than one chunk of experiment.JSON_CHUNK_ROWS
        code, out, _ = run_cli(capsys, "lab", "census", "--start", "9", "--end", "5000", "--format", fmt)
        rows = [dataclasses.asdict(census) for census in pseudolab.composite_censuses(9, 5000)]
        assert len(rows) > experiment.JSON_CHUNK_ROWS
        if fmt == "json":
            expected = json.dumps(rows, indent=2)
        else:
            expected = "\n".join([",".join(rows[0]), *(",".join(map(str, row.values())) for row in rows)])
        assert code == 0 and out == expected + "\n"

    def test_census_rows_written_as_they_come(self, capsys, monkeypatch):
        def censuses(start, end):
            yield from map(pseudolab.liar_census, (9, 15, 21))
            raise RuntimeError("the fourth census fails")

        monkeypatch.setattr(pseudolab, "composite_censuses", censuses)
        with pytest.raises(RuntimeError):
            main(["lab", "census", "--end", "100"])
        assert capsys.readouterr().out == (
            "n,total_bases,fermat_liars,euler_liars,strong_liars\n9,8,2,2,2\n15,14,4,2,2\n21,20,4,4,2")

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
        # a scan past SCAN_CAP, and one number above trial division's bound
        for argv in (f"carmichael --limit {10**8}", "sqrt-of-unity 1000000000001"):
            code, out, err = run_cli(capsys, "lab", *argv.split())
            assert code == 3
            assert out == "" and "refused" in err

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
    def test_unknown_command_exits_with_usage_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        # generate has no --mode (its prior is the drawn pool's) and experiment no --out
        for argv in (["frobnicate"], ["generate", "--mode", "published"], ["experiment", "--out", "x.csv"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert capsys.readouterr().out == ""
        assert not (tmp_path / "x.csv").exists()

    def test_policy_choices_are_the_filter_policies(self):
        commands = next(a for a in build_parser()._actions if a.dest == "command").choices
        for name in ("generate", "experiment", "density", "confidence"):
            policy = next(a for a in commands[name]._actions if a.dest == "policy")
            assert policy.choices == sorted(p.label for p in FilterPolicy)


# Published mode doubles the both-filters factor, so its 2- and 3-digit
# priors are 1.45 and 1.03: no Bayes bound exists, and the command must
# say so before it draws a candidate. (generate has no published mode.)
@pytest.mark.parametrize("digits", ["2", "3"])
@pytest.mark.parametrize("command", ["experiment", "confidence"])
def test_published_prior_above_one_is_usage_error(capsys, monkeypatch, command, digits):
    def draw(*args):
        raise AssertionError("candidate drawn before the prior was checked")

    monkeypatch.setattr(experiment, "random_candidate", draw)
    code, out, err = run_cli(capsys, command, "--digits", digits, "--mode", "published")
    assert code == 2
    assert out == "" and "prior must be in (0, 1)" in err


# 10^400 is past the largest float: the prior's and the round bound's float
# arithmetic cannot take it, and a traceback would exit 1, the closed-stdout code.
@pytest.mark.parametrize("argv", [
    "confidence --prior 0.5 --rounds", "confidence --digits", "generate --digits", "experiment --digits",
])
def test_number_too_large_for_a_float_is_usage_error(capsys, no_work, argv):
    code, out, err = run_cli(capsys, *argv.split(), str(10**400))
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


# CPython prints no int of more than 4300 digits by default, so above
# experiment.DIGIT_CAP, or above a lower int-to-string limit, both commands
# refuse before the first draw ...
@pytest.mark.parametrize("command", ["generate", "experiment"])
def test_digits_above_the_cap_refused_before_any_draw(capsys, no_work, command):
    default = sys.get_int_max_str_digits()
    for limit, digits, cap in ((4300, 4301, 4300), (0, 4301, 4300), (640, 700, 640)):  # 0: no limit
        sys.set_int_max_str_digits(limit)
        try:
            code, out, err = run_cli(capsys, command, "--digits", str(digits))
        finally:
            sys.set_int_max_str_digits(default)
        assert code == 3
        assert out == "" and err == f"refused: numbers capped at {cap} digits, got {digits}\n"


# ... and at the cap the number prints. The strong test is stubbed to pass, so
# no 14,000-bit chain runs.
@pytest.mark.parametrize("argv", ["generate --seed 0", "experiment --count 1 --rounds 1 --seed 0"])
def test_digits_at_the_cap_are_printed(capsys, monkeypatch, argv):
    monkeypatch.setattr(experiment, "miller_rabin", lambda n, rounds, rng: primality.TestVerdict(rounds_survived=rounds))
    code, out, _ = run_cli(capsys, *argv.split(), "--digits", str(experiment.DIGIT_CAP))
    assert code == 0 and len(out.split()[0]) == experiment.DIGIT_CAP


# Fermat's F11 = 2^2048 + 1 is composite; seed 1's first base is a witness to
# all three tests, so the line pins the order in which bases are drawn.
F11_WITNESS = (
    "1214604130138140324770174621315100353958816925051588099819551425505240793144136751321509573222276728"
    "1620891921458946727563604548411965539805948877132330361949801179891910633569336514533551051511517785"
    "7972876995155612006226412484629834518640476941616467362293323104230182185196543492720383991882308236"
    "3143448026093310591223718690302023408389702496642011729873781148926802075600885467035992958504271663"
    "2456911874355341413529456747587888837973290487271065356667833806253783967392059943097817643680310058"
    "9990947824640978644779206504494538738529798336650684345990554724431456845696800175382077015567418734"
    "59340860020773053"
)

# Chernick's (6k+1)(12k+1)(18k+1) with this k: a 2043-bit (615-digit) Carmichael
# number whose three factors of 681, 682 and 682 bits are probable primes (each
# passed 25 strong rounds), so that it is one is conditional on them. Every
# coprime base passes the Fermat and +-1 Euler rounds, and about 1/8 of all bases
# the strong round; seed 1's first base is a strong witness.
CHERNICK_K = 2**680 // 6 + 8673189
CHERNICK = (6 * CHERNICK_K + 1) * (12 * CHERNICK_K + 1) * (18 * CHERNICK_K + 1)
CHERNICK_WITNESS = (
    "2796406345718927544705024290300055541126003014797267051476530433831986226383138258692483389291974941"
    "7269079518293729853060752278639465471634619617793138299144452960860479906689652048364138728397425871"
    "4374082416392721150669271702079694343534093199372356611139194687921701384426613899831662034860454850"
    "7545742420522458882370504737642040089569450052165008772627376825530988831122691016723726668123427458"
    "8216771441790821056505099202207408930082390614477683924491280044687818975490776253864544945815884683"
    "9520972425320154278882004479237395588230956797719336791417086686945457379416512222642541749271933458"
    "596574419504269"
)

# CLI stdout bytes are part of the behaviour contract. These commands run all
# three round tests through their drivers, the liar census, and every report
# renderer: tables with padded and empty columns, csv, json and key: value lines.
# These cases are the one pin of CLI stdout bytes: a check that needs a
# command's exact stdout adds a case here, not a named test. A change that
# moves output re-captures the cases it moves.
GOLDEN = {
    "test 561 --rounds 3 --seed 1": """\
trial_division: COMPOSITE (smallest factor 3)
fermat[m=3]: COMPOSITE (witness 407, factor 11)
euler[m=3]: COMPOSITE (witness 407, factor 11)
miller_rabin[m=3]: COMPOSITE (witness 407, factor 11)
""",
    "test 2047 --rounds 10 --seed 5": """\
trial_division: COMPOSITE (smallest factor 23)
fermat[m=10]: COMPOSITE (witness 116)
euler[m=10]: COMPOSITE (witness 116)
miller_rabin[m=10]: COMPOSITE (witness 116)
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
    # The heads a^m of 2^2203 - 1 and CHERNICK have m above primality.PARALLEL_MIN_BITS:
    # on two CPUs every base's head runs on the pool. 2^2048 + 1 has m = 1: no pool.
    f"test {2**2203 - 1} --rounds 10 --seed 1": """\
fermat[m=10]: PROBABLE_PRIME
euler[m=10]: PROBABLE_PRIME
miller_rabin[m=10]: PROBABLE_PRIME
""",
    f"test {2**2048 + 1} --rounds 10 --seed 1": f"""\
fermat[m=10]: COMPOSITE (witness {F11_WITNESS})
euler[m=10]: COMPOSITE (witness {F11_WITNESS})
miller_rabin[m=10]: COMPOSITE (witness {F11_WITNESS})
""",
    # the pool runs the Chernick number's heads while Fermat and Euler are
    # still open after MR has failed at the first base
    f"test {CHERNICK} --rounds 10 --seed 1": f"""\
fermat[m=10]: PROBABLE_PRIME
euler[m=10]: PROBABLE_PRIME
miller_rabin[m=10]: COMPOSITE (witness {CHERNICK_WITNESS})
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
    # published mode: filtered_prob passes 1 at 2 and 3 digits, and stdout keeps those rows
    "density --digits 2-4 --mode published --format csv": """\
digits,pool_size,prime_count_estimate,dusart_lower,dusart_upper,base_prob,filtered_prob
2,2.400000000e+1,1.737177928e+1,,,0.193019770,1.447648273
3,2.400000000e+2,1.230501032e+2,,,0.136722337,1.025417527
4,2.400000000e+3,0.940971377e+3,,,0.104552375,0.784142815
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
839387926243 COMPOSITE
904573905089 COMPOSITE
273943203523 COMPOSITE
168323182601 COMPOSITE
606247660003 COMPOSITE
358131265249 COMPOSITE

candidates: 6
digits: 12
rounds: 5
seed: 3
policy: both
mode: corrected
probable_primes: 0
expected_primes: 0.806076879
confidence_lower_bound: 0.993707560
""",
    "experiment --digits 12 --count 6 --rounds 5 --seed 3 --format csv": """\
number,verdict,rounds_used,confidence_lower_bound
839387926243,COMPOSITE,1,
904573905089,COMPOSITE,1,
273943203523,COMPOSITE,1,
168323182601,COMPOSITE,1,
606247660003,COMPOSITE,1,
358131265249,COMPOSITE,1,
""",
    "experiment --digits 12 --count 6 --rounds 5 --seed 3 --format json": """\
{
  "records": [
    {
      "number": 839387926243,
      "verdict": "COMPOSITE",
      "rounds_used": 1,
      "confidence_lower_bound": null
    },
    {
      "number": 904573905089,
      "verdict": "COMPOSITE",
      "rounds_used": 1,
      "confidence_lower_bound": null
    },
    {
      "number": 273943203523,
      "verdict": "COMPOSITE",
      "rounds_used": 1,
      "confidence_lower_bound": null
    },
    {
      "number": 168323182601,
      "verdict": "COMPOSITE",
      "rounds_used": 1,
      "confidence_lower_bound": null
    },
    {
      "number": 606247660003,
      "verdict": "COMPOSITE",
      "rounds_used": 1,
      "confidence_lower_bound": null
    },
    {
      "number": 358131265249,
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
    "prime_count": 0,
    "expected_primes": 0.8060768792901263,
    "confidence_lower_bound": 0.9937075598148466
  }
}
""",
    "generate --digits 20 --seed 5": """\
59551387323720576533
digits: 20
attempts: 13
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


# short test ids for the three cases whose commands spell out 615- to 664-digit numbers
GOLDEN_IDS = {
    f"test {2**2203 - 1} --rounds 10 --seed 1": "test 2^2203-1 --rounds 10 --seed 1",
    f"test {2**2048 + 1} --rounds 10 --seed 1": "test 2^2048+1 --rounds 10 --seed 1",
    f"test {CHERNICK} --rounds 10 --seed 1": "test chernick-2043 --rounds 10 --seed 1",
}


@pytest.mark.parametrize("command", list(GOLDEN), ids=[GOLDEN_IDS.get(command, command) for command in GOLDEN])
def test_golden_stdout(capsys, monkeypatch, command):
    # as the package runs on two CPUs, then as on a host without libgmp (builtin
    # pow only), then on one CPU (no chains run concurrently)
    for libgmp, cpus in ((arith._libgmp, 2), (lambda: None, 2), (arith._libgmp, 1)):
        monkeypatch.setattr(arith, "_libgmp", libgmp)
        monkeypatch.setattr(primality, "_cpu_count", lambda: cpus)
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert out == GOLDEN[command]


def test_test_command_builds_one_chain_per_base_for_all_three_tests(capsys, monkeypatch):
    bases = []
    head = primality.mod_pow

    def counted(a, m, n):
        bases.append(a)
        return head(a, m, n)

    monkeypatch.setattr(primality, "mod_pow", counted)
    command = "test 170141183460469231731687303715884105727 --rounds 10 --seed 2"
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0 and out == GOLDEN[command]
    # one head modexp per base, its chain read by all three tests on a prime, not three
    assert len(bases) == len(set(bases)) == 10


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
    assert err == "probable_primes: 0\nexpected_primes: 0.806076879\nconfidence_lower_bound: 0.993707560\n"


def test_parser_is_built_once_per_process(capsys):
    assert run_cli(capsys, "confidence", "--rounds", "1")[0] == 0
    assert build_parser() is build_parser()
