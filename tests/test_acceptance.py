"""Acceptance suite: every release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criteria with stated runtime budgets assert them; the two known-bad
reference constants (see test_c1_published_bayes_*) are faithful
assertions marked strict-xfail with the numeric analysis inline.
"""

import math
import subprocess
import sys
import time

import pytest

from primegen.cli import main as cli_main
from primegen.confidence import bayes_confidence
from primegen.density import Mode, filtered_prime_prob
from primegen.experiment import ExperimentConfig, run_experiment
from primegen.primality import (
    ExactOutcome,
    euler_round,
    fermat_round,
    miller_rabin,
    trial_division,
)
from primegen.pseudolab import carmichael_numbers, fermat_pseudoprimes, is_absolute_euler_pseudoprime, liar_census, sqrt_of_unity
from primegen.sampling import FilterPolicy, make_stream, random_candidate
from primegen.arith import mod_pow

import random


def _report(criterion: str, ok: bool, detail: str, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix} {detail}")


def _density_csv_row(capsys, policy: str, mode: str) -> dict:
    code = cli_main(["density", "--digits", "75", "--policy", policy, "--mode", mode, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    header, row = out.strip().splitlines()
    return dict(zip(header.split(","), row.split(",")))


def _confidence_csv(capsys, prior: str, rounds: int) -> dict:
    code = cli_main(["confidence", "--prior", prior, "--rounds", str(rounds), "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    header, row = out.strip().splitlines()
    return dict(zip(header.split(","), row.split(",")))


class TestC1PublishedConstants:
    def test_c1_density_constants(self, capsys):
        none_row = _density_csv_row(capsys, "none", "published")
        last_row = _density_csv_row(capsys, "last-digit", "published")
        both_row = _density_csv_row(capsys, "both", "published")

        base = float(none_row["base_prob"])
        times_2_5 = float(last_row["filtered_prob"])
        times_7_5 = float(both_row["filtered_prob"])
        ok_probs = (
            abs(base - 0.005781899) <= 5e-9
            and abs(times_2_5 - 0.014454748) <= 5e-9
            and abs(times_7_5 - 0.043364243) <= 5e-8
        )

        count = float(both_row["prime_count_estimate"])
        ok_count = abs(count / 0.052037087e74 - 1) <= 1e-7

        lower = float(both_row["dusart_lower"])
        upper = float(both_row["dusart_upper"])
        ok_dusart = (
            abs(lower / 0.05233970251e74 - 1) <= 1e-4
            and abs(upper / 0.05237015782e74 - 1) <= 1e-4
        )

        ok = ok_probs and ok_count and ok_dusart
        _report(
            "C1 density constants",
            ok,
            f"P(A)={base:.9f} x2.5={times_2_5:.9f} x7.5={times_7_5:.9f} "
            f"N(75)~{count:.3e} bracket=({lower:.4e},{upper:.4e})",
        )
        assert ok

    def test_c1_bayes_constants_consistent_set(self, capsys):
        four = _confidence_csv(capsys, "0.005781899", 4)
        ten = _confidence_csv(capsys, "0.043364243", 10)
        ratio_unfiltered = float(four["ratio"])
        bound_unfiltered = float(four["lower_bound"])
        bound_ten = float(ten["lower_bound"])
        ok = (
            abs(ratio_unfiltered - 171.9535573) <= 1e-7
            and abs(bound_unfiltered - 0.3283064) <= 1e-5
            and abs(bound_ten - 0.999978) <= 5e-6
        )
        _report(
            "C1 Bayes constants (consistent set)",
            ok,
            f"ratio={ratio_unfiltered:.7f} m=4 bound={bound_unfiltered:.7f} m=10 bound={bound_ten:.6f}",
        )
        assert ok

    @pytest.mark.xfail(
        strict=True,
        reason="reference ratio 22.66047407 exceeds (1-p)/p for p=0.043364243 "
        "by exactly 0.6; the formula gives 22.06047404",
    )
    def test_c1_published_bayes_ratio(self, capsys):
        fields = _confidence_csv(capsys, "0.043364243", 4)
        ratio = float(fields["ratio"])
        ok = abs(ratio - 22.66047407) <= 1e-7
        _report("C1 published ratio 22.66047407", ok, f"formula ratio={ratio:.8f} (offset {ratio - 22.66047407:+.7f})")
        assert ok

    @pytest.mark.xfail(
        strict=True,
        reason="reference bound .911482523 equals 1 - (ratio + 0.6)/256 and "
        "inherits the ratio's +0.6 error; the formula gives .913826273",
    )
    def test_c1_published_bayes_bound(self, capsys):
        fields = _confidence_csv(capsys, "0.043364243", 4)
        bound = float(fields["lower_bound"])
        ok = abs(bound - 0.911482523) <= 1e-7
        _report("C1 published m=4 bound .911482523", ok, f"formula bound={bound:.9f}")
        assert ok


class TestC2WorkedExamples:
    def test_c2_worked_examples(self):
        start = time.perf_counter()
        ok_pow = (
            mod_pow(2, 560, 561) == 1
            and mod_pow(2, 340, 341) == 1
            and mod_pow(5, 280, 561) == 67
            and mod_pow(5, 170, 341) == 56
        )
        ok_euler = (
            euler_round(561, 5).is_composite
            and euler_round(341, 5).is_composite
            and euler_round(341, 2).is_probable_prime
        )
        ok_roots = sqrt_of_unity(15) == [1, 4, 11, 14]
        elapsed = time.perf_counter() - start
        ok = ok_pow and ok_euler and ok_roots
        _report("C2 worked examples", ok, f"pow={ok_pow} euler={ok_euler} roots={ok_roots}", elapsed)
        assert ok


class TestC3OracleEquivalence:
    def test_c3_strong_test_agrees_with_exact_oracle(self, prime_flags):
        start = time.perf_counter()
        disagreements = 0
        checked = 0
        flags = prime_flags(10**5)
        for n in range(5, 10**5, 2):
            exact = bool(flags[n])
            verdict = miller_rabin(n, 10, make_stream(101, n)).is_probable_prime
            disagreements += verdict != exact
            checked += 1
        rng = random.Random(20250810)
        for _ in range(10**4):
            n = rng.randrange(5, 10**9) | 1
            exact = trial_division(n).outcome is ExactOutcome.PRIME
            verdict = miller_rabin(n, 10, make_stream(77, n)).is_probable_prime
            disagreements += verdict != exact
            checked += 1
        elapsed = time.perf_counter() - start
        ok = disagreements == 0 and elapsed < 120
        _report("C3 oracle equivalence", ok, f"{checked} candidates, {disagreements} disagreements", elapsed)
        assert disagreements == 0
        assert elapsed < 120


class TestC4PseudoprimeLab:
    def test_c4_pseudoprime_lab(self, prime_flags):
        start = time.perf_counter()
        carmichaels = carmichael_numbers(10**4)
        ok_carmichael = len(carmichaels) == 7 and min(carmichaels) == 561
        ok_fermat = fermat_pseudoprimes(2, 600) == [341, 561]
        ok_absolute = (
            is_absolute_euler_pseudoprime(1729)
            and is_absolute_euler_pseudoprime(2465)
            and not is_absolute_euler_pseudoprime(561)
        )
        flags = prime_flags(5000)
        worst = 0.0
        for n in range(11, 5000, 2):
            if flags[n]:
                continue
            census = liar_census(n)
            worst = max(worst, census.strong_liars / census.total_bases)
        ok_bound = worst <= 0.25
        elapsed = time.perf_counter() - start
        ok = ok_carmichael and ok_fermat and ok_absolute and ok_bound and elapsed < 300
        _report(
            "C4 pseudoprime lab",
            ok,
            f"carmichael={ok_carmichael} fermat={ok_fermat} absolute={ok_absolute} "
            f"max strong-liar fraction={worst:.4f}",
            elapsed,
        )
        assert ok_carmichael and ok_fermat and ok_absolute and ok_bound
        assert elapsed < 300


class TestC5TestHierarchy:
    def test_c5_fermat_composite_implies_euler_composite(self, prime_flags):
        start = time.perf_counter()
        violations = 0
        improvement_pairs = 0
        for n in range(5, 3001, 2):
            for a in range(2, n - 1):
                fermat_says_composite = fermat_round(n, a).is_composite
                euler_says_composite = euler_round(n, a).is_composite
                if fermat_says_composite and not euler_says_composite:
                    violations += 1
                if euler_says_composite and not fermat_says_composite:
                    improvement_pairs += 1
        pair_561_5 = fermat_round(561, 5).is_probable_prime and euler_round(561, 5).is_composite
        elapsed = time.perf_counter() - start
        ok = violations == 0 and improvement_pairs > 0 and pair_561_5 and elapsed < 120
        _report(
            "C5 test hierarchy",
            ok,
            f"violations={violations} strict-improvement pairs={improvement_pairs} (561,5)={pair_561_5}",
            elapsed,
        )
        assert violations == 0
        assert improvement_pairs > 0 and pair_561_5
        assert elapsed < 120


class TestC6DensityRealism:
    def test_c6_exact_six_digit_density(self, pi_exact):
        start = time.perf_counter()
        exact_density = (pi_exact(10**6) - pi_exact(10**5)) / 240000
        ok_exact = math.isclose(exact_density, 68906 / 240000, rel_tol=0, abs_tol=0)
        corrected = filtered_prime_prob(6, FilterPolicy.BOTH, Mode.CORRECTED)
        published = filtered_prime_prob(6, FilterPolicy.BOTH, Mode.PUBLISHED)
        corrected_err = abs(corrected - exact_density) / exact_density
        published_err = abs(published - exact_density) / exact_density
        ok_model = corrected_err < 0.15 and corrected_err < published_err
        elapsed = time.perf_counter() - start
        ok = ok_exact and ok_model
        _report(
            "C6 six-digit density",
            ok,
            f"exact={exact_density:.6f} corrected err={corrected_err:.1%} published err={published_err:.1%}",
            elapsed,
        )
        assert ok

    def test_c6_statistical_75_digit_fraction(self):
        start = time.perf_counter()
        policy = FilterPolicy.BOTH
        hits = 0
        draws = 2000
        for i in range(draws):
            rng = make_stream(20250810, i)
            candidate = random_candidate(75, policy, rng)
            hits += miller_rabin(candidate.n, 15, rng).is_probable_prime
        fraction = hits / draws
        elapsed = time.perf_counter() - start
        ok = 0.012 <= fraction <= 0.0315 and elapsed < 300
        _report("C6 statistical 75-digit fraction", ok, f"{hits}/{draws} = {fraction:.4f} in [0.012, 0.0315]", elapsed)
        assert 0.012 <= fraction <= 0.0315
        assert elapsed < 300

    def test_c6_figure_layout_run(self, capsys):
        code = cli_main([
            "experiment", "--digits", "75", "--count", "100", "--rounds", "10",
            "--seed", "424242", "--mode", "published",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        ok_format = all(
            len(line.split()) == 2 and len(line.split()[0]) == 75 and line.split()[1] in ("PRIME", "COMPOSITE")
            for line in lines[:100]
        )
        prime_count = sum(line.endswith(" PRIME") for line in lines[:100])
        summary = dict(line.split(": ") for line in lines if ": " in line)
        bound = float(summary["confidence_lower_bound"])
        ok_bound = abs(bound - 0.999978) <= 5e-6
        ok = ok_format and 0 <= prime_count <= 9 and ok_bound
        _report(
            "C6 figure-layout run",
            ok,
            f"100 lines formatted, {prime_count} probable primes in [0, 9], bound={bound:.6f}",
        )
        assert ok


class TestC7Determinism:
    def test_c7_byte_identical_experiment(self):
        start = time.perf_counter()
        args = [
            sys.executable, "-m", "primegen.cli", "experiment",
            "--digits", "75", "--count", "20", "--rounds", "10", "--seed", "31337",
        ]
        first = subprocess.run(args, capture_output=True, timeout=120)
        second = subprocess.run(args, capture_output=True, timeout=120)
        elapsed = time.perf_counter() - start
        ok = first.returncode == 0 and second.returncode == 0 and first.stdout == second.stdout
        _report("C7 determinism", ok, f"{len(first.stdout)} output bytes identical across runs", elapsed)
        assert ok
