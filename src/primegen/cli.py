"""Command-line front end.

Subcommands: generate, test, experiment, density, confidence, lab.
Reports go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 stdout closed before the report was written, 2 usage error,
3 refusal (a resource bound was exceeded).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import os
import sys

from . import pseudolab
from .confidence import bayes_confidence, rounds_for_confidence
from .density import Mode, base_prime_prob, digit_prime_counts, filtered_prime_prob
from .density import digit_prime_count, digit_prime_count_bounds  # noqa: F401 (bench/spans.py wraps them here)
from .errors import RefusalError
from .experiment import ExperimentConfig, generate_prime, render_fields, render_report, render_rows, run_experiment
from .primality import ExactOutcome, compare_tests, trial_division
from .primality import euler_test, fermat_test, miller_rabin  # noqa: F401 (bench/spans.py wraps them here)
from .sampling import FilterPolicy, make_stream, pool_size

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3

# Largest digit count a density table may reach. The full 2-4300 table takes
# ~0.11 s (Python 3.11); past 10^6 digits the counts would overflow the
# default decimal context (Emax 999999).
DENSITY_DIGIT_CAP = 4300

# Most rounds `test` runs per test. A probable prime's error bound is
# 4^-100 < 10^-60 there; 100 rounds on a 2048-bit prime take about 0.55 s
# with GMP and about 4.3 s with builtin pow (Python 3.11), and the cost
# grows linearly with the round count.
TEST_ROUND_CAP = 100

POLICIES = {p.label: p for p in FilterPolicy}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="primegen", description="Probable primes from filtered random candidates.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a probable prime to a target confidence")
    gen.add_argument("--digits", type=int, default=75)
    gen.add_argument("--target-confidence", type=float, default=0.999)
    gen.add_argument("--seed", type=int, default=None)
    _policy_mode_args(gen)
    gen.set_defaults(run=_cmd_generate)

    test = sub.add_parser("test", help="run all three tests (and the exact oracle when in range) on one number")
    test.add_argument("n", type=int)
    test.add_argument("--rounds", type=int, default=10)
    test.add_argument("--seed", type=int, default=None)
    test.set_defaults(run=_cmd_test)

    exp = sub.add_parser("experiment", help="test a batch of random filtered candidates")
    exp.add_argument("--digits", type=int, default=75)
    exp.add_argument("--count", type=int, default=100)
    exp.add_argument("--rounds", type=int, default=10)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--format", choices=("table", "csv", "json"), default="table")
    exp.add_argument("--out", default=None, help="write the report to a file instead of stdout")
    _policy_mode_args(exp)
    exp.set_defaults(run=_cmd_experiment)

    dens = sub.add_parser("density", help="prime-density table for a digit range")
    dens.add_argument("--digits", default="75", help="digit count K or range A-B")
    dens.add_argument("--format", choices=("table", "csv", "json"), default="table")
    _policy_mode_args(dens)
    dens.set_defaults(run=_cmd_density)

    conf = sub.add_parser("confidence", help="posterior confidence calculator")
    conf.add_argument("--rounds", type=int, default=10)
    conf.add_argument("--digits", type=int, default=75)
    conf.add_argument("--prior", type=float, default=None, help="override the prior derived from digits/policy/mode")
    conf.add_argument("--target-confidence", type=float, default=None, help="also report the rounds needed for this bound")
    conf.add_argument("--format", choices=("table", "csv", "json"), default="table")
    _policy_mode_args(conf)
    conf.set_defaults(run=_cmd_confidence)

    lab = sub.add_parser("lab", help="pseudoprime enumeration sweeps")
    labsub = lab.add_subparsers(dest="lab_command", required=True)

    census = labsub.add_parser("census", help="liar census over a range of odd composites")
    census.add_argument("--start", type=int, default=9)
    census.add_argument("--end", type=int, required=True)
    census.add_argument("--format", choices=("csv", "json"), default="csv")
    census.set_defaults(run=_cmd_census)

    carm = labsub.add_parser("carmichael", help="Carmichael numbers up to a limit")
    carm.add_argument("--limit", type=int, required=True)
    carm.set_defaults(run=lambda args: _print_lines(pseudolab.carmichael_numbers(args.limit)))

    pseudo = labsub.add_parser("pseudoprimes", help="Fermat pseudoprimes to a base up to a limit")
    pseudo.add_argument("--base", type=int, default=2)
    pseudo.add_argument("--limit", type=int, required=True)
    pseudo.set_defaults(run=lambda args: _print_lines(pseudolab.fermat_pseudoprimes(args.base, args.limit)))

    sqrt1 = labsub.add_parser("sqrt-of-unity", help="square roots of 1 modulo n")
    sqrt1.add_argument("n", type=int)
    sqrt1.set_defaults(run=lambda args: print(*pseudolab.sqrt_of_unity(args.n)))

    abseuler = labsub.add_parser("absolute-euler", help="absolute Euler pseudoprime check")
    abseuler.add_argument("n", type=int)
    abseuler.set_defaults(
        run=lambda args: print("true" if pseudolab.is_absolute_euler_pseudoprime(args.n) else "false"))

    return parser


def _policy_mode_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--policy", choices=sorted(POLICIES), default="both")
    cmd.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.CORRECTED.value)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # the reader stopped early, e.g. `| head`: send the rest to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> None:
    result = generate_prime(
        digits=args.digits,
        target_confidence=args.target_confidence,
        seed=args.seed,
        mode=Mode(args.mode),
        policy=POLICIES[args.policy],
    )
    report = result.confidence
    print(result.value)
    print(render_fields([
        ("digits", args.digits), ("attempts", result.attempts), ("rounds", result.rounds),
        ("prior", f"{report.prior_p:.9f}"), ("confidence_lower_bound", _bound_text(report.lower_bound)),
    ]))


def _cmd_test(args: argparse.Namespace) -> None:
    if args.rounds > TEST_ROUND_CAP:
        raise RefusalError(f"test capped at {TEST_ROUND_CAP} rounds, got {args.rounds}")
    n = args.n
    try:
        exact = trial_division(n)
    except RefusalError:
        exact = None
        print("exact oracle: skipped (above bound)", file=sys.stderr)
    if exact is not None:
        detail = "" if exact.smallest_factor is None else f" (smallest factor {exact.smallest_factor})"
        print(f"trial_division: {exact.outcome.value.upper()}{detail}")
    if n < 5 or n % 2 == 0:
        print("probabilistic tests need odd n >= 5; skipped", file=sys.stderr)
        return
    for label, verdict in compare_tests(n, args.rounds, make_stream(args.seed)).items():
        line = f"{label}[m={args.rounds}]: {'COMPOSITE' if verdict.is_composite else 'PROBABLE_PRIME'}"
        if verdict.is_composite:  # a driver's composite verdict always names its witness base
            factor = "" if verdict.factor is None else f", factor {verdict.factor}"
            line += f" (witness {verdict.witness}{factor})"
        elif exact is not None and exact.outcome is ExactOutcome.COMPOSITE:
            line += "  ** false positive: exact oracle says composite **"
        print(line)


def _cmd_experiment(args: argparse.Namespace) -> None:
    config = ExperimentConfig(
        digits=args.digits,
        count=args.count,
        rounds=args.rounds,
        seed=args.seed,
        policy=POLICIES[args.policy],
        mode=Mode(args.mode),
    )
    records, summary = run_experiment(config)
    if args.format == "csv":
        text = render_report(records, "csv")
        print(render_fields(summary.fields()[-3:]), file=sys.stderr)
    else:
        text = render_report(records, args.format, summary)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)


def _parse_digit_range(text: str) -> range:
    if "-" in text:
        lo_text, hi_text = text.split("-", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if lo < 2 or hi < lo:
        raise ValueError(f"bad digit range {text!r}")
    return range(lo, hi + 1)


def _cmd_density(args: argparse.Namespace) -> None:
    policy = POLICIES[args.policy]
    mode = Mode(args.mode)
    digits = _parse_digit_range(args.digits)
    if digits[-1] > DENSITY_DIGIT_CAP:
        raise RefusalError(f"density table capped at {DENSITY_DIGIT_CAP} digits, got {digits[-1]}")
    rows = []
    for k, (count, lower, upper) in zip(digits, digit_prime_counts(digits[0], digits[-1])):
        exp = k - 1
        rows.append({
            "digits": k,
            "pool_size": str_at(pool_size(k, policy), exp),
            "prime_count_estimate": str_at(count, exp),
            "dusart_lower": str_at(lower, exp) if k >= 6 else "",  # Dusart's bracket needs 10^(k-1) >= 60184
            "dusart_upper": str_at(upper, exp) if k >= 6 else "",
            "base_prob": f"{base_prime_prob(k):.9f}",
            "filtered_prob": f"{filtered_prime_prob(k, policy, mode):.9f}",
        })
    if args.format == "json":
        print(json.dumps({"policy": args.policy, "mode": args.mode, "rows": rows}, indent=2))
    else:
        print(render_rows(list(rows[0]), [row.values() for row in rows], args.format))
    above_one = [str(row["digits"]) for row in rows if float(row["filtered_prob"]) >= 1]
    if above_one:
        print(f"note: filtered_prob >= 1 at {', '.join(above_one)} digits;"
              f" the {mode.value} prior is not a probability there", file=sys.stderr)


def str_at(value, exp10: int) -> str:
    """Render a Decimal count at a fixed decade, e.g. 0.052037087e+74."""
    return f"{float(value.scaleb(-exp10)):.9f}e{exp10:+d}"


def _cmd_confidence(args: argparse.Namespace) -> None:
    prior = args.prior if args.prior is not None else filtered_prime_prob(args.digits, POLICIES[args.policy], Mode(args.mode))
    report = bayes_confidence(prior, args.rounds)
    needed = rounds_for_confidence(prior, args.target_confidence) if args.target_confidence is not None else None
    fields = {
        "prior_p": f"{report.prior_p:.9f}",
        "prior_c": f"{report.prior_c:.9f}",
        "rounds": report.rounds,
        "ratio": f"{report.ratio:.9f}",
        "slack": f"{report.slack:.9f}",
        "lower_bound": f"{report.lower_bound:.9f}",
        "exact_posterior": f"{report.exact_posterior:.9f}",
    }
    if needed is not None:
        fields["rounds_for_target"] = needed
    if args.format == "json":
        print(json.dumps(fields, indent=2))
    elif args.format == "csv":
        print(render_rows(list(fields), [fields.values()], "csv"))
    else:
        fields["lower_bound"] = _bound_text(report.lower_bound)
        print(render_fields(fields.items()))


def _bound_text(bound: float) -> str:
    return "< 0 (uninformative)" if bound < 0 else f"{bound:.9f}"


def _cmd_census(args: argparse.Namespace) -> None:
    header = [f.name for f in dataclasses.fields(pseudolab.LiarCensus)]
    rows = map(operator.attrgetter(*header), pseudolab.composite_censuses(args.start, args.end))
    print(render_rows(header, rows, args.format))


def _print_lines(values) -> None:
    for value in values:
        print(value)


if __name__ == "__main__":
    sys.exit(main())
