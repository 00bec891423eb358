"""The benchmark's workloads: inputs drawn from the workload seed, one op, its check.

Every workload is a closed loop with a single caller. The program only
ever sees the inputs generated here; `inputs(seed)` is a pure function
of the seed. Each op returns the output that the checks in `oracles`
judge and that the determinism check compares byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import oracles

# 2048-bit (617-digit) primes, found by a stdlib sieve-and-strong-test
# search, never by primegen. They are re-checked with builtin pow before use.
PRIMES_617 = tuple(int(tok) for tok in Path(__file__).with_name("primes617.txt").read_text().split())

# Carmichael numbers below 10^4 (OEIS A002997); absolute-euler runs on a few.
SMALL_CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911)

FORMATS = ("table", "csv", "json")


def seed_stream(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def run_cli(pg, argv) -> tuple[int, str]:
    """`primegen <argv>` in-process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = pg.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


class Workload:
    name: str
    # `primegen <setup_argv>` is the minimal op a fresh interpreter runs for setup_s.
    setup_argv: list[str]
    # Ops per pass of a fixed script; a run only ends on a pass boundary.
    pass_len = 1

    def inputs(self, seed: int):
        """Endless iterator of hashable op inputs; by default 64-bit per-op seeds."""
        rng = seed_stream(self.name, seed)
        while True:
            yield rng.getrandbits(64)

    def run(self, pg, op):
        """Run one op; the result must be comparable byte for byte."""
        raise NotImplementedError

    def check(self, op, result) -> list[str]:
        raise NotImplementedError

    def static_checks(self) -> list[str]:
        """Checks on the benchmark's own fixed data, made once per run."""
        return []

    def attempts_of(self, result):
        """Candidates tried for a generated prime, or None."""
        return None


class Gen(Workload):
    """generate_prime(100, 0.999), one prime per op, one 64-bit seed per op.

    The candidate loop with one MR round per reject, where modexp dominates.
    100 digits rather than 309: a prime costs ~60 attempts, so a run holds
    ~600 primes and the luck of the draw averages out (see NOTES.md).
    """

    name = "gen-100"
    digits = 100
    target = 0.999
    setup_argv = ["generate", "--digits", "12", "--seed", "1"]

    def run(self, pg, op_seed):
        r = pg.experiment.generate_prime(self.digits, self.target, seed=op_seed)
        return (r.value, r.attempts, r.rounds, r.confidence.lower_bound)

    def check(self, op_seed, result):
        value, attempts, rounds, bound = result
        problems = oracles.check_generated_prime(value, self.digits, bound, self.target)
        if attempts < 1 or rounds < 1:
            problems.append(f"attempts {attempts}, rounds {rounds}")
        return problems

    def attempts_of(self, result):
        return result[1]


class Batch(Workload):
    """run_experiment(75 digits, 100 candidates, 10 rounds) plus its JSON report, per op.

    A fixed number of candidates, so per-candidate overhead (streams,
    sampling, verdict records, rendering) is a visible share.
    """

    name = "batch-75"
    digits = 75
    count = 100
    rounds = 10
    setup_argv = ["experiment", "--digits", "75", "--count", "1", "--seed", "1", "--format", "json"]

    def run(self, pg, op_seed):
        ex = pg.experiment
        records, summary = ex.run_experiment(ex.ExperimentConfig(self.digits, self.count, self.rounds, op_seed))
        report = ex.render_report(records, "json", summary)
        rows = [(r.candidate.n, r.label, r.verdict.witness, r.verdict.factor) for r in records]
        return rows, report

    def check(self, op_seed, result):
        rows, report = result
        return oracles.check_batch(rows, report, self.digits, self.count)


class Verify(Workload):
    """`primegen test N --rounds 10 --seed s` on fixed 2048-bit primes.

    Fermat, Euler and MR all run every round; sampling is bypassed and the
    exact oracle refuses at once.
    """

    name = "verify-617"
    rounds = 10
    setup_argv = ["test", str(2**61 - 1), "--rounds", "10", "--seed", "1"]

    def inputs(self, seed):
        rng = seed_stream(self.name, seed)
        while True:
            yield rng.randrange(len(PRIMES_617)), rng.getrandbits(64)

    def run(self, pg, op):
        index, op_seed = op
        return run_cli(pg, ["test", str(PRIMES_617[index]), "--rounds", str(self.rounds), "--seed", str(op_seed)])

    def check(self, op, result):
        return oracles.check_test_report(*result, self.rounds)

    def static_checks(self):
        return [f"fixed prime #{i} fails the strong test" for i, p in enumerate(PRIMES_617)
                if p.bit_length() != 2048 or not oracles.is_probable_prime(p)]


class Tables(Workload):
    """A fixed script of desk-scale lab, density and confidence commands, one command per op.

    The only workload where pseudolab, trial division, density, SciReal and
    CLI parsing and rendering do the work, and modexp and sampling do none.
    """

    name = "tables"
    setup_argv = ["density", "--digits", "6-10"]

    def script(self, seed: int) -> list[tuple[str, ...]]:
        """One pass: 20 commands in three cost classes, in an order drawn from the seed.

        Heavy, ~0.5 s: census over 700 integers as csv and as json,
        pseudoprimes and carmichael below 10^6. Middle, 40-90 ms: density over
        two 750-digit ranges in all three formats, and sqrt-of-unity on two
        moduli below the 10^6 scan cap. Light, ~2 ms: absolute-euler on three
        Carmichael numbers, sqrt-of-unity on two moduli above the cap, and
        three confidence calls. The median op lies inside the middle class and
        the 11th slowest op of a run inside the heavy one, so neither hops
        between classes as the number of passes in a run changes; no command
        takes more than about a quarter of a pass.
        """
        rng = seed_stream(self.name, seed)
        start = rng.randrange(501, 601, 2)
        census = ["lab", "census", "--start", str(start), "--end", str(start + 700)]
        cmds = [
            census + ["--format", "csv"],
            census + ["--format", "json"],
            ["lab", "carmichael", "--limit", "1000000"],
            ["lab", "pseudoprimes", "--base", "2", "--limit", "1000000"],
        ]
        lo = rng.randrange(6, 60)
        for first in (lo, lo + 750):
            cmds += [["density", "--digits", f"{first}-{first + 749}", "--format", fmt] for fmt in FORMATS]
        cmds += [["lab", "sqrt-of-unity", str(rng.randrange(900_001, 1_000_000, 2))] for _ in range(2)]
        cmds += [["lab", "sqrt-of-unity", str(rng.randrange(10**6 + 1, 10**9, 2))] for _ in range(2)]
        cmds += [["lab", "absolute-euler", str(n)] for n in rng.sample(SMALL_CARMICHAEL, 3)]
        cmds += [
            ["confidence", "--digits", str(rng.randint(10, 400)), "--rounds", str(rng.randint(1, 30)),
             "--target-confidence", "0.999999", "--format", "table"],
            ["confidence", "--prior", f"{rng.uniform(0.001, 0.5):.6f}", "--rounds", str(rng.randint(1, 30)),
             "--format", "csv"],
            ["confidence", "--digits", str(rng.randint(10, 400)), "--rounds", str(rng.randint(1, 30)),
             "--format", "json"],
        ]
        rng.shuffle(cmds)
        return [tuple(cmd) for cmd in cmds]

    def inputs(self, seed):
        cmds = self.script(seed)
        while True:
            yield from cmds

    def run(self, pg, argv):
        return run_cli(pg, argv)

    def check(self, argv, result):
        code, text = result
        if code != 0:
            return [f"{' '.join(argv)}: exit {code}"]
        opt = dict(zip(argv[2::2], argv[3::2])) if argv[0] == "lab" else dict(zip(argv[1::2], argv[2::2]))
        if argv[0] == "density":
            lo, hi = (int(x) for x in opt["--digits"].split("-"))
            return oracles.check_density(text, opt["--format"], lo, hi)
        if argv[0] == "confidence":
            rounds = int(opt["--rounds"])
            target = float(opt["--target-confidence"]) if "--target-confidence" in opt else None
            prior = float(opt["--prior"]) if "--prior" in opt else oracles.digits_prior(int(opt["--digits"]))
            return oracles.check_confidence(text, opt["--format"], prior, rounds, target)
        sub = argv[1]
        if sub == "census":
            return oracles.check_census(text, opt["--format"], int(opt["--start"]), int(opt["--end"]))
        if sub == "carmichael":
            return oracles.check_carmichael(text, int(opt["--limit"]))
        if sub == "pseudoprimes":
            return oracles.check_pseudoprimes(text, int(opt["--base"]), int(opt["--limit"]))
        if sub == "absolute-euler":
            return oracles.check_absolute_euler(int(argv[2]), text)
        if sub == "sqrt-of-unity":
            return oracles.check_sqrt_of_unity(int(argv[2]), text)
        return [f"no check for {argv}"]


# The script's length does not depend on the seed.
Tables.pass_len = len(Tables().script(0))

WORKLOADS = {cls.name: cls for cls in (Gen, Batch, Verify, Tables)}
