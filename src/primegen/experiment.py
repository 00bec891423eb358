"""Experiment orchestration: batches of filtered candidates through the
strong test, prime generation to a target confidence, and report
rendering (table, csv, json).

Given the same config and seed the records, summary and rendered bytes
are identical across runs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .confidence import ConfidenceReport, bayes_confidence, rounds_for_confidence
from .density import Mode, filtered_prime_prob
from .errors import RefusalError
from .primality import TestVerdict, miller_rabin, small_factor
from .sampling import Candidate, FilterPolicy, make_stream, random_candidate

CSV_HEADER = ("number", "verdict", "rounds_used", "confidence_lower_bound")

# Only the unfiltered policy draws even candidates; they need no base.
EVEN = TestVerdict(factor=2)

# generate_prime refuses after this many candidates rather than run on.
MAX_ATTEMPTS = 10**6

# Largest digit count generate_prime, run_experiment and a density table take: CPython prints
# no int above sys.get_int_max_str_digits(), 4300 by default (_check_digits takes a lower one),
# and the full 2-4300 density table, a few float closed forms per row, takes about 0.02-0.04 s
# in-process in any format (Python 3.11, 2-CPU Xeon VM). Tests and CI pin the 4301 refusal.
DIGIT_CAP = 4300

# Rows per _json_rows call in render_rows, so that a long table streams.
JSON_CHUNK_ROWS = 1000

# Every cell of a _json_rows call in one C-encoder call (indent=None), NUL-separated:
# the encoder writes a NUL inside a string as \u0000, so a raw NUL is a separator.
_CELLS = json.JSONEncoder(separators=("\0", ": "))
# Stands in for the rows in render_rows' `within` object; json.dumps writes it as _ROWS_JSON.
_ROWS, _ROWS_JSON = "\0rows", '"\\u0000rows"'


@dataclass(frozen=True)
class ExperimentConfig:
    """Plain data: run_experiment checks it before its first draw."""

    digits: int
    count: int
    rounds: int
    seed: int
    policy: FilterPolicy = FilterPolicy.BOTH
    mode: Mode = Mode.CORRECTED


@dataclass(frozen=True)
class ExperimentRecord:
    """A drawn candidate and its strong-test verdict. label and rounds_used derive
    from the verdict; the run's one confidence bound lives in ExperimentSummary."""

    candidate: Candidate
    verdict: TestVerdict

    @property
    def label(self) -> str:
        return "PRIME" if self.verdict.is_probable_prime else "COMPOSITE"

    @property
    def rounds_used(self) -> int:
        # the rounds passed, plus the round whose base was a witness
        return self.verdict.rounds_survived + (self.verdict.witness is not None)


@dataclass(frozen=True)
class ExperimentSummary:
    digits: int
    count: int
    rounds: int
    seed: int
    policy: str
    mode: str
    prime_count: int
    expected_primes: float
    confidence_lower_bound: float

    def fields(self) -> list[tuple[str, object]]:
        """The summary block as (key, value) pairs; the last three are the outcome."""
        return [
            ("candidates", self.count), ("digits", self.digits), ("rounds", self.rounds), ("seed", self.seed),
            ("policy", self.policy), ("mode", self.mode), ("probable_primes", self.prime_count),
            ("expected_primes", f"{self.expected_primes:.9f}"),
            ("confidence_lower_bound", f"{self.confidence_lower_bound:.9f}"),
        ]


def run_experiment(config: ExperimentConfig) -> tuple[list[ExperimentRecord], ExperimentSummary]:
    """Generate, test and score `count` filtered candidates.

    Candidate i draws from its own stream, make_stream(seed, i), first
    for the candidate and then for the test bases, so results do not
    depend on execution order. An even candidate is composite by its
    factor 2 and draws no base. An odd one goes through the screen, and the
    divisor d = small_factor(n) it returns goes to miller_rabin: when d > 1
    and a^e != 1 (mod d) for the first base a, e = n - 1 reduced modulo a
    multiple of lambda(d) (primality._proven_witness), a^(n-1) != 1 (mod n),
    so a is the witness the strong round would report, found without a
    modexp on n. The bases drawn, the verdicts and every record stay those
    of the plain test. Digits below 2, count below 1 and rounds
    below 1 raise ValueError, in that order, before the first draw, and
    _check_digits refuses a number too long to print just after the digit check.
    """
    prior = filtered_prime_prob(config.digits, config.policy, config.mode)
    _check_digits(config.digits)
    if config.count < 1:
        raise ValueError("count must be >= 1")
    bound = bayes_confidence(prior, config.rounds).lower_bound
    records = []
    for i in range(config.count):
        rng = make_stream(config.seed, i)
        candidate = random_candidate(config.digits, config.policy, rng)
        n = candidate.n
        verdict = miller_rabin(n, config.rounds, rng, _divisor=small_factor(n)) if n % 2 else EVEN
        records.append(ExperimentRecord(candidate, verdict))
    summary = ExperimentSummary(
        digits=config.digits,
        count=config.count,
        rounds=config.rounds,
        seed=config.seed,
        policy=config.policy.label,
        mode=config.mode.value,
        prime_count=sum(r.verdict.is_probable_prime for r in records),
        expected_primes=config.count * prior,
        confidence_lower_bound=bound,
    )
    return records, summary


@dataclass(frozen=True)
class GeneratedPrime:
    value: int
    confidence: ConfidenceReport
    attempts: int
    rounds: int


def generate_prime(
    digits: int,
    target_confidence: float,
    seed: int | None = None,
    policy: FilterPolicy = FilterPolicy.BOTH,
) -> GeneratedPrime:
    """Draw filtered candidates until one survives enough strong rounds.

    The round count is the smallest m whose posterior lower bound meets
    the target for this digit size and policy. The prior is
    filtered_prime_prob(digits, policy), the exact gain W/phi(W) of the
    pool the candidates are drawn from; expected attempts are roughly
    its inverse.

    An even candidate, or one with a prime factor up to SMALL_PRIME_BOUND,
    is rejected before any strong round. Attempt i draws only from
    make_stream(seed, i), so skipping its test bases leaves every other
    attempt, and so the seeded result, unchanged. The prior and round
    count stay those of the filtered pool: the screen only removes
    composites, so the reported bound stays valid and is conservative.
    _check_digits refuses a number too long to print before the first draw.
    """
    prior = filtered_prime_prob(digits, policy)
    _check_digits(digits)
    rounds = rounds_for_confidence(prior, target_confidence)
    for attempt in range(MAX_ATTEMPTS):
        rng = make_stream(seed, attempt)
        candidate = random_candidate(digits, policy, rng)
        if candidate.n % 2 == 0 or small_factor(candidate.n) > 1:
            continue
        verdict = miller_rabin(candidate.n, rounds, rng)
        if verdict.is_probable_prime:
            return GeneratedPrime(
                value=candidate.n,
                confidence=bayes_confidence(prior, rounds),
                attempts=attempt + 1,
                rounds=rounds,
            )
    raise RefusalError(f"no candidate survived within {MAX_ATTEMPTS} attempts")


def _check_digits(digits: int) -> None:
    """Refuse more digits than DIGIT_CAP or a lower int-to-string limit (0, or none before Python 3.10.7: no limit)."""
    cap = min(DIGIT_CAP, getattr(sys, "get_int_max_str_digits", int)() or DIGIT_CAP)
    if digits > cap:
        raise RefusalError(f"numbers capped at {cap} digits, got {digits}")


def render_rows(header: Sequence[str], rows: Iterable[Iterable], fmt: str, within: tuple | None = None) -> Iterator[str]:
    """Rows under a header as csv, a json array of objects, or a table, in
    pieces that joined make the text, with no final newline: csv row by row,
    json JSON_CHUNK_ROWS rows at a time, a table at once, its columns left-
    aligned, padded to their widest cell and two spaces apart. Cells are
    rendered with str(), so callers pass numbers already formatted where a
    fixed form matters. Given within=(obj, key), json writes the array as
    json.dumps({**obj, key: array}, indent=2) does, key in its place in obj or
    else last: the array one level deep, between the object's text around it.
    """
    if fmt == "csv":
        yield ",".join(header)
        for row in rows:
            yield "\n" + ",".join(map(str, row))
    elif fmt == "json":
        text = json.dumps({**within[0], within[1]: _ROWS}, indent=2) if within else _ROWS_JSON
        head, _, tail = text.partition(_ROWS_JSON)
        rows, depth, sep = iter(rows), int(within is not None), head + "["
        while chunk := list(islice(rows, JSON_CHUNK_ROWS)):
            yield sep + _json_rows(header, chunk, depth)
            sep = ","
        yield (head + "[]" if sep != "," else "\n" + "  " * depth + "]") + tail
    elif fmt == "table":
        cells = [list(header)] + [[str(v) for v in row] for row in rows]
        widths = [max(map(len, column)) for column in zip(*cells)]
        yield "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in cells)
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def _json_rows(header: Sequence[str], rows: Sequence[Iterable], depth: int) -> str:
    """json.dumps([dict(zip(header, row)) for row in rows], indent=2) without its
    "[" and final "\\n]", byte for byte, laid out `depth` levels deep in an indent=2 document.

    rows is not empty. Cells must be scalars (str, int, float, None or bool), one
    per key of header, which has at least one key and no key twice. _CELLS encodes
    all the cells in one call, and one format call lays them into a template of
    the rows. From Python 3.13 on json.dumps with an indent runs the C encoder
    itself, so this can go once requires-python reaches 3.13.
    """
    pad = "\n" + "  " * (depth + 1)
    keys = _CELLS.encode(list(header))[1:-1].replace("{", "{{").replace("}", "}}").split("\0")
    row = "," + pad + "{{" + ",".join(pad + "  " + key + ": {}" for key in keys) + pad + "}}"
    cells = _CELLS.encode([cell for row in rows for cell in row])[1:-1].split("\0")
    return (row * (len(cells) // len(keys)))[1:].format(*cells)


def render_fields(fields: Iterable[tuple[str, object]]) -> str:
    """One "key: value" line per field."""
    return "\n".join(f"{key}: {value}" for key, value in fields)


def render_report(records: Iterable[ExperimentRecord], output_format: str, summary: ExperimentSummary) -> str:
    """Render records; numbers always in full decimal, never scientific.

    table: one "<number> <PRIME|COMPOSITE>" line per record, a blank line
    and the summary block. csv: CSV_HEADER, no summary. json: records array
    plus summary. A PRIME row's confidence_lower_bound is the summary's, the
    run's one bound; a COMPOSITE row's is an empty csv cell or a json null.
    csv and json leave through render_rows, whose ValueError is an unknown format's.
    """
    bound = summary.confidence_lower_bound
    prime_bound, composite_bound = (f"{bound:.9f}", "") if output_format == "csv" else (bound, None)
    rows = [
        (r.candidate.n, "PRIME", r.verdict.rounds_survived, prime_bound)
        if r.verdict.is_probable_prime
        else (r.candidate.n, "COMPOSITE", r.rounds_used, composite_bound)
        for r in records
    ]
    if output_format == "table":
        return "\n".join([f"{n} {label}" for n, label, _, _ in rows] + ["", render_fields(summary.fields())])
    within = ({"records": None, "summary": summary.__dict__}, "records")
    return "".join(render_rows(CSV_HEADER, rows, output_format, within))
