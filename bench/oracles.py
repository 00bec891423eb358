"""Output checks that do not depend on primegen.

Only the standard library is used: builtin `pow` for strong tests,
trial division for factoring, and the closed formulas of the paper
recomputed from their definitions. Every check returns a list of
problems, empty when the output is right, so that a run can count a
failed op and carry on.
"""

from __future__ import annotations

import json
import math

STRONG_BASES = (2, 3, 5, 7, 11, 13, 17)
CARMICHAEL_BELOW_1E6 = 43  # OEIS A002997
BASE2_PSEUDOPRIMES_BELOW_1E6 = 245  # OEIS A001567
LN10 = math.log(10.0)
CORRECTED_BOTH_FACTOR = 2.5 * 1.5  # last-digit gain times corrected digital-root gain

# Printed values carry 9 decimals; allow rounding plus float error.
PRINT_TOL = 2e-9


def is_strong_liar(n: int, a: int) -> bool:
    """True iff odd n >= 5 passes the strong (Miller-Rabin) test to base a."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(a, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Strong test to the fixed bases; exact for n < 3.4e14."""
    if n < 2:
        return False
    for p in STRONG_BASES:
        if n % p == 0:
            return n == p
    return all(is_strong_liar(n, a) for a in STRONG_BASES)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def is_odd_composite(n: int) -> bool:
    return n > 1 and n % 2 == 1 and sum(factorize(n).values()) > 1


def _parse_ints(text: str) -> list[int] | None:
    try:
        return [int(tok) for tok in text.split()]
    except ValueError:
        return None


def _ascending_below(values: list[int], limit: int) -> list[str]:
    problems = []
    if any(b <= a for a, b in zip(values, values[1:])):
        problems.append("values are not strictly ascending")
    if values and values[-1] > limit:
        problems.append(f"value {values[-1]} exceeds the limit {limit}")
    return problems


# ---- generation and batches ------------------------------------------------


def check_generated_prime(n: int, digits: int, lower_bound: float, target: float) -> list[str]:
    problems = []
    if len(str(n)) != digits:
        problems.append(f"{n} does not have {digits} digits")
    if not is_probable_prime(n):
        problems.append(f"{n} fails the strong test to bases {STRONG_BASES}")
    if not lower_bound >= target:
        problems.append(f"confidence bound {lower_bound} is below the target {target}")
    return problems


def check_batch(records: list[tuple[int, str, int | None, int | None]], report: str,
                digits: int, count: int) -> list[str]:
    """records: (number, PRIME|COMPOSITE, witness, factor); report: the JSON rendering."""
    problems = []
    if len(records) != count:
        problems.append(f"{len(records)} records, expected {count}")
    for n, label, witness, factor in records:
        if len(str(n)) != digits or n % 10 not in (1, 3, 7, 9) or n % 3 == 0:
            problems.append(f"{n} is not a filtered {digits}-digit candidate")
        elif label == "PRIME":
            if not is_probable_prime(n):
                problems.append(f"{n} reported PRIME fails the strong test")
        elif label == "COMPOSITE":
            if factor is not None and not (1 < factor < n and n % factor == 0):
                problems.append(f"factor {factor} does not divide {n}")
            if witness is None or not 2 <= witness <= n - 2 or is_strong_liar(n, witness):
                problems.append(f"witness {witness} does not prove {n} composite")
        else:
            problems.append(f"unknown verdict {label!r}")
    try:
        payload = json.loads(report)
        rendered = [(r["number"], r["verdict"]) for r in payload["records"]]
        primes = payload["summary"]["prime_count"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"report is not the expected JSON: {exc}"]
    if rendered != [(n, label) for n, label, _, _ in records]:
        problems.append("rendered records differ from the returned records")
    if primes != sum(label == "PRIME" for _, label, _, _ in records):
        problems.append("summary prime_count differs from the PRIME records")
    return problems


def check_test_report(code: int, text: str, rounds: int) -> list[str]:
    """`primegen test` on a prime above the exact-oracle bound."""
    expected = [f"{name}[m={rounds}]: PROBABLE_PRIME" for name in ("fermat", "euler", "miller_rabin")]
    if code != 0 or text.splitlines() != expected:
        return [f"exit {code}, output {text!r}, expected {expected}"]
    return []


# ---- pseudoprime lab -------------------------------------------------------


def is_carmichael(n: int) -> bool:
    """Korselt: odd, squarefree, at least two primes, p - 1 | n - 1 for each."""
    f = factorize(n)
    return (n % 2 == 1 and len(f) > 1 and all(e == 1 for e in f.values())
            and all((n - 1) % (p - 1) == 0 for p in f))


def check_carmichael(text: str, limit: int) -> list[str]:
    values = _parse_ints(text)
    if values is None:
        return ["output is not a list of integers"]
    problems = _ascending_below(values, limit)
    if limit == 10**6 and len(values) != CARMICHAEL_BELOW_1E6:
        problems.append(f"{len(values)} Carmichael numbers below 10^6, expected {CARMICHAEL_BELOW_1E6}")
    problems += [f"{n} is not a Carmichael number" for n in values if not is_carmichael(n)]
    return problems


def check_pseudoprimes(text: str, base: int, limit: int) -> list[str]:
    values = _parse_ints(text)
    if values is None:
        return ["output is not a list of integers"]
    problems = _ascending_below(values, limit)
    if (base, limit) == (2, 10**6) and len(values) != BASE2_PSEUDOPRIMES_BELOW_1E6:
        problems.append(f"{len(values)} base-2 pseudoprimes below 10^6, expected {BASE2_PSEUDOPRIMES_BELOW_1E6}")
    for n in values:
        if n % 2 == 0 or is_probable_prime(n) or pow(base, n - 1, n) != 1:
            problems.append(f"{n} is not an odd Fermat pseudoprime to base {base}")
    return problems


def fermat_liar_count(n: int) -> int:
    """Bases in [1, n-1] with a^(n-1) = 1 (mod n): the product of gcd(n-1, p-1)."""
    return math.prod(math.gcd(n - 1, p - 1) for p in factorize(n))


CENSUS_FIELDS = ("n", "total_bases", "fermat_liars", "euler_liars", "strong_liars")


def check_census(text: str, fmt: str, start: int, end: int) -> list[str]:
    """`primegen lab census` output in csv or json."""
    try:
        if fmt == "json":
            rows = [tuple(row[key] for key in CENSUS_FIELDS) for row in json.loads(text)]
        else:
            lines = text.splitlines()
            if not lines or lines[0] != ",".join(CENSUS_FIELDS):
                return ["census header missing"]
            rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"census {fmt} output does not parse: {exc}"]
    return check_census_rows(rows, start, end)


def check_census_rows(rows: list[tuple[int, ...]], start: int, end: int) -> list[str]:
    """rows: (n, total_bases, fermat, euler, strong) for every odd composite in [start, end]."""
    problems = []
    expected = [n for n in range(start | 1, end + 1, 2) if is_odd_composite(n)]
    if [row[0] for row in rows] != expected:
        problems.append("census rows do not cover exactly the odd composites of the range")
    for row in rows:
        if len(row) != 5:
            problems.append(f"malformed census row {row}")
            continue
        n, total, fermat, euler, strong = row
        if total != n - 1:
            problems.append(f"n={n}: total_bases {total}, expected {n - 1}")
        if not 0 < strong <= euler <= fermat:
            problems.append(f"n={n}: liar counts not nested (strong <= euler <= fermat)")
        if fermat != fermat_liar_count(n):
            problems.append(f"n={n}: {fermat} Fermat liars, expected {fermat_liar_count(n)}")
    return problems


def check_absolute_euler(n: int, text: str) -> list[str]:
    """Absolute Euler pseudoprime iff squarefree with p - 1 | (n-1)/2 for every p | n."""
    f = factorize(n)
    expected = all(e == 1 for e in f.values()) and all(((n - 1) // 2) % (p - 1) == 0 for p in f)
    if text.strip() != ("true" if expected else "false"):
        return [f"absolute-euler {n}: got {text.strip()!r}, expected {str(expected).lower()}"]
    return []


def check_sqrt_of_unity(n: int, text: str) -> list[str]:
    """For odd n the roots of x^2 = 1 number 2^(distinct prime factors)."""
    roots = _parse_ints(text)
    if roots is None:
        return ["output is not a list of integers"]
    problems = _ascending_below(roots, n - 1)
    if any(x < 1 or x * x % n != 1 for x in roots):
        problems.append(f"a listed value is not a square root of 1 mod {n}")
    expected = 2 ** len(factorize(n))
    if len(roots) != expected:
        problems.append(f"{len(roots)} roots mod {n}, expected {expected}")
    return problems


# ---- density and confidence ------------------------------------------------

DENSITY_COLUMNS = ("digits", "pool_size", "prime_count_estimate", "dusart_lower",
                   "dusart_upper", "base_prob", "filtered_prob")


def density_row(k: int) -> dict[str, float]:
    """Expected row for policy both, mode corrected; counts as mantissas at 10^(k-1)."""
    base = (9 * k - 10) / (9 * k * (k - 1) * LN10)
    return {
        "pool_size": 2.4,  # 24 * 10^(k-2) survivors of both filters
        "prime_count_estimate": (9 * k - 10) / (LN10 * k * (k - 1)),
        "dusart_lower": 10 / (k * LN10 - 1) - 1 / ((k - 1) * LN10 - 1.1),
        "dusart_upper": 10 / (k * LN10 - 1.1) - 1 / ((k - 1) * LN10 - 1),
        "base_prob": base,
        "filtered_prob": base * CORRECTED_BOTH_FACTOR,
    }


def _parse_density(text: str, fmt: str) -> list[dict[str, str]]:
    if fmt == "json":
        return [{key: str(value) for key, value in row.items()} for row in json.loads(text)["rows"]]
    lines = text.splitlines()
    split = (lambda line: line.split(",")) if fmt == "csv" else str.split
    header = split(lines[0])
    return [dict(zip(header, split(line))) for line in lines[1:]]


def check_density(text: str, fmt: str, lo: int, hi: int) -> list[str]:
    """`primegen density --digits lo-hi` with lo >= 6, so every Dusart column is filled."""
    try:
        rows = _parse_density(text, fmt)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"density {fmt} output does not parse: {exc}"]
    if [row.get("digits") for row in rows] != [str(k) for k in range(lo, hi + 1)]:
        return [f"density rows do not cover digits {lo}-{hi}"]
    problems = []
    for row in rows:
        k = int(row["digits"])
        if tuple(row) != DENSITY_COLUMNS:
            problems.append(f"k={k}: columns {tuple(row)}")
            continue
        for key, want in density_row(k).items():
            value = row[key]
            if key in ("base_prob", "filtered_prob"):
                got, exp10 = float(value), k - 1
            else:
                mantissa, _, exp_text = value.partition("e")
                got, exp10 = float(mantissa), int(exp_text)
            if exp10 != k - 1 or not math.isclose(got, want, rel_tol=1e-9, abs_tol=PRINT_TOL):
                problems.append(f"k={k}: {key} {value}, expected {want:.9f}")
    return problems


def confidence_fields(prior: float, rounds: int, target: float | None) -> dict[str, float]:
    """Bayes bound after m passed strong rounds: 1 - ((1-p)/p) / 4^m."""
    ratio = (1 - prior) / prior
    miss = 0.25**rounds
    fields = {
        "prior_p": prior,
        "prior_c": 1 - prior,
        "rounds": rounds,
        "ratio": ratio,
        "slack": ratio * miss,
        "lower_bound": 1 - ratio * miss,
        "exact_posterior": prior / (prior + (1 - prior) * miss),
    }
    if target is not None:
        m = 1
        while 1 - ratio * 0.25**m < target:
            m += 1
        fields["rounds_for_target"] = m
    return fields


def digits_prior(k: int) -> float:
    return (9 * k - 10) / (9 * k * (k - 1) * LN10) * CORRECTED_BOTH_FACTOR


def check_confidence(text: str, fmt: str, prior: float, rounds: int, target: float | None) -> list[str]:
    want = confidence_fields(prior, rounds, target)
    try:
        if fmt == "json":
            got = json.loads(text)
        elif fmt == "csv":
            header, values = text.splitlines()
            got = dict(zip(header.split(","), values.split(",")))
        else:
            got = dict(line.split(": ", 1) for line in text.splitlines())
    except ValueError as exc:
        return [f"confidence {fmt} output does not parse: {exc}"]
    if list(got) != list(want):
        return [f"confidence fields {list(got)}, expected {list(want)}"]
    problems = []
    for key, value in want.items():
        text_value = str(got[key])
        if fmt == "table" and key == "lower_bound" and value < 0:
            ok = text_value == "< 0 (uninformative)"
        elif isinstance(value, int):
            ok = text_value == str(value)
        else:
            ok = math.isclose(float(text_value), value, rel_tol=1e-9, abs_tol=PRINT_TOL)
        if not ok:
            problems.append(f"confidence {key}: {text_value}, expected {value!r}")
    return problems
