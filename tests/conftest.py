import math
from collections import Counter
from functools import lru_cache
from statistics import NormalDist

import pytest
from hypothesis import settings

settings.register_profile("suite", derandomize=True, max_examples=200)
settings.load_profile("suite")


@lru_cache(maxsize=4)
def _prime_flags(limit: int) -> bytes:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            start = i * i
            flags[start :: i] = bytearray((limit - start) // i + 1)
    return bytes(flags)


@pytest.fixture(scope="session")
def prime_flags():
    """Independent sieve oracle: prime_flags(limit)[n] == 1 iff n is prime."""
    return _prime_flags


def _liar_oracle(n: int, a: int) -> tuple[bool, bool, bool]:
    m, s = n - 1, 0
    while m % 2 == 0:
        m, s = m // 2, s + 1
    fermat = pow(a, n - 1, n) == 1
    euler = pow(a, (n - 1) // 2, n) in (1, n - 1)
    strong = pow(a, m, n) == 1 or any(pow(a, m << i, n) == n - 1 for i in range(s))
    return fermat, euler, strong


@pytest.fixture(scope="session")
def liar_oracle():
    """Independent round-test oracle from builtin pow alone:
    liar_oracle(n, a) is the (fermat, euler, strong) pass flags of base a
    against odd n >= 3."""
    return _liar_oracle


@pytest.fixture(scope="session")
def pi_exact():
    """Exact prime-counting oracle pi(x) from the sieve."""

    def count(x: int) -> int:
        flags = _prime_flags(x)
        return sum(flags)

    return count


def _uniform_p_value(values: list[int], cells: int) -> float:
    expected, df = len(values) / cells, cells - 1
    counts = Counter(values)
    statistic = sum((counts[c] - expected) ** 2 for c in range(cells)) / expected
    z = ((statistic / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
    return 1 - NormalDist().cdf(z)


@pytest.fixture(scope="session")
def uniform_p_value():
    """Upper-tail p-value of the chi-square statistic of `values` in range(cells)
    against the uniform distribution, by the Wilson-Hilferty cube-root normal
    approximation with cells - 1 degrees of freedom: uniform_p_value(values, cells)."""
    return _uniform_p_value
