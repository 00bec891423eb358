"""Arbitrary-precision number-theoretic kernel.

Pure functions on Python ints: modular exponentiation, extended gcd,
two-adic decomposition, digital roots. No shared state; every function
is safe to call from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TwoAdicDecomposition:
    """An even number written as 2**s * odd_part with odd_part odd."""

    s: int
    odd_part: int

    def recompose(self) -> int:
        return (1 << self.s) * self.odd_part


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """Return base**exponent mod modulus, via builtin three-argument pow.

    O(log exponent) multiplications; exponent 0 yields 1 (empty product).
    Unlike pow, rejects moduli below 2 and negative exponents (modular
    inverses) with ValueError.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    return pow(base, exponent, modulus)


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b.

    Bezout coefficients are signed and not unique; any valid pair may be
    returned.
    """
    if a < 0 or b < 0:
        raise ValueError("inputs must be non-negative")
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def decompose_pow2(even: int) -> TwoAdicDecomposition:
    """Split an even number into 2**s * odd_part (odd_part odd, s >= 1)."""
    if even < 2 or even % 2:
        raise ValueError(f"input must be even and >= 2, got {even}")
    s = (even & -even).bit_length() - 1
    return TwoAdicDecomposition(s=s, odd_part=even >> s)


def digital_root(n: int) -> int:
    """Single-digit root from iterated digit summing.

    0 only for n = 0; multiples of 9 map to 9; otherwise n mod 9.
    Computed with residue arithmetic so 75-digit inputs are cheap.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return 0 if n == 0 else 1 + (n - 1) % 9
