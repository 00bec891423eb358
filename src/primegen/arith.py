"""Arbitrary-precision number-theoretic kernel.

Pure functions on Python ints: modular exponentiation and two-adic
decomposition. No shared state; every function is safe to call from any
number of threads.
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


def decompose_pow2(even: int) -> TwoAdicDecomposition:
    """Split an even number into 2**s * odd_part (odd_part odd, s >= 1)."""
    if even < 2 or even % 2:
        raise ValueError(f"input must be even and >= 2, got {even}")
    s = (even & -even).bit_length() - 1
    return TwoAdicDecomposition(s=s, odd_part=even >> s)
