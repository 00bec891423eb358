"""Arbitrary-precision number-theoretic kernel.

Pure functions on Python ints: modular exponentiation and two-adic
decomposition. Modular exponentiation runs on GMP's mpz_powm when the
GMP shared library loads and the modulus is large enough to pay for the
foreign calls, and on builtin three-argument pow otherwise; both give
the same exact integer. No shared state: every mpz lives inside one
call, so every function is safe to call from any number of threads.

Each call through a ctypes CDLL releases the GIL until it returns, so
an mpz_powm on one thread runs alongside the other threads' modexps;
builtin pow holds the GIL throughout. The round loop in primality relies
on this only to compute the chains of a large n on several CPUs at once.
"""

from __future__ import annotations

import ctypes
import functools

# Sonames handed to CDLL in order (Linux, then macOS). A fixed list, so that
# loading runs no ldconfig or compiler as ctypes.util.find_library would.
GMP_SONAMES = ("libgmp.so.10", "libgmp.10.dylib")

# Smallest modulus, in bits, that goes through GMP. Thirteen foreign calls and
# the conversions cost ~15 us per modexp, so with exponent n - 1 the crossover
# is near 64 bits: builtin pow 6.8 / 20 / 39 us at 32 / 64 / 100 bits, the GMP
# path 18 / 19 / 24 us (GMP 6.2.1, Python 3.11, x86-64, min of 7 timeit runs).
GMP_MIN_BITS = 64


class _Mpz(ctypes.Structure):
    """GMP's __mpz_struct: limbs allocated, signed limb count, limb pointer."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("limbs", ctypes.c_void_p)]


_MPZ = ctypes.POINTER(_Mpz)
# name, argtypes, restype of every GMP function this module calls
_GMP_FUNCTIONS = (
    ("__gmpz_init", [_MPZ], None),
    ("__gmpz_clear", [_MPZ], None),
    # rop, count, order, size, endian, nails, op
    ("__gmpz_import", [_MPZ, ctypes.c_size_t, ctypes.c_int, ctypes.c_size_t, ctypes.c_int, ctypes.c_size_t,
                       ctypes.c_char_p], None),
    # rop, countp, order, size, endian, nails, op
    ("__gmpz_export", [ctypes.c_char_p, ctypes.POINTER(ctypes.c_size_t), ctypes.c_int, ctypes.c_size_t,
                       ctypes.c_int, ctypes.c_size_t, _MPZ], ctypes.c_void_p),
    ("__gmpz_powm", [_MPZ, _MPZ, _MPZ, _MPZ], None),
)


@functools.cache
def _libgmp() -> ctypes.CDLL | None:
    """libgmp with _GMP_FUNCTIONS declared, or None when no soname loads."""
    for soname in GMP_SONAMES:
        try:
            lib = ctypes.CDLL(soname)
            for name, argtypes, restype in _GMP_FUNCTIONS:
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = argtypes, restype
        except (OSError, AttributeError):  # not found, or a library without these symbols
            continue
        return lib
    return None


def _gmp_pow(lib: ctypes.CDLL, base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus through mpz_powm, for base >= 0 and modulus >= 2.

    Integers cross as little-endian byte strings; CDLL releases the GIL
    for the duration of each call.
    """
    result, *operands = mpz = [_Mpz() for _ in range(4)]
    for z in mpz:
        lib.__gmpz_init(z)
    try:
        for z, value in zip(operands, (base, exponent, modulus)):
            data = value.to_bytes((value.bit_length() + 7) // 8, "little")
            lib.__gmpz_import(z, len(data), -1, 1, 0, 0, data)
        lib.__gmpz_powm(result, *operands)
        out = ctypes.create_string_buffer((modulus.bit_length() + 7) // 8)  # the result is below modulus
        lib.__gmpz_export(out, None, -1, 1, 0, 0, result)  # a NULL countp discards the byte count
        return int.from_bytes(out.raw, "little")  # the unwritten high bytes stay zero
    finally:
        for z in mpz:
            lib.__gmpz_clear(z)


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """Return base**exponent mod modulus, in [0, modulus).

    Via GMP's mpz_powm for moduli of at least GMP_MIN_BITS bits when
    libgmp loads, else via builtin three-argument pow; the two agree
    exactly. O(log exponent) multiplications; exponent 0 yields 1 (empty
    product). Unlike pow, rejects moduli below 2 and negative exponents
    (modular inverses) with ValueError.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    if modulus.bit_length() < GMP_MIN_BITS or (lib := _libgmp()) is None:
        return pow(base, exponent, modulus)
    return _gmp_pow(lib, base % modulus, exponent, modulus)  # GMP imports magnitudes: reduce a negative base


def decompose_pow2(even: int) -> tuple[int, int]:
    """(s, odd_part) with even = 2**s * odd_part, odd_part odd and s >= 1."""
    if even < 2 or even % 2:
        raise ValueError(f"input must be even and >= 2, got {even}")
    s = (even & -even).bit_length() - 1
    return s, even >> s
