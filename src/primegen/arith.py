"""Arbitrary-precision number-theoretic kernel.

Pure functions on Python ints: modular exponentiation and two-adic
decomposition. Modular exponentiation runs on GMP's mpz_powm when the
GMP shared library loads and the modulus is large enough to pay for the
foreign calls, and on builtin three-argument pow otherwise; both give
the same exact integer. No shared state: each thread owns its operands,
four GMP integers made on its first GMP modexp and cleared when it ends,
so every function is safe to call from any number of threads.

Each call through a ctypes CDLL releases the GIL until it returns, so
an mpz_powm on one thread runs alongside the other threads' modexps;
builtin pow holds the GIL throughout. The round loop in primality relies
on this only to compute the chains of a large n on several CPUs at once.
"""

from __future__ import annotations

import ctypes
import functools
import sys
import threading
import weakref

# Sonames handed to CDLL in order (Linux, then macOS). A fixed list, so that
# loading runs no ldconfig or compiler as ctypes.util.find_library would.
GMP_SONAMES = ("libgmp.so.10", "libgmp.10.dylib")

# Smallest modulus, in bits, that goes through GMP. Five foreign calls (three
# mpz_import, mpz_powm, the string_at that reads the result) and the conversions
# cost ~7 us per modexp, so with exponent n - 1 the crossover is near 44 bits:
# builtin pow 6.8 / 16 / 31 us at 32 / 64 / 100 bits, the GMP path 8.1 / 8.1 /
# 9.2 us (GMP 6.2.1, Python 3.11, x86-64, min of 7 timeit runs). GMP time over
# builtin, median of 21 interleaved pairs: 1.09 at 40 bits, 0.96 at 44, 0.88 at
# 48, where GMP was faster in 20 of 21.
GMP_MIN_BITS = 48


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
    ("__gmpz_powm", [_MPZ, _MPZ, _MPZ, _MPZ], None),
)


@functools.cache
def _libgmp() -> ctypes.CDLL | None:
    """libgmp with _GMP_FUNCTIONS declared and limb_bytes set, or None when
    no soname loads or the host is big-endian.

    _gmp_pow reads a result's limbs as one little-endian byte string, which
    is its value only on a little-endian host.
    """
    if sys.byteorder != "little":
        return None
    for soname in GMP_SONAMES:
        try:
            lib = ctypes.CDLL(soname)
            for name, argtypes, restype in _GMP_FUNCTIONS:
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = argtypes, restype
            lib.limb_bytes = ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value // 8
        except (OSError, AttributeError, ValueError):  # not found, or a library without these symbols
            continue
        return lib
    return None


class _Operands:
    """One thread's result, base, exponent and modulus mpz_t.

    Initialized once; mpz_import and mpz_powm grow their limbs as needed.
    Between calls the thread's slot in _thread holds the only reference,
    so the four are cleared when the thread ends. Not at interpreter exit: a daemon
    thread may still be inside mpz_powm then, and the process frees all.
    """

    def __init__(self, lib: ctypes.CDLL):
        # getattr: a class body would mangle lib.__gmpz_init to lib._Operands__gmpz_init
        init, clear = getattr(lib, "__gmpz_init"), getattr(lib, "__gmpz_clear")
        self.mpz = mpz = [_Mpz() for _ in range(4)]
        for z in mpz:
            init(z)
        weakref.finalize(self, lambda: [clear(z) for z in mpz]).atexit = False


_thread = threading.local()  # .operands: the thread's _Operands, made on its first GMP modexp


def _gmp_pow(lib: ctypes.CDLL, base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus through mpz_powm, for base >= 0 and modulus >= 2.

    Operands cross as little-endian byte strings into the thread's own
    mpz_t; the result is read straight from its limbs. CDLL releases the
    GIL for the duration of each call.
    """
    try:
        operands = _thread.operands
    except AttributeError:
        operands = _thread.operands = _Operands(lib)
    result, *inputs = operands.mpz
    for z, value in zip(inputs, (base, exponent, modulus)):
        data = value.to_bytes((value.bit_length() + 7) // 8, "little")
        lib.__gmpz_import(z, len(data), -1, 1, 0, 0, data)
    lib.__gmpz_powm(result, *inputs)
    return int.from_bytes(ctypes.string_at(result.limbs, result.size * lib.limb_bytes), "little")


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
