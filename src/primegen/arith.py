"""Arbitrary-precision number-theoretic kernel.

Pure functions on Python ints: modular exponentiation and two-adic
decomposition. Modular exponentiation runs on GMP's mpz_powm when the
GMP shared library loads and the modulus is large enough to pay for the
foreign calls, and on builtin three-argument pow otherwise; both give
the same exact integer. No shared state: each thread owns its operands,
four GMP integers made on its first GMP modexp and cleared when it ends,
so every function is safe to call from any number of threads. Operands
are copied straight into the limbs GMP allocated for them.

Each call through a ctypes CDLL releases the GIL until it returns, so
an mpz_powm on one thread runs alongside the other threads' modexps;
builtin pow holds the GIL throughout. The round loop in primality relies
on this only to compute the head modexps of a large n on several CPUs at once.
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

# Smallest modulus, in bits, that goes through GMP. A modexp makes five foreign
# calls (a memmove into the limbs of each operand, mpz_powm, the string_at that
# reads the result); with the conversions they cost ~5 us over the bare mpz_powm
# at 249 bits. GMP time over builtin pow, exponent n - 1 and a new n per call,
# median of 21 interleaved pairs, two runs (GMP 6.2.1, Python 3.11, x86-64):
# 0.83 / 0.86 / 0.60 / 0.55 at 32 / 40 / 44 / 48 bits with GMP faster in
# 18 / 18 / 21 / 21 of 21, then 0.84 / 0.67 / 0.60 / 0.55 with 21 of 21 at each.
# 44 is the least size that won 20 of 21 in both runs.
GMP_MIN_BITS = 44


class _Mpz(ctypes.Structure):
    """GMP's __mpz_struct: limbs allocated, signed limb count, limb pointer."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("limbs", ctypes.c_void_p)]


_MPZ = ctypes.POINTER(_Mpz)
# name, argtypes, restype of every GMP function this module calls
_GMP_FUNCTIONS = (
    ("__gmpz_init", [_MPZ], None),
    ("__gmpz_clear", [_MPZ], None),
    ("__gmpz_realloc2", [_MPZ, ctypes.c_ulong], None),  # room for this many bits; the value is overwritten next
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

    Initialized once; _set_mpz and mpz_powm grow their limbs as needed.
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


def _set_mpz(lib: ctypes.CDLL, z: _Mpz, value: int) -> None:
    """Set z to value >= 0: its little-endian bytes copied into z's own limbs.

    The limb count is the least that holds value, so the top limb is
    non-zero, and 0 has none; limbs past the count are never read.
    """
    limbs = -(-value.bit_length() // (8 * lib.limb_bytes))
    if limbs > z.alloc:
        lib.__gmpz_realloc2(z, limbs * 8 * lib.limb_bytes)
    ctypes.memmove(z.limbs, value.to_bytes(limbs * lib.limb_bytes, "little"), limbs * lib.limb_bytes)
    z.size = limbs


def _gmp_pow(lib: ctypes.CDLL, base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus through mpz_powm, for base >= 0 and modulus >= 2.

    Operands are written into the thread's own mpz_t and the result is read
    straight from its limbs. CDLL releases the GIL for the duration of each call.
    """
    try:
        operands = _thread.operands
    except AttributeError:
        operands = _thread.operands = _Operands(lib)
    result, base_z, exponent_z, modulus_z = operands.mpz
    _set_mpz(lib, base_z, base)
    _set_mpz(lib, exponent_z, exponent)
    _set_mpz(lib, modulus_z, modulus)
    lib.__gmpz_powm(result, base_z, exponent_z, modulus_z)
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
    return _gmp_pow(lib, base % modulus, exponent, modulus)  # GMP reads magnitudes: reduce a negative base


def decompose_pow2(even: int) -> tuple[int, int]:
    """(s, odd_part) with even = 2**s * odd_part, odd_part odd and s >= 1."""
    if even < 2 or even % 2:
        raise ValueError(f"input must be even and >= 2, got {even}")
    s = (even & -even).bit_length() - 1
    return s, even >> s
