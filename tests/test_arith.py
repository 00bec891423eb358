import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from primegen import arith
from primegen.arith import GMP_MIN_BITS, TwoAdicDecomposition, decompose_pow2, mod_pow

SRC = str(Path(arith.__file__).parents[1])
GMP_LOADS = arith._libgmp() is not None

# every modulus size from 2 to 4096 bits, on both sides of GMP_MIN_BITS
moduli = st.integers(2, 4096).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))

# (base, exponent, modulus) at the cutoff's neighbours and at 1024 bits: odd and
# even moduli, negative bases, bases >= modulus, exponent 0, exponent > modulus
EDGE_CASES = [
    (base, exponent, modulus)
    for bits in (GMP_MIN_BITS - 1, GMP_MIN_BITS, 1024)
    for modulus in ((1 << bits) - 59, (1 << bits) - 58)
    for base in (-modulus - 7, -2, 0, 1, 3, modulus - 1, modulus, 5 * modulus + 3)
    for exponent in (0, 1, 65537, modulus + 12345)
]


@pytest.fixture(params=["gmp", "builtin"])
def binding(request, monkeypatch):
    """Runs a test once as the package runs it and once with libgmp forced not to load."""
    if request.param == "builtin":
        monkeypatch.setattr(arith, "_libgmp", lambda: None)
    return request.param


def naive_pow_mod(base: int, exponent: int, modulus: int) -> int:
    """Oracle: direct repeated multiplication."""
    result = 1
    for _ in range(exponent):
        result = result * base % modulus
    return result


class TestModPow:
    def test_worked_identities(self):
        assert mod_pow(2, 560, 561) == 1
        assert mod_pow(5, 280, 561) == 67
        assert mod_pow(2, 340, 341) == 1
        assert mod_pow(5, 170, 341) == 56

    def test_zero_exponent_is_one(self):
        for a in (0, 1, 2, 17, 10**40):
            assert mod_pow(a, 0, 97) == 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mod_pow(2, 3, 1)
        with pytest.raises(ValueError):
            mod_pow(2, 3, 0)
        with pytest.raises(ValueError):
            mod_pow(2, -1, 7)

    @settings(max_examples=60, deadline=None)
    @given(modulus=moduli, data=st.data())
    def test_matches_builtin(self, modulus, data):
        base = data.draw(st.integers(-3 * modulus, 3 * modulus), label="base")
        exponent = data.draw(st.one_of(st.integers(0, 2**64), st.integers(modulus, 2 * modulus)), label="exponent")
        expected = pow(base, exponent, modulus)
        assert mod_pow(base, exponent, modulus) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_libgmp", lambda: None)  # as on a host without libgmp: builtin pow only
            assert mod_pow(base, exponent, modulus) == expected

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(2, 10**4))
    def test_matches_naive_oracle(self, base, exponent, modulus):
        assert mod_pow(base, exponent, modulus) == naive_pow_mod(base, exponent, modulus)

    @given(
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**64 - 1),
        st.integers(2, 2**64 - 1),
    )
    def test_exponent_additivity(self, a, e1, e2, n):
        combined = mod_pow(a, e1 + e2, n)
        assert combined == mod_pow(a, e1, n) * mod_pow(a, e2, n) % n


class TestGmpKernel:
    """mod_pow through libgmp, checked against builtin pow."""

    def test_edge_cases_match_builtin(self, binding):
        for base, exponent, modulus in EDGE_CASES:
            assert mod_pow(base, exponent, modulus) == pow(base, exponent, modulus), (base, exponent, modulus)

    def test_threads_share_no_state(self, binding):
        # more threads than CPUs; ctypes releases the GIL inside mpz_powm, so
        # the calls overlap, and a cleared cache makes the threads race to load libgmp
        n = (1 << 2047) + 1155  # any 2048-bit modulus will do
        jobs = [(3 + 2 * i, n - 1 - i) for i in range(8)]
        expected = [pow(a, e, n) for a, e in jobs]
        results: list[list[int]] = [[] for _ in jobs]

        def work(i):
            a, e = jobs[i]
            results[i].extend(mod_pow(a, e, n) for _ in range(3))

        if binding == "gmp":
            arith._libgmp.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[x] * 3 for x in expected]

    @pytest.mark.skipif(not GMP_LOADS, reason="libgmp does not load on this host")
    @pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads the resident set from /proc")
    def test_no_memory_kept_across_calls(self):
        # A missed mpz_clear keeps ~800 bytes per 2048-bit call: 16 MB in 20 000
        # calls. The resident set is read from /proc, not from ru_maxrss, which
        # a child started from this process inherits at the parent's peak.
        code = """if True:
            import os, random
            from primegen.arith import mod_pow

            def resident():
                with open("/proc/self/statm") as fh:
                    return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

            rng = random.Random(1)
            n = rng.getrandbits(2048) | 1 << 2047 | 1
            bases = [rng.getrandbits(2048) for _ in range(100)]
            for a in bases:
                mod_pow(a, 65537, n)
            before = resident()
            for _ in range(200):
                for a in bases:
                    mod_pow(a, 65537, n)
            print(resident() - before)
        """
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 4 << 20

    def test_loading_starts_no_process(self):
        # ctypes.util.find_library would run ldconfig or a compiler
        code = """if True:
            import sys
            events = []
            sys.addaudithook(lambda event, args: events.append(event)
                             if event.startswith(("subprocess.", "os.exec", "os.fork", "os.posix_spawn", "os.system"))
                             else None)
            from primegen.arith import mod_pow
            mod_pow(3, 1 << 2048, (1 << 2048) - 1)
            print(events)
        """
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestDecomposePow2:
    def test_worked_examples(self):
        assert decompose_pow2(560) == TwoAdicDecomposition(s=4, odd_part=35)
        assert 16 * 35 == 560
        assert decompose_pow2(2) == TwoAdicDecomposition(s=1, odd_part=1)
        assert decompose_pow2(340) == TwoAdicDecomposition(s=2, odd_part=85)
        assert 4 * 85 == 340

    def test_exhaustive_roundtrip_to_a_million(self):
        for x in range(2, 10**6 + 1, 2):
            dec = decompose_pow2(x)
            # independent oracle: strip factors of two one at a time
            s, odd = 0, x
            while odd % 2 == 0:
                odd //= 2
                s += 1
            assert (dec.s, dec.odd_part) == (s, odd)
            assert dec.odd_part % 2 == 1
            assert dec.recompose() == x

    def test_domain_errors(self):
        for bad in (0, 1, 3, 561):
            with pytest.raises(ValueError):
                decompose_pow2(bad)

