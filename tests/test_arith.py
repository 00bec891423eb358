import pytest
from hypothesis import given, strategies as st

from primegen.arith import TwoAdicDecomposition, decompose_pow2, mod_pow


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

    @given(st.integers(0, 10**40), st.integers(0, 10**6), st.integers(2, 10**30))
    def test_matches_builtin(self, base, exponent, modulus):
        assert mod_pow(base, exponent, modulus) == pow(base, exponent, modulus)

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

