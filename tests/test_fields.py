"""Scalar arithmetic over Q and GF(p)."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from artifact.fields import GF, QQ, FieldError, _is_prime, field_from_json

gf5 = GF(5)


def test_rational_parse_accepts_ints_fractions_strings():
    assert QQ.parse(3) == Fraction(3)
    assert QQ.parse(Fraction(2, 7)) == Fraction(2, 7)
    assert QQ.parse("-4/6") == Fraction(-2, 3)
    assert QQ.parse(" 5 ") == Fraction(5)


def test_rational_parse_rejects_bools_floats_and_garbage():
    for bad in (True, False, 1.5, "x/y", "1/0", None, [1], "1e999999999", "1.5"):
        with pytest.raises(FieldError):
            QQ.parse(bad)


def test_rational_json_round_trip():
    assert QQ.to_json(Fraction(3)) == 3
    assert QQ.to_json(Fraction(-2, 7)) == "-2/7"
    assert QQ.parse(QQ.to_json(Fraction(22, 6))) == Fraction(11, 3)


def test_prime_field_rejects_composite_modulus():
    for bad in (0, 1, 4, 6, 9, -5, "7"):
        with pytest.raises(FieldError):
            field_from_json({"p": bad})


def test_primality_agrees_with_sympy_below_1e5():
    assert [n for n in range(10 ** 5) if _is_prime(n) != sympy.isprime(n)] == []


def test_strong_pseudoprimes_are_rejected():
    # strong pseudoprimes to the prime bases 2..7, 2..31 and 2..37; the
    # last one passes Miller-Rabin with the first twelve prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not sympy.isprime(n)
        with pytest.raises(FieldError):
            GF(n)


def test_large_prime_moduli_are_built_and_oversized_ones_refused():
    for p in (2 ** 61 - 1, 2 ** 64 - 59):  # trial division hangs on these
        assert GF(p).p == p
    with pytest.raises(FieldError, match="bound"):
        field_from_json({"p": 2 ** 89 - 1})  # prime, beyond the proven bound


def test_prime_field_parse_normalizes():
    assert gf5.parse(7) == 2
    assert gf5.parse(-1) == 4
    with pytest.raises(FieldError):
        gf5.parse(True)
    with pytest.raises(FieldError):
        gf5.parse("3")


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf5.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_field_descriptor_round_trip():
    assert field_from_json("Q") is QQ
    assert field_from_json({"p": 5}) is gf5
    with pytest.raises(FieldError):
        field_from_json({"q": 5})
    with pytest.raises(FieldError):
        field_from_json(5)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_gf5_ring_axioms(a, b, c):
    f = gf5
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero
    assert f.mul(a, f.one) == a


@given(st.integers(1, 4))
def test_gf5_inverses(a):
    assert gf5.mul(a, gf5.inv(a)) == 1


@given(st.fractions(min_value=-5, max_value=5, max_denominator=7),
       st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_rational_sub_div_consistency(a, b):
    assert QQ.sub(a, b) == QQ.add(a, QQ.neg(b))
    if b != 0:
        assert QQ.mul(QQ.div(a, b), b) == a
