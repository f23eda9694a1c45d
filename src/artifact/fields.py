"""Exact scalar arithmetic over Q and over prime fields GF(p).

A field object owns the arithmetic; scalar values are plain Python objects
(fractions.Fraction for Q, ints in range(p) for GF(p)).  Everything that
combines scalars carries a field and refuses to mix fields, so a GF(5)
value can never leak into a rational computation.

Input from outside the program is refused with InputError, and every nested
JSON list is read by read_nested, which accepts exactly the expected shape.
A scalar literal has one rule, read_literal, which reads it straight to the
integer pair (num, den) of its value: over GF(p) an int, not a bool, as its
residue over 1; over Q an int or a Fraction, or a string "num" or
"num/den" of decimal digits with an optional sign and surrounding
whitespace, in lowest terms.  A string literal has no exponent or point,
so its value is no larger than its text, and one whose digits pass int's
digit limit, or whose den is 0, is refused.  Each field's parse is that
pair as a scalar, and algebra.algebra_from_json reads a document's products
by the pairs alone, so a parsed algebra makes no field scalar.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int]


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class FieldError(InputError):
    pass


def read_nested(obj, shape: tuple, parse, what: str):
    """obj, a JSON value, as nested tuples of exactly the given shape.

    Each leaf goes through parse: a callable that raises InputError (a
    field's parse raises FieldError), or a type the leaf must have exactly,
    so that JSON true is not an int.  Anything else is an InputError naming
    what.
    """

    def read(x, depth):
        if depth == len(shape):
            if not isinstance(parse, type):
                return parse(x)
            if type(x) is not parse:
                raise InputError(f"{what} entries must be of type {parse.__name__}, got {x!r}")
            return x
        if not isinstance(x, list) or len(x) != shape[depth]:
            raise InputError(f"{what} must be nested lists of shape {shape}")
        return tuple(read(y, depth + 1) for y in x)

    return read(obj, 0)


# Deterministic Miller-Rabin: the first thirteen primes as bases decide every
# n below _MR_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster 2017; twelve bases stop at 318665857834031151167461).  Moduli at or
# beyond the bound are refused rather than guessed at.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p >= _MR_BOUND:
        raise FieldError(f"modulus {p} is beyond the proven primality test bound")
    if p < 2 or any(p % q == 0 for q in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    # p is a strong probable prime to base a: a^d = 1, or a^(d*2^r) = -1 for some r < s
    return all(x == 1 or p - 1 in (pow(x, 2 ** r, p) for r in range(s))
               for x in (pow(a, d, p) for a in _MR_BASES))


class Rationals:
    """Field descriptor for exact rational arithmetic."""

    char = 0
    p = None

    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self) -> str:
        return "Q"

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("field:Q")

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        return a / b

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def parse(self, token) -> Fraction:
        return Fraction(*read_literal(self, token))

    def to_json(self, a: Fraction):
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"

    def field_to_json(self):
        return "Q"


class PrimeField:
    """Field descriptor for GF(p), scalars are ints in range(p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldError(f"modulus must be prime, got {p!r}")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("field:GF", self.p))

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return (a * self.inv(b)) % self.p

    def from_int(self, n: int) -> int:
        return n % self.p

    def parse(self, token) -> int:
        return read_literal(self, token)[0]

    def to_json(self, a: int) -> int:
        return a % self.p

    def field_to_json(self):
        return {"p": self.p}


QQ = Rationals()

# a rational literal, once stripped: signed numerator, optional denominator
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def read_literal(field: Field, token) -> tuple[int, int]:
    """The scalar literal token as the integer pair (num, den) of its value
    in field, den > 0 and in lowest terms, by the module's one literal rule;
    anything else raises FieldError."""
    if field.p is not None:
        if isinstance(token, bool) or not isinstance(token, int):
            raise FieldError(f"GF({field.p}) scalars are integers, got {token!r}")
        return token % field.p, 1
    if type(token) is int:  # before the slower check for a Fraction
        return token, 1
    if not isinstance(token, str):
        if isinstance(token, (int, Fraction)) and not isinstance(token, bool):
            return token.numerator, token.denominator
        raise FieldError(f"not a rational scalar: {token!r}")
    m = _RATIONAL.fullmatch(token.strip())
    try:
        num, den = (int(m[1]), int(m[2] or 1)) if m else (0, 0)
    except ValueError:  # past int's digit limit, which counts no sign
        num = den = 0
    if not den:  # no match, past the digit limit, or x/0
        raise FieldError(f"bad rational literal {token!r}")
    g = math.gcd(num, den)
    return num // g, den // g


Field = Union[Rationals, PrimeField]

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


def field_from_json(obj) -> Field:
    """Parse the JSON field descriptor: "Q" or {"p": N}."""
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"p"}:
        if type(obj["p"]) is not int:  # 5.0 and true would hit the GF cache
            raise FieldError(f"modulus must be an integer, got {obj['p']!r}")
        return GF(obj["p"])
    raise FieldError(f"bad field descriptor {obj!r}")
