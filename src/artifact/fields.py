"""Exact scalar arithmetic over Q and over prime fields GF(p).

A field object owns the arithmetic; scalar values are plain Python objects
(fractions.Fraction for Q, ints in range(p) for GF(p)).  Everything that
combines scalars carries a field and refuses to mix fields, so a GF(5)
value can never leak into a rational computation.

Input from outside the program is refused with InputError, and every nested
JSON list is read by read_nested, which accepts exactly the expected shape.
"""

from __future__ import annotations

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
        """Accept ints, Fractions, and 'num' or 'num/den' strings of decimal
        digits: no exponent or point, so a literal is no larger than its text."""
        if isinstance(token, (int, Fraction)) and not isinstance(token, bool):
            return Fraction(token)
        if not isinstance(token, str):
            raise FieldError(f"not a rational scalar: {token!r}")
        try:
            if re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", token.strip()):
                return Fraction(token)
        except (ValueError, ZeroDivisionError):  # x/0, or past int's digit limit
            pass
        raise FieldError(f"bad rational literal {token!r}")

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
        if isinstance(token, bool) or not isinstance(token, int):
            raise FieldError(f"GF({self.p}) scalars are integers, got {token!r}")
        return token % self.p

    def to_json(self, a: int) -> int:
        return a % self.p

    def field_to_json(self):
        return {"p": self.p}


QQ = Rationals()

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
