"""Algebra.integer_tensor, the one integer view of an algebra's structure
constants: it is built once per algebra and shared read-only by the identity
suites, the sufficient conditions, the constraint assembly and the
semidirect product's blocks.  The annihilator and derived subspace read
their rows off it; here they are checked against sympy's reduction of the
per-entry scalar rows."""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from sympy.polys.matrices import DomainMatrix

from artifact import algebra
from artifact.algebra import annihilator, derived_subspace, make_algebra
from artifact.corpus import (a5_leibniz, dual_numbers, heisenberg, m2_rationals,
                             sample_algebra, sl2, strict_upper3, truncated_poly,
                             zero_algebra)
from artifact.existence import actor_pipeline
from artifact.fields import GF, QQ
from artifact.linalg import Matrix

from test_algebra import FLOAT_EDGE, INT_EDGE
from test_constructions import _scaled
from test_reference import _domain, _scalar


# ---------------------------------------------------------------------------
# the view is shared and read-only

def test_integer_tensor_is_one_shared_read_only_array():
    rungs = set()
    for a in (sl2(), m2_rationals(), sl2(GF(5)), heisenberg(GF(2 ** 61 - 1)),
              zero_algebra(QQ, 0),
              make_algebra(FLOAT_EDGE, "abc", [[[FLOAT_EDGE.p - 1] * 3] * 3] * 3, "raw"),
              make_algebra(INT_EDGE, "abc", [[[INT_EDGE.p - 1] * 3] * 3] * 3, "raw")):
        view = a.integer_tensor
        assert a.integer_tensor is view
        ints = view[1]
        rungs.add(ints.dtype)
        assert not ints.flags.writeable
        with pytest.raises(ValueError):
            ints[...] = 0
        with pytest.raises(ValueError):
            ints += 1
        with pytest.raises(ValueError):  # a view of it is read-only too
            ints.reshape(-1)[...] = 0
    assert rungs == {np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)}


# ---------------------------------------------------------------------------
# one conversion per pipeline

def _fixtures(f):
    """Fresh inputs, one per category, so none holds its view yet."""
    return [sl2(f), a5_leibniz(f), dual_numbers(f), truncated_poly(f, 3, "commutative"),
            zero_algebra(f, 2, "module"), zero_algebra(f, 2, "alternative")]


@pytest.mark.parametrize("f", [GF(5), QQ], ids=str)
def test_a_pipeline_converts_its_input_once(monkeypatch, f):
    converted = []
    convert = algebra.integer_array

    def counting(field, values, shape, bound):
        converted.append(values)
        return convert(field, values, shape, bound)

    monkeypatch.setattr(algebra, "integer_array", counting)
    for a in _fixtures(f):
        converted.clear()
        for variant in (1, 2) if a.category == "leibniz" else (1,):
            actor_pipeline(a, variant)
        assert len(converted) == 1 and converted[0] is a.tensor, a.category


# ---------------------------------------------------------------------------
# annihilator and derived subspace against sympy on the per-entry rows

def _subspace(f, n, reduced=None) -> Matrix:
    """The RREF Matrix of a sympy (rref, pivots), n columns wide: its
    nonzero rows as field scalars, with their pivots; no rows when reduced
    is None."""
    red, pivots = reduced if reduced is not None else (None, ())
    m = Matrix.zeros(f, 0, n) if red is None else Matrix.from_rows(
        f, [[_scalar(f, x) for x in row] for row in red.to_list()[:len(pivots)]])
    return Matrix(f, m.rows, m.ints, m.den, tuple(pivots))


def _sympy(f, rows, n):
    return DomainMatrix.from_Matrix(sp.Matrix(len(rows), n, [sp.Rational(x) for row in rows
                                                             for x in row])
                                    ).convert_to(_domain(f))


def oracle_annihilator(a) -> Matrix:
    """The nullspace of the rows (x * e_j)_k and (e_j * x)_k for each (j, k),
    in that order, reduced by sympy."""
    f, n, t = a.field, a.dim, a.tensor
    if n == 0:
        return _subspace(f, 0)
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([t[i][j][k] for i in range(n)])
            rows.append([t[j][i][k] for i in range(n)])
    null = _sympy(f, rows, n).nullspace()
    if not null.shape[0]:
        return _subspace(f, n)
    return _subspace(f, n, null.rref())


def oracle_derived(a) -> Matrix:
    """The span of the rows e_i * e_j, reduced by sympy."""
    f, n, t = a.field, a.dim, a.tensor
    if n == 0:
        return _subspace(f, 0)
    return _subspace(f, n, _sympy(f, [t[i][j] for i in range(n) for j in range(n)], n).rref())


def _random_raw(rng, f, n):
    """A raw algebra whose entries are mostly zero, so that its annihilator
    and derived subspace are proper; over Q with denominators up to 9."""
    def entry():
        if rng.random() < 0.6:
            return f.zero
        if f.p is None:
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))
        return rng.randrange(f.p)

    return make_algebra(f, [f"e{i}" for i in range(n)],
                        [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)],
                        "raw")


SUBSPACE_FIELDS = (GF(2), GF(3), GF(5), GF(2 ** 61 - 1), QQ)


def _subspace_cases(f):
    yield from (zero_algebra(f, n, "raw") for n in range(4))
    yield from (sl2(f), heisenberg(f), a5_leibniz(f), dual_numbers(f), strict_upper3(f),
                truncated_poly(f, 3, "commutative"))
    if f.p is None:
        yield m2_rationals()
        yield _scaled(heisenberg(f), Fraction(-7, 6))
        yield _scaled(strict_upper3(f), Fraction(5, 12))
    for cat in ("lie", "leibniz", "associative", "commutative"):
        for n in (1, 2, 3):
            for seed in range(2):
                yield sample_algebra(random.Random(seed), f, n, cat)
    rng = random.Random(11)
    for n in (1, 2, 3):
        for _ in range(8):
            yield _random_raw(rng, f, n)


@pytest.mark.parametrize("f", SUBSPACE_FIELDS, ids=str)
def test_annihilator_and_derived_subspace_equal_the_sympy_oracle(f):
    seen = set()
    for a in _subspace_cases(f):
        n, ann, der = a.dim, annihilator(a), derived_subspace(a)
        want_ann, want_der = oracle_annihilator(a), oracle_derived(a)
        assert ann == want_ann, a.to_json()
        assert der == want_der, a.to_json()
        assert (ann.rows, ann.ncols, ann.pivots) == (want_ann.rows, n, want_ann.pivots)
        assert (der.rows, der.ncols, der.pivots) == (want_der.rows, n, want_der.pivots)
        seen.add((n, 0 < ann.nrows < n, 0 < der.nrows < n))
    # every dim 0-3, and proper annihilators and derived subspaces among them
    assert {n for n, _, _ in seen} >= {0, 1, 2, 3}
    assert any(proper for _, proper, _ in seen) and any(proper for _, _, proper in seen)
