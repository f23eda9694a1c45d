"""The algebra reader: algebra_from_json reads each product literal straight
to its integer pair (fields.read_literal), so a parsed algebra holds its
lam and integer tensor as data and its scalar tensor as a view of them.

The oracles are the routes the reader replaced: each literal a field scalar
through the Fraction rule, the algebra through make_algebra_from_products,
and integer_tensor converted from its scalars.  Both must give the same
lam, array and dtype, the same scalars and the same refusals, with the same
types and messages."""

import itertools
import json
import math
import os
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact.algebra import algebra_from_json, make_algebra, make_algebra_from_products
from artifact.corpus import (_conjugate, _rand_invertible, a5_leibniz, dual_numbers, heisenberg,
                             sample_algebra, sl2, truncated_poly, zero_algebra)
from artifact.existence import actor_pipeline
from artifact.fields import GF, QQ, FieldError, InputError, field_from_json, read_literal, \
    read_nested

from conftest import FIXTURES, load_fixture
from test_census import _algebras
from test_constructions import _big_q_conjugate
from test_lazy_views import is_built
from test_reference import CASES

# ---------------------------------------------------------------------------
# oracles: the scalar routes


def oracle_parse(field, token):
    """A literal as a field scalar by the Fraction rule the reader replaced."""
    if field.p is not None:
        if isinstance(token, bool) or not isinstance(token, int):
            raise FieldError(f"GF({field.p}) scalars are integers, got {token!r}")
        return token % field.p
    if isinstance(token, (int, Fraction)) and not isinstance(token, bool):
        return Fraction(token)
    if not isinstance(token, str):
        raise FieldError(f"not a rational scalar: {token!r}")
    try:
        if re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", token.strip()):
            return Fraction(token)
    except (ValueError, ZeroDivisionError):
        pass
    raise FieldError(f"bad rational literal {token!r}")


def scalar_route(obj):
    """The algebra of a document by the scalar route: every check of the
    reader in its order, each literal a scalar by oracle_parse, then
    make_algebra_from_products; its integer_tensor is converted from the
    scalars on first read."""
    if not isinstance(obj, dict):
        raise InputError("algebra JSON must be an object")
    required = {"field", "dim", "basis", "category"}
    allowed = required | {"products"}
    if not required <= set(obj) or not set(obj) <= allowed:
        raise InputError(f"algebra JSON keys must be {sorted(allowed)} (products optional)")
    field = field_from_json(obj["field"])
    dim = obj["dim"]
    if type(dim) is not int:
        raise InputError(f"dim must be an integer, got {dim!r}")
    basis = read_nested(obj["basis"], (dim,), str, "basis")
    entries = obj.get("products", [])
    if not isinstance(entries, list):
        raise InputError("products must be a list of entries")
    products = {}
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "v"}:
            raise InputError("each product entry needs exactly the keys i, j, v")
        i, j = entry["i"], entry["j"]
        if type(i) is not int or type(j) is not int:
            raise InputError(f"product indices must be integers, got ({i!r},{j!r})")
        if (i, j) in products:
            raise InputError(f"duplicate product entry ({i},{j})")
        products[(i, j)] = read_nested(entry["v"], (dim,), lambda x: oracle_parse(field, x),
                                       f"product vector ({i},{j})")
    return make_algebra_from_products(field, basis, products, obj["category"])


def _outcome(route, doc):
    try:
        return route(doc), None
    except InputError as exc:
        return None, (type(exc), str(exc))


def assert_read_as_the_scalar_route(doc):
    """The reader and the scalar route accept doc or refuse it alike; an
    accepted document gives equal lam, array and dtype, a read-only array,
    a scalar tensor built only when read, and the same scalars, of the
    field's type."""
    got, refused = _outcome(algebra_from_json, doc)
    want, want_refused = _outcome(scalar_route, doc)
    assert refused == want_refused, doc
    if refused:
        return None
    (lam, ints), (want_lam, want_ints) = got.integer_tensor, want.integer_tensor
    assert lam == want_lam and ints.dtype == want_ints.dtype, doc
    assert np.array_equal(ints, want_ints) and not ints.flags.writeable, doc
    assert not is_built(got, "tensor")
    assert got.tensor == want.tensor and got == want and hash(got) == hash(want)
    scalar = int if got.field.p is not None else Fraction
    assert all(type(x) is scalar for plane in got.tensor for v in plane for x in v)
    assert got.to_json() == want.to_json()
    return got


# ---------------------------------------------------------------------------
# the documents


def _algebra_documents(obj):
    """Every algebra document nested in a JSON value."""
    if isinstance(obj, dict):
        if {"field", "dim", "basis", "category"} <= set(obj):
            yield obj
        for x in obj.values():
            yield from _algebra_documents(x)
    elif isinstance(obj, list):
        for x in obj:
            yield from _algebra_documents(x)


def test_every_fixture_reads_as_the_scalar_route():
    docs = [doc for name in sorted(os.listdir(FIXTURES))
            for doc in _algebra_documents(load_fixture(name))]
    assert len(docs) >= 10
    for doc in docs:
        assert_read_as_the_scalar_route(doc)


def test_the_reference_corpus_and_the_census_read_as_the_scalar_route():
    algebras = list({id(a): a for a, _ in CASES}.values())
    for p, n, category in itertools.product((2, 3), (1, 2),
                                            ("lie", "leibniz", "associative", "commutative")):
        algebras += list(_algebras(p, n, category))
    assert len(algebras) > 350
    for a in algebras:
        got = assert_read_as_the_scalar_route(a.to_json())
        assert got == a and np.array_equal(got.integer_tensor[1], a.integer_tensor[1])


READER_FIELDS = (GF(2), GF(3), GF(5), GF(2 ** 61 - 1), QQ)
SEEDS = {"lie": sl2, "leibniz": a5_leibniz, "associative": dual_numbers,
         "commutative": lambda f: truncated_poly(f, 3, "commutative"),
         "module": lambda f: zero_algebra(f, 2, "module")}


@st.composite
def sampled_algebras(draw):
    f = draw(st.sampled_from(READER_FIELDS))
    category = draw(st.sampled_from(tuple(SEEDS)))
    rng = random.Random(draw(st.integers(0, 40)))
    if category == "module":
        a = zero_algebra(f, draw(st.integers(0, 3)), category)
    elif f.p and f.p > 5:  # rejection sampling finds nothing over a big field
        a = SEEDS[category](f)
        a = _conjugate(a, *_rand_invertible(rng, f, a.dim))
    else:
        a = sample_algebra(rng, f, draw(st.integers(1, 3)), category)
    if f.p is None and a.dim and draw(st.booleans()):
        a = _big_q_conjugate(a)  # entries of 3^40 / 7 and more: the object rung
    return a


@settings(max_examples=120)
@given(sampled_algebras())
def test_sampled_documents_read_as_the_scalar_route(a):
    got = assert_read_as_the_scalar_route(a.to_json())
    assert got == a
    assert (got.integer_tensor[0], got.integer_tensor[1].dtype) == (a.integer_tensor[0],
                                                                    a.integer_tensor[1].dtype)


def _respell(rng, x):
    """A literal x of a Q document spelt another way with the same value:
    numerator and denominator times k, a sign, zeros in front, blanks."""
    value = Fraction(x)
    k = rng.choice((1, 1, 2, 6, 10 ** 20))
    num, den = value.numerator * k, value.denominator * k
    sign = "-" if num < 0 else rng.choice(("", "+"))
    text = f"{sign}{'0' * rng.randrange(3)}{abs(num)}" + ("" if den == 1 and rng.random() < 0.5
                                                         else f"/{den}")
    return rng.choice(("", " ", "\t", " ")) + text + rng.choice(("", " ", "\n"))


@settings(max_examples=60)
@given(sampled_algebras(), st.integers(0, 2 ** 32))
def test_respelt_q_literals_read_as_the_scalar_route(a, seed):
    # lam is the lcm of the denominators in lowest terms, whatever the spelling
    if a.field.p is not None:
        a = make_algebra(QQ, a.basis, [[[Fraction(int(x)) for x in v] for v in plane]
                                       for plane in a.tensor], a.category)
    rng = random.Random(seed)
    doc = a.to_json()
    for entry in doc["products"]:
        entry["v"] = [_respell(rng, x) for x in entry["v"]]
    got = assert_read_as_the_scalar_route(doc)
    assert got == a and got.integer_tensor[0] == a.integer_tensor[0]


# ---------------------------------------------------------------------------
# refusals


json_leaves = st.one_of(st.none(), st.booleans(), st.integers(-10, 10),
                        st.integers(-2 ** 70, 2 ** 70), st.floats(allow_nan=False),
                        st.sampled_from(("", "x", "1/0", "3/6", " -4/6 ", "1e3", "1.5", "+-1",
                                         "0x10", "1_000", "١٢", "Q", "lie", "module")))
json_values = st.recursive(json_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.sampled_from("ijv"), inner, max_size=3)),
    max_leaves=8)


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, prefix + (i,))


REFUSAL_DOCS = [a.to_json() for a in (sl2(), heisenberg(GF(5)), a5_leibniz(),
                                      zero_algebra(QQ, 2, "module"), dual_numbers(GF(3)))]


@settings(max_examples=300)
@given(st.data())
def test_a_changed_document_is_refused_as_the_scalar_route_refuses_it(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(REFUSAL_DOCS))))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(json_values)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if path:
        node[path[-1]] = value
    else:
        doc = value
    assert_read_as_the_scalar_route(doc)


def test_the_refusals_past_the_literals_come_in_the_scalar_route_order():
    base = a5_leibniz().to_json()
    cases = {
        # an index out of range is refused only once every literal is read
        "range after literals": {**base, "products": [{"i": 5, "j": 0, "v": [1, 0]},
                                                       {"i": 0, "j": 0, "v": ["x", 0]}]},
        "range": {**base, "products": [{"i": 0, "j": -1, "v": [1, 0]}]},
        "range before basis": {**base, "basis": ["a", "a"],
                               "products": [{"i": 0, "j": 2, "v": [1, 0]}]},
        "basis before category": {**base, "basis": ["a", "a"], "category": "ring"},
        "category": {**base, "category": "ring"},
        "nonzero module": {**base, "category": "module"},
        "zero module": {**base, "category": "module",
                        "products": [{"i": 0, "j": 0, "v": ["0/7", 0]}]},
        "digit limit": {**base, "products": [{"i": 0, "j": 0, "v": ["1" * 4301, 0]}]},
        "at the digit limit": {**base, "products": [{"i": 0, "j": 0, "v": ["-" + "1" * 4300,
                                                                           "1/" + "3" * 4300]}]},
        "zero denominator": {**base, "products": [{"i": 0, "j": 0, "v": [0, "0/0"]}]},
    }
    outcomes = {}
    for name, doc in cases.items():
        got = assert_read_as_the_scalar_route(doc)
        outcomes[name] = got is not None
    assert outcomes == {name: name in ("zero module", "at the digit limit") for name in cases}


# ---------------------------------------------------------------------------
# the literal rule


def _digits(n):
    return st.integers(1, 9).map(lambda d: str(d) * n)


literals = st.one_of(
    st.integers(), st.integers(-2 ** 200, 2 ** 200), st.booleans(), st.none(), st.floats(),
    st.fractions(), st.lists(st.integers(), max_size=2),
    st.from_regex(r"\s*[+-]?[0-9]{1,6}(/[0-9]{1,6})?\s*", fullmatch=True),
    st.text(alphabet="0123456789/+- \t\n  ٣e._x", max_size=10),
    st.builds(lambda s, a, b: f"{s}{a}/{b}", st.sampled_from(("", "-", "+")),
              st.sampled_from(("0", "12", "1" * 4300)), _digits(4300) | _digits(4301)),
    _digits(4300), _digits(4301))


@settings(max_examples=500)
@given(st.sampled_from(READER_FIELDS + (GF(18446744073709551629),)), literals)
def test_the_literal_reader_is_the_fraction_rule(f, token):
    try:
        want = oracle_parse(f, token)
    except FieldError as exc:
        with pytest.raises(FieldError) as got:
            read_literal(f, token)
        assert str(got.value) == str(exc)
        with pytest.raises(FieldError, match=re.escape(str(exc))):
            f.parse(token)
        return
    num, den = read_literal(f, token)
    assert type(num) is int and type(den) is int and den > 0 and math.gcd(num, den) == 1
    assert Fraction(num, den) == want and (f.p is None or (den == 1 and 0 <= num < f.p))
    assert f.parse(token) == want and type(f.parse(token)) is type(want)


# ---------------------------------------------------------------------------
# a verdict on a parsed algebra makes no field scalar of it


def test_a_verdict_on_a_parsed_algebra_leaves_its_scalar_tensor_unbuilt():
    algebras = [sl2(), heisenberg(), a5_leibniz(), dual_numbers(),
                truncated_poly(QQ, 3, "commutative"), zero_algebra(QQ, 2, "module"),
                zero_algebra(GF(5), 3, "leibniz"), zero_algebra(QQ, 2, "commutative"),
                zero_algebra(QQ, 2, "associative")]
    algebras += [sample_algebra(random.Random(seed), f, 3, category)
                 for f in (QQ, GF(5)) for seed in range(3)
                 for category in ("lie", "leibniz", "associative", "commutative")]
    statuses = set()
    for a in algebras:
        for variant in (1, 2) if a.category == "leibniz" else (1,):
            parsed = algebra_from_json(a.to_json())
            v = actor_pipeline(parsed, variant)
            assert json.dumps(v.to_json(parsed.field.to_json)) \
                == json.dumps(actor_pipeline(a, variant).to_json(a.field.to_json))
            assert not is_built(parsed, "tensor"), (a.category, variant)
            statuses.add((a.category, v.exists))
    # every category both ways but Lie, whose verdicts all exist
    assert statuses == {("lie", True), ("module", True)} | {
        (c, e) for c in ("leibniz", "associative", "commutative") for e in (True, False)}
