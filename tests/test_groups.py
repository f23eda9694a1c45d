"""Finite groups: automorphism and action counts against brute-force oracles.

The Aut oracle enumerates every bijection fixing the identity and keeps the
table-preserving ones; no generator logic, no backtracking, nothing shared
with the implementation.  Orders below were computed by the oracle first.
Action counts come from a presentation of each acting group, evaluated on
the oracle's automorphisms.
"""

import hashlib
import itertools
import json
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact import groups
from artifact.algebra import InputError
from artifact.groups import (CATALOG, CapError, Group, _enumerate_homs,
                             _greedy_generators, automorphisms, cyclic,
                             dihedral, direct_product, group_from_json,
                             group_universality_check, holomorph_check,
                             inner_automorphisms, klein4, make_group,
                             make_group_action, quaternion8, symmetric3,
                             trivial)


def brute_aut(g):
    """Every bijection preserving the table; identity must map to itself."""
    n = g.order
    others = [x for x in range(n) if x != g.identity]
    found = []
    for images in itertools.permutations(others):
        p = [None] * n
        p[g.identity] = g.identity
        for src, dst in zip(others, images):
            p[src] = dst
        if all(p[g.table[a][b]] == g.table[p[a]][p[b]]
               for a in range(n) for b in range(n)):
            found.append(tuple(p))
    return found


def action_counts(perms):
    """The actions of each CATALOG group, counted from Aut alone: an action
    of B is a homomorphism B -> Aut, that is, an image for each generator of
    a presentation of B such that the images satisfy its relations."""
    one = tuple(range(len(perms[0])))

    def mul(p, q):
        return tuple(p[x] for x in q)

    def power(p, k):
        q = one
        for _ in range(k):
            q = mul(p, q)
        return q

    counts = {"trivial": 1}
    for k in (2, 3, 4, 5, 6):
        counts[f"Z{k}"] = sum(power(p, k) == one for p in perms)
    pairs = list(itertools.product(perms, repeat=2))
    counts["V4"] = sum(power(x, 2) == one and power(y, 2) == one
                       and mul(x, y) == mul(y, x) for x, y in pairs)
    # <x, y | x^2, y^3, x y x = y^-1>, and y^-1 = y^2 once y^3 = 1
    counts["S3"] = sum(power(x, 2) == one and power(y, 3) == one
                       and mul(x, mul(y, x)) == power(y, 2) for x, y in pairs)
    return counts


# the CATALOG groups of order <= max_b, in catalogue order
UP_TO_ORDER = {1: ["trivial"], 4: ["trivial", "Z2", "Z3", "Z4", "V4"],
               6: ["trivial", "Z2", "Z3", "Z4", "V4", "Z5", "Z6", "S3"]}


def assert_universality_counts(g, perms, cap=24):
    """group_universality_check reports, for each max_b, exactly the
    catalogue groups up to that order with the independent counts, and each
    enumerated action passes the dot-table validator."""
    counts = action_counts(perms)
    for max_b, names in UP_TO_ORDER.items():
        rep = group_universality_check(g, max_b=max_b, cap=cap)
        assert [(line["acting_group"], line["actions"]) for line in rep.details] == \
            [(name, counts[name]) for name in names]
    aut = automorphisms(g, cap)
    for _, _, ctor in CATALOG:
        B = ctor()
        for hom in _enumerate_homs(B, aut.group):
            make_group_action(B, g, [aut.perms[hom[b]] for b in range(B.order)])


GROUPS = [
    ("trivial", trivial(), 1),
    ("Z2", cyclic(2), 1),
    ("Z3", cyclic(3), 2),
    ("Z4", cyclic(4), 2),
    ("V4", klein4(), 6),
    ("Z5", cyclic(5), 4),
    ("Z6", cyclic(6), 2),
    ("S3", symmetric3(), 6),
    ("Z7", cyclic(7), 6),
    ("Z8", cyclic(8), 4),
    ("D4", dihedral(4), 8),
    ("Q8", quaternion8(), 24),
]


@pytest.mark.parametrize("name,g,expected", GROUPS, ids=[n for n, _, _ in GROUPS])
def test_automorphism_order_matches_brute_force(name, g, expected):
    assert len(brute_aut(g)) == expected
    assert automorphisms(g).order == expected


def test_z2_cubed_exceeds_cap_and_oracle_says_168():
    g = direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2)))
    assert len(brute_aut(g)) == 168  # GL(3,2)
    with pytest.raises(CapError):
        automorphisms(g)


def test_group_order_above_cap_is_refused_before_enumeration():
    with pytest.raises(CapError):
        automorphisms(cyclic(25))
    assert automorphisms(cyclic(25), cap=30).order == 20


def test_aut_elements_are_homomorphisms():
    g = dihedral(4)
    aut = automorphisms(g)
    for p in aut.perms:
        assert all(p[g.table[a][b]] == g.table[p[a]][p[b]]
                   for a in range(8) for b in range(8))
    assert len(set(aut.perms)) == aut.order


@pytest.mark.parametrize("g,inn_order,center_size", [
    (symmetric3(), 6, 1),
    (quaternion8(), 4, 2),
    (cyclic(6), 1, 6),
    (dihedral(4), 4, 2),
])
def test_inner_automorphisms_and_center(g, inn_order, center_size):
    inn = inner_automorphisms(g)
    assert len(inn.indices) == inn_order
    assert len(inn.center) == center_size


@pytest.mark.parametrize("name,g,_", GROUPS, ids=[n for n, _, _ in GROUPS])
def test_holomorph_check_passes(name, g, _):
    rep = holomorph_check(g)
    assert rep.passed, rep.label


@pytest.mark.parametrize("name,g,_", GROUPS, ids=[n for n, _, _ in GROUPS])
def test_universality_for_small_targets(name, g, _):
    assert_universality_counts(g, brute_aut(g))


def test_make_group_rejects_non_latin_and_non_associative():
    with pytest.raises(InputError):
        make_group([[0, 1], [1, 1]])
    # smallest nonassociative loop (order 5); identity 0, Latin both ways
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3]]
    with pytest.raises(InputError):
        make_group(loop)
    # an order-5 loop with two-sided inverses, so only Light's test refuses it
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(InputError, match="associativity fails"):
        make_group(loop)


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cols = [set(range(n)) - {j} for j in range(n)]

    def fill(cell):
        if cell == (n - 1) * (n - 1):
            yield tuple(tuple(r) for r in rows)
            return
        i, j = 1 + cell // (n - 1), 1 + cell % (n - 1)
        for v in sorted(cols[j] - set(rows[i][:j])):
            rows[i][j] = v
            cols[j].remove(v)
            yield from fill(cell + 1)
            cols[j].add(v)
        rows[i][j] = None

    yield from fill(0)


def associativity_fails(t, x, g, y):
    return t[t[x][g]][y] != t[x][t[g][y]]


def test_make_group_accepts_exactly_the_associative_reduced_latin_squares():
    counts = []
    for n in range(1, 7):
        squares = list(reduced_latin_squares(n))
        counts.append(len(squares))
        for t in squares:
            associative = not any(associativity_fails(t, *xgy)
                                  for xgy in itertools.product(range(n), repeat=3))
            try:
                make_group(t)
            except InputError as exc:
                assert not associative, (t, exc)
                msg = str(exc)
                if msg.startswith("associativity fails at "):
                    x, g, y = map(int, msg[len("associativity fails at ("):-1].split(","))
                    assert associativity_fails(t, x, g, y), (t, msg)
                else:
                    assert "has no two-sided inverse" in msg, (t, msg)
            else:
                assert associative, t
    assert counts == [1, 1, 1, 4, 56, 9408]  # OEIS A000315


def _closure(table, seed) -> set:
    """Oracle: the old magma closure, every product of every pair re-taken
    until nothing new appears."""
    out = set(seed)
    frontier = list(out)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(out):
                for z in (table[x][y], table[y][x]):
                    if z not in out:
                        out.add(z)
                        nxt.append(z)
        frontier = nxt
    return out


def closure_greedy_generators(table, identity) -> list:
    """Oracle: the largest closure growth, every candidate tried."""
    n = len(table)
    have = {identity}
    gens = []
    while len(have) < n:
        best, best_set = None, None
        for x in range(n):
            if x in have:
                continue
            c = _closure(table, have | {x})
            if best_set is None or len(c) > len(best_set):
                best, best_set = x, c
        gens.append(best)
        have = best_set
    return gens


def relabelled(g, rng):
    """g with its elements, and their names, in a shuffled order."""
    p = list(range(g.order))
    rng.shuffle(p)
    back = {y: x for x, y in enumerate(p)}
    table = [[p[g.table[back[a]][back[b]]] for b in range(g.order)]
             for a in range(g.order)]
    return make_group(table, [g.names[back[a]] for a in range(g.order)])


def holomorph_table(g, cap=24):
    """The Cayley table of Aut(g) x| g, as holomorph_check builds it."""
    aut = automorphisms(g, cap)
    pairs = list(itertools.product(range(aut.order), range(g.order)))
    idx = {p: i for i, p in enumerate(pairs)}
    return [[idx[(aut.group.table[p1][p2], g.table[a1][aut.perms[p1][a2]])]
             for (p2, a2) in pairs] for (p1, a1) in pairs]


def test_greedy_generators_equal_magma_closure_oracle():
    rng = random.Random(5)
    small = [g for _, g, _ in GROUPS] + [ctor() for _, _, ctor in CATALOG]
    holomorphs = [make_group(holomorph_table(g))
                  for g in (quaternion8(), dihedral(4), dihedral(5))]
    cases = [(g.table, g.identity) for g in small + holomorphs]
    cases += [(h.table, h.identity)
              for h in (relabelled(g, rng) for g in small for _ in range(3))]
    for table, identity in cases:
        assert _greedy_generators(table, identity) == \
            closure_greedy_generators(table, identity)


def test_z3xz3_holomorph_and_universality_within_budget():
    g = direct_product(cyclic(3), cyclic(3))
    t0 = time.monotonic()
    aut = automorphisms(g, cap=48)
    assert aut.order == 48  # GL(2,3)
    rep = holomorph_check(g, cap=48)
    assert rep.passed, rep.label
    assert rep.details[0] == {"name": "holomorph is a group", "order": 432,
                              "status": "pass"}
    assert_universality_counts(g, brute_aut(g), cap=48)
    assert time.monotonic() - t0 < 5.0


def test_group_json_round_trip():
    g = symmetric3()
    h = group_from_json(g.to_json())
    assert h.table == g.table and h.names == g.names
    with pytest.raises(InputError):
        group_from_json({"order": 2, "table": [[0, 1], [1, 0]], "nope": 1})


@st.composite
def relabelled_groups(draw):
    """A catalogue group or a direct product of two, relabelled."""
    g = draw(st.sampled_from(CATALOG))[2]()
    if draw(st.booleans()):
        g = direct_product(g, draw(st.sampled_from(CATALOG))[2]())
    return relabelled(g, draw(st.randoms(use_true_random=False)))


@settings(max_examples=100)
@given(relabelled_groups())
def test_group_json_round_trip_on_relabelled_groups(g):
    h = group_from_json(g.to_json())
    assert (h.table, h.names, h.identity, h.inv) == (g.table, g.names, g.identity, g.inv)


@pytest.mark.parametrize("obj", [
    {"order": 2, "table": [[0, True], [True, 0]]},
    {"order": True, "table": [[0]]},
    {"order": 2, "table": [[0, 1], [1, 0]], "names": "ab"},
    {"order": 2, "table": [[0, 1], [1, 0]], "names": ["a", 1]},
    {"order": 2, "table": [[0.0, 1.0], [1.0, 0.0]]},
    {"order": "2", "table": [[0, 1], [1, 0]]},
    {"order": 2, "table": [[0, 1], "10"]},
    {"order": 2, "table": {"0": [0, 1], "1": [1, 0]}},
    {"order": 3, "table": [[0, 1], [1, 0]]},
], ids=["bool-entry", "bool-order", "str-names", "int-name", "float-entry",
        "str-order", "str-row", "dict-table", "order-mismatch"])
def test_group_from_json_rejects_malformed_tables(obj):
    with pytest.raises(InputError):
        group_from_json(obj)


def test_element_orders_in_z6():
    g = cyclic(6)
    assert [g.orders[a] for a in range(6)] == [1, 6, 3, 2, 3, 6]


def test_quaternion_structure():
    g = quaternion8()
    names = list(g.names)
    minus_one = names.index("-e")
    i = names.index("i")
    assert g.orders[minus_one] == 2
    assert g.orders[i] == 4
    assert g.table[i][i] == minus_one


def test_dihedral_matches_s3_at_n3():
    d3, s3 = dihedral(3), symmetric3()
    assert sorted(d3.orders) == sorted(s3.orders)
    assert automorphisms(d3).order == 6


def test_make_group_action_validation():
    g = cyclic(3)
    b = cyclic(2)
    ident = tuple(range(3))
    swap = (0, 2, 1)  # inversion, the nontrivial automorphism
    act = make_group_action(b, g, (ident, swap))
    assert act.dot[1][1] == 2
    with pytest.raises(InputError):
        make_group_action(b, g, (swap, ident))  # identity must act trivially
    with pytest.raises(InputError):
        make_group_action(b, g, (ident, (0, 0, 1)))  # not a bijection
    shift = (1, 2, 0)  # bijective, but of order 3, so not an action of Z2
    with pytest.raises(InputError):
        make_group_action(b, g, (ident, shift))
    with pytest.raises(InputError, match="dot table must be"):
        make_group_action(b, g, (ident,))
    # an involution of the set, so compatible with Z2, that moves the identity
    with pytest.raises(InputError, match="element 1 does not act by automorphisms"):
        make_group_action(b, g, (ident, (1, 0, 2)))


# ---------------------------------------------------------------------------
# make_group against a brute-force group check, and the tables the
# program builds

# the two order-5 loops of test_make_group_rejects_non_latin_and_non_associative
LOOPS5 = (((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 3, 4, 0, 1), (3, 4, 1, 2, 0),
           (4, 2, 0, 1, 3)),
          ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1),
           (4, 3, 1, 2, 0)))


def brute_force_group(t, names=None):
    """(identity, inverses) when t is a group table and names fit it, else
    None: n >= 1 rows of length n, every row and column a permutation of
    range(n), a two-sided identity, two-sided inverses, (x+y)+z = x+(y+z)
    at all n^3 triples, and names None or n distinct strings."""
    n = len(t)
    full = set(range(n))
    if n < 1 or any(len(r) != n for r in t) or any(set(r) != full for r in t) \
            or any({r[j] for r in t} != full for j in range(n)):
        return None
    if names is not None and (len(names) != n or len({str(x) for x in names}) != n):
        return None
    e = next((e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))), None)
    if e is None:
        return None
    inv = tuple(next((y for y in range(n) if t[x][y] == e == t[y][x]), None)
                for x in range(n))
    # (x+y)+z at [y, z] is a[a[x]], x+(y+z) is a[x][a]
    a = np.array(t)
    if None in inv or any((a[a[x]] != a[x][a]).any() for x in range(n)):
        return None
    return e, inv


def make_group_outcome(table, names):
    """make_group(table, names): the Group's fields, or the text of its
    InputError."""
    try:
        g = make_group(table, names)
    except InputError as exc:
        return "refused", str(exc)
    return g.order, g.table, g.identity, g.inv, g.names


def checked_outcome(table, names=None):
    """make_group_outcome, asserted to accept exactly the tables that
    brute_force_group accepts, with the same identity and inverses."""
    got = make_group_outcome(table, names)
    want = brute_force_group(table, names)
    if want is None:
        assert got[0] == "refused", table
    else:
        assert got[1:4] == (tuple(map(tuple, table)),) + want, table
    return got


def sampled_reduced_latin_squares():
    """Every reduced Latin square up to order 5, and every 47th of the 9408
    at order 6: 63 + 201 tables."""
    for n in range(1, 7):
        yield from itertools.islice(reduced_latin_squares(n), 0, None, 1 if n < 6 else 47)


def test_make_group_outcomes_on_reduced_latin_squares():
    outcomes = [checked_outcome(t) for t in sampled_reduced_latin_squares()]
    assert len(outcomes) == 63 + 201
    assert 0 < [o[0] for o in outcomes].count("refused") < len(outcomes)
    # the Groups and the refusal texts, as the earlier implementation gave
    # them: a change in the choice of generators changes the (x,g,y) of an
    # "associativity fails at" text
    assert _digest(outcomes) == \
        "957db5b957ddc5cb7346213ad1a8e16a551908f96c4176664e49046b3570290a"


@st.composite
def cayley_tables(draw):
    """A table for make_group, with names or None.  The table is a
    relabelled group of GROUPS or CATALOG, a product of two CATALOG groups,
    an order-5 loop or a reduced Latin square: as it is, or with one cell
    changed (to -1, n, 2**70, a float, a string or an element), two cells
    of a row swapped, every entry shifted mod n, one row cut short or one
    row dropped."""
    kind = draw(st.sampled_from(("group", "product", "loop", "latin")))
    names = None
    if kind in ("group", "product"):
        bases = [g for _, g, _ in GROUPS] + [ctor() for _, _, ctor in CATALOG]
        g = draw(st.sampled_from(bases))
        if kind == "product":
            g = direct_product(draw(st.sampled_from(CATALOG))[2](),
                               draw(st.sampled_from(CATALOG))[2]())
        g = relabelled(g, draw(st.randoms(use_true_random=False)))
        table = [list(r) for r in g.table]
        names = draw(st.sampled_from((None, g.names, g.names[:1] * g.order)))
    elif kind == "loop":
        table = [list(r) for r in draw(st.sampled_from(LOOPS5))]
    else:
        n = draw(st.integers(1, 5))
        table = [list(r) for r in draw(st.sampled_from(list(reduced_latin_squares(n))))]
    n = len(table)
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    change = draw(st.sampled_from(("none", "cell", "swap", "shift", "short-row",
                                   "drop-row")))
    if change == "cell":
        table[i][j] = draw(st.sampled_from((-1, n, 2 ** 70, 0.5, "x"))
                           | st.integers(0, n - 1))
    elif change == "swap":  # rows stay permutations, two columns may not
        table[i][j], table[i][k] = table[i][k], table[i][j]
    elif change == "shift":  # a Latin square, with an identity only by chance
        table = [[(x + j) % n for x in r] for r in table]
    elif change == "short-row":
        table[i].pop()
    elif change == "drop-row":
        table.pop(i)
    return table, names


@settings(max_examples=300)
@given(cayley_tables())
def test_make_group_accepts_exactly_the_group_tables(case):
    checked_outcome(*case)


def record_builds(monkeypatch) -> list:
    """The tables groups builds unchecked, recorded as they are built; a
    make_group call fails the test."""
    built = []
    by_construction = groups._group_by_construction

    def recording(table, names):
        built.append(tuple(map(tuple, table)))
        return by_construction(table, names)

    monkeypatch.setattr(groups, "make_group", lambda *args: pytest.fail("make_group ran"))
    monkeypatch.setattr(groups, "_group_by_construction", recording)
    return built


def test_make_group_checks_an_order_260_table():
    t = [[(i + j) % 260 for j in range(260)] for i in range(260)]
    assert checked_outcome(t)[0] == 260
    for bad in (-1, 260):
        t[3][5] = bad
        assert checked_outcome(t) == \
            ("refused", "row 3 is not a permutation; not a Latin square")


def test_holomorph_check_builds_no_holomorph_table(monkeypatch):
    # Aut(g) x| g is a group by theorem: the one table built is Aut(g)'s,
    # and make_group checks none
    built = record_builds(monkeypatch)
    for g, cap in [(g, 24) for _, g, _ in GROUPS] + [
            (direct_product(cyclic(3), cyclic(3)), 48)]:
        aut = automorphisms(g, cap)
        built.clear()
        rep = holomorph_check(g, cap)
        assert built == [aut.group.table]
        assert rep.details[0] == {"name": "holomorph is a group",
                                  "order": aut.order * g.order, "status": "pass"}


def test_composition_table_refuses_perms_not_closed_under_composition():
    # (1,2,0) twice is (2,0,1), which the list lacks
    with pytest.raises(KeyError, match=r"\(2, 0, 1\)"):
        groups._composition_table([(0, 1, 2), (1, 2, 0)])


@pytest.mark.parametrize("name,g,_", GROUPS, ids=[n for n, _, _ in GROUPS])
def test_aut_composition_table_equals_lookup_of_composites(name, g, _):
    aut = automorphisms(g)
    idx = {p: i for i, p in enumerate(aut.perms)}
    assert aut.group.table == tuple(
        tuple(idx[tuple(p[x] for x in q)] for q in aut.perms) for p in aut.perms)
    assert aut.perms[aut.identity] == tuple(range(g.order))


def test_tau_and_crossed_module_witnesses_are_the_first_failures(monkeypatch):
    """Feed holomorph_check a wrong tau: a homomorphism V4 -> Aut(V4) that
    is not conjugation, then a map that is no homomorphism; each report
    names the first failing pair in row-major order, found here by loops."""
    g = klein4()
    aut = automorphisms(g)
    A, P = aut.group.table, aut.perms
    homs = [tuple(h) for h in _enumerate_homs(g, aut.group)]
    equivariant = [h for h in homs if all(
        P[h[P[p][a]]] == tuple(P[p][P[h[a]][P[aut.group.inv[p]][x]]] for x in range(4))
        for p in range(aut.order) for a in range(4))]
    twisted = next(h for h in homs if h not in equivariant)
    broken = (aut.identity, 1, 1, 1) if aut.identity != 1 else (0, 2, 2, 2)
    for tau in (twisted, broken):
        monkeypatch.setattr(groups, "inner_automorphisms",
                            lambda g, aut, tau=tau: groups.InnerAutomorphisms(tau, (), ()))
        rep = holomorph_check(g)
        assert not rep.passed
        hom_fails = [(a, b) for a in range(4) for b in range(4)
                     if tau[g.table[a][b]] != A[tau[a]][tau[b]]]
        if hom_fails:
            assert (rep.label, rep.witness) == ("tau is a homomorphism", hom_fails[0])
        else:
            fails = [(p, a) for p in range(aut.order) for a in range(4)
                     if P[tau[P[p][a]]] != tuple(
                         P[p][P[tau[a]][P[aut.group.inv[p]][x]]] for x in range(4))]
            assert (rep.label, rep.witness) == ("tau(phi.a) = phi tau(a) phi^-1", fails[0])


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# sha256 of json.dumps(report.to_json(), sort_keys=True), recorded with the
# loop-built tables of the earlier version of this module
REPORT_DIGESTS = {
    "trivial": ("7f0dfc868983a13f0bc80e8ad6c377e81cd6f3a604c96d94e77e3cdc9471b85c",
                "b6183e358bacb13004b798e16d30756d94ca79b36a22fdb2c64abf64fc8c2e89"),
    "Z2": ("bbadf7e0d0bee2d62e335d93ccc96dec8f0fc61fa73eba74addb73beb59bc58b",
           "b6183e358bacb13004b798e16d30756d94ca79b36a22fdb2c64abf64fc8c2e89"),
    "Z3": ("2a8c29faaf66f435dfaece6dc812aad56fb2831d498bf317aec07e6313674263",
           "68d5826fbf2bc327ef5813e97346387b9a51115398b7d926f2d3dcf4f3b10ec0"),
    "Z4": ("705b2371cd5d50d7239d2b72866d2952fdb182f3e7ac9e7c95c4a6301be5d9ce",
           "68d5826fbf2bc327ef5813e97346387b9a51115398b7d926f2d3dcf4f3b10ec0"),
    "V4": ("7e020937bc01a7a88d07f73c1cdbb477ecb7017d4a37913ce469d8cf741eeaf0",
           "210c54c0db05377b6019a105a9f7bf56670787bf27e1e43f4095558083c246d2"),
    "Z5": ("651bb75ca7a9f39d59eba5da5c02f4de71be632f1a0aa10f4fdbae86b5b99189",
           "32f4fb3ba28f0889b5d52f858f6a2268c86c2727233a9c4db28630ae42c6a236"),
    "Z6": ("34895cd2efc31668e2e76cbc155a0df4406e255bffc8c6e853017c870ecc70e5",
           "68d5826fbf2bc327ef5813e97346387b9a51115398b7d926f2d3dcf4f3b10ec0"),
    "S3": ("0d3551e27b245f8cb23361515f8fd9b4587d8be90e08a6536557fd24d94924f4",
           "210c54c0db05377b6019a105a9f7bf56670787bf27e1e43f4095558083c246d2"),
    "Z7": ("e51cf733b2a1dcd68fd25541b3498a60ffee46547f4d5ea2a6e624e8b1102a17",
           "f55ace3cb70617ba5e114fcee45bde4150fa18879c617f81dbcd628ff469e38e"),
    "Z8": ("6b416d3e975bb2402e03b8a54303db7d41124cc20fa533b24c2ea8f96d76eb78",
           "60bc46ff91051f45db0b119e4bf35dd7f33c3f58b26d359ddd2e14c2d98a6e41"),
    "D4": ("90dcae322d9ebc65b1afdd5a5e5f4ab6e9bebe4f6e3a9bcef07b5265e56ec81d",
           "3f4da4564f45b6fb1882ff75095dc3b3a9011e29324cceb82b0b7c4d518bbdb0"),
    "Q8": ("5cc9c54011fb3fd7db5833ea28a1f688f4571a5da6f038b1026816d9acd9ac67",
           "45c011360e99dfdcb09424b4224a7ceae9ecdc4c971fd27b4807a47459e1d46a"),
}


@pytest.mark.parametrize("name,g,_", GROUPS, ids=[n for n, _, _ in GROUPS])
def test_check_reports_are_byte_identical_to_pinned_digests(name, g, _):
    holo, univ = REPORT_DIGESTS[name]
    assert _digest(holomorph_check(g).to_json()) == holo
    assert _digest(group_universality_check(g).to_json()) == univ


def test_z3xz3_reports_at_cap_48_are_byte_identical_to_pinned_digests():
    g = direct_product(cyclic(3), cyclic(3))
    assert _digest(holomorph_check(g, cap=48).to_json()) == \
        "c63e2ec2047860cb6c6502de4969c86bfe0e8c3d2ba277cf2b9b14a1b1b745ac"
    assert _digest(group_universality_check(g, cap=48).to_json()) == \
        "7590e08f113c13e75ef2b4d08a32311ad5af033c04d1bcde7f833f5066cfb58a"


# ---------------------------------------------------------------------------
# the earlier implementation, as the oracle of the faster one: each span
# searched from the identity, each order by powers, and each choice of
# generator images spread over the whole tree before the other edges are
# checked.  Kept verbatim but for the names it calls.


def ref_span(table, identity, gens) -> set:
    """Everything reached from the identity by right multiplication by gens:
    a breadth-first search costing O(|span| * |gens|)."""
    out = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                z = table[x][g]
                if z not in out:
                    out.add(z)
                    nxt.append(z)
        frontier = nxt
    return out


def ref_greedy_generators(table, identity) -> list:
    """Generators whose span is the whole table; each step adds the element
    whose span with the generators so far is largest, the first on a tie."""
    n = len(table)
    have = {identity}
    gens = []
    while len(have) < n:
        best, best_span = None, set()
        tried = set(have)
        for x in range(n):
            if x in tried:
                continue
            tried.update(table[x][h] for h in have)
            span = ref_span(table, identity, gens + [x])
            if len(span) > len(best_span):
                best, best_span = x, span
                if len(span) == n:
                    break
        gens.append(best)
        have = best_span
    return gens


def ref_element_order(g, x) -> int:
    k, acc = 1, x
    while acc != g.identity:
        acc = g.table[acc][x]
        k += 1
    return k


def ref_enumerate_homs(src, dst):
    """All homomorphisms src -> dst: the images spread from the identity
    along a breadth-first tree, then every other edge is checked."""
    gens = ref_greedy_generators(src.table, src.identity)
    tree, others = [], []  # edges (x, k, y): y = x + gens[k]
    seen = {src.identity}
    frontier = [src.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for k, g in enumerate(gens):
                y = src.table[x][g]
                if y in seen:
                    others.append((x, k, y))
                else:
                    seen.add(y)
                    tree.append((x, k, y))
                    nxt.append(y)
        frontier = nxt
    orders = {y: ref_element_order(dst, y) for y in range(dst.order)}
    gen_orders = [ref_element_order(src, g) for g in gens]
    cands = [[y for y in range(dst.order) if k % orders[y] == 0] for k in gen_orders]
    t = dst.table
    for images in itertools.product(*cands):
        mapping = [None] * src.order
        mapping[src.identity] = dst.identity
        for x, k, y in tree:
            mapping[y] = t[mapping[x]][images[k]]
        if all(mapping[y] == t[mapping[x]][images[k]] for x, k, y in others):
            yield mapping


def has_identity_and_inverses(t) -> bool:
    """t, a Latin square, passes make_group's identity and inverse checks."""
    n = len(t)
    e = next((e for e in range(n)
              if all(t[e][x] == x and t[x][e] == x for x in range(n))), None)
    return e is not None and all(t[t[x].index(e)][x] == e for x in range(n))


# the groups of the benchmark's holomorph checks, with the cap each needs
HOLOMORPH_GROUPS = [(quaternion8(), 24), (dihedral(4), 24), (dihedral(5), 24),
                    (dihedral(6), 24), (direct_product(cyclic(2), cyclic(6)), 24),
                    (direct_product(cyclic(3), cyclic(3)), 48)]


def test_greedy_generators_equal_the_search_from_the_identity():
    """Same generators as the earlier search, on loops too: on a
    nonassociative loop the magma closure of closure_greedy_generators can
    differ from the right-multiplication span the search grows."""
    rng = random.Random(7)
    squares = [t for t in sampled_reduced_latin_squares() if has_identity_and_inverses(t)]
    loops = [t for t in squares
             if any(associativity_fails(t, *xgy)
                    for xgy in itertools.product(range(len(t)), repeat=3))]
    assert (len(squares), len(loops)) == (63, 47)
    assert sum(closure_greedy_generators(t, 0) != ref_greedy_generators(t, 0)
               for t in loops) == 9
    cases = [(t, 0) for t in squares]
    cases += [(make_group(holomorph_table(g, cap)).table, 0) for g, cap in HOLOMORPH_GROUPS]
    cases += [(h.table, h.identity)
              for h in (relabelled(g, rng) for _, g, _ in GROUPS for _ in range(3))]
    for table, identity in cases:
        assert _greedy_generators(table, identity) == ref_greedy_generators(table, identity)


def test_enumerate_homs_equal_the_check_after_the_spread():
    srcs = [g for _, g, _ in GROUPS] + [ctor() for _, _, ctor in CATALOG]
    dsts = [g for _, g, _ in GROUPS] + [automorphisms(g).group for _, g, _ in GROUPS]
    for src in srcs:
        for dst in dsts:
            assert list(_enumerate_homs(src, dst)) == list(ref_enumerate_homs(src, dst))


def test_group_keeps_the_generators_of_its_light_test(monkeypatch):
    # make_group stores the generators its Light test ran over, so reading
    # gens runs no second search, and _enumerate_homs reads them; gens takes
    # no part in equality or repr
    holomorphs = [holomorph_table(g, 24) for g in (quaternion8(), dihedral(4))]
    searches = []

    def counting(table, identity):
        searches.append(len(table))
        return _greedy_generators(table, identity)

    monkeypatch.setattr(groups, "_greedy_generators", counting)
    for table in [g.table for _, g, _ in GROUPS] + holomorphs:
        searches.clear()
        g = make_group(table)
        assert g.gens == tuple(_greedy_generators(g.table, g.identity))
        assert searches == [len(table)]
        assert Group(g.order, g.table, g.names, g.identity, g.inv) == g
        assert "gens" not in repr(g)
    for table in holomorphs:
        src = make_group(table)
        for dst in (cyclic(2), klein4(), symmetric3()):
            assert list(_enumerate_homs(src, dst)) == list(ref_enumerate_homs(src, dst))


def test_a_group_built_without_make_group_finds_its_generators():
    # Z2 built by hand: its gens are worked out on first read, so every
    # homomorphism Z2 -> Z2 is found, not a map that leaves 1 unassigned
    g = Group(2, ((0, 1), (1, 0)), ("0", "1"), 0, (0, 1))
    assert g.gens == (1,)
    assert list(_enumerate_homs(g, cyclic(2))) == [[0, 0], [0, 1]] == \
        list(_enumerate_homs(cyclic(2), cyclic(2)))


def test_groups_the_program_builds_are_groups():
    """The theorems behind the groups built unchecked: make_group, the check
    of tables from outside the program, gives the same Group, gens
    included, on each constructor's output and on each Aut(g), and accepts
    each holomorph table, of the order holomorph_check reports."""
    built = [trivial(), klein4(), symmetric3(), quaternion8()]
    built += [cyclic(n) for n in range(1, 9)] + [dihedral(n) for n in range(3, 7)]
    built += [direct_product(b(), c())
              for (_, _, b), (_, _, c) in itertools.product(CATALOG, repeat=2)]
    targets = [(g, 24) for _, g, _ in GROUPS] + HOLOMORPH_GROUPS
    built += [automorphisms(g, cap).group for g, cap in targets]
    for g in built:
        checked = make_group(g.table, g.names)
        assert (checked, checked.gens) == (g, g.gens)
    for g, cap in targets:
        assert make_group(holomorph_table(g, cap)).order == \
            holomorph_check(g, cap).details[0]["order"]


def test_orders_equal_the_power_loop():
    gs = [g for _, g, _ in GROUPS] + [ctor() for _, _, ctor in CATALOG]
    gs += [automorphisms(g, cap).group for g, cap in HOLOMORPH_GROUPS]
    gs += [make_group(holomorph_table(g, cap)) for g, cap in HOLOMORPH_GROUPS]
    for g in gs:
        assert g.orders == tuple(ref_element_order(g, x) for x in range(g.order))


def test_catalogue_orders_are_stated_and_tested_before_the_build(monkeypatch):
    assert [(name, order) for name, order, ctor in CATALOG] == \
        [(name, ctor().order) for name, _, ctor in CATALOG]
    g = cyclic(4)
    aut = automorphisms(g)
    groups._catalogue_group.cache_clear()
    built = record_builds(monkeypatch)
    rep = group_universality_check(g, max_b=1)
    assert [line["acting_group"] for line in rep.details] == ["trivial"]
    # Aut(Z4)'s composition table, then the trivial group alone
    assert built == [aut.group.table, ((0,),)]
    # the trivial group is kept, so a second call builds only Aut(Z4)
    built.clear()
    assert group_universality_check(g, max_b=1) == rep
    assert built == [aut.group.table]


@pytest.mark.parametrize("max_b", [0, -1, 7, 10])
def test_universality_max_b_outside_the_catalogue_orders_is_refused(max_b):
    # the catalogue holds groups of orders 1..6 only: a max_b of 10 would
    # check no more than 6 does, and 0 would check nothing
    with pytest.raises(InputError, match=r"max_b must be in 1\.\.6"):
        group_universality_check(cyclic(4), max_b=max_b)


# the groups whose Aut the order rule is tested on, relabelled in the test;
# V4 x V4 is left out, its 20160 automorphisms being past the cap of 400
AUT_BASES = [ctor() for _, _, ctor in CATALOG] + [dihedral(n) for n in range(3, 13)]
AUT_BASES += [quaternion8()] + [
    direct_product(b(), c())
    for (x, i, b), (y, j, c) in itertools.product(CATALOG, repeat=2)
    if i * j <= 24 and (x, y) != ("V4", "V4")]


@settings(max_examples=250, derandomize=True)
@given(st.sampled_from(AUT_BASES), st.randoms(use_true_random=False))
def test_automorphisms_equal_the_bijections_of_the_divisibility_route(base, rng):
    """automorphisms asks only for generator images of the generator's own
    order; the oracle asks for every image of an order dividing it, as
    universality does, and keeps the bijections."""
    g = relabelled(base, rng)
    aut = automorphisms(g, 400)
    oracle = sorted(tuple(h) for h in _enumerate_homs(g, g) if len(set(h)) == g.order)
    assert list(aut.perms) == oracle
    if g.order <= 8:
        assert list(aut.perms) == sorted(brute_aut(g))
    for p in aut.perms:
        assert [g.orders[p[x]] for x in g.gens] == [g.orders[x] for x in g.gens]
