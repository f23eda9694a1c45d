"""Finite groups: automorphism and action counts against brute-force oracles.

The Aut oracle enumerates every bijection fixing the identity and keeps the
table-preserving ones; no generator logic, no backtracking, nothing shared
with the implementation.  Orders below were computed by the oracle first.
Action counts come from a presentation of each acting group, evaluated on
the oracle's automorphisms.
"""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from artifact.algebra import InputError
from artifact.groups import (CATALOG, CapError, _enumerate_homs,
                             _greedy_generators, automorphisms, cyclic,
                             dihedral, direct_product, element_order, group_from_json,
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


def assert_universality_counts(g, perms, cap=24):
    """group_universality_check reports the independent counts, and each
    enumerated action passes the dot-table validator."""
    rep = group_universality_check(g, max_b=6, cap=cap)
    assert {line["acting_group"]: line["actions"] for line in rep.details} == \
        action_counts(perms)
    aut = automorphisms(g, cap)
    for _, ctor in CATALOG:
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


def holomorph_table(g):
    """The Cayley table of Aut(g) x| g, as holomorph_check builds it."""
    aut = automorphisms(g)
    pairs = list(itertools.product(range(aut.order), range(g.order)))
    idx = {p: i for i, p in enumerate(pairs)}
    return [[idx[(aut.group.table[p1][p2], g.table[a1][aut.perms[p1][a2]])]
             for (p2, a2) in pairs] for (p1, a1) in pairs]


def test_greedy_generators_equal_magma_closure_oracle():
    rng = random.Random(5)
    small = [g for _, g, _ in GROUPS] + [ctor() for _, ctor in CATALOG]
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
    g = draw(st.sampled_from(CATALOG))[1]()
    if draw(st.booleans()):
        g = direct_product(g, draw(st.sampled_from(CATALOG))[1]())
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
    assert [element_order(g, a) for a in range(6)] == [1, 6, 3, 2, 3, 6]


def test_quaternion_structure():
    g = quaternion8()
    names = list(g.names)
    minus_one = names.index("-e")
    i = names.index("i")
    assert element_order(g, minus_one) == 2
    assert element_order(g, i) == 4
    assert g.table[i][i] == minus_one


def test_dihedral_matches_s3_at_n3():
    d3, s3 = dihedral(3), symmetric3()
    assert sorted(element_order(d3, a) for a in range(6)) == \
        sorted(element_order(s3, a) for a in range(6))
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
    shift = (1, 2, 0)  # bijective but not an automorphism (moves identity)
    with pytest.raises(InputError):
        make_group_action(b, g, (ident, shift))
