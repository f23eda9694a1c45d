"""Finite groups by Cayley table: automorphisms, holomorph, universality.

Groups are written additively (0, -, +) even when nonabelian, matching the
convention of the rest of the package.  Everything is exhaustive, and each
fact is checked once, where it is established, or proven once in a
docstring here:

- make_group checks a table from outside the program, and group_from_json
  is its one caller: the Latin-square property, a two-sided identity and
  inverses, and associativity by Light's test over generators whose span
  (products by right multiplication from the identity) is the whole table;
- every table the program builds is a group by construction, and
  _group_by_construction takes it unchecked:
  - cyclic(n) (trivial is cyclic(1)) is Z/nZ under addition mod n;
  - direct_product multiplies two groups componentwise;
  - _perm_group (dihedral, symmetric3) composes a finite set of
    permutations closed under composition, or its index lookup raises
    KeyError.  Such a set is a group: the powers of each p stay in it, so
    p^k is the identity for some k, and p^(k-1) is p's inverse;
  - quaternion8 is the units +-1, +-i, +-j, +-k under Hamilton's product,
    which is associative;
  - the composition table of Aut(g), below;
- automorphisms keeps the bijective maps among the homomorphisms g -> g
  that _enumerate_homs extends from generator images, so every row of
  Aut(g) is proven an automorphism once.  It asks only for images of each
  generator's own order, which loses none: an injective homomorphism keeps
  every order.  Those are all the automorphisms of g, and the automorphisms
  of a group are a group under composition, which is associative: a
  composite or an inverse of automorphisms is one;
- holomorph_check checks the theorems about the crossed module
  g -> Aut(g), and neither the facts that inner_automorphisms makes true by
  definition nor that Aut(g) x| g is a group (the proof is in its
  docstring);
- group_universality_check counts actions as homomorphisms B -> Aut(g),
  which factor through Aut(g) by construction; they need not be injective,
  so images of any order dividing the generator's are tried.  Each CATALOG
  group B is built once per process, on its first use, and kept with its
  gens, orders and edges (_catalogue_group).  make_group_action is the
  validator for dot tables from outside the program; the tests use it, and
  independent counts from brute-force Aut, as oracles for the enumeration.
  The tests also keep make_group as the oracle of every group built
  unchecked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .fields import InputError, read_nested
from .reporting import Report


class CapError(InputError):
    """An enumeration would exceed its configured bound."""


@dataclass(frozen=True)
class Group:
    order: int
    table: tuple  # table[a][b] is the index of a+b
    names: tuple
    identity: int
    inv: tuple

    @cached_property
    def gens(self) -> tuple:
        """Generators whose span is the whole table, worked out on first use
        (make_group fills in those of its Light test); _enumerate_homs
        extends maps from their images."""
        return tuple(_greedy_generators(self.table, self.identity))

    @cached_property
    def orders(self) -> tuple:
        """orders[x] is the order of x, worked out on first use."""
        return _orders(self.table, self.identity)

    @cached_property
    def edges(self) -> tuple:
        """The edges x -> x + gens[k] of the generators' Cayley graph in
        breadth-first order from the identity, as (x, k, y, tree), y = x +
        gens[k] and tree whether the edge is the first to reach y; worked
        out on first use, for _enumerate_homs."""
        out = []
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for k, g in enumerate(self.gens):
                    y = self.table[x][g]
                    tree = y not in seen
                    if tree:
                        seen.add(y)
                        nxt.append(y)
                    out.append((x, k, y, tree))
            frontier = nxt
        return tuple(out)

    def to_json(self) -> dict:
        return {"order": self.order,
                "table": [list(r) for r in self.table],
                "names": list(self.names)}


def _orders(table, identity) -> tuple:
    """For each x, the length of the cycle of the identity under right
    multiplication by x: on a group, the order of x.  On any Latin square
    with an identity, right multiplication by x is a permutation, so the
    cycle closes."""
    out = []
    for x in range(len(table)):
        k, acc = 1, x
        while acc != identity:
            acc = table[acc][x]
            k += 1
        out.append(k)
    return tuple(out)


def _grow(table, have, gens, x) -> set:
    """The closure of `have` under right multiplication by gens + [x],
    where have is already closed under gens: a breadth-first search from
    the products h + x outside have, which stops once it holds the whole
    table, costing O(|have| + |new| * |gens|)."""
    n = len(table)
    gens = gens + [x]
    out = set(have)
    frontier = []
    for h in have:
        z = table[h][x]
        if z not in out:
            out.add(z)
            frontier.append(z)
    while frontier and len(out) < n:
        nxt = []
        for y in frontier:
            for g in gens:
                z = table[y][g]
                if z not in out:
                    out.add(z)
                    nxt.append(z)
        frontier = nxt
    return out


def _greedy_generators(table, identity) -> list:
    """Generators whose span (everything reached from the identity by right
    multiplication by them) is the whole table; each step adds the element
    whose span with the generators so far is largest, the first on a tie.

    Light's test over them is sound on any Latin square with an identity:
    the g with (x+g)+y = x+(g+y) for all x, y include the identity and are
    closed under +, so they hold the span once they hold the generators.

    The first step reads the orders: from the identity alone, x spans its
    own cycle, of length _orders[x], so the first x of largest order is
    chosen.  A later step grows each candidate's span from the last one,
    H: the span of gens + [x] is the closure of H under gens + [x], on any
    magma, since H holds the identity and lies inside that span.  So only
    what x adds is searched, and every span, and every choice, is the one
    a search from the identity makes.  On a group, x+h for h in H adds the
    same subgroup as x, so only the first element of each coset x+H is
    tried; the choice is the one a search over every element makes.
    """
    n = len(table)
    if n == 1:
        return []
    orders = _orders(table, identity)
    first = orders.index(max(orders))
    gens = [first]
    have = _grow(table, {identity}, [], first)
    while len(have) < n:
        best, best_span = None, set()
        tried = set(have)
        for x in range(n):
            if x in tried:
                continue
            tried.update(table[x][h] for h in have)
            span = _grow(table, have, gens, x)
            if len(span) > len(best_span):
                best, best_span = x, span
                if len(span) == n:
                    break
        gens.append(best)
        have = best_span
    return gens


def make_group(table, names=None) -> Group:
    """The group with Cayley table `table`, nested sequences from outside
    the program, refused with an InputError unless it is one.  Its gens are
    those of its Light test, so no second search runs on it."""
    t = tuple(map(tuple, table))
    n = len(t)
    if n < 1:
        raise InputError("group order must be at least 1")
    if any(len(r) != n for r in t):
        raise InputError("Cayley table must be square")
    identity, inv, gens = _check_loops(t)
    if names is None:
        names = tuple(f"g{i}" for i in range(n))
    else:
        names = tuple(str(x) for x in names)
        if len(names) != n or len(set(names)) != n:
            raise InputError("names must be distinct and match the order")
    g = Group(n, t, names, identity, inv)
    vars(g)["gens"] = gens  # where the cached property keeps it
    return g


def _group_by_construction(table, names) -> Group:
    """The Group of a table that is a group by construction (the module
    docstring has each proof), unchecked: the identity is the row equal to
    range(n), and inv[x] is the index of the identity in row x."""
    t = tuple(map(tuple, table))
    identity = t.index(tuple(range(len(t))))
    return Group(len(t), t, tuple(names), identity, tuple(r.index(identity) for r in t))


def _check_loops(t) -> tuple:
    """The identity, the inverses and the generators of Light's test of the
    square table t, or an InputError: Latin rows, then columns, a two-sided
    identity, two-sided inverses, and Light's test, each in row-major
    order."""
    n = len(t)
    full = set(range(n))
    for i, r in enumerate(t):
        if set(r) != full:
            raise InputError(f"row {i} is not a permutation; not a Latin square")
    for j in range(n):
        if {r[j] for r in t} != full:
            raise InputError(f"column {j} is not a permutation; not a Latin square")
    identity = next((e for e in range(n)
                     if all(t[e][x] == x and t[x][e] == x for x in range(n))), None)
    if identity is None:
        raise InputError("no two-sided identity element")
    inv = []
    for x in range(n):
        y = t[x].index(identity)
        if t[y][x] != identity:
            raise InputError(f"element {x} has no two-sided inverse")
        inv.append(y)
    # Light's associativity test: checking (x+g)+y = x+(g+y) for generators
    # g only is equivalent to full associativity
    gens = tuple(_greedy_generators(t, identity))
    for g in gens:
        for x in range(n):
            xg = t[x][g]
            for y in range(n):
                if t[xg][y] != t[x][t[g][y]]:
                    raise InputError(f"associativity fails at ({x},{g},{y})")
    return identity, tuple(inv), gens


def _first(bad) -> Optional[int]:
    """The first True of a boolean array in row-major order, or None."""
    i = int(np.argmax(bad))
    return i if bad.flat[i] else None


def group_from_json(obj) -> Group:
    if not isinstance(obj, dict) or not {"order", "table"} <= set(obj) \
            or not set(obj) <= {"order", "table", "names"}:
        raise InputError("group JSON needs keys order, table and optionally names")
    order = obj["order"]
    if type(order) is not int:  # also refuses JSON true/false
        raise InputError(f"order must be an integer, got {order!r}")
    table = read_nested(obj["table"], (order, order), int, "table")
    names = obj.get("names")
    if names is not None:
        names = read_nested(names, (order,), str, "names")
    return make_group(table, names)


# ---------------------------------------------------------------------------
# constructors


def trivial() -> Group:
    return cyclic(1)


def cyclic(n: int) -> Group:
    if n < 1:
        raise InputError("cyclic needs n >= 1")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return _group_by_construction(table, tuple(str(i) for i in range(n)))


def direct_product(g: Group, h: Group) -> Group:
    # (x, y) sits at x * |h| + y in product order
    pairs = list(itertools.product(range(g.order), range(h.order)))
    table = tuple(
        tuple(g.table[a1][b1] * h.order + h.table[a2][b2] for (b1, b2) in pairs)
        for (a1, a2) in pairs)
    names = tuple(f"({g.names[a]},{h.names[b]})" for a, b in pairs)
    return _group_by_construction(table, names)


def klein4() -> Group:
    return direct_product(cyclic(2), cyclic(2))


def _perm_group(perms, names) -> Group:
    idx = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(idx[tuple(p[q[x]] for x in range(len(p)))] for q in perms)
        for p in perms)
    return _group_by_construction(table, names)


def dihedral(n: int) -> Group:
    """Order 2n: rotations x -> x+i, then reflections x -> i-x."""
    if n < 3:
        raise InputError("dihedral needs n >= 3")
    perms = [tuple((x + i) % n for x in range(n)) for i in range(n)]
    perms += [tuple((i - x) % n for x in range(n)) for i in range(n)]
    names = [f"r{i}" for i in range(n)] + [f"s{i}" for i in range(n)]
    return _perm_group(perms, names)


def symmetric3() -> Group:
    perms = sorted(itertools.permutations(range(3)))
    names = ["".join(str(x) for x in p) for p in perms]
    return _perm_group([tuple(p) for p in perms], names)


def quaternion8() -> Group:
    units = ("e", "i", "j", "k")
    mul = {("e", u): (1, u) for u in units}
    mul.update({(u, "e"): (1, u) for u in units})
    mul.update({("i", "i"): (-1, "e"), ("j", "j"): (-1, "e"), ("k", "k"): (-1, "e"),
                ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
                ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
                ("k", "i"): (1, "j"), ("i", "k"): (-1, "j")})
    elems = [(s, u) for u in units for s in (1, -1)]
    idx = {e: i for i, e in enumerate(elems)}
    table = []
    for (s1, u1) in elems:
        row = []
        for (s2, u2) in elems:
            s3, u3 = mul[(u1, u2)]
            row.append(idx[(s1 * s2 * s3, u3)])
        table.append(tuple(row))
    names = [("" if s == 1 else "-") + u for (s, u) in elems]
    return _group_by_construction(table, names)


# ---------------------------------------------------------------------------
# automorphisms


@dataclass(frozen=True)
class AutomorphismGroup:
    perms: tuple  # sorted tuple of permutations
    group: Group  # composition table over the perms
    identity: int

    @property
    def order(self) -> int:
        return len(self.perms)


def _enumerate_homs(src: Group, dst: Group, same_order: bool = False):
    """All homomorphisms src -> dst, as lists indexed by src elements, in
    itertools.product order of the generator images; with same_order, only
    those that send each generator to an element of its own order.

    A homomorphism is fixed by the images of src's generators, src.gens,
    each of an order dividing its generator's.  An injective one keeps
    every order: if phi(x)^k = e with k < ord(x), then x^k != e is sent to
    e.  So same_order loses no injective homomorphism.  src.edges lists
    the edges x -> x + g of the generators' Cayley graph in breadth-first
    order from the identity, each marked as a tree edge, the first to reach
    its end, or not.  For each choice of images, the images spread along
    the list: a tree edge assigns its end, and any other edge is checked
    when it is reached, both of its ends being assigned by then, and the
    choice is dropped at the first edge that disagrees.  A choice is a
    homomorphism exactly when every edge agrees, so the mappings kept, and
    their order, are those of checking every edge after the spread."""
    k = src.orders
    cands = [[y for y, d in enumerate(dst.orders)
              if (d == k[g] if same_order else k[g] % d == 0)] for g in src.gens]
    edges, t = src.edges, dst.table
    for images in itertools.product(*cands):
        mapping = [None] * src.order
        mapping[src.identity] = dst.identity
        for x, k, y, tree in edges:
            z = t[mapping[x]][images[k]]
            if tree:
                mapping[y] = z
            elif mapping[y] != z:
                break
        else:
            yield mapping


def automorphisms(g: Group, cap: int = 24) -> AutomorphismGroup:
    """All table-preserving bijections: the bijective homomorphisms g -> g
    that _enumerate_homs yields, asked only for generator images of the
    generator's own order, as an automorphism keeps every order; loud
    CapError when the input order or the number of automorphisms found
    exceeds the cap."""
    if g.order > cap:
        raise CapError(f"group order {g.order} exceeds cap {cap}")
    perms = sorted(tuple(h) for h in _enumerate_homs(g, g, same_order=True)
                   if len(set(h)) == g.order)
    if len(perms) > cap:
        raise CapError(f"automorphism count {len(perms)} exceeds cap {cap}")
    names = tuple(f"phi{i}" for i in range(len(perms)))
    comp = _group_by_construction(_composition_table(perms).tolist(), names)
    return AutomorphismGroup(tuple(perms), comp, perms.index(tuple(range(g.order))))


def _composition_table(perms):
    """The index in perms of p.q, at [p, q], as an array; perms is sorted.

    The rows of perms are ranked one column at a time: a row's label is the
    first row agreeing with it on the columns so far, so the keys label * n
    + image stay sorted and below m * n.  Searching the keys of a composite
    among them gives its label too, if it is a row of perms; once every row
    has its own key, that label is its index.  One comparison confirms it,
    and a composite outside perms raises KeyError, as a lookup would."""
    P = np.array(perms)
    m, n = P.shape
    label, comp = np.zeros(m, np.int64), np.zeros((m, m), np.int64)
    for x in range(n):
        keys = label * n + P[:, x]
        label = np.searchsorted(keys, keys)
        comp = np.searchsorted(keys, comp * n + P[:, P[:, x]])
        if (keys[1:] != keys[:-1]).all():
            break
    composite = P[:, P]
    pq = _first((P[comp.clip(max=m - 1)] != composite).any(axis=2))
    if pq is not None:
        raise KeyError(tuple(composite[divmod(pq, m)].tolist()))
    return comp


@dataclass(frozen=True)
class InnerAutomorphisms:
    tau: tuple  # tau[a] is the Aut index of conjugation by a
    indices: tuple  # sorted distinct Aut indices forming Inn
    center: tuple  # elements whose conjugation is the identity


def inner_automorphisms(g: Group, aut: Optional[AutomorphismGroup] = None) -> InnerAutomorphisms:
    if aut is None:
        aut = automorphisms(g)
    idx = {p: i for i, p in enumerate(aut.perms)}
    # conjugation in a group is an automorphism, so it is a row of Aut(g)
    tau = tuple(idx[tuple(g.table[g.table[a][x]][g.inv[a]] for x in range(g.order))]
                for a in range(g.order))
    center = tuple(a for a in range(g.order) if tau[a] == aut.identity)
    return InnerAutomorphisms(tau, tuple(sorted(set(tau))), center)


# ---------------------------------------------------------------------------
# holomorph and the crossed module g -> Aut(g)


def holomorph_check(g: Group, cap: int = 24):
    """Check each claimed piece of structure of Aut(g) x| g and the crossed
    module g -> Aut(g) that is not true by construction.  Returns a Report.

    Aut(g) x| g, with (phi', a') + (phi, a) = (phi'.phi, a' + phi'(a)), is
    reported a group of order |Aut(g)| |g|, not checked: Aut(g) is a group
    acting on the group g by automorphisms, each of its rows being one, so
    the semidirect-product theorem applies.  Checked, in order: tau is a
    homomorphism; tau(phi(a)) = phi tau(a) phi^-1.  inner_automorphisms
    defines tau(a) as conjugation by a, Inn as its image and the center as
    its kernel, so those facts are reported, not checked.  So is the row
    0 -> Inn -> Aut -> Out -> 0, which follows from the checked facts: Inn,
    the image of a homomorphism, is a subgroup, and normal, as
    phi tau(a) phi^-1 = tau(phi(a)); so its cosets partition Aut, the coset
    product on Out is well-defined, Out has order |Aut| / |Inn|, and the
    kernel of Aut -> Out is Inn.

    The tau and crossed-module checks compare whole arrays and report the
    first failure in row-major order, as the loops they replace did.
    """
    aut = automorphisms(g, cap)
    inn = inner_automorphisms(g, aut)
    n, m = g.order, aut.order
    details = [{"name": "holomorph is a group", "order": m * n, "status": "pass"}]
    A, G, P = (np.array(x) for x in (aut.group.table, g.table, aut.perms))

    # tau(a + b) against tau(a) tau(b), at [a, b]
    tau = np.array(inn.tau)
    ab = _first(tau[G] != A[tau[:, None], tau])
    if ab is not None:
        return Report(False, label="tau is a homomorphism", witness=divmod(ab, n),
                      details=details)
    # kernel of tau = center by the definition of inn.center
    details.append({"name": "tau homomorphism with kernel = center", "status": "pass"})

    # crossed module for tau along the evaluation action phi . a = phi(a):
    # (i) tau(phi(a)) = phi tau(a) phi^{-1}, at [p, a, x] on each side;
    # (ii) tau(a)(a') = a + a' - a holds by construction, as P[tau[a]] is
    # conjugation by a
    lhs = P[tau[P]]
    # tau(a)(phi^-1(x)) at [p, a, x], then phi of it
    inner = P[tau][:, P[list(aut.group.inv)]].transpose(1, 0, 2)
    rhs = P[np.arange(m)[:, None, None], inner]
    pa = _first((lhs != rhs).any(axis=2))
    if pa is not None:
        return Report(False, label="tau(phi.a) = phi tau(a) phi^-1",
                      witness=divmod(pa, n), details=details)
    details.append({"name": "crossed-module conditions for tau", "status": "pass"})

    # Inn normal, Out and the exact row follow from the checks above (see
    # the docstring); the conjugation square: theta = tau for the
    # self-action, so commuting reduces to tau(a)(x) = a + x - a, which
    # holds by construction
    details += [
        {"name": "Inn normal in Aut", "status": "pass"},
        {"name": "Out = Aut/Inn well-defined", "order": m // len(inn.indices),
         "status": "pass"},
        {"name": "row 0 -> Inn -> Aut -> Out -> 0 exact", "status": "pass"},
        {"name": "conjugation square commutes (theta = tau)", "status": "pass"},
    ]
    return Report(True, details=details)


# ---------------------------------------------------------------------------
# actions and universality


@dataclass(frozen=True)
class GroupAction:
    B: Group
    G: Group
    dot: tuple  # dot[b][a] in G


def make_group_action(B: Group, G: Group, dot) -> GroupAction:
    d = tuple(tuple(r) for r in dot)
    if len(d) != B.order or any(len(r) != G.order for r in d):
        raise InputError("dot table must be |B| x |G|")
    full = set(range(G.order))
    for b in range(B.order):
        if set(d[b]) != full:
            raise InputError(f"element {b} does not act bijectively")
    if any(d[B.identity][a] != a for a in range(G.order)):
        raise InputError("identity of B must act trivially")
    for b1 in range(B.order):
        for b2 in range(B.order):
            for a in range(G.order):
                if d[B.table[b1][b2]][a] != d[b1][d[b2][a]]:
                    raise InputError(f"action not compatible at ({b1},{b2},{a})")
    for b in range(B.order):
        for a1 in range(G.order):
            for a2 in range(G.order):
                if d[b][G.table[a1][a2]] != G.table[d[b][a1]][d[b][a2]]:
                    raise InputError(f"element {b} does not act by automorphisms")
    return GroupAction(B, G, d)


# acting groups used by the universality check, in order of group order:
# name, order, constructor; the order is stated so that a group above
# max_b is skipped unbuilt
CATALOG = (
    ("trivial", 1, trivial),
    ("Z2", 2, lambda: cyclic(2)),
    ("Z3", 3, lambda: cyclic(3)),
    ("Z4", 4, lambda: cyclic(4)),
    ("V4", 4, klein4),
    ("Z5", 5, lambda: cyclic(5)),
    ("Z6", 6, lambda: cyclic(6)),
    ("S3", 6, symmetric3),
)


@cache
def _catalogue_group(ctor) -> Group:
    """ctor(), for the constructor of a CATALOG entry, built once per
    process: the catalogue groups do not depend on the input, and the gens,
    orders and edges a Group works out stay with it."""
    return ctor()


def group_universality_check(g: Group, max_b: int = 6, cap: int = 24):
    """Count the actions of each catalogue group B of order <= max_b on g;
    an InputError unless max_b lies in 1..6, the orders of the catalogue.

    An action of B on g is a homomorphism B -> Aut(g), so the actions are
    enumerated as exactly those homomorphisms and every action factors
    through Aut(g) by construction.  They need not be injective, so an
    image's order need only divide its generator's.  Each B is built on
    its first use in the process and kept (_catalogue_group), and one above
    max_b is never built.  What is checked is elsewhere: each row of Aut(g)
    was proven an automorphism when Aut was built, and the tests compare
    these counts with counts from brute-force Aut alone and validate each
    enumerated dot table with make_group_action.
    """
    lo, hi = CATALOG[0][1], CATALOG[-1][1]
    if not lo <= max_b <= hi:
        raise InputError(f"max_b must be in {lo}..{hi}, the orders of the catalogue "
                         f"groups, got {max_b}")
    aut = automorphisms(g, cap)
    details = []
    for name, order, ctor in CATALOG:
        if order > max_b:
            continue
        B = _catalogue_group(ctor)
        count = sum(1 for _ in _enumerate_homs(B, aut.group))
        details.append({"acting_group": name, "order": B.order, "actions": count,
                        "status": "pass"})
    return Report(True, details=details)
