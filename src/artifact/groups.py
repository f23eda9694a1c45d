"""Finite groups by Cayley table: automorphisms, holomorph, universality.

Groups are written additively (0, -, +) even when nonabelian, matching the
convention of the rest of the package.  Everything is exhaustive, and each
fact is checked once, where it is established:

- make_group checks the Latin-square property, a two-sided identity and
  inverses, and associativity by Light's test over generators whose span
  (products by right multiplication from the identity) is the whole table;
- automorphisms backtracks over generator images and keeps only maps that
  extend to bijective homomorphisms, so every row of Aut(g) is proven an
  automorphism once, and its composition table goes through make_group;
- holomorph_check checks the theorems about Aut(g) x| g and the crossed
  module g -> Aut(g), and not the facts that inner_automorphisms makes true
  by definition;
- group_universality_check counts actions as homomorphisms B -> Aut(g),
  which factor through Aut(g) by construction.  make_group_action is the
  validator for dot tables from outside the program; the tests use it, and
  independent counts from brute-force Aut, as oracles for the enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .algebra import InputError


class CapError(ValueError):
    """An enumeration would exceed its configured bound."""


@dataclass(frozen=True)
class Group:
    order: int
    table: tuple  # table[a][b] is the index of a+b
    names: tuple
    identity: int
    inv: tuple

    def add(self, a: int, b: int) -> int:
        return self.table[a][b]

    def to_json(self) -> dict:
        return {"order": self.order,
                "table": [list(r) for r in self.table],
                "names": list(self.names)}


def _span(table, identity, gens) -> set:
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


def _greedy_generators(table, identity) -> list:
    """Generators whose span is the whole table; each step adds the element
    whose span with the generators so far is largest, the first on a tie.

    Light's test over them is sound on any Latin square with an identity:
    the g with (x+g)+y = x+(g+y) for all x, y include the identity and are
    closed under +, so they hold the span once they hold the generators.
    On a group, x+h for h in the current span H adds the same subgroup as
    x, so only the first element of each coset x+H is tried; the choice is
    the one a search over every element makes.
    """
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
            span = _span(table, identity, gens + [x])
            if len(span) > len(best_span):
                best, best_span = x, span
                if len(span) == n:
                    break
        gens.append(best)
        have = best_span
    return gens


def make_group(table, names=None) -> Group:
    t = tuple(tuple(r) for r in table)
    n = len(t)
    if n < 1:
        raise InputError("group order must be at least 1")
    if any(len(r) != n for r in t):
        raise InputError("Cayley table must be square")
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
    for g in _greedy_generators(t, identity):
        for x in range(n):
            xg = t[x][g]
            for y in range(n):
                if t[xg][y] != t[x][t[g][y]]:
                    raise InputError(f"associativity fails at ({x},{g},{y})")
    if names is None:
        names = tuple(f"g{i}" for i in range(n))
    else:
        names = tuple(str(x) for x in names)
        if len(names) != n or len(set(names)) != n:
            raise InputError("names must be distinct and match the order")
    return Group(n, t, names, identity, tuple(inv))


def group_from_json(obj) -> Group:
    if not isinstance(obj, dict) or not {"order", "table"} <= set(obj) \
            or not set(obj) <= {"order", "table", "names"}:
        raise InputError("group JSON needs keys order, table and optionally names")
    order, table, names = obj["order"], obj["table"], obj.get("names")
    if type(order) is not int:  # also refuses JSON true/false
        raise InputError(f"order must be an integer, got {order!r}")
    if not isinstance(table, list) or len(table) != order:
        raise InputError("table must be a list of order rows")
    for i, row in enumerate(table):
        if not isinstance(row, list) or any(type(v) is not int for v in row):
            raise InputError(f"row {i} of the table must be a list of integers")
    if names is not None and (not isinstance(names, list)
                              or any(not isinstance(x, str) for x in names)):
        raise InputError("names must be a list of strings")
    return make_group(table, names)


def element_order(g: Group, x: int) -> int:
    k, acc = 1, x
    while acc != g.identity:
        acc = g.table[acc][x]
        k += 1
    return k


# ---------------------------------------------------------------------------
# constructors


def trivial() -> Group:
    return make_group(((0,),), ("0",))


def cyclic(n: int) -> Group:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return make_group(table, tuple(str(i) for i in range(n)))


def direct_product(g: Group, h: Group) -> Group:
    # (x, y) sits at x * |h| + y in product order
    pairs = list(itertools.product(range(g.order), range(h.order)))
    table = tuple(
        tuple(g.table[a1][b1] * h.order + h.table[a2][b2] for (b1, b2) in pairs)
        for (a1, a2) in pairs)
    names = tuple(f"({g.names[a]},{h.names[b]})" for a, b in pairs)
    return make_group(table, names)


def klein4() -> Group:
    return direct_product(cyclic(2), cyclic(2))


def _perm_group(perms, names) -> Group:
    idx = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(idx[tuple(p[q[x]] for x in range(len(p)))] for q in perms)
        for p in perms)
    return make_group(table, names)


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
    return make_group(tuple(table), names)


# ---------------------------------------------------------------------------
# automorphisms


def _compose(p, q):
    return tuple(p[q[x]] for x in range(len(p)))


@dataclass(frozen=True)
class AutomorphismGroup:
    perms: tuple  # sorted tuple of permutations
    group: Group  # composition table over the perms
    identity: int

    @property
    def order(self) -> int:
        return len(self.perms)


def _extend_hom(src: Group, dst_table, dst_identity, gens, images) -> Optional[dict]:
    """Grow the partial map determined on generators, or None on conflict."""
    mapping = {src.identity: dst_identity}
    frontier = [src.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g, img in zip(gens, images):
                y = src.table[x][g]
                fy = dst_table[mapping[x]][img]
                if y in mapping:
                    if mapping[y] != fy:
                        return None
                else:
                    mapping[y] = fy
                    nxt.append(y)
        frontier = nxt
    return mapping


def automorphisms(g: Group, cap: int = 24) -> AutomorphismGroup:
    """All table-preserving bijections, by backtracking over the images of a
    greedy generating set; loud CapError when the input order or the number
    of automorphisms found exceeds the cap."""
    if g.order > cap:
        raise CapError(f"group order {g.order} exceeds cap {cap}")
    gens = _greedy_generators(g.table, g.identity)
    orders = {x: element_order(g, x) for x in range(g.order)}
    cands = [[y for y in range(g.order) if orders[y] == orders[gen]] for gen in gens]
    found = []

    def backtrack(i, images):
        partial = _extend_hom(g, g.table, g.identity, gens[:i], images)
        if partial is None:
            return
        if i == len(gens):
            if len(set(partial.values())) == g.order:
                found.append(tuple(partial[x] for x in range(g.order)))
            return
        for y in cands[i]:
            backtrack(i + 1, images + [y])

    backtrack(0, [])
    perms = sorted(found)
    if len(perms) > cap:
        raise CapError(f"automorphism count {len(perms)} exceeds cap {cap}")
    idx = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            c = _compose(p, q)
            if c not in idx:
                raise InputError("automorphism set not closed; search bug")
            row.append(idx[c])
        table.append(tuple(row))
    names = tuple(f"phi{i}" for i in range(len(perms)))
    comp = make_group(tuple(table), names)
    ident = idx[tuple(range(g.order))]
    return AutomorphismGroup(tuple(perms), comp, ident)


@dataclass(frozen=True)
class InnerAutomorphisms:
    tau: tuple  # tau[a] is the Aut index of conjugation by a
    indices: tuple  # sorted distinct Aut indices forming Inn
    center: tuple  # elements whose conjugation is the identity


def inner_automorphisms(g: Group, aut: Optional[AutomorphismGroup] = None) -> InnerAutomorphisms:
    if aut is None:
        aut = automorphisms(g)
    idx = {p: i for i, p in enumerate(aut.perms)}
    tau = []
    for a in range(g.order):
        conj = tuple(g.table[g.table[a][x]][g.inv[a]] for x in range(g.order))
        if conj not in idx:
            raise InputError(f"conjugation by element {a} is not an automorphism; table bug")
        tau.append(idx[conj])
    center = tuple(a for a in range(g.order) if tau[a] == aut.identity)
    return InnerAutomorphisms(tuple(tau), tuple(sorted(set(tau))), center)


# ---------------------------------------------------------------------------
# holomorph and the crossed module g -> Aut(g)


def holomorph_check(g: Group, cap: int = 24):
    """Build Aut(g) x| g and check each claimed piece of structure that is
    not true by construction.  Returns a Report.

    Checked, in order: the semidirect table is a group; tau is a
    homomorphism; tau(phi(a)) = phi tau(a) phi^-1; Inn is normal in Aut; the
    coset product on Out is well-defined; the kernel of Aut -> Out is Inn.
    inner_automorphisms defines tau(a) as conjugation by a, Inn as its image
    and the center as its kernel, so those facts are reported, not checked.
    """
    from .reporting import Report

    aut = automorphisms(g, cap)
    inn = inner_automorphisms(g, aut)
    n, m = g.order, aut.order
    details = []

    # semidirect product: (phi', a') + (phi, a) = (phi'.phi, a' + phi'(a))
    # (phi, a) sits at phi * n + a in product order
    pairs = list(itertools.product(range(m), range(n)))
    table = tuple(
        tuple(aut.group.table[p1][p2] * n + g.table[a1][aut.perms[p1][a2]]
              for (p2, a2) in pairs)
        for (p1, a1) in pairs)
    try:
        make_group(table)
    except InputError as exc:
        return Report(False, label="holomorph is a group", details=[{"error": str(exc)}])
    details.append({"name": "holomorph is a group", "order": m * n, "status": "pass"})

    for a in range(n):
        for b in range(n):
            if inn.tau[g.table[a][b]] != aut.group.table[inn.tau[a]][inn.tau[b]]:
                return Report(False, label="tau is a homomorphism", witness=(a, b),
                              details=details)
    # kernel of tau = center by the definition of inn.center
    details.append({"name": "tau homomorphism with kernel = center", "status": "pass"})

    # crossed module for tau along the evaluation action phi . a = phi(a):
    # (i) tau(phi(a)) = phi tau(a) phi^{-1}; (ii) tau(a)(a') = a + a' - a
    # holds by construction, as aut.perms[tau[a]] is conjugation by a
    for p in range(m):
        perm = aut.perms[p]
        pinv = aut.perms[aut.group.inv[p]]
        for a in range(n):
            lhs = aut.perms[inn.tau[perm[a]]]
            rhs = _compose(perm, _compose(aut.perms[inn.tau[a]], pinv))
            if lhs != rhs:
                return Report(False, label="tau(phi.a) = phi tau(a) phi^-1",
                              witness=(p, a), details=details)
    details.append({"name": "crossed-module conditions for tau", "status": "pass"})

    inn_set = set(inn.indices)
    for p in range(m):
        for i in inn.indices:
            conj = aut.group.table[aut.group.table[p][i]][aut.group.inv[p]]
            if conj not in inn_set:
                return Report(False, label="Inn normal in Aut", witness=(p, i),
                              details=details)
    details.append({"name": "Inn normal in Aut", "status": "pass"})

    # cosets of Inn partition Aut; the induced product is representative-free
    coset_of = {}
    for p in range(m):
        members = frozenset(aut.group.table[p][i] for i in inn.indices)
        coset_of[p] = members
    cosets = set(coset_of.values())
    if sum(len(c) for c in cosets) != m:
        return Report(False, label="cosets partition Aut", details=details)
    for p in range(m):
        for q in range(m):
            target = coset_of[aut.group.table[p][q]]
            for p2 in coset_of[p]:
                for q2 in coset_of[q]:
                    if coset_of[aut.group.table[p2][q2]] != target:
                        return Report(False, label="Out product well-defined",
                                      witness=(p, q, p2, q2), details=details)
    details.append({"name": "Out = Aut/Inn well-defined", "order": len(cosets),
                    "status": "pass"})

    # exactness: image of tau = Inn by the definition of inn.indices, and
    # Inn = kernel of the projection to Out
    kernel = {p for p in range(m) if coset_of[p] == coset_of[aut.identity]}
    if kernel != inn_set:
        return Report(False, label="kernel of Aut -> Out is Inn", details=details)
    details.append({"name": "row 0 -> Inn -> Aut -> Out -> 0 exact", "status": "pass"})

    # the conjugation square: theta = tau for the self-action, so commuting
    # reduces to tau(a)(x) = a + x - a, which holds by construction
    details.append({"name": "conjugation square commutes (theta = tau)",
                    "status": "pass"})
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


def _enumerate_homs(src: Group, dst: Group):
    """All homomorphisms src -> dst via generator-image backtracking."""
    gens = _greedy_generators(src.table, src.identity)
    orders = {y: element_order(dst, y) for y in range(dst.order)}
    gen_orders = [element_order(src, gen) for gen in gens]
    cands = [[y for y in range(dst.order) if k % orders[y] == 0] for k in gen_orders]
    for images in itertools.product(*cands):
        mapping = _extend_hom(src, dst.table, dst.identity, gens, list(images))
        if mapping is not None:
            yield mapping


# acting groups used by the universality check, in order of group order
CATALOG = (
    ("trivial", trivial),
    ("Z2", lambda: cyclic(2)),
    ("Z3", lambda: cyclic(3)),
    ("Z4", lambda: cyclic(4)),
    ("V4", klein4),
    ("Z5", lambda: cyclic(5)),
    ("Z6", lambda: cyclic(6)),
    ("S3", symmetric3),
)


def group_universality_check(g: Group, max_b: int = 6, cap: int = 24):
    """Count the actions of each catalogue group B of order <= max_b on g.

    An action of B on g is a homomorphism B -> Aut(g), so the actions are
    enumerated as exactly those homomorphisms and every action factors
    through Aut(g) by construction.  What is checked is elsewhere: each row
    of Aut(g) was proven an automorphism when Aut was built, and the tests
    compare these counts with counts from brute-force Aut alone and validate
    each enumerated dot table with make_group_action.
    """
    from .reporting import Report

    aut = automorphisms(g, cap)
    details = []
    for name, ctor in CATALOG:
        B = ctor()
        if B.order > max_b:
            continue
        count = sum(1 for _ in _enumerate_homs(B, aut.group))
        details.append({"acting_group": name, "order": B.order, "actions": count,
                        "status": "pass"})
    return Report(True, details=details)
