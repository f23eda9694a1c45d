"""Symbolic calculus on three-variable replacement words.

A Word is a signed integer combination of bracketed triple products in the
slot variables y, z, x; the side tag records which juxtaposition it
replaces: W1 stands for (y*z)*x, W2 for x*(y*z).  Monomials come in exactly
twelve shapes: u*(v*w) or (u*v)*w over a permutation of the slots.

Inside the module every product is a binary tree: a leaf is a variable
name, a product is a pair (left, right).  One rule (_canon_tree) puts a
tree in canonical form modulo (anti)commutativity, one printer (_tree_str)
writes it and one substitution (_subst) renames or instantiates its leaves,
on the three-leaf monomials of a word and the four-leaf trees of
condition 4 alike.  The Monomial tuple is the public format at the edge
(Word.terms, T_SET, canon_monomial), converted by _tree and _mono.

Three kinds of questions are answered here: whether the words cover the
four fixed target pairs of monomials (directly or modulo (anti)commutative
rewriting), whether a W2 word is (anti)symmetric under swapping y and z,
and whether the two rewrite orders of a four-variable juxtaposition agree
after bounded rewriting.  A fourth operation grounds the symbolic layer on
a concrete structure tensor: the two words are two identity rows, run on
the identity suite's kernel (algebra._row_failure), exact on every field.

The words are also the brackets of the actor candidates: word_terms writes
a word as the terms of an identity row, which constructions.KIND_TABLE's
closure sums on the candidate's pairs, y and z the two pairs and x the
argument they act on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra, Blocks, InputError, _row_failure
from .linalg import exact_ints, on_rung
from .reporting import Report

# Monomial: ("R", (u, v, w)) is u*(v*w); ("L", (u, v, w)) is (u*v)*w
Monomial = tuple

_SLOTS = ("x", "y", "z")


def _tree(m: Monomial):
    shape, (u, v, w) = m
    return (u, (v, w)) if shape == "R" else ((u, v), w)


def _mono(t) -> Monomial:
    """The inverse of _tree on three-leaf trees."""
    l, r = t
    return ("R", (l, *r)) if isinstance(l, str) else ("L", (*l, r))


def _tree_str(t) -> str:
    if isinstance(t, str):
        return t
    return f"({_tree_str(t[0])}*{_tree_str(t[1])})"


def mono_str(m: Monomial) -> str:
    return _tree_str(_tree(m))[1:-1]


def _subst(t, sub: dict):
    """t with each leaf replaced by sub[leaf], a leaf or a tree."""
    if isinstance(t, str):
        return sub[t]
    return _subst(t[0], sub), _subst(t[1], sub)


@dataclass(frozen=True)
class Word:
    side: str  # "W1" replaces (y*z)*x, "W2" replaces x*(y*z)
    terms: tuple  # ((coefficient: Fraction, Monomial), ...) sorted by monomial

    def monomials(self):
        return [m for _, m in self.terms]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for coef, m in self.terms:
            sign = "-" if coef < 0 else "+"
            mag = abs(coef)
            body = mono_str(m) if mag == 1 else f"{mag}*{mono_str(m)}"
            parts.append(f"{sign} {body}")
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else out


_TERM_R = re.compile(r"^(?:(\d+)\*)?([a-z])\*\(([a-z])\*([a-z])\)$")
_TERM_L = re.compile(r"^(?:(\d+)\*)?\(([a-z])\*([a-z])\)\*([a-z])$")


def parse_word(text: str, side: str) -> Word:
    """Parse a signed sum of bracketed triple products over x, y, z."""
    if side not in ("W1", "W2"):
        raise InputError("word side must be 'W1' or 'W2'")
    s = text.replace(" ", "")
    if not s or s == "0":
        return Word(side, ())
    if s[0] not in "+-":
        s = "+" + s
    chunks = re.findall(r"[+-][^+-]+", s)
    if "".join(chunks) != s:
        raise InputError(f"cannot split word into signed terms: {text!r}")
    acc: dict[Monomial, Fraction] = {}
    for chunk in chunks:
        sign = Fraction(-1 if chunk[0] == "-" else 1)
        body = chunk[1:]
        mr = _TERM_R.match(body)
        ml = _TERM_L.match(body)
        if mr:
            coefs, u, v, w = mr.groups()
            mono = ("R", (u, v, w))
        elif ml:
            coefs, u, v, w = ml.groups()
            mono = ("L", (u, v, w))
        else:
            raise InputError(f"malformed word term {chunk!r}")
        vars_ = set(mono[1])
        if not vars_ <= set(_SLOTS):
            raise InputError(f"term {chunk!r} uses variables outside x, y, z")
        if len(vars_) != 3:
            raise InputError(f"term {chunk!r} must use three distinct variables")
        try:
            coef = sign * Fraction(int(coefs)) if coefs else sign
        except ValueError:  # past int's digit limit
            raise InputError(f"a {len(coefs)}-digit coefficient is too long to read") from None
        acc[mono] = acc.get(mono, Fraction(0)) + coef
    terms = tuple(sorted(((c, m) for m, c in acc.items() if c != 0),
                         key=lambda t: t[1]))
    return Word(side, terms)


def _apply_word(word: Word, slot_y, slot_z, slot_x):
    """Instantiate a word's slots with trees, yielding (coef, tree) terms."""
    sub = {"y": slot_y, "z": slot_z, "x": slot_x}
    return [(coef, _subst(_tree(m), sub)) for coef, m in word.terms]


# the four target pairs; covering at least one member of each is the
# existence criterion when the replacement words carry no extra identities
T_SET = (
    (("R", ("y", "x", "z")), ("R", ("z", "x", "y"))),
    (("R", ("y", "z", "x")), ("R", ("z", "y", "x"))),
    (("L", ("y", "x", "z")), ("L", ("z", "x", "y"))),
    (("L", ("x", "y", "z")), ("L", ("x", "z", "y"))),
)

MODES = ("plain", "comm", "anticomm")


def _canon_tree(t, mode: str):
    """(sign, canonical tree) of t's orbit under swapping the two factors
    of any product; plain mode swaps nothing.

    Both children are canonicalised, then ordered: a leaf before a product,
    otherwise by _tree_str, which is injective on trees.  Each swap flips
    the sign under anticomm.  The key is a total order on distinct
    canonical subtrees, so every tree of an orbit reaches the same tree.
    Two children could tie only as equal subtrees, which distinct leaves
    rule out: x, y, z in a word's monomial, x, y, z, t in condition 4.
    On three leaves the result is u*(v*w) with v before w, the
    right-bracketed representative with the inner pair sorted.  Condition
    4 compares its snapshots only for equality, so which canonical form it
    reads does not change its outcomes or matched waves.
    """
    if isinstance(t, str):
        return 1, t
    s1, l = _canon_tree(t[0], mode)
    s2, r = _canon_tree(t[1], mode)
    sign = s1 * s2
    if mode != "plain" and \
            (isinstance(l, tuple), _tree_str(l)) > (isinstance(r, tuple), _tree_str(r)):
        l, r = r, l
        if mode == "anticomm":
            sign = -sign
    return sign, (l, r)


def _canon_tree_terms(terms, mode: str):
    """Signed trees merged by canonical tree, zeros dropped, sorted by
    _tree_str."""
    acc = {}
    for coef, t in terms:
        s, ct = _canon_tree(t, mode)
        acc[ct] = acc.get(ct, Fraction(0)) + coef * s
    return tuple(sorted(((c, t) for t, c in acc.items() if c != 0),
                        key=lambda p: _tree_str(p[1])))


def canon_monomial(m: Monomial, mode: str) -> tuple[int, Monomial]:
    """Canonical representative of a monomial's orbit under the mode.

    comm and anticomm identify u*(v*w) with u*(w*v), (v*w)*u with u*(v*w);
    the representative is right-bracketed with the inner pair sorted, and
    the sign tracks the number of * swaps in the anticommutative case.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    sign, t = _canon_tree(_tree(m), mode)
    return sign, _mono(t)


def check_T_coverage(w1: Word, w2: Word, mode: str = "plain") -> Report:
    """Does each target pair have a member among the words' monomials?

    A pair member counts as covered when it appears literally among the
    monomials of w1 and w2 ("direct"), or, in comm/anticomm mode, when its
    canonical representative matches one of theirs ("rewritten").  The
    per-pair judgment is logged so the reading can be audited.
    """
    monos = set(w1.monomials()) | set(w2.monomials())
    reps = {canon_monomial(m, mode)[1] for m in monos}
    details = []
    uncovered = []
    for idx, pair in enumerate(T_SET):
        matched = None
        via = None
        for cand in pair:
            if cand in monos:
                matched, via = cand, "direct"
                break
        if matched is None and mode != "plain":
            for cand in pair:
                if canon_monomial(cand, mode)[1] in reps:
                    matched, via = cand, "rewritten"
                    break
        details.append({
            "pair": [mono_str(pair[0]), mono_str(pair[1])],
            "covered": matched is not None,
            "matched": mono_str(matched) if matched else None,
            "via": via,
        })
        if matched is None:
            uncovered.append(idx)
    if uncovered:
        return Report(False, label="uncovered target pair",
                      witness=tuple(uncovered), details=details)
    return Report(True, details=details)


def _canon_terms(terms, mode: str) -> tuple:
    """Signed three-leaf trees in canonical form, as (coef, Monomial)
    sorted by (coef, monomial)."""
    return tuple(sorted((c, _mono(t)) for c, t in _canon_tree_terms(terms, mode)))


def check_swap_symmetry(w2: Word, sign: str) -> Report:
    """Is W2(z,y;x) equal to (+/-) W2(y,z;x) using only (anti)commutativity?

    The sign picks the rewriting: "+" compares modulo commutativity, "-"
    modulo anticommutativity, matching the two families of categories in
    which the symmetry is forced.
    """
    if sign not in ("+", "-"):
        raise InputError("sign must be '+' or '-'")
    if w2.side != "W2":
        raise InputError("swap symmetry applies to a W2-tagged word")
    mode = "comm" if sign == "+" else "anticomm"
    factor = Fraction(1) if sign == "+" else Fraction(-1)
    swapped = _canon_terms(_apply_word(w2, "z", "y", "x"), mode)
    target = _canon_terms(((c * factor, t) for c, t in _apply_word(w2, "y", "z", "x")), mode)
    if swapped == target:
        return Report(True, details=[{"mode": mode}])
    return Report(False, label=f"W2(z,y;x) = {sign}W2(y,z;x) under {mode}",
                  details=[{"mode": mode,
                            "swapped": [(str(c), mono_str(m)) for c, m in swapped],
                            "target": [(str(c), mono_str(m)) for c, m in target]}])


# ---------------------------------------------------------------------------
# bounded rewriting of four-variable juxtapositions
#
# Every tree reached below has exactly the leaves x, y, z, t once each.


def _contains_t(t) -> bool:
    if isinstance(t, str):
        return t == "t"
    return _contains_t(t[0]) or _contains_t(t[1])


def _rewrite_once(tree, w1: Word, w2: Word):
    """One target-directed rewrite step, or None when the tree is stable.

    Walk the path from the unique t leaf upward; at the innermost ancestor
    whose other factor is itself a product, replace that node: a compound
    left factor matches the (y*z)*x pattern and expands through w1, a
    compound right factor matches x*(y*z) and expands through w2.
    """
    if isinstance(tree, str):
        return None
    l, r = tree
    tside, other, t_on_left = (l, r, True) if _contains_t(l) else (r, l, False)
    inner = _rewrite_once(tside, w1, w2)
    if inner is not None:
        if t_on_left:
            return [(c, (sub, other)) for c, sub in inner]
        return [(c, (other, sub)) for c, sub in inner]
    if isinstance(other, str):
        return None
    ou, ov = other
    if t_on_left:
        # tside * (ou*ov): x*(y*z) shape with x = tside
        return _apply_word(w2, ou, ov, tside)
    # (ou*ov) * tside: (y*z)*x shape with x = tside
    return _apply_word(w1, ou, ov, tside)


_TERM_CAP = 4096
# the most rewrite waves condition 4 runs per side: each keeps a snapshot,
# so an unbounded depth on words that never settle runs without end
_DEPTH_CAP = 1000


def _wave_sequence(terms, w1, w2, depth, mode):
    """Canonicalized snapshots after 0..depth rewrite waves.

    Returns (snapshots, stable): stable is True when the last snapshot has
    no rewritable monomial left, i.e. further waves would change nothing.
    """
    snaps = [_canon_tree_terms(terms, mode)]
    current = list(terms)
    stable = False
    for _ in range(depth):
        nxt = []
        changed = False
        for coef, t in current:
            res = _rewrite_once(t, w1, w2)
            if res is None:
                nxt.append((coef, t))
            else:
                changed = True
                nxt.extend((coef * c2, t2) for c2, t2 in res)
        if len(nxt) > _TERM_CAP:
            return snaps, False
        current = nxt
        snaps.append(_canon_tree_terms(current, mode))
        if not changed:
            stable = True
            break
    else:
        stable = all(_rewrite_once(t, w1, w2) is None for _, t in current)
    return snaps, stable


def expand_condition4(w1: Word, w2: Word, depth: int = 3, mode: str = "plain") -> Report:
    """Do the two rewrite orders of each four-variable juxtaposition agree?

    Four pairings arise from placing the inner product x*y in either slot of
    either word shape.  For each pairing, side A rewrites the outer
    juxtaposition first and side B the inner one; both sides are then pushed
    toward t-normal form one wave at a time, and the pairing is settled by
    comparing canonicalized signed multisets across all wave pairs.
    Outcomes: equal, unequal (both sides stable, no snapshot matched), or
    undetermined (wave budget or term cap exhausted first).  A depth past
    _DEPTH_CAP is refused.
    """
    if depth < 1:
        raise InputError("depth must be at least 1")
    if depth > _DEPTH_CAP:
        raise InputError(f"depth {depth} is past the cap of {_DEPTH_CAP} waves")
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    xy = ("x", "y")
    pairings = [
        ("((x*y)*z)*t",
         _apply_word(w1, xy, "z", "t"),
         [(c, (m, "t")) for c, m in _apply_word(w1, "x", "y", "z")]),
        ("t*((x*y)*z)",
         _apply_word(w2, xy, "z", "t"),
         [(c, ("t", m)) for c, m in _apply_word(w1, "x", "y", "z")]),
        ("(z*(x*y))*t",
         _apply_word(w1, "z", xy, "t"),
         [(c, (m, "t")) for c, m in _apply_word(w2, "x", "y", "z")]),
        ("t*(z*(x*y))",
         _apply_word(w2, "z", xy, "t"),
         [(c, ("t", m)) for c, m in _apply_word(w2, "x", "y", "z")]),
    ]
    details = []
    outcomes = []
    for name, side_a, side_b in pairings:
        snaps_a, stable_a = _wave_sequence(side_a, w1, w2, depth, mode)
        snaps_b, stable_b = _wave_sequence(side_b, w1, w2, depth, mode)
        # each side-B snapshot at its first wave: later waves are written first
        first_b = {snap: j for j, snap in reversed(list(enumerate(snaps_b)))}
        # the first side-A wave with a match, at side B's first such wave
        match = next(((i, first_b[snap]) for i, snap in enumerate(snaps_a) if snap in first_b),
                     None)
        if match:
            outcome = "equal"
        elif stable_a and stable_b:
            outcome = "unequal"
        else:
            outcome = "undetermined"
        outcomes.append(outcome)
        details.append({"pairing": name, "outcome": outcome, "matched_waves": match,
                        "stable": [stable_a, stable_b]})
    if all(o == "equal" for o in outcomes):
        overall = "equal"
    elif any(o == "unequal" for o in outcomes):
        overall = "unequal"
    else:
        overall = "undetermined"
    details.append({"overall": overall, "depth": depth, "mode": mode})
    return Report(overall == "equal",
                  label=None if overall == "equal" else f"condition-4 {overall}",
                  details=details)


# ---------------------------------------------------------------------------
# grounding words against a concrete structure tensor


# the slots of a word as the labels of a witness (i, j, k): y = e_i, z = e_j,
# x = e_k, so witnesses come in the order of the basis triples (y, z, x)
_LABELS = {"y": 0, "z": 1, "x": 2}


def word_terms(word: Word, p=None) -> list:
    """The word as the terms of one side of an IDENTITIES row, y, z and x
    the labels 0, 1 and 2, its coefficients as ints: over GF(p) residues
    centred on 0, so that +-1 stay +-1.

    With pairs a = y and b = z acting on x, the five monomials of the
    brackets of constructions.KIND_TABLE read y*(z*x) = aLbL, (y*x)*z =
    bRaL, y*(x*z) = aLbR, (x*y)*z = bRaR and (x*z)*y = aRbR, component Y of
    pair u after component W of pair v written uYvW."""
    out = []
    for coef, (shape, slots) in word.terms:
        if coef.denominator != 1:
            raise InputError(f"word coefficient {coef} is not an integer")
        c = int(coef) if p is None else (int(coef) + p // 2) % p - p // 2
        out.append((c, shape, tuple(_LABELS[s] for s in slots)))
    return out


def validate_word_on_algebra(a: Algebra, w1: Word, w2: Word) -> Report:
    """Check (y*z)*x = w1 and x*(y*z) = w2 on all basis triples of a.

    Each is an identity row, read by the suite's kernel
    (algebra._row_failure) on a.integer_tensor; the Report is that of the
    row whose first failing triple comes first, w1's on a tie."""
    p, n = a.field.p, a.dim
    rows = (("(y*z)*x = W1(y,z;x)", [(1, "L", (0, 1, 2))], word_terms(w1, p)),
            ("x*(y*z) = W2(y,z;x)", [(1, "R", (2, 0, 1))], word_terms(w2, p)))
    # a difference adds 1 + sum|c| terms, each a sum of n products of two
    # entries; max(big, 1) keeps each coefficient itself on the rung, even
    # on the zero tensor
    weight = max(sum(abs(c) for c, _, _ in rhs) for _, _, rhs in rows)
    lam, ints = a.integer_tensor
    t = Blocks(on_rung(exact_ints(ints), lambda big: (1 + weight) * n * max(big, 1) ** 2))
    fails = [rep for row in rows
             if (rep := _row_failure(a.field, (lam, t), row, frozenset())) is not None]
    return min(fails, key=lambda rep: rep.witness, default=Report(True))


# canonical replacement words per category; lie and leibniz share shapes
LIE_W1 = parse_word("y*(z*x) + (y*x)*z", "W1")
LIE_W2 = parse_word("(x*y)*z - (x*z)*y", "W2")
LEIBNIZ_W1 = LIE_W1
LEIBNIZ_W2 = LIE_W2
# valid on every Leibniz algebra: swapping y and z in the Leibniz row
# x*(y*z) = (x*y)*z - (x*z)*y negates its right side, so x*(y*z) = -x*(z*y),
# and rewriting y*(z*x) in LEIBNIZ_W1 by that identity gives this word
LEIBNIZ_W1_VARIANT = parse_word("(y*x)*z - y*(x*z)", "W1")
ASSOCIATIVE_W1 = parse_word("y*(z*x)", "W1")
ASSOCIATIVE_W2 = parse_word("(x*y)*z", "W2")
ALTERNATIVE_W1 = parse_word("y*(z*x) - (y*x)*z + y*(x*z)", "W1")
ALTERNATIVE_W2 = parse_word("(x*y)*z + (y*x)*z - y*(x*z)", "W2")
# the symmetric two-term replacement for x*(y*z) from the commutative example
COMMUTATIVE_EXAMPLE_W2 = parse_word("-y*(z*x) - z*(x*y)", "W2")

WORDS_FOR_CATEGORY = {
    "lie": (LIE_W1, LIE_W2),
    "leibniz": (LEIBNIZ_W1, LEIBNIZ_W2),
    "associative": (ASSOCIATIVE_W1, ASSOCIATIVE_W2),
    "commutative": (ASSOCIATIVE_W1, ASSOCIATIVE_W2),
    "alternative": (ALTERNATIVE_W1, ALTERNATIVE_W2),
}
