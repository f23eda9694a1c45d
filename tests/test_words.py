"""Replacement words: parsing, canonicalization, coverage, symmetry, cond4."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from artifact import words
from artifact.algebra import InputError, check_identity, make_algebra
from artifact.corpus import (a5_leibniz, dual_numbers, heisenberg,
                             m2_rationals, diagonal_algebra, sl2,
                             strict_upper3, zero_algebra)
from artifact.fields import GF, QQ
from artifact.linalg import basis_vector, vec_add, vec_zero
from artifact.reporting import Report
from artifact.words import (ASSOCIATIVE_W1, ASSOCIATIVE_W2,
                            COMMUTATIVE_EXAMPLE_W2, LEIBNIZ_W1, LEIBNIZ_W1_VARIANT,
                            LEIBNIZ_W2, LIE_W1, LIE_W2, MODES, T_SET, Word, _DEPTH_CAP, _canon_tree,
                            canon_monomial, check_swap_symmetry,
                            check_T_coverage, expand_condition4, parse_word,
                            validate_word_on_algebra)


# ---------------------------------------------------------------------------
# parsing


def test_parse_round_trips():
    for text, side in [("y*(z*x) + (y*x)*z", "W1"),
                       ("(x*y)*z - (x*z)*y", "W2"),
                       ("2*y*(z*x) - 3*(y*x)*z", "W1")]:
        w = parse_word(text, side)
        assert parse_word(str(w), side) == w


def test_parse_merges_and_cancels_terms():
    w = parse_word("3*y*(z*x) - (y*x)*z + y*(z*x)", "W1")
    assert str(w) == "- (y*x)*z + 4*y*(z*x)"
    assert str(parse_word("y*(z*x) - y*(z*x)", "W1")) == "0"


def test_parse_requires_three_distinct_slot_variables():
    for bad in ("y*(y*x)", "y*(z*w)", "x*y", "y*z*x", "q"):
        with pytest.raises(InputError):
            parse_word(bad, "W1")


def test_parse_rejects_unknown_side():
    with pytest.raises(InputError):
        parse_word("y*(z*x)", "W3")


# ---------------------------------------------------------------------------
# canonicalization

def test_canon_monomial_signs():
    # outer L-to-R swap and inner sort each contribute -1 under anticomm
    assert canon_monomial(("L", ("y", "x", "z")), "anticomm") == \
        (1, ("R", ("z", "x", "y")))
    assert canon_monomial(("L", ("y", "x", "z")), "comm") == \
        (1, ("R", ("z", "x", "y")))
    assert canon_monomial(("R", ("z", "y", "x")), "anticomm") == \
        (-1, ("R", ("z", "x", "y")))
    assert canon_monomial(("R", ("z", "y", "x")), "plain") == \
        (1, ("R", ("z", "y", "x")))


def _trees(leaves):
    """Every binary tree with these leaves in this order."""
    if len(leaves) == 1:
        yield leaves[0]
        return
    for i in range(1, len(leaves)):
        for l in _trees(leaves[:i]):
            for r in _trees(leaves[i:]):
                yield (l, r)


def _swapped(t):
    """(variant, swaps): t with any set of its products' factors swapped."""
    if isinstance(t, str):
        yield t, 0
        return
    for l, a in _swapped(t[0]):
        for r, b in _swapped(t[1]):
            yield (l, r), a + b
            yield (r, l), a + b + 1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n, count", [(3, 12), (4, 120)])
def test_canon_tree_is_a_canonical_form(mode, n, count):
    # every tree on n distinct leaves: each variant reached by swapping
    # factors reaches the same tree, itself a variant and a fixed point;
    # the sign follows the parity of the swaps under anticomm only
    trees = [t for p in itertools.permutations("xyzt"[:n]) for t in _trees(p)]
    assert len(set(trees)) == count
    canons = set()
    for t in trees:
        sign, canon = _canon_tree(t, mode)
        variants = dict(_swapped(t))
        assert len(variants) == 2 ** (n - 1)
        canons.add(canon)
        if mode == "plain":
            assert (sign, canon) == (1, t)
            continue
        assert canon in variants and _canon_tree(canon, mode) == (1, canon)
        for v, swaps in variants.items():
            want = (-1) ** (swaps + variants[canon]) if mode == "anticomm" else 1
            assert _canon_tree(v, mode) == (want, canon)
    assert len(canons) == (count if mode == "plain" else count // 2 ** (n - 1))


def ref_canon_monomial(m, mode):
    """Oracle: the monomial rule that preceded the one tree rule, verbatim
    but for its mode check."""
    if mode == "plain":
        return 1, m
    sign = 1
    shape, (u, v, w) = m
    if shape == "L":
        # (u*v)*w -> w*(u*v), one outer swap
        u, v, w = w, u, v
        if mode == "anticomm":
            sign = -sign
    if v > w:
        v, w = w, v
        if mode == "anticomm":
            sign = -sign
    return sign, ("R", (u, v, w))


@pytest.mark.parametrize("mode", MODES)
def test_canon_monomial_equals_the_monomial_rule(mode):
    monos = [(shape, p) for shape in "RL" for p in itertools.permutations("xyz")]
    for m in monos:
        assert canon_monomial(m, mode) == ref_canon_monomial(m, mode)
    with pytest.raises(InputError):
        canon_monomial(monos[0], "sideways")


# ---------------------------------------------------------------------------
# T-set coverage


def test_t_set_is_the_four_fixed_pairs():
    assert len(T_SET) == 4
    assert T_SET[0] == (("R", ("y", "x", "z")), ("R", ("z", "x", "y")))


def test_lie_words_cover_t_under_anticomm():
    rep = check_T_coverage(LIE_W1, LIE_W2, "anticomm")
    assert rep.passed
    assert all(d["covered"] for d in rep.details)


def test_leibniz_words_fail_exactly_first_pair_under_plain():
    rep = check_T_coverage(LEIBNIZ_W1, LEIBNIZ_W2, "plain")
    assert not rep.passed
    assert rep.witness == (0,)  # {y*(x*z), z*(x*y)} uncovered
    assert [d["covered"] for d in rep.details] == [False, True, True, True]


def test_commutative_example_covers_all_four_under_comm():
    rep = check_T_coverage(parse_word("y*(z*x)", "W1"),
                           COMMUTATIVE_EXAMPLE_W2, "comm")
    assert rep.passed


def test_coverage_details_name_the_route():
    rep = check_T_coverage(LIE_W1, LIE_W2, "anticomm")
    assert {d["via"] for d in rep.details} <= {"direct", "rewritten"}


# ---------------------------------------------------------------------------
# swap symmetry


def test_swap_symmetry_of_commutative_example():
    assert check_swap_symmetry(COMMUTATIVE_EXAMPLE_W2, "-").passed


def test_swap_symmetry_fails_for_lone_term():
    assert not check_swap_symmetry(parse_word("y*(z*x)", "W2"), "+").passed


def test_swap_symmetry_requires_w2_and_known_sign():
    with pytest.raises(InputError):
        check_swap_symmetry(parse_word("y*(z*x)", "W1"), "+")
    with pytest.raises(InputError):
        check_swap_symmetry(COMMUTATIVE_EXAMPLE_W2, "*")


# ---------------------------------------------------------------------------
# condition 4


def test_cond4_associative_words_equal():
    rep = expand_condition4(ASSOCIATIVE_W1, ASSOCIATIVE_W2)
    assert rep.passed
    for d in rep.details[:-1]:
        assert d["outcome"] == "equal"


def test_cond4_lie_words_equal_under_anticomm_only():
    assert expand_condition4(LIE_W1, LIE_W2, mode="anticomm").passed
    rep = expand_condition4(LIE_W1, LIE_W2, mode="plain")
    assert not rep.passed
    assert rep.details[-1]["overall"] == "unequal"


def test_cond4_runs_out_of_waves_cleanly():
    rep = expand_condition4(LIE_W1, LIE_W2, depth=1, mode="anticomm")
    assert not rep.passed
    assert rep.details[-1]["overall"] == "undetermined"


def test_cond4_coefficient_mismatch_is_unequal():
    w1 = parse_word("2*y*(z*x)", "W1")
    w2 = parse_word("2*(x*y)*z", "W2")
    rep = expand_condition4(w1, w2)
    assert rep.details[-1]["overall"] == "unequal"


def test_cond4_validates_arguments():
    with pytest.raises(InputError):
        expand_condition4(ASSOCIATIVE_W1, ASSOCIATIVE_W2, depth=0)
    with pytest.raises(InputError):
        expand_condition4(ASSOCIATIVE_W1, ASSOCIATIVE_W2, mode="sideways")


def test_cond4_depth_cap_is_accepted_and_one_past_it_refused():
    # (z*y)*x and x*(z*y) never settle: every wave rewrites again
    w1, w2 = parse_word("(z*y)*x", "W1"), parse_word("x*(z*y)", "W2")
    rep = expand_condition4(w1, w2, depth=_DEPTH_CAP)
    assert rep.details[-1] == {"overall": "undetermined", "depth": _DEPTH_CAP, "mode": "plain"}
    assert all(d["stable"] == [False, False] for d in rep.details[:-1])
    with pytest.raises(InputError, match=f"depth {_DEPTH_CAP + 1} is past the cap"):
        expand_condition4(w1, w2, depth=_DEPTH_CAP + 1)


def test_cond4_match_is_the_first_wave_pair_in_product_order(monkeypatch):
    # the oracle compares every pair of the recorded snapshots of sides A
    # and B in itertools.product order and takes the first equal one
    seen, wave_sequence = [], words._wave_sequence

    def record(*args):
        seen.append(wave_sequence(*args))
        return seen[-1]

    monkeypatch.setattr(words, "_wave_sequence", record)
    late = 0
    for seed in range(150):
        rng = random.Random(seed)
        w1, w2 = _corpus_word(rng, "W1"), _corpus_word(rng, "W2")
        for mode in MODES:
            seen.clear()
            rep = expand_condition4(w1, w2, 4, mode)
            assert len(seen) == 8
            for d, (snaps_a, _), (snaps_b, _) in zip(rep.details, seen[::2], seen[1::2]):
                want = next(((i, j) for i, j in itertools.product(range(len(snaps_a)),
                                                                   range(len(snaps_b)))
                             if snaps_a[i] == snaps_b[j]), None)
                assert d["matched_waves"] == want
                late += want is not None and want != (0, 0)
    assert late


# ---------------------------------------------------------------------------
# output bytes on a seeded corpus of word pairs


def _corpus_word(rng, side):
    """0-3 terms over random shapes, coefficients -3..2 (0 terms cancel)."""
    terms = [f"{'-' if c < 0 else '+'} {abs(c)}*" + (
        "{}*({}*{})" if rng.random() < 0.5 else "({}*{})*{}").format(*rng.sample("xyz", 3))
        for c in (rng.randrange(-3, 3) for _ in range(rng.randrange(4)))]
    return parse_word(" ".join(terms) or "0", side)


def test_word_outputs_on_a_seeded_corpus_are_pinned():
    # 13 outputs for each of 400 word pairs: both words printed, coverage and
    # condition 4 (depth 2) in every mode, swap symmetry under both signs, and
    # canon_monomial of every term in every mode; the sha256 was recorded on
    # the monomial-and-tree implementation that preceded the one tree rule
    h = hashlib.sha256()
    for seed in range(400):
        rng = random.Random(seed)
        w1, w2 = _corpus_word(rng, "W1"), _corpus_word(rng, "W2")
        outs = [str(w1), str(w2)]
        outs += [check_T_coverage(w1, w2, mode).to_json() for mode in MODES]
        outs += [expand_condition4(w1, w2, 2, mode).to_json() for mode in MODES]
        outs += [check_swap_symmetry(w2, sign).to_json() for sign in "+-"]
        outs += [[canon_monomial(m, mode) for m in w1.monomials() + w2.monomials()]
                 for mode in MODES]
        for out in outs:
            h.update(json.dumps(out, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == "fe1ae5781087a4adfbfd69a1cfb85869082a2074b8643e58ddc68c83077cb6f7"


# ---------------------------------------------------------------------------
# grounding words on algebras: 20 fixed instances, agreement with the
# matching structure identity


def rand_raw(seed, n, field):
    rng = random.Random(seed)
    t = tuple(tuple(tuple(field.from_int(rng.randrange(5)) for _ in range(n))
                    for _ in range(n)) for _ in range(n))
    return make_algebra(field, [f"e{i}" for i in range(n)], t, "raw")


GROUNDING_ALGEBRAS = [
    sl2(), heisenberg(), a5_leibniz(), a5_leibniz(GF(5)), m2_rationals(),
    dual_numbers(), strict_upper3(), diagonal_algebra(QQ, 3),
    zero_algebra(GF(3), 2, "raw"), rand_raw(99, 2, GF(5)),
]


@pytest.mark.parametrize("a", GROUNDING_ALGEBRAS, ids=[
    "sl2", "heis", "a5Q", "a5F5", "m2", "dual", "upper3", "diag3", "zeroF3",
    "randF5"])
@pytest.mark.parametrize("w1,w2,tag", [
    (LEIBNIZ_W1, LEIBNIZ_W2, "leibniz"),
    (ASSOCIATIVE_W1, ASSOCIATIVE_W2, "associativity"),
    (LEIBNIZ_W1_VARIANT, LEIBNIZ_W2, "leibniz"),
])
def test_word_validation_agrees_with_identity_check(a, w1, w2, tag):
    assert validate_word_on_algebra(a, w1, w2).passed == \
        check_identity(a, tag).passed


# ---------------------------------------------------------------------------
# grounding words: the suite kernel's rows against a per-basis-triple loop


def _loop_validate(a, w1, w2):
    """Oracle: (y*z)*x = w1 and x*(y*z) = w2 by Algebra.multiply on each
    basis triple in turn, w1 before w2 on each."""
    f, n = a.field, a.dim

    def eval_word(word, vy, vz, vx):
        sub = {"y": vy, "z": vz, "x": vx}
        out = vec_zero(f, n)
        for coef, (shape, (u, v, w)) in word.terms:
            if shape == "R":
                val = a.multiply(sub[u], a.multiply(sub[v], sub[w]))
            else:
                val = a.multiply(a.multiply(sub[u], sub[v]), sub[w])
            out = vec_add(f, out, tuple(f.mul(f.from_int(int(coef)), x) for x in val))
        return out

    for i, j, k in itertools.product(range(n), repeat=3):
        vy, vz, vx = (basis_vector(f, n, idx) for idx in (i, j, k))
        lhs = a.multiply(a.multiply(vy, vz), vx)
        rhs = eval_word(w1, vy, vz, vx)
        if lhs != rhs:
            return Report(False, label="(y*z)*x = W1(y,z;x)", witness=(i, j, k),
                          lhs=lhs, rhs=rhs)
        lhs = a.multiply(vx, a.multiply(vy, vz))
        rhs = eval_word(w2, vy, vz, vx)
        if lhs != rhs:
            return Report(False, label="x*(y*z) = W2(y,z;x)", witness=(i, j, k),
                          lhs=lhs, rhs=rhs)
    return Report(True)


# words that hold on every algebra, to find where the other row alone fails
_HOLDS_W1, _HOLDS_W2 = parse_word("(y*z)*x", "W1"), parse_word("x*(y*z)", "W2")


def _random_word(rng, side, p):
    """0-3 terms, with coefficients past 2^63 and past float64's range and,
    over GF(p), multiples of p."""
    coefs = [1, 1, 2, 3, 10 ** 25, 2 ** 64 + 1, 10 ** 400] + ([p, 3 * p] if p else [])
    text = " ".join(f"{rng.choice('+-')} {rng.choice(coefs)}*" + (
        "{}*({}*{})" if rng.random() < 0.5 else "({}*{})*{}").format(
            *rng.sample("xyz", 3)) for _ in range(rng.randrange(4)))
    return parse_word(text or "0", side)


def test_word_rows_on_the_kernel_equal_the_per_triple_loop():
    # whole Report JSON on 1200 seeded (algebra, word pair) cases, over every
    # kind of field at dims 0-4; the corpus must hold each case named below
    seen = set()
    for seed in range(1200):
        rng = random.Random(seed)
        f = rng.choice([GF(2), GF(3), GF(5), GF(2 ** 61 - 1), QQ])
        n, density = rng.randrange(5), rng.random()
        scalars = ([Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))) for _ in range(9)]
                   if f.p is None else [rng.randrange(f.p) for _ in range(9)])
        tensor = [[[rng.choice(scalars) if rng.random() < density else f.zero
                    for _ in range(n)] for _ in range(n)] for _ in range(n)]
        a = make_algebra(f, [f"e{i}" for i in range(n)], tensor, "raw")
        w1, w2 = _random_word(rng, "W1", f.p), _random_word(rng, "W2", f.p)
        want = _loop_validate(a, w1, w2)
        assert validate_word_on_algebra(a, w1, w2).to_json(f.to_json) == \
            want.to_json(f.to_json), seed
        coefs = [abs(c) for w in (w1, w2) for c, _ in w.terms]
        seen |= {("field", f.p), ("dim", n)} | {name for name, holds in (
            ("empty word", not (w1.terms and w2.terms)),
            ("past 2^63", any(c >= 2 ** 63 for c in coefs) and not want.passed),
            ("0 mod p", f.p and any(c % f.p == 0 for c in coefs))) if holds}
        if not want.passed:
            first1 = _loop_validate(a, w1, _HOLDS_W2).witness
            first2 = _loop_validate(a, _HOLDS_W1, w2).witness
            if first1 == first2:
                seen.add("tie")
            elif None not in (first1, first2) and first2 < first1:
                seen.add("W2 first")
    assert seen >= {("field", p) for p in (2, 3, 5, 2 ** 61 - 1, None)} | {
        ("dim", n) for n in range(5)} | {"empty word", "past 2^63", "0 mod p", "tie", "W2 first"}


def test_word_coefficients_must_be_integers():
    w1 = Word("W1", ((Fraction(1, 2), ("R", ("y", "z", "x"))),))
    with pytest.raises(InputError):
        validate_word_on_algebra(sl2(), w1, ASSOCIATIVE_W2)
