"""Acceptance gate: eleven named checks, each with its stated budget.

Every expected dimension here is recomputed by an independent oracle inside
the test (sympy nullspace, brute-force bijection search) or checked across a
seeded corpus instance by instance; nothing is asserted from memory alone.
"""

import json
import random
import time

import pytest
import sympy

from artifact.actions import (conjugation_action, crosscheck_semidirect,
                              semidirect)
from artifact.algebra import check_identity, identity_suite, is_ideal
from artifact.cli import main as cli_main
from artifact.constructions import (biderivations, bimultipliers, canonical_d,
                                    condition1_check, condition2_check,
                                    crossed_module_check, derivations,
                                    sufficient_conditions)
from artifact.corpus import (a5_leibniz, abelian, dual_numbers, m2_rationals,
                             sample_action, sample_algebra, sl2, zero_algebra)
from artifact.existence import actor_pipeline, bider_variants_agree
from artifact.fields import GF, QQ
from artifact.linalg import Matrix
from artifact.words import (ASSOCIATIVE_W1, ASSOCIATIVE_W2,
                            COMMUTATIVE_EXAMPLE_W2, LEIBNIZ_W1, LEIBNIZ_W2,
                            LIE_W1, LIE_W2, T_SET, check_T_coverage,
                            parse_word, validate_word_on_algebra)
from conftest import fixture_path
from test_groups import GROUPS, assert_universality_counts, brute_aut
from test_words import GROUNDING_ALGEBRAS

from artifact.groups import automorphisms, holomorph_check


# ---------------------------------------------------------------------------
# shared corpora (seeded, verified instance by instance)


def _corpus(category, field, plan, tag):
    rows = []
    for dim, count in plan:
        for i in range(count):
            rng = random.Random(f"{tag}-{category}-{dim}-{i}")
            a = sample_algebra(rng, field, dim, category)
            rows.append(a)
    return rows


@pytest.fixture(scope="module")
def leibniz_corpus():
    t0 = time.monotonic()
    rows = []
    for a in _corpus("leibniz", GF(5), ((2, 60), (3, 48)), "acc3"):
        rows.append({"a": a,
                     "cond1": condition1_check(a).passed,
                     "verdict": actor_pipeline(a)})
    return {"rows": rows, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def assoc_corpus():
    rows = []
    for a in _corpus("associative", GF(5), ((2, 60), (3, 48)), "acc5"):
        rows.append({"a": a,
                     "cond2": condition2_check(a).passed,
                     "verdict": actor_pipeline(a)})
    return {"rows": rows}


# ---------------------------------------------------------------------------
# 1. Lie suite against a fresh nullspace oracle


def _sym(x):
    return sympy.Rational(x.numerator, x.denominator)


def sympy_derivation_dim(a):
    """Nullity of the derivation constraints, assembled symbolically."""
    n = a.dim
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [sympy.Integer(0)] * (n * n)
                for m in range(n):
                    row[k * n + m] += _sym(a.tensor[i][j][m])
                for r in range(n):
                    row[r * n + i] -= _sym(a.tensor[r][j][k])
                    row[r * n + j] -= _sym(a.tensor[i][r][k])
                rows.append(row)
    return n * n - sympy.Matrix(rows).rank()


def run_cli_json(capsys, *args):
    code = cli_main(list(args))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_01_lie_derivations_match_nullspace_oracle(capsys):
    oracle_sl2 = sympy_derivation_dim(sl2())
    abelian_oracle = {n: sympy_derivation_dim(abelian(QQ, n)) for n in (1, 2, 3, 4)}
    assert oracle_sl2 == 3
    assert abelian_oracle == {n: n * n for n in (1, 2, 3, 4)}

    t0 = time.monotonic()
    code, payload = run_cli_json(capsys, "actor", fixture_path("sl2.json"))
    assert time.monotonic() - t0 < 1.0
    assert code == 0 and payload["exists"] is True
    assert payload["actor_dim"] == oracle_sl2

    # Der(sl2) is exactly the adjoint span
    a = sl2()
    actor = derivations(a)
    flat = [tuple(x for row in bm.left.rows for x in row) for bm in actor.maps]
    ad = [tuple(a.tensor[i][j][r] for r in range(3) for j in range(3)) for i in range(3)]
    assert Matrix.from_rows(QQ, flat).rank() == 3
    assert Matrix.from_rows(QQ, flat + ad).rank() == 3

    for n in (1, 2, 3, 4):
        t0 = time.monotonic()
        assert derivations(abelian(QQ, n)).dim == abelian_oracle[n]
        assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. associative suite


def test_02_associative_bimultipliers_and_semidirect(capsys):
    t0 = time.monotonic()
    m2 = m2_rationals()
    bim = bimultipliers(m2)
    assert bim.dim == 4
    assert condition2_check(m2, bim).passed
    prod = semidirect(bim.action_pair())
    assert identity_suite(prod, "associative").passed
    d = canonical_d(m2, bim)
    assert len(d.rref().pivots) == m2.dim  # injective: annihilator is zero
    assert sufficient_conditions(m2)["ann_zero"]

    dual = dual_numbers()
    assert bimultipliers(dual).dim == 2
    assert actor_pipeline(dual).exists is True
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 3. Leibniz biconditional over the seeded corpus


def test_03_leibniz_condition1_iff_actor_exists(leibniz_corpus):
    rows = leibniz_corpus["rows"]
    assert len(rows) >= 100
    outcomes = set()
    for row in rows:
        assert row["cond1"] == row["verdict"].exists, row["a"].tensor
        outcomes.add(row["verdict"].status)
    assert outcomes == {"exists", "not-exists"}
    assert leibniz_corpus["elapsed"] < 60.0


# ---------------------------------------------------------------------------
# 4. biderivation bracket closes; variants coincide when condition 1 holds


def test_04_bider_tensor_leibniz_and_variant_agreement(leibniz_corpus):
    # variant 2 closes into a Leibniz algebra unconditionally; variant 1
    # coincides with it exactly when condition 1 holds and need not close
    # otherwise (zero-multiplication algebras are counterexamples)
    agree_checked = 0
    for row in leibniz_corpus["rows"]:
        a = row["a"]
        assert check_identity(biderivations(a, 2).as_algebra(), "leibniz").passed
        if row["cond1"]:
            assert check_identity(biderivations(a, 1).as_algebra(), "leibniz").passed
            assert bider_variants_agree(a).passed
            agree_checked += 1
    assert agree_checked >= 10


# ---------------------------------------------------------------------------
# 5. associative biconditional; Bim bracket closes


def test_05_assoc_condition2_iff_actor_exists(assoc_corpus):
    rows = assoc_corpus["rows"]
    assert len(rows) >= 100
    outcomes = set()
    for row in rows:
        assert row["cond2"] == row["verdict"].exists, row["a"].tensor
        outcomes.add(row["verdict"].status)
        assert check_identity(bimultipliers(row["a"]).as_algebra(),
                              "associativity").passed
    assert outcomes == {"exists", "not-exists"}


# ---------------------------------------------------------------------------
# 6. derived-action conditions agree with the semidirect identity suite


def test_06_derived_action_routes_agree_on_1000_samples():
    t0 = time.monotonic()
    checked = 0
    labels = set()
    for category in ("lie", "leibniz", "associative"):
        pools = {d: [sample_algebra(random.Random(f"acc6-{category}-{d}-{i}"),
                                    GF(3), d, category) for i in range(3)]
                 for d in (1, 2)}
        for bd in (1, 2):
            for ad in (1, 2):
                for bi, b in enumerate(pools[bd]):
                    for ai, a in enumerate(pools[ad]):
                        for k in range(10):
                            rng = random.Random(
                                f"acc6-act-{category}-{bd}{ad}-{bi}{ai}-{k}")
                            act = sample_action(rng, b, a)
                            rep = crosscheck_semidirect(category, act)
                            assert rep.passed, rep.details
                            labels.add(rep.label)
                            checked += 1
        conj = conjugation_action(pools[2][0])
        rep = crosscheck_semidirect(category, conj)
        assert rep.passed and rep.label == "derived"
        labels.add(rep.label)
    assert checked >= 1000
    assert labels == {"derived", "not-derived"}
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 7. annihilator-zero or perfect implies the existence condition


def test_07_sufficient_flags_imply_condition(leibniz_corpus, assoc_corpus):
    triggered = 0
    for row in leibniz_corpus["rows"]:
        flags = sufficient_conditions(row["a"])
        if flags["ann_zero"] or flags["perfect"]:
            triggered += 1
            assert row["cond1"], (flags, row["a"].tensor)
    for row in assoc_corpus["rows"]:
        flags = sufficient_conditions(row["a"])
        if flags["ann_zero"] or flags["perfect"]:
            triggered += 1
            assert row["cond2"], (flags, row["a"].tensor)
    assert triggered >= 1


# ---------------------------------------------------------------------------
# 8. group suite against the brute-force oracle


def test_08_group_aut_holomorph_universality():
    t0 = time.monotonic()
    for name, g, _ in GROUPS:
        perms = brute_aut(g)
        assert automorphisms(g).order == len(perms), name
        assert holomorph_check(g).passed, name
        if g.order <= 6:
            assert_universality_counts(g, perms)
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 9. word machinery


def test_09_word_coverage_and_grounding():
    assert check_T_coverage(LIE_W1, LIE_W2, "anticomm").passed

    rep = check_T_coverage(LEIBNIZ_W1, LEIBNIZ_W2, "plain")
    assert not rep.passed
    assert rep.witness == (0,)
    assert T_SET[0] == (("R", ("y", "x", "z")), ("R", ("z", "x", "y")))

    assert check_T_coverage(parse_word("y*(z*x)", "W1"),
                            COMMUTATIVE_EXAMPLE_W2, "comm").passed

    instances = 0
    for a in GROUNDING_ALGEBRAS:
        for w1, w2, tag in ((LEIBNIZ_W1, LEIBNIZ_W2, "leibniz"),
                            (ASSOCIATIVE_W1, ASSOCIATIVE_W2, "associativity")):
            assert validate_word_on_algebra(a, w1, w2).passed == \
                check_identity(a, tag).passed
            instances += 1
    assert instances == 20


# ---------------------------------------------------------------------------
# 10. crossed-module conditions on every actor that exists


def test_10_crossed_module_on_all_existing_actors(leibniz_corpus, assoc_corpus):
    fixed = [(sl2(), derivations(sl2())),
             (m2_rationals(), bimultipliers(m2_rationals())),
             (dual_numbers(), bimultipliers(dual_numbers())),
             (a5_leibniz(), biderivations(a5_leibniz(), 1))]
    pairs = list(fixed)
    for corpus in (leibniz_corpus, assoc_corpus):
        for row in corpus["rows"]:
            if row["verdict"].exists:
                pairs.append((row["a"], row["verdict"].actor))
    assert len(pairs) >= 20
    for a, actor in pairs:
        d = canonical_d(a, actor)
        assert crossed_module_check(d, actor.action_pair()).passed
        img = Matrix.from_rows(a.field, d.rows).rref()
        assert is_ideal(actor.as_algebra(), img).passed


# ---------------------------------------------------------------------------
# 11. module category: zero actor


@pytest.mark.parametrize("field,dim", [(QQ, 1), (QQ, 2), (QQ, 3), (GF(3), 2)],
                         ids=["Q1", "Q2", "Q3", "F3-2"])
def test_11_module_actor_is_zero(field, dim):
    v = actor_pipeline(zero_algebra(field, dim, "module"))
    assert v.status == "exists" and v.exists is True
    assert v.actor_dim == 0
