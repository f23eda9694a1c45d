"""The existence pipeline: verdicts, routes, and universality in the small."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from artifact.actions import action_from_json, check_derived_action, make_action
from artifact.algebra import InputError, identity_suite, make_algebra, make_algebra_from_products
from artifact.constructions import (actor_from_json, biderivations, bimultipliers,
                                    canonical_d, derivations, multipliers)
from artifact.corpus import (a5_leibniz, abelian, m2_rationals, sample_algebra,
                             sl2, truncated_poly, zero_algebra)
from artifact.existence import (actor_pipeline, bider_variants_agree,
                                factor_through_actor)
from artifact.fields import GF, QQ


def test_verdict_fields_for_lie():
    v = actor_pipeline(sl2())
    assert v.status == "exists" and v.exists
    assert v.actor_kind == "der" and v.actor_dim == 3
    assert v.semidirect_dim == 6
    assert v.condition_status is None  # no effective condition in this category
    assert v.sufficient_flags == {"ann_zero": True, "perfect": True}
    assert v.failure is None


def test_verdict_fields_for_leibniz():
    v = actor_pipeline(a5_leibniz())
    assert v.exists and v.actor_kind == "bider1"
    assert v.condition_status is not None and v.condition_status.passed
    assert v.sufficient_flags == {"ann_zero": False, "perfect": False}
    v2 = actor_pipeline(a5_leibniz(), variant=2)
    assert v2.exists and v2.actor_kind == "bider2"


def test_verdict_not_exists_carries_witness():
    v = actor_pipeline(zero_algebra(QQ, 2, "leibniz"))
    assert v.status == "not-exists" and not v.exists
    assert v.failure is not None and v.failure["witness"] is not None
    assert not v.condition_status.passed


# primes on both sides of 2^53 (float64), 2^63 (int64) and 2^64 (uint64),
# all accepted by field_from_json: the verdict may not depend on which
WIDE_PRIMES = (2 ** 31 - 1, 2 ** 61 - 1, 9223372036854775783, 9223372036854775837,
               18446744073709551629)


def _verdict_key(v):
    c = v.condition_status
    return (v.status, v.actor_kind, v.actor_dim, v.semidirect_dim, v.failure,
            None if c is None else (c.passed, c.label, c.witness))


def test_verdict_does_not_depend_on_the_prime():
    builders = [lambda f, cat=cat: zero_algebra(f, 2, cat)
                for cat in ("lie", "associative", "leibniz", "commutative")]
    builders += [sl2, a5_leibniz] + [lambda f, cat=cat: truncated_poly(f, 3, cat)
                                     for cat in ("commutative", "associative")]
    exists = 0
    for build in builders:
        keys = [_verdict_key(actor_pipeline(build(GF(p)))) for p in WIDE_PRIMES]
        assert all(k == keys[0] for k in keys), keys
        exists += keys[0][0] == "exists"
    assert 0 < exists < len(builders)  # both answers are compared


def test_suite_and_cli_past_uint64(tmp_path):
    # b*b = 2^26 a puts the suite on the int64 rung, whose residues mod a
    # prime past 2^64 are taken on Python ints
    p = 18446744073709551629
    a = make_algebra_from_products(GF(p), ("a", "b"), {(1, 1): (2 ** 26, 0)}, "leibniz")
    assert identity_suite(a).passed
    path = tmp_path / "leibniz.json"
    path.write_text(json.dumps({"field": {"p": p}, "dim": 2, "basis": ["a", "b"],
                                "category": "leibniz",
                                "products": [{"i": 1, "j": 1, "v": [2 ** 26, 0]}]}))
    for command in ("check", "actor"):
        proc = subprocess.run([sys.executable, "-m", "artifact", command, str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_gf5_zero_leibniz_dim6_pipeline_stays_small():
    # the zero Leibniz and associative algebras of dim 6 both have semidirect
    # products of dim 78: one whole 78^4 int64 array is 296 MB.  VmHWM is the
    # child's own peak, over both; ru_maxrss would carry over the peak of the
    # process that started it, here the test runner's.
    code = ("import json\n"
            "from artifact.corpus import zero_algebra\n"
            "from artifact.existence import actor_pipeline\n"
            "from artifact.fields import GF\n"
            "vs = [actor_pipeline(zero_algebra(GF(5), 6, c))\n"
            "      for c in ('leibniz', 'associative')]\n"
            "rss_kb = int(next(line.split()[1] for line in open('/proc/self/status')\n"
            "                  if line.startswith('VmHWM:')))\n"
            "out = [[v.status, v.semidirect_dim, v.failure] for v in vs]\n"
            "print(json.dumps(out + [rss_kb]))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    leibniz, associative, rss_kb = json.loads(proc.stdout)
    assert leibniz == ["not-exists", 78, {"label": "[x,[y,z]] = [[x,y],z]-[[x,z],y]",
                                          "witness": [0, 0, 0]}]
    assert associative == ["not-exists", 78, {"label": "(x*y)*z = x*(y*z)",
                                              "witness": [0, 72, 42]}]
    assert rss_kb < 150 * 1024


def test_gf5_abelian_lie_dim8_pipeline_within_budget():
    # semidirect dim 72: the Jacobi sweep is 3 * 72^5 multiply-adds, which
    # float64 matmul does as BLAS dgemm
    start = time.perf_counter()
    v = actor_pipeline(abelian(GF(5), 8, "lie"))
    elapsed = time.perf_counter() - start
    assert v.status == "exists" and v.semidirect_dim == 72
    assert elapsed < 3.0, elapsed


def test_module_category_zero_actor():
    v = actor_pipeline(zero_algebra(GF(3), 4, "module"))
    assert v.exists and v.actor_dim == 0
    assert v.semidirect_dim == 4
    assert identity_suite(v.semidirect_product, "module").passed


def test_commutative_pipeline_checks_action_symmetry():
    v = actor_pipeline(truncated_poly(QQ, 3, "commutative"))
    assert v.exists and v.actor_kind == "mult"
    assert any("symmetric" in n for n in v.notes)
    assert v.condition_status.passed


def test_alternative_category_is_three_state():
    a = make_algebra(QQ, m2_rationals().basis, m2_rationals().tensor,
                     "alternative")
    v = actor_pipeline(a)
    assert v.status == "unsupported-general"
    assert v.exists is False
    assert v.actor_kind is None and v.failure is None
    assert v.notes  # explains there is no per-instance witness


def test_raw_category_rejected():
    with pytest.raises(InputError):
        actor_pipeline(zero_algebra(QQ, 1, "raw"))


def test_input_failing_own_suite_rejected():
    bad = make_algebra(QQ, sl2().basis, sl2().tensor, "associative")
    with pytest.raises(InputError):
        actor_pipeline(bad)


def test_verdict_json_shape():
    v = actor_pipeline(a5_leibniz())
    obj = v.to_json(QQ.to_json)
    assert obj["status"] == "exists" and obj["actor_dim"] == 3
    assert "actor" not in obj and "semidirect_product" not in obj
    assert obj["condition_status"]["passed"] is True


def test_adjoint_action_factors_through_derivations():
    a = sl2()
    actor = derivations(a)
    # left[b][j] is the image of e_j under ad(e_b), right[i][b] is e_i * e_b
    left = tuple(tuple(a.tensor[b][j] for j in range(3)) for b in range(3))
    right = tuple(tuple(a.tensor[i][b] for b in range(3)) for i in range(3))
    act = make_action(a, a, left, right)
    rep = factor_through_actor(actor, act)
    assert rep.passed
    assert rep.details[0]["phi_rows"] == canonical_d(a, actor).rows


def test_factor_refuses_mismatched_target():
    actor = derivations(sl2())
    other = abelian(QQ, 3)
    act = make_action(other, other,
                      tuple(tuple(tuple(QQ.zero for _ in range(3))
                                  for _ in range(3)) for _ in range(3)),
                      tuple(tuple(tuple(QQ.zero for _ in range(3))
                                  for _ in range(3)) for _ in range(3)))
    with pytest.raises(InputError):
        factor_through_actor(actor, act)


def exhaustive_actions(B, A):
    """Every possible action tensor pair of a 1-dim B on A over GF(p)."""
    n, p = A.dim, A.field.p
    cells = n * n
    for lbits in itertools.product(range(p), repeat=cells):
        left = (tuple(tuple(lbits[r * n + c] for c in range(n))
                      for r in range(n)),)
        for rbits in itertools.product(range(p), repeat=cells):
            right = tuple((tuple(rbits[r * n + c] for c in range(n)),)
                          for r in range(n))
            yield make_action(B, A, left, right)


# the right component each pair of a der or mult candidate must have, as a
# function of the left one: minus it, or equal to it
RIGHT_RULES = {"der": lambda x, p: -x % p, "mult": lambda x, p: x}


def _nonabelian_lie2(f):
    """[x, y] = y, the two-dimensional nonabelian Lie algebra."""
    return make_algebra_from_products(f, "xy", {(0, 1): (0, 1), (1, 0): (0, f.p - 1)}, "lie")


@pytest.mark.parametrize("target,cat,builder", [
    (a5_leibniz(GF(2)), "leibniz", lambda a: biderivations(a, 1)),
    (truncated_poly(GF(2), 2), "associative", bimultipliers),
    # over GF(3), where minus and equal differ, for the kinds whose right
    # component follows from the left one
    (_nonabelian_lie2(GF(3)), "lie", derivations),
    (truncated_poly(GF(3), 2, "commutative"), "commutative", multipliers),
])
def test_every_derived_action_factors_universality_in_the_small(target, cat, builder):
    # all p^8 candidate actions of each 1-dim B on the 2-dim target
    actor = builder(target)
    p = target.field.p
    rule = RIGHT_RULES.get(actor.kind)
    checked = factored = valid_b = broken = 0
    for lam in range(p):
        B = make_algebra(target.field, ("b",), (((lam,),),), cat)
        if not identity_suite(B).passed:
            continue
        valid_b += 1
        for act in exhaustive_actions(B, target):
            checked += 1
            if rule and any(act.right[i][0][k] != rule(act.left[0][i][k], p)
                            for i in range(2) for k in range(2)):
                # a pair breaking the kind's rule is outside the candidate
                assert not factor_through_actor(actor, act).passed, (lam, act.left, act.right)
                broken += 1
                continue
            if not check_derived_action(cat, act).passed:
                continue
            rep = factor_through_actor(actor, act)
            assert rep.passed, (lam, act.left, act.right)
            factored += 1
    assert checked == p ** 8 * valid_b
    assert factored >= 2  # nontrivial derived actions exist
    assert broken == (checked - checked // p ** 4 if rule else 0)


def test_variant_agreement_tracks_condition1_on_samples():
    rng = random.Random(2024)
    seen_pass = seen_fail = 0
    for _ in range(40):
        a = sample_algebra(rng, GF(5), 2, "leibniz")
        rep = bider_variants_agree(a)
        cond = rep.details[0]["condition1_passed"]
        if cond:
            assert rep.passed
            seen_pass += 1
        else:
            seen_fail += 1
    assert seen_pass and seen_fail  # both branches exercised


# sha256 (first 16 hex digits) of the sorted-key JSON of the verdict and the
# actor of the zero algebra at dims 0 and 1, recorded from the entry-by-entry
# constraint assembly: the empty and one-dimensional edge of every candidate
# kind (and of the alternative refusal) must not move.
EDGE_DIGESTS = {
    ("GF2", "lie", 0): "d03e1a96a4a78ae8", ("GF2", "lie", 1): "231607ba014afef2",
    ("GF2", "leibniz", 0): "535751d689aaa922", ("GF2", "leibniz", 1): "fa1865f264bbd98f",
    ("GF2", "associative", 0): "ebf66be74a131b2c", ("GF2", "associative", 1): "640e0424a962bf2c",
    ("GF2", "commutative", 0): "054b4798a595b6aa", ("GF2", "commutative", 1): "be93bc40a4e5f114",
    ("GF2", "module", 0): "ca6c8cde17b6653b", ("GF2", "module", 1): "d6bd38279cda65bf",
    ("GF2", "alternative", 0): "1ac47b8b8e3de752", ("GF2", "alternative", 1): "ba9d009e9abec36d",
    ("Q", "lie", 0): "6e8e994cfc51b6fc", ("Q", "lie", 1): "f42038e324d44efc",
    ("Q", "leibniz", 0): "8eb742813a87e262", ("Q", "leibniz", 1): "2c8ab4d59da24728",
    ("Q", "associative", 0): "7279509b157a4a76", ("Q", "associative", 1): "f0c7dfa667339f4d",
    ("Q", "commutative", 0): "f12efa0c2c24a668", ("Q", "commutative", 1): "5eb21853cf0e152b",
    ("Q", "module", 0): "06f2f11eb173c5bd", ("Q", "module", 1): "0121ce43347520ff",
    ("Q", "alternative", 0): "1ac47b8b8e3de752", ("Q", "alternative", 1): "ba9d009e9abec36d",
}


@pytest.mark.parametrize("field_name,category,dim", sorted(EDGE_DIGESTS))
def test_dim0_and_dim1_pipelines_are_pinned(field_name, category, dim):
    f = {"GF2": GF(2), "Q": QQ}[field_name]
    v = actor_pipeline(zero_algebra(f, dim, category))
    out = {"verdict": v.to_json(f.to_json),
           "actor": None if v.actor is None else v.actor.to_json()}
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()[:16]
    assert digest == EDGE_DIGESTS[(field_name, category, dim)]


@st.composite
def sampled_actors(draw):
    f = draw(st.sampled_from((GF(2), GF(3), GF(5), GF(4294967291), QQ)))
    category = draw(st.sampled_from(("lie", "leibniz", "associative", "commutative", "module")))
    n = draw(st.integers(0, 3 if f.p else 2))
    if n == 0 or category == "module" or draw(st.integers(0, 4)) == 0:
        a = zero_algebra(f, n, category)
    else:
        a = sample_algebra(random.Random(draw(st.integers(0, 4))), f, n, category)
    return actor_pipeline(a).actor


@settings(max_examples=60)
@given(sampled_actors())
def test_actor_and_action_json_round_trip_on_sampled_pipelines(actor):
    assert actor_from_json(json.loads(json.dumps(actor.to_json()))) == actor
    act = actor.action_pair()
    assert action_from_json(json.loads(json.dumps(act.to_json()))) == act
