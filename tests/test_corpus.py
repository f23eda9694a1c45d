"""Seeded sampling: determinism, validity, and atlas file integrity."""

import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from artifact import cli, corpus, linalg
from artifact.algebra import InputError, identity_suite, make_algebra
from artifact.constructions import ClosureError
from artifact.corpus import (a5_leibniz, abelian, dual_numbers,
                             generate_atlas, heisenberg, m2_rationals,
                             sample_action, sample_algebra, sl2)
from artifact.existence import actor_pipeline
from artifact.fields import GF, QQ
from artifact.groups import CapError
from artifact.linalg import LinAlgError

from conftest import solve


CASES = [(GF(5), 2, "leibniz"), (GF(5), 3, "leibniz"),
         (GF(3), 2, "associative"), (GF(5), 3, "associative"),
         (QQ, 3, "lie"), (GF(7), 3, "commutative"),
         (GF(3), 2, "module"), (QQ, 2, "raw")]


@pytest.mark.parametrize("field,dim,category", CASES,
                         ids=[f"{c}-d{d}-char{f.char}" for f, d, c in CASES])
def test_samples_satisfy_their_identity_suite(field, dim, category):
    for seed in range(6):
        a = sample_algebra(random.Random(seed), field, dim, category)
        assert a.dim == dim and a.category == category
        rep = identity_suite(a)
        assert rep.passed, f"seed {seed}: {rep.label}"


def test_same_seed_same_algebra_and_different_seeds_vary():
    a = sample_algebra(random.Random(11), GF(5), 3, "leibniz")
    b = sample_algebra(random.Random(11), GF(5), 3, "leibniz")
    assert a.tensor == b.tensor
    drawn = {sample_algebra(random.Random(s), GF(5), 3, "leibniz").tensor
             for s in range(12)}
    assert len(drawn) > 1


def test_both_existence_outcomes_appear_in_leibniz_corpus():
    verdicts = {actor_pipeline(sample_algebra(random.Random(s), GF(5), 2, "leibniz")).status
                for s in range(40)}
    assert verdicts == {"exists", "not-exists"}


def test_sample_action_is_deterministic_and_well_shaped():
    a = sample_algebra(random.Random(4), GF(3), 2, "associative")
    b = sample_algebra(random.Random(5), GF(3), 2, "associative")
    act1 = sample_action(random.Random(9), b, a)
    act2 = sample_action(random.Random(9), b, a)
    assert act1.left == act2.left and act1.right == act2.right
    assert len(act1.left) == b.dim and len(act1.left[0]) == a.dim
    assert len(act1.right) == a.dim and len(act1.right[0]) == b.dim


def test_fixture_algebras_pass_their_suites():
    for a in (sl2(), heisenberg(), abelian(QQ, 3), a5_leibniz(GF(5)),
              m2_rationals(), dual_numbers(QQ)):
        assert identity_suite(a).passed, a.category


def test_atlas_file_counts_and_determinism(tmp_path):
    p1, p2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
    s1 = generate_atlas(GF(5), 2, "leibniz", samples=25, seed=3, out_path=p1)
    generate_atlas(GF(5), 2, "leibniz", samples=25, seed=3, out_path=p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = [json.loads(line) for line in p1.read_text().splitlines()]
    records, summary = lines[:-1], lines[-1]
    assert len(records) == 25
    assert all("verdict" in r and "algebra" in r for r in records)
    counts = summary["counts"]
    assert sum(counts.values()) == 25 and counts.get("error", 0) == 0
    assert s1["counts"] == counts
    assert {r["verdict"]["status"] for r in records} == {"exists", "not-exists"}


@pytest.mark.parametrize("category", ["leibniz", "associative", "commutative"])
def test_q_atlas_writes_fractions_as_json(tmp_path, category):
    # condition witnesses over Q hold Fractions, written as the CLI writes them
    path = tmp_path / "q.jsonl"
    generate_atlas(QQ, 3, category, samples=12, seed=1, out_path=path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 13 and lines[-1]["counts"]["error"] == 0
    assert any("lhs" in r["verdict"].get("condition_status", {}) for r in lines[:-1])


def test_exhausted_rejection_sampler_is_a_typed_refusal(tmp_path, monkeypatch):
    # seed 6 draws the Q dim-2 Leibniz rejection strategy, which can run dry
    monkeypatch.setattr(corpus, "_ATTEMPTS", 20)
    with pytest.raises(CapError):
        sample_algebra(random.Random(6), QQ, 2, "leibniz")
    argv = ["atlas", "--field", "Q", "--dim", "2", "--category", "leibniz",
            "--samples", "1", "--seed", "6", "--out", str(tmp_path / "x.jsonl")]
    assert cli.main(argv) == 2


@pytest.mark.parametrize("argv", [
    ["--field", "Q", "--dim", "2", "--category", "leibniz", "--seed", "6"],
    ["--field", "2147483647", "--dim", "2", "--category", "associative", "--seed", "5"]])
def test_exhausted_rejection_at_the_real_bound_exits_2(tmp_path, argv):
    # both seeds draw the rejection strategy and find no tensor in all
    # _ATTEMPTS draws; over GF(2^31 - 1) the draws are checked on the object rung
    argv = ["atlas", *argv, "--samples", "1", "--out", str(tmp_path / "x.jsonl")]
    assert cli.main(argv) == 2


def _one_at_a_time(rng, field, n, category, antisym):
    """Oracle for the rejection strategy: one whole tensor drawn in (i, j, k)
    order, the lower triangle mirrored when antisym, and checked by the
    identity suite, until one passes or corpus._ATTEMPTS are drawn."""
    for _ in range(corpus._ATTEMPTS):
        c = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1 if antisym else 0, n):
                for k in range(n):
                    x = c[i][j][k] = (field.from_int(rng.randrange(field.p)) if field.p
                                      else Fraction(rng.randrange(-3, 4)))
                    if antisym:
                        c[j][i][k] = field.neg(x)
        a = make_algebra(field, corpus._names(n), c, category)
        if identity_suite(a).passed:
            return a
    return None


@pytest.mark.parametrize("field,dim,category", [
    (GF(5), 3, "lie"), (QQ, 3, "lie"), (GF(2), 2, "leibniz"),
    (GF(3), 2, "associative"), (GF(5), 2, "commutative")], ids=str)
def test_rejection_keeps_the_draw_and_stream_of_one_at_a_time_draws(field, dim, category):
    seeds = [s for s in range(40) if random.Random(s).randrange(3) == 2][:4]
    for seed in seeds:
        rng, oracle = random.Random(seed), random.Random(seed)
        a = sample_algebra(rng, field, dim, category)
        oracle.randrange(3)  # the strategy index
        want = _one_at_a_time(oracle, field, dim, category, category == "lie")
        assert a.tensor == want.tensor and rng.getstate() == oracle.getstate(), seed


def test_exhausted_rejection_stops_the_stream_after_exactly_the_bound(monkeypatch):
    # 20 draws, not a whole number of batches
    monkeypatch.setattr(corpus, "_ATTEMPTS", 20)
    rng, oracle = random.Random(6), random.Random(6)
    with pytest.raises(CapError):
        sample_algebra(rng, QQ, 2, "leibniz")
    assert oracle.randrange(3) == 2
    assert _one_at_a_time(oracle, QQ, 2, "leibniz", False) is None
    assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("exc", [CapError("refused"), ClosureError("refused")])
def test_atlas_records_typed_refusals_per_instance(tmp_path, monkeypatch, exc):
    def refuse(a, own=None):
        raise exc

    monkeypatch.setattr(corpus, "actor_pipeline", refuse)
    path = tmp_path / "a.jsonl"
    summary = generate_atlas(GF(5), 2, "lie", samples=3, seed=0, out_path=path)
    assert summary["counts"]["error"] == 3
    records = [json.loads(line) for line in path.read_text().splitlines()[:-1]]
    assert [r["error"] for r in records] == [f"{type(exc).__name__}: refused"] * 3


@pytest.mark.parametrize("exc", [TypeError("a bug"), LinAlgError("a bug")])
def test_atlas_lets_a_bug_propagate(tmp_path, monkeypatch, exc):
    def broken(a, own=None):
        raise exc

    monkeypatch.setattr(corpus, "actor_pipeline", broken)
    with pytest.raises(type(exc)):
        generate_atlas(GF(5), 2, "lie", samples=3, seed=0, out_path=tmp_path / "a.jsonl")
    argv = ["atlas", "--field", "5", "--dim", "2", "--category", "lie",
            "--samples", "3", "--seed", "0", "--out", str(tmp_path / "b.jsonl")]
    assert cli.main(argv) == 3


# sha256 (first 16 hex digits) of the sorted-key JSON of every sample at
# dims 1-4 and seeds 0-4, per field and category.  The draw order is the
# documented contract, so these were recorded once and must never move.
# (Seeds stop at 4 to keep the sweep near 0.2 s: over Q the dim-2 rejection
# strategy takes seconds at some later seeds.)
SAMPLE_DIGESTS = {
    ("GF2", "lie"): "b6f2a875037910cc", ("GF2", "leibniz"): "5291ee7fad2436ac",
    ("GF2", "associative"): "be70e2a481cac74f", ("GF2", "commutative"): "8fa4306b3db4edd3",
    ("GF2", "alternative"): "a5fe1c7e4127e8cb", ("GF2", "module"): "855d421cad0704c4",
    ("GF2", "raw"): "d5d4867ed4bc9362",
    ("GF5", "lie"): "dcccb21c172ccfda", ("GF5", "leibniz"): "b6c248088b0cf973",
    ("GF5", "associative"): "54ccaa57c31638a3", ("GF5", "commutative"): "b3d18fcf534dfff8",
    ("GF5", "alternative"): "5038a50b667f6bee", ("GF5", "module"): "e03f0f2b2e09ab9a",
    ("GF5", "raw"): "64b30ea9d031ede6",
    ("Q", "lie"): "5203947536e92ba9", ("Q", "leibniz"): "5b4076671dd0654a",
    ("Q", "associative"): "71231af7ce5b3d8b", ("Q", "commutative"): "5ea6428511aeaddc",
    ("Q", "alternative"): "e8529e18a7fbf4a7", ("Q", "module"): "df685ca067b5de0a",
    ("Q", "raw"): "28b2c714e7485e18",
}
DIGEST_FIELDS = {"GF2": GF(2), "GF5": GF(5), "Q": QQ}


@pytest.mark.parametrize("field_name,category", sorted(SAMPLE_DIGESTS))
def test_sampler_bytes_are_pinned(field_name, category):
    h = hashlib.sha256()
    for dim in range(1, 5):
        for seed in range(5):
            a = sample_algebra(random.Random(seed), DIGEST_FIELDS[field_name], dim, category)
            h.update(json.dumps(a.to_json(), sort_keys=True).encode())
    assert h.hexdigest()[:16] == SAMPLE_DIGESTS[(field_name, category)]


# sha256 (first 16 hex digits) of the sorted-key JSON of 20 samples drawn
# from one Random(0), then of the repr of its next random(): the stream runs
# through rejection draws in each, so this pins where it stands after them.
# Recorded with draws checked one at a time; must never move
STREAM_DIGESTS = {
    ("GF5", "lie", 3): "82bf183dcdfc5a35", ("Q", "lie", 3): "b0f851250a98d686",
    ("GF2", "leibniz", 2): "607edadd44f69eb0", ("GF3", "associative", 2): "214523cc91d4ab87",
    ("GF5", "commutative", 2): "6bf577ce21ca00ce", ("Q", "lie", 2): "1fc11d2f6533cfba",
}
STREAM_FIELDS = {"GF2": GF(2), "GF3": GF(3), "GF5": GF(5), "Q": QQ}


@pytest.mark.parametrize("field_name,category,dim", sorted(STREAM_DIGESTS))
def test_sample_streams_are_pinned(field_name, category, dim):
    rng = random.Random(0)
    h = hashlib.sha256()
    for _ in range(20):
        a = sample_algebra(rng, STREAM_FIELDS[field_name], dim, category)
        h.update(json.dumps(a.to_json(), sort_keys=True).encode())
    h.update(repr(rng.random()).encode())
    assert h.hexdigest()[:16] == STREAM_DIGESTS[(field_name, category, dim)]


@pytest.mark.parametrize("dim,category", [(0, "lie"), (2, "jordan")])
def test_sampler_refuses_bad_requests(dim, category):
    with pytest.raises(InputError):
        sample_algebra(random.Random(0), GF(5), dim, category)


def _loop_conjugate(a, p):
    """Oracle for corpus._conjugate: each product c(P e_i, P e_j) by
    Algebra.multiply, solved for its coordinates in the new basis."""
    cols = [p.col(i) for i in range(a.dim)]
    return tuple(tuple(solve(p, a.multiply(u, v)) for v in cols) for u in cols)


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(2 ** 61 - 1), QQ], ids=str)
def test_conjugate_equals_the_per_pair_product_loop(monkeypatch, field):
    # random tensors and changes of basis at dims 1-4; over Q entries up to
    # 2^24 and 3^40 / 7, and over GF(2^61 - 1) residues near p, put the
    # contraction on every rung
    rungs = []
    monkeypatch.setattr(corpus, "rung", lambda top: rungs.append(linalg.rung(top)) or rungs[-1])
    rng = random.Random(4)
    for n in (1, 2, 3, 4):
        for trial in range(6):
            if field is QQ:
                top = (9, 2 ** 24, 3 ** 40)[trial % 3]
                scalars = [Fraction(rng.randrange(-top, top + 1), rng.choice((1, 2, 7)))
                           for _ in range(8)]
            else:
                scalars = [rng.randrange(field.p) for _ in range(8)] + [field.p - 1]
            tensor = [[[rng.choice(scalars + [field.zero]) for _ in range(n)]
                       for _ in range(n)] for _ in range(n)]
            a = make_algebra(field, corpus._names(n), tensor, "raw")
            p, red = corpus._rand_invertible(rng, field, n)
            if field is QQ:
                p = linalg.Matrix.from_rows(QQ, (tuple(rng.choice(scalars) if i < j else x
                                                       for j, x in enumerate(row))
                                                 for i, row in enumerate(p.rows)))
                red = corpus._inverse_rref(p)
                if red.pivots != tuple(range(n)):
                    continue
            assert corpus._conjugate(a, p, red).tensor == _loop_conjugate(a, p), (n, trial)
    expected = {np.float64} if field.p in (2, 5) else {object} if field.p else \
        {np.float64, np.int64, object}
    assert set(rungs) == expected
