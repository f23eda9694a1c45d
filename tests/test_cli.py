"""End-to-end CLI runs, through subprocess or cli.main: exit codes and
output shape."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from artifact import cli
from conftest import fixture_path, load_fixture


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "artifact", *args],
                          capture_output=True, text=True)
    return proc


def run_json(*args):
    proc = run_cli(*args)
    payload = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, payload


@pytest.fixture
def zero2_assoc(tmp_path):
    """Associative suite passes but the commuting condition fails: no actor."""
    path = tmp_path / "zero2.json"
    path.write_text(json.dumps({"field": "Q", "dim": 2, "basis": ["a", "b"],
                                "category": "associative", "products": []}))
    return str(path)


def test_actor_exists_exit_zero():
    code, payload = run_json("actor", fixture_path("sl2.json"))
    assert code == 0
    assert payload["status"] == "exists" and payload["exists"] is True
    assert payload["actor_dim"] == 3


def test_actor_not_exists_exit_one(zero2_assoc):
    code, payload = run_json("actor", zero2_assoc)
    assert code == 1
    assert payload["status"] == "not-exists" and payload["exists"] is False


def test_check_pass_and_fail(tmp_path):
    code, payload = run_json("check", fixture_path("sl2.json"))
    assert code == 0 and payload["report"]["passed"] is True
    relabeled = json.loads(open(fixture_path("m2.json")).read())
    relabeled["category"] = "lie"
    bad = tmp_path / "m2_as_lie.json"
    bad.write_text(json.dumps(relabeled))
    code, payload = run_json("check", str(bad))
    assert code == 1 and payload["report"]["passed"] is False


def test_malformed_input_exit_two():
    code, payload = run_json("check", fixture_path("bad.json"))
    assert code == 2 and "error" in payload


def test_missing_file_exit_two(tmp_path):
    code, payload = run_json("check", str(tmp_path / "nope.json"))
    assert code == 2 and "error" in payload


def test_unknown_subcommand_usage_exit_two():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_construct_der_dimension():
    code, payload = run_json("construct", "der", fixture_path("sl2.json"))
    assert code == 0 and payload["dim"] == 3


def test_construct_der_bytes_equal_fixture():
    proc = run_cli("construct", "der", fixture_path("sl2.json"))
    want = load_fixture("sl2_der_actor.json")
    want["dim"] = 3
    assert proc.returncode == 0
    assert proc.stdout == json.dumps(want, sort_keys=True) + "\n"


# sha256 of the default (json) stdout: any change to a candidate's basis,
# structure constants or induced action shows up here
@pytest.mark.parametrize("args,digest", [
    (("bim", "m2.json"),
     "1ad44d4ca7c797c4799fbd243d84b34221bb4c8e1c4ab28c9181a7141ab376e4"),
    (("bider", "--variant", "1", "a5_leibniz.json"),
     "052f4294cb2db18f6ecf9bae398f3504dcc8b9a1543e505b398ba54476cef55c"),
    (("bider", "--variant", "2", "a5_leibniz.json"),
     "208be07f55cd5a890931b99c8e03ff71f741329805318387291d9a86b1dce70e"),
    (("mult", "dual_numbers_commutative.json"),
     "123aab0cb586c5b459f0928f80486ef8186e24b183a22d29c6e3ce98d4d10167"),
], ids=["bim", "bider1", "bider2", "mult"])
def test_construct_output_bytes_pinned(args, digest):
    proc = run_cli("construct", *args[:-1], fixture_path(args[-1]))
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_construct_wrong_category_exit_two():
    code, payload = run_json("construct", "bim", fixture_path("sl2.json"))
    assert code == 2 and "error" in payload


def test_semidirect_dimensions():
    code, payload = run_json("semidirect", fixture_path("sl2_der_action.json"))
    assert code == 0 and payload["dim"] == 6


def test_action_check_passes():
    code, payload = run_json("action-check", fixture_path("sl2_der_action.json"))
    assert code == 0
    assert payload["derived"]["passed"] and set(payload) == {"category", "derived"}


def test_xmod_check_canonical_map():
    code, payload = run_json("xmod-check", fixture_path("sl2.json"),
                             "--actor", fixture_path("sl2_der_actor.json"))
    assert code == 0 and payload["report"]["passed"] is True
    assert payload["canonical_d"] == [[0, -2, 0], [0, 0, 2], [2, 0, 0]]


W1, W2 = "(y*x)*z + y*(z*x)", "(x*y)*z - (x*z)*y"


def test_xmod_check_refuses_an_actor_of_another_algebra(tmp_path):
    path = tmp_path / "actor.json"
    path.write_text(run_cli("construct", "der", fixture_path("heisenberg.json")).stdout)
    code, payload = run_json("xmod-check", fixture_path("sl2.json"), "--actor", str(path))
    assert code == 2
    assert payload == {"error": "InputError: algebra does not match the actor's target"}


def test_unserializable_payload_is_an_internal_error(monkeypatch, capsys):
    # a numpy scalar leaking into a payload is a bug, not a string "3"
    class Leaky:
        exists = True

        def to_json(self, scalar_to_json):
            return {"n": np.int64(3)}

    monkeypatch.setattr(cli, "actor_pipeline", lambda a, variant: Leaky())
    assert cli.main(["actor", fixture_path("sl2.json")]) == 3
    assert json.loads(capsys.readouterr().out)["error"].startswith("internal: TypeError")


def test_words_coverage_mode_sensitivity():
    code, _ = run_json("words", "coverage", "--w1", W1, "--w2", W2,
                       "--mode", "anticomm")
    assert code == 0
    code, payload = run_json("words", "coverage", "--w1", W1, "--w2", W2)
    assert code == 1 and payload["passed"] is False


def test_words_symmetry_and_cond4_and_validate():
    code, _ = run_json("words", "symmetry", "--w2", W2, "--sign", "-")
    assert code == 0
    code, _ = run_json("words", "cond4", "--w1", W1, "--w2", W2,
                       "--mode", "anticomm")
    assert code == 0
    code, payload = run_json("words", "validate",
                             "--algebra", fixture_path("sl2.json"),
                             "--w1", W1, "--w2", W2)
    assert code == 0 and payload["passed"] is True


def test_words_validate_failure_bytes_are_pinned():
    # the Lie W1 holds on sl2, and a W2 with a coefficient of 3 fails first
    # at (y, z, x) = (e, e, f)
    proc = run_cli("words", "validate", "--algebra", fixture_path("sl2.json"),
                   "--w1", W1, "--w2", "(x*y)*z - 3*(x*z)*y")
    assert proc.returncode == 1
    assert proc.stdout == ('{"label": "x*(y*z) = W2(y,z;x)", "lhs": [0, 0, 0], '
                           '"passed": false, "rhs": [4, 0, 0], "witness": [0, 0, 1]}\n')


_COND4_LIE_PLAIN = (
    '{"details": [{"matched_waves": null, "outcome": "unequal", "pairing": "((x*y)*z)*t", '
    '"stable": [true, true]}, {"matched_waves": [1, 2], "outcome": "equal", '
    '"pairing": "t*((x*y)*z)", "stable": [true, true]}, {"matched_waves": null, '
    '"outcome": "unequal", "pairing": "(z*(x*y))*t", "stable": [true, true]}, '
    '{"matched_waves": [1, 2], "outcome": "equal", "pairing": "t*(z*(x*y))", '
    '"stable": [true, true]}, {"depth": 3, "mode": "plain", "overall": "unequal"}], '
    '"label": "condition-4 unequal", "passed": false}\n')
_COND4_LIE_DEPTH1 = (
    '{"details": [{"matched_waves": null, "outcome": "undetermined", "pairing": '
    '"((x*y)*z)*t", "stable": [true, false]}, {"matched_waves": null, "outcome": '
    '"undetermined", "pairing": "t*((x*y)*z)", "stable": [true, false]}, '
    '{"matched_waves": null, "outcome": "undetermined", "pairing": "(z*(x*y))*t", '
    '"stable": [true, false]}, {"matched_waves": null, "outcome": "undetermined", '
    '"pairing": "t*(z*(x*y))", "stable": [true, false]}, {"depth": 1, "mode": '
    '"anticomm", "overall": "undetermined"}], "label": "condition-4 undetermined", '
    '"passed": false}\n')


@pytest.mark.parametrize("args, stdout", [
    (["coverage", "--w1", W1, "--w2", W2],
     '{"details": [{"covered": false, "matched": null, "pair": ["y*(x*z)", "z*(x*y)"], '
     '"via": null}, {"covered": true, "matched": "y*(z*x)", "pair": ["y*(z*x)", '
     '"z*(y*x)"], "via": "direct"}, {"covered": true, "matched": "(y*x)*z", "pair": '
     '["(y*x)*z", "(z*x)*y"], "via": "direct"}, {"covered": true, "matched": '
     '"(x*y)*z", "pair": ["(x*y)*z", "(x*z)*y"], "via": "direct"}], "label": '
     '"uncovered target pair", "passed": false, "witness": [0]}\n'),
    (["coverage", "--w1", "x*(y*z)", "--w2", "(z*y)*x", "--mode", "comm"],
     '{"details": [{"covered": false, "matched": null, "pair": ["y*(x*z)", "z*(x*y)"], '
     '"via": null}, {"covered": false, "matched": null, "pair": ["y*(z*x)", '
     '"z*(y*x)"], "via": null}, {"covered": false, "matched": null, "pair": '
     '["(y*x)*z", "(z*x)*y"], "via": null}, {"covered": false, "matched": null, '
     '"pair": ["(x*y)*z", "(x*z)*y"], "via": null}], "label": "uncovered target '
     'pair", "passed": false, "witness": [0, 1, 2, 3]}\n'),
    # the canonical terms print sorted by (coefficient, monomial)
    (["symmetry", "--w2", "(x*y)*z - 2*y*(x*z) + 3*x*(z*y)", "--sign", "-"],
     '{"details": [{"mode": "anticomm", "swapped": [["-2", "z*(x*y)"], ["-1", '
     '"y*(x*z)"], ["3", "x*(y*z)"]], "target": [["1", "z*(x*y)"], ["2", "y*(x*z)"], '
     '["3", "x*(y*z)"]]}], "label": "W2(z,y;x) = -W2(y,z;x) under anticomm", '
     '"passed": false}\n'),
    (["cond4", "--w1", W1, "--w2", W2], _COND4_LIE_PLAIN),
    (["cond4", "--w1", W1, "--w2", W2, "--mode", "anticomm", "--depth", "1"],
     _COND4_LIE_DEPTH1),
], ids=["coverage-plain", "coverage-comm", "symmetry", "cond4-unequal",
        "cond4-undetermined"])
def test_words_failure_bytes_are_pinned(args, stdout):
    proc = run_cli("words", *args)
    assert proc.returncode == 1
    assert proc.stdout == stdout


def test_words_cond4_depth_refusal_bytes_are_pinned():
    proc = run_cli("words", "cond4", "--w1", "(z*y)*x", "--w2", "x*(z*y)", "--depth", "1001")
    assert proc.returncode == 2
    assert proc.stdout == '{"error": "InputError: depth 1001 is past the cap of 1000 waves"}\n'


def test_group_subcommands():
    code, payload = run_json("group", "aut", fixture_path("s3.json"))
    assert code == 0 and payload["order"] == 6
    code, payload = run_json("group", "inn", fixture_path("s3.json"))
    assert code == 0 and payload["inn_order"] == 6
    code, _ = run_json("group", "holomorph", fixture_path("q8.json"))
    assert code == 0
    code, _ = run_json("group", "universality", fixture_path("z4.json"))
    assert code == 0


@pytest.mark.parametrize("max_b", ["0", "10"])
def test_group_universality_max_b_outside_1_to_6_exits_two(max_b):
    # the catalogue's groups have orders 1..6: --max-b 10 would check no
    # more than 6 does, and --max-b 0 would check nothing
    proc = run_cli("group", "universality", fixture_path("q8.json"), "--max-b", max_b)
    assert proc.returncode == 2
    assert proc.stdout == ('{"error": "InputError: max_b must be in 1..6, the orders of '
                           f'the catalogue groups, got {max_b}"}}\n')


def test_group_cap_exit_two():
    code, payload = run_json("group", "aut", fixture_path("q8.json"),
                             "--cap", "10")
    assert code == 2 and "CapError" in payload["error"]


def test_atlas_same_seed_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    base = ["atlas", "--field", "5", "--dim", "2", "--category", "leibniz",
            "--samples", "20", "--seed", "7"]
    code, summary = run_json(*base, "--out", out1)
    assert code == 0 and sum(summary["counts"].values()) == 20
    code, _ = run_json(*base, "--out", out2)
    assert code == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_atlas_non_integer_field_is_a_typed_refusal(tmp_path):
    code, payload = run_json("atlas", "--field", "4x", "--dim", "2", "--category", "lie",
                             "--samples", "1", "--seed", "0",
                             "--out", str(tmp_path / "a.jsonl"))
    assert code == 2 and "InputError" in payload["error"] and "--field" in payload["error"]


@pytest.mark.parametrize("dim, samples", [(2, -2), (-3, 0), (0, 1)])
def test_atlas_refuses_bad_counts_before_opening_out(tmp_path, capsys, dim, samples):
    argv = ["atlas", "--field", "5", "--dim", str(dim), "--category", "lie",
            "--samples", str(samples), "--seed", "0", "--out"]
    fresh, kept = tmp_path / "fresh.jsonl", tmp_path / "kept.jsonl"
    kept.write_text("an earlier atlas\n")
    for out in (fresh, kept):
        assert cli.main(argv + [str(out)]) == 2
        assert "InputError" in json.loads(capsys.readouterr().out)["error"]
    assert not fresh.exists()
    assert kept.read_text() == "an earlier atlas\n"


def test_int_digit_limit_refuses_input_and_keeps_output_exact(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    # a word coefficient past int's digit limit is a typed refusal
    assert cli.main(["words", "coverage", "--w1", "9" * 5000 + "*x*(y*z)", "--w2", "0"]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith("InputError")
    # a 4000-digit literal, which Rationals.parse accepts, makes a witness side
    # of 8000 digits: (e0*e0)*e0 = n^2 e1 but e0*(e0*e0) = 0
    n = int("7" * 4000)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": "Q", "dim": 2, "basis": ["e0", "e1"],
                                "category": "associative",
                                "products": [{"i": 0, "j": 0, "v": ["0", str(n)]},
                                             {"i": 1, "j": 0, "v": ["0", str(n)]}]}))
    assert cli.main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit  # lifted only while writing
    sys.set_int_max_str_digits(0)
    try:
        report = json.loads(out)["report"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert report["witness"] == [0, 0, 0]
    assert report["lhs"] == [0, n * n] and report["rhs"] == [0, 0]
    # the limit still refuses an over-long literal after that
    path.write_text(path.read_text().replace(str(n), "7" * 5000, 1))
    assert cli.main(["check", str(path)]) == 2
    assert "bad rational literal" in json.loads(capsys.readouterr().out)["error"]


def test_int_digit_limit_keeps_a_non_integer_side_exact(tmp_path, capsys):
    # e0*e0 = e1*e0 = n/3 e1 with n a 4000-digit literal: the witness side
    # (e0*e0)*e0 = n^2/9 e1 is a rational of 8000 digits over 9, formatted
    # as a string while the payload is built
    limit = sys.get_int_max_str_digits()
    n = int("7" * 4000)
    path = tmp_path / "third.json"
    path.write_text(json.dumps({"field": "Q", "dim": 2, "basis": ["e0", "e1"],
                                "category": "associative",
                                "products": [{"i": 0, "j": 0, "v": ["0", f"{n}/3"]},
                                             {"i": 1, "j": 0, "v": ["0", f"{n}/3"]}]}))
    assert cli.main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        report = json.loads(out)["report"]
        side = f"{n * n}/9"
    finally:
        sys.set_int_max_str_digits(limit)
    assert report["witness"] == [0, 0, 0]
    assert report["lhs"] == [0, side] and report["rhs"] == [0, 0]
    # the limit still refuses an over-long literal after that
    path.write_text(path.read_text().replace(str(n), "7" * 5000, 1))
    assert cli.main(["check", str(path)]) == 2
    assert "bad rational literal" in json.loads(capsys.readouterr().out)["error"]


def test_text_format_is_line_oriented():
    proc = run_cli("--format", "text", "check", fixture_path("sl2.json"))
    assert proc.returncode == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout)
    assert any(line.startswith("category:") for line in proc.stdout.splitlines())
