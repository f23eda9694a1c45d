"""The input boundary: every JSON parser accepts a document or refuses it
with InputError, and the CLI maps refusals to exit 2 and anything else, a
bug, to exit 3."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from artifact import cli
from artifact.actions import action_from_json, make_action
from artifact.algebra import InputError, algebra_from_json, identity_suite, make_algebra
from artifact.constructions import actor_from_json
from artifact.corpus import a5_leibniz, sl2, zero_algebra
from artifact.existence import actor_pipeline
from artifact.fields import GF, QQ
from artifact.groups import cyclic, group_from_json, symmetric3

from conftest import fixture_path, load_fixture


def _changed(doc, path, value):
    """A deep copy of doc with the value at path (keys and indices) replaced."""
    doc = copy.deepcopy(doc)
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _action_1x1():
    z = zero_algebra(QQ, 1, "lie")
    zero = (((QQ.zero,),),)
    return make_action(z, z, zero, zero).to_json()


ACTOR = load_fixture("sl2_der_actor.json")


def _forged_actor():
    """The sl2 derivation actor with tensor[0][1] set to [5, 5, 5] and
    action.B rebuilt from the forged tensor, so that the document agrees
    with itself but not with the candidate of its target."""
    doc = _changed(ACTOR, ("tensor", 0, 1), [5, 5, 5])
    B = algebra_from_json(doc["action"]["B"])
    tensor = [[[QQ.parse(x) for x in v] for v in plane] for plane in doc["tensor"]]
    doc["action"]["B"] = make_algebra(QQ, B.basis, tensor, B.category).to_json()
    return doc


# an order-20 group table, to carry the out-of-range entries below
LARGE_GROUP = cyclic(20).to_json()

# (parser, CLI arguments with the document's file as "{}", document)
MALFORMED = {
    "action-str-vector": (action_from_json, ["action-check", "{}"],
                          _changed(_action_1x1(), ("left",), [["7"]])),
    "field-list-modulus": (algebra_from_json, ["check", "{}"],
                           _changed(sl2().to_json(), ("field",), {"p": [5]})),
    "field-float-modulus": (algebra_from_json, ["check", "{}"],
                            _changed(sl2().to_json(), ("field",), {"p": 5.0})),
    "field-bool-modulus": (algebra_from_json, ["check", "{}"],
                           _changed(sl2().to_json(), ("field",), {"p": True})),
    "actor-int-basis": (actor_from_json, ["xmod-check", fixture_path("sl2.json"), "--actor", "{}"],
                        _changed(ACTOR, ("basis",), 5)),
    "actor-int-tensor": (actor_from_json, ["xmod-check", fixture_path("sl2.json"), "--actor", "{}"],
                         _changed(ACTOR, ("tensor",), 3)),
    "actor-ragged-L": (actor_from_json, ["xmod-check", fixture_path("sl2.json"), "--actor", "{}"],
                       _changed(ACTOR, ("basis", 0, "L", 1), [0])),
    "actor-R-breaks-der-rule": (actor_from_json,
                                ["xmod-check", fixture_path("sl2.json"), "--actor", "{}"],
                                _changed(ACTOR, ("basis", 0, "R"), ACTOR["basis"][0]["L"])),
    "actor-forged-tensor": (actor_from_json,
                            ["xmod-check", fixture_path("sl2.json"), "--actor", "{}"],
                            _forged_actor()),
    "algebra-q-exponent-literal": (algebra_from_json, ["check", "{}"],
                                   _changed(sl2().to_json(), ("products", 0, "v", 0),
                                            "1e999999999")),
    "group-str-table": (group_from_json, ["group", "aut", "{}"],
                        {"order": 2, "table": "ab"}),
    "group-large-entry-2**70": (group_from_json, ["group", "holomorph", "{}"],
                                _changed(LARGE_GROUP, ("table", 3, 5), 2 ** 70)),
    "group-large-entry-negative": (group_from_json, ["group", "holomorph", "{}"],
                                   _changed(LARGE_GROUP, ("table", 3, 5), -1)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_are_refused_and_exit_two(name, tmp_path, capsys):
    parse, argv, doc = MALFORMED[name]
    with pytest.raises(InputError):
        parse(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main([a.replace("{}", str(path)) for a in argv]) == 2
    assert "internal" not in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("argv,fixture", [
    (["der"], "sl2.json"), (["bim"], "m2.json"), (["bider", "--variant", "2"], "a5_leibniz.json"),
    (["mult"], "dual_numbers_commutative.json")], ids=["der", "bim", "bider2", "mult"])
def test_xmod_check_accepts_the_document_construct_emits(argv, fixture, tmp_path, capsys):
    assert cli.main(["construct", *argv, fixture_path(fixture)]) == 0
    path = tmp_path / "actor.json"
    path.write_text(capsys.readouterr().out)
    assert cli.main(["xmod-check", fixture_path(fixture), "--actor", str(path)]) in (0, 1)
    assert "error" not in json.loads(capsys.readouterr().out)


def test_a_file_that_is_not_json_exits_two(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b"{\"field\": \xff")
    assert cli.main(["check", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith("InputError: ")


def test_a_char2_alternative_algebra_past_dim_16_is_decided(tmp_path, capsys):
    # over GF(2) the alternative suite reads the quadratic laws at the basis
    # vectors, so no dimension is refused: the suite, the pipeline and the
    # CLI each answer at dims 17 and 32
    for n in (17, 32):
        a = zero_algebra(GF(2), n, "alternative")
        assert identity_suite(a).passed
        assert actor_pipeline(a).status == "unsupported-general"
        path = tmp_path / f"alt{n}.json"
        path.write_text(json.dumps(a.to_json()))
        assert cli.main(["check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["passed"] is True


def test_an_internal_error_exits_three(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TypeError("a bug")

    monkeypatch.setattr(cli, "identity_suite", broken)
    assert cli.main(["check", fixture_path("sl2.json")]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": "internal: TypeError: a bug"}
    assert "Traceback" in captured.err


def _paths(doc, prefix=()):
    """Every path into doc, the root included."""
    out = [prefix]
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return out
    for key, value in items:
        out += _paths(value, prefix + (key,))
    return out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.integers() | st.floats()
    | st.text(max_size=5),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=3),
    max_leaves=12)

VALID = {
    "algebra-Q": (algebra_from_json, sl2().to_json()),
    "algebra-GF5": (algebra_from_json, a5_leibniz(GF(5)).to_json()),
    "action": (action_from_json, load_fixture("sl2_der_action.json")),
    "actor": (actor_from_json, ACTOR),
    "group": (group_from_json, symmetric3().to_json()),
}


@pytest.mark.parametrize("name", sorted(VALID))
@settings(max_examples=150)
@given(data=st.data())
def test_any_json_at_any_path_is_accepted_or_refused_with_input_error(name, data):
    parse, doc = VALID[name]
    path = data.draw(st.sampled_from(_paths(doc)), label="path")
    try:
        parse(_changed(doc, path, data.draw(json_values, label="value")))
    except InputError:
        pass
