"""Command-line surface: every checker and constructor behind one entry point.

Exit codes: 0 when the requested check passes (or the object exists), 1 when
it fails (or does not exist, or a construction step signals a soundness
bug), 2 on invalid input (an InputError, an unreadable file or a usage
error), 3 on any other exception, an internal error, reported as
{"error": "internal: <Type>: <msg>"} with its traceback on stderr.  With
--format json every report is a single json.dumps line with sorted keys, so
identical inputs produce byte-identical output.
"""

import argparse
import json
import sys
import traceback

from .actions import action_from_json, check_derived_action, semidirect
from .algebra import CATEGORIES, InputError, algebra_from_json, identity_suite
from .constructions import (ConstructionError, actor_from_json, canonical_d, construct,
                            crossed_module_check)
from .corpus import generate_atlas
from .existence import actor_pipeline
from .fields import QQ, field_from_json
from .groups import (automorphisms, group_from_json, group_universality_check,
                     holomorph_check, inner_automorphisms)
from .words import (MODES, check_swap_symmetry, check_T_coverage,
                    expand_condition4, parse_word, validate_word_on_algebra)


def _text_lines(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _emit(payload, fmt):
    """Print payload, or what it returns when it is a function of no
    arguments.  Every integer is written exactly: the int <-> str digit
    limit, which refuses over-long literals on input, is lifted only while
    the payload is built and printed, so a subcommand that formats field
    scalars returns its payload as such a function."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if callable(payload):
            payload = payload()
        if fmt == "json":
            print(json.dumps(payload, sort_keys=True))
        else:
            print("\n".join(_text_lines(payload)))
    finally:
        sys.set_int_max_str_digits(limit)


def _load(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, not UTF-8, or an over-long int
            raise InputError(f"{path}: {exc}") from exc


def _parse_field_flag(s: str):
    if s.strip().upper() == "Q":
        return QQ
    try:
        p = int(s)
    except ValueError:
        raise InputError(f'--field must be "Q" or a prime p, got {s!r}') from None
    return field_from_json({"p": p})


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args):
    a = algebra_from_json(_load(args.algebra))
    rep = identity_suite(a)
    return (0 if rep.passed else 1), lambda: {"category": a.category, "dim": a.dim,
                                              "report": rep.to_json(a.field.to_json)}


def _cmd_construct(args):
    a = algebra_from_json(_load(args.algebra))
    actor = construct(f"bider{args.variant}" if args.kind == "bider" else args.kind, a)
    return 0, lambda: {**actor.to_json(), "dim": actor.dim}


def _cmd_actor(args):
    a = algebra_from_json(_load(args.algebra))
    v = actor_pipeline(a, args.variant)
    return (0 if v.exists else 1), lambda: v.to_json(a.field.to_json)


def _cmd_semidirect(args):
    act = action_from_json(_load(args.action))
    return 0, semidirect(act).to_json


def _cmd_action_check(args):
    act = action_from_json(_load(args.action))
    category = args.category or act.A.category
    derived = check_derived_action(category, act)
    return (0 if derived.passed else 1), lambda: {
        "category": category, "derived": derived.to_json(act.A.field.to_json)}


def _cmd_xmod_check(args):
    a = algebra_from_json(_load(args.algebra))
    actor = actor_from_json(_load(args.actor))
    d = canonical_d(a, actor)
    rep = crossed_module_check(d, actor.action_pair())
    return (0 if rep.passed else 1), lambda: {
        "canonical_d": [[a.field.to_json(x) for x in row] for row in d.rows],
        "report": rep.to_json(a.field.to_json)}


def _cmd_words(args):
    if args.action == "coverage":
        rep = check_T_coverage(parse_word(args.w1, "W1"),
                               parse_word(args.w2, "W2"), args.mode)
        return (0 if rep.passed else 1), rep.to_json()
    if args.action == "symmetry":
        rep = check_swap_symmetry(parse_word(args.w2, "W2"), args.sign)
        return (0 if rep.passed else 1), rep.to_json()
    if args.action == "cond4":
        rep = expand_condition4(parse_word(args.w1, "W1"),
                                parse_word(args.w2, "W2"),
                                depth=args.depth, mode=args.mode)
        return (0 if rep.passed else 1), rep.to_json()
    a = algebra_from_json(_load(args.algebra))
    rep = validate_word_on_algebra(a, parse_word(args.w1, "W1"),
                                   parse_word(args.w2, "W2"))
    return (0 if rep.passed else 1), lambda: rep.to_json(a.field.to_json)


def _cmd_group(args):
    g = group_from_json(_load(args.group))
    if args.action == "aut":
        aut = automorphisms(g, args.cap)
        return 0, {"order": aut.order, "perms": [list(p) for p in aut.perms]}
    if args.action == "inn":
        inn = inner_automorphisms(g, automorphisms(g, args.cap))
        return 0, {"inn_order": len(inn.indices), "tau": list(inn.tau),
                   "center": [g.names[a] for a in inn.center]}
    if args.action == "holomorph":
        rep = holomorph_check(g, args.cap)
    else:
        rep = group_universality_check(g, args.max_b, args.cap)
    return (0 if rep.passed else 1), rep.to_json()


def _cmd_atlas(args):
    field = _parse_field_flag(args.field)
    summary = generate_atlas(field, args.dim, args.category, args.samples,
                             args.seed, args.out)
    return 0, summary


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    p = argparse.ArgumentParser(
        prog="artifact",
        description="actor existence, construction and verification for "
                    "structure-constant algebras and small groups")
    p.add_argument("--format", choices=("json", "text"), default="json")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check", help="run an algebra's identity suite")
    s.add_argument("algebra")
    s.set_defaults(func=_cmd_check)

    s = sub.add_parser("construct", help="build one actor candidate")
    s.add_argument("kind", choices=("der", "bim", "bider", "mult"))
    s.add_argument("algebra")
    s.add_argument("--variant", type=int, choices=(1, 2), default=1)
    s.set_defaults(func=_cmd_construct)

    s = sub.add_parser("actor", help="decide actor existence")
    s.add_argument("algebra")
    s.add_argument("--variant", type=int, choices=(1, 2), default=1)
    s.set_defaults(func=_cmd_actor)

    s = sub.add_parser("semidirect", help="build the semidirect product of an action")
    s.add_argument("action")
    s.set_defaults(func=_cmd_semidirect)

    s = sub.add_parser("action-check", help="derived-action conditions for an action")
    s.add_argument("action")
    s.add_argument("--category", choices=CATEGORIES, default=None)
    s.set_defaults(func=_cmd_action_check)

    s = sub.add_parser("xmod-check", help="crossed-module conditions for the canonical map")
    s.add_argument("algebra")
    s.add_argument("--actor", required=True)
    s.set_defaults(func=_cmd_xmod_check)

    s = sub.add_parser("words", help="replacement-word checks")
    ws = s.add_subparsers(dest="action", required=True)
    w = ws.add_parser("coverage", help="T-set coverage of a word pair")
    w.add_argument("--w1", required=True)
    w.add_argument("--w2", required=True)
    w.add_argument("--mode", choices=MODES, default="plain")
    w.set_defaults(func=_cmd_words)
    w = ws.add_parser("symmetry", help="y/z swap symmetry of a W2 word")
    w.add_argument("--w2", required=True)
    w.add_argument("--sign", choices=("+", "-"), required=True)
    w.set_defaults(func=_cmd_words)
    w = ws.add_parser("cond4", help="agreement of the two rewrite orders")
    w.add_argument("--w1", required=True)
    w.add_argument("--w2", required=True)
    w.add_argument("--depth", type=int, default=3)
    w.add_argument("--mode", choices=MODES, default="plain")
    w.set_defaults(func=_cmd_words)
    w = ws.add_parser("validate", help="ground a word pair on an algebra")
    w.add_argument("--algebra", required=True)
    w.add_argument("--w1", required=True)
    w.add_argument("--w2", required=True)
    w.set_defaults(func=_cmd_words)

    s = sub.add_parser("group", help="finite-group checks")
    s.add_argument("action", choices=("aut", "inn", "holomorph", "universality"))
    s.add_argument("group")
    s.add_argument("--cap", type=int, default=24)
    s.add_argument("--max-b", type=int, default=6, dest="max_b")
    s.set_defaults(func=_cmd_group)

    s = sub.add_parser("atlas", help="seeded random corpus classification")
    s.add_argument("--field", required=True, help='"Q" or a prime p')
    s.add_argument("--dim", type=int, required=True)
    s.add_argument("--category", choices=CATEGORIES, required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_atlas)

    return p


# built once: the func defaults are the _cmd_* functions, which look up
# _load, algebra_from_json, actor_pipeline and _emit when they run
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code, payload = args.func(args)
        _emit(payload, args.format)
        return code
    except ConstructionError as exc:
        _emit({"passed": False, "error": f"{type(exc).__name__}: {exc}"},
              args.format)
        return 1
    except (InputError, OSError) as exc:
        _emit({"error": f"{type(exc).__name__}: {exc}"}, args.format)
        return 2
    except Exception as exc:  # a bug, not the input's fault
        traceback.print_exc()
        _emit({"error": f"internal: {type(exc).__name__}: {exc}"}, args.format)
        return 3


if __name__ == "__main__":
    sys.exit(main())
