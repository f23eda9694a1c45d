"""Spans around calls into the program, recorded from the benchmark's side.

A Tracer replaces a function at the name a module binds it to (for example
``existence.identity_suite``, the name ``actor_pipeline`` looks up) with a
wrapper that appends one span per call: name, start, end, parent span and
op id.  Spans stay in memory and are written out once, at the end of a run.
Nothing inside the program is edited; calls that do not go through a
patched binding are not seen, so each binding is chosen to be the one the
program really calls through.

Layer metrics are sums of self time: a span's duration minus the part of it
that its child spans cover.  Time inside an op that no layer span claims is
reported as an explicit remainder, so the layer figures plus the remainder
add up to the traced op time.
"""

import json
from collections import Counter, defaultdict
from time import perf_counter

# Span name -> per-layer metric that receives its self time.  Spans missing
# here (the op span itself, cli.main's argument parsing and dispatch) fall
# into trace.remainder_s.
SELF_TIME_METRIC = {
    "algebra.own_suite": "algebra.own_suite_s",
    "algebra.semidirect_suite": "algebra.semidirect_suite_s",
    "algebra.sufficient_conditions": "algebra.sufficient_s",
    "constructions.build": "constructions.build_s",
    "constructions.assembly": "constructions.assembly_s",
    "constructions.closure": "constructions.closure_s",
    "constructions.induced_action": "constructions.induced_action_s",
    "constructions.condition": "constructions.condition_s",
    "linalg.nullspace": "linalg.nullspace_s",
    "linalg.rref": "linalg.rref_s",
    "actions.semidirect": "actions.semidirect_build_s",
    "existence.actor_pipeline": "existence.pipeline_self_s",
    "corpus.sample_algebra": "corpus.sample_s",
    "corpus.generate_atlas": "corpus.atlas_self_s",
    "cli.parse": "cli.parse_s",
    "cli.emit": "cli.emit_s",
    "groups.make_group": "groups.make_group_s",
    "groups.automorphisms": "groups.aut_s",
    "groups.holomorph_check": "groups.holomorph_s",
    "groups.group_universality_check": "groups.universality_s",
}

OP_SPAN = "op"

# counts that must repeat exactly across passes and runs at one seed
COUNTS = ("algebra.suite_bytes_computed", "constructions.closure_products",
          "linalg.nullspace_cells", "linalg.rref_calls",
          "actions.semidirect_dim_sum", "groups.make_group_calls",
          "groups.make_group_order_sum", "groups.homs_enumerated")
# every per-layer metric a traced run reports, with its unit
LAYER_UNITS = {
    **{m: "s" for m in SELF_TIME_METRIC.values()},
    **{m: "count" for m in COUNTS},
    "algebra.suite_bytes_computed": "B",
    "algebra.suite_useful_frac": "frac",
    "trace.op_s": "s", "trace.remainder_s": "s",
    "trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s",
    "trace.overhead_frac": "frac",
}

# einsum terms per three-index identity in the GF(p) kernel; each term and
# the reduced difference is one dense N^4 int64 array
_TRIPLE_TERMS = {"associativity": 2, "jacobi": 3, "leibniz": 3, "alternative": 8}
_PAIR_TAGS = ("commutativity", "anticommutativity")


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._undo = []

    def wrap(self, fn, name, on_result=None):
        """fn with a span around each call; name may be a function of the
        call's arguments, on_result(tracer, args, kwargs, result) counts."""
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            stack = tracer._stack
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(tracer, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, on_result=None):
        """Replace owner.attr (a module binding or a class attribute)."""
        orig = owner.__dict__[attr]
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(orig, name, on_result))

    def unpatch(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def self_times(self):
        """Per span name, the summed self time of all spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _, _), cov in zip(self.spans, covered):
            out[name] += (end - start) - cov
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# ---------------------------------------------------------------------------
# counters, measured on the arguments and results of the patched calls


def _lex_fraction(witness, n):
    """Share of a lexicographic sweep done up to and including witness."""
    pos = 0
    for x in witness:
        pos = pos * n + int(x)
    return (pos + 1) / n ** len(witness)


def _suite_bytes(field, n, report):
    """Bytes of the dense int64 arrays the GF(p) kernel builds for the tags
    the suite ran: a model from N and the einsum terms, not a measurement."""
    if not hasattr(field, "p"):
        return 0
    total = 0
    for d in report.details:
        tag = d.get("name")
        if tag in _TRIPLE_TERMS:
            total += 8 * (_TRIPLE_TERMS[tag] + 1) * n ** 4
        elif tag in _PAIR_TAGS:
            total += 8 * 2 * n ** 3
    return total


def _count_suite(tracer, args, kwargs, rep):
    a = args[0]
    tracer.counts["algebra.suite_bytes_computed"] += _suite_bytes(a.field, a.dim, rep)


def _count_semidirect_suite(tracer, args, kwargs, rep):
    _count_suite(tracer, args, kwargs, rep)
    n = args[0].dim
    frac = 1.0 if rep.passed or not rep.witness else _lex_fraction(rep.witness, n)
    tracer.counts["_useful_num"] += frac * n ** 3
    tracer.counts["_useful_den"] += n ** 3


def _pipeline_suite_name(args, kwargs):
    # actor_pipeline calls identity_suite(A) for the input and
    # identity_suite(prod, A.category) for the semidirect product
    if len(args) > 1 or "category" in kwargs:
        return "algebra.semidirect_suite"
    return "algebra.own_suite"


def _on_pipeline_suite(tracer, args, kwargs, rep):
    if _pipeline_suite_name(args, kwargs) == "algebra.semidirect_suite":
        _count_semidirect_suite(tracer, args, kwargs, rep)
    else:
        _count_suite(tracer, args, kwargs, rep)


def _on_build_actor(tracer, args, kwargs, actor):
    tracer.counts["constructions.closure_products"] += actor.dim ** 2


def _on_nullspace(tracer, args, kwargs, out):
    m = args[0]
    tracer.counts["linalg.nullspace_cells"] += m.nrows * m.ncols


def _on_rref(tracer, args, kwargs, out):
    tracer.counts["linalg.rref_calls"] += 1


def _on_semidirect(tracer, args, kwargs, prod):
    tracer.counts["actions.semidirect_dim_sum"] += prod.dim


def _on_make_group(tracer, args, kwargs, g):
    tracer.counts["groups.make_group_calls"] += 1
    tracer.counts["groups.make_group_order_sum"] += g.order


def _on_universality(tracer, args, kwargs, rep):
    tracer.counts["groups.homs_enumerated"] += sum(
        d.get("actions", 0) for d in rep.details)


def install(tracer):
    """Patch every binding the workloads call through.  Workloads call the
    program through module attributes (``corpus.generate_atlas(...)``), so
    their root calls are seen too."""
    from artifact import cli, constructions, corpus, existence, groups, linalg

    tracer.patch(existence, "identity_suite", _pipeline_suite_name,
                 _on_pipeline_suite)
    # the constructors re-check their input's suite, the samplers their output
    for mod in (constructions, corpus):
        tracer.patch(mod, "identity_suite", "algebra.own_suite", _count_suite)
    tracer.patch(existence, "sufficient_conditions", "algebra.sufficient_conditions")
    for fn in ("derivations", "bimultipliers", "biderivations", "multipliers"):
        tracer.patch(existence, fn, "constructions.build")
    for fn in ("_derivation_rows", "_bimultiplier_rows", "_biderivation_rows",
               "_multiplier_rows"):
        tracer.patch(constructions, fn, "constructions.assembly")
    # the body of _build_actor outside nullspace/rref is the closure: all m^2
    # basis products re-expressed in the candidate's basis
    tracer.patch(constructions, "_build_actor", "constructions.closure",
                 _on_build_actor)
    tracer.patch(constructions.ActorAlgebra, "action_pair",
                 "constructions.induced_action")
    for fn in ("condition1_check", "condition2_check"):
        tracer.patch(existence, fn, "constructions.condition")
    tracer.patch(linalg.Matrix, "nullspace", "linalg.nullspace", _on_nullspace)
    tracer.patch(linalg.Matrix, "rref", "linalg.rref", _on_rref)
    tracer.patch(existence, "semidirect", "actions.semidirect", _on_semidirect)
    for mod in (existence, corpus, cli):
        tracer.patch(mod, "actor_pipeline", "existence.actor_pipeline")
    tracer.patch(corpus, "sample_algebra", "corpus.sample_algebra")
    tracer.patch(corpus, "generate_atlas", "corpus.generate_atlas")
    tracer.patch(cli, "_load", "cli.parse")
    tracer.patch(cli, "algebra_from_json", "cli.parse")
    tracer.patch(cli, "_emit", "cli.emit")
    tracer.patch(groups, "make_group", "groups.make_group", _on_make_group)
    tracer.patch(groups, "automorphisms", "groups.automorphisms")
    tracer.patch(groups, "holomorph_check", "groups.holomorph_check")
    tracer.patch(groups, "group_universality_check",
                 "groups.group_universality_check", _on_universality)
