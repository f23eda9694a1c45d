"""The benchmark in perfbench/ times the program by replacing module
bindings by name (perfbench/spans.py).  A refactor that drops or renames
one of those bindings, or stops calling through it, breaks the benchmark;
these tests catch that in the unit suite.  A traced run also gates exact
counts against perfbench/golden.json, so the counts of one pipeline per
candidate kind are pinned here too, among them the semidirect suite's: a
change to how the pipeline calls that suite fails here first."""

import importlib.util
import os
import random
from collections import Counter

from artifact import constructions, corpus, existence
from artifact.corpus import a5_leibniz, m2_rationals, sl2, truncated_poly
from artifact.fields import GF, QQ

FIXTURES = {"sl2": sl2(), "a5_leibniz": a5_leibniz(), "m2_rationals": m2_rationals(),
            "truncated_poly2": truncated_poly(QQ, 2, "commutative")}

PINNED_KEYS = ("linalg.rref_calls", "linalg.nullspace_cells", "constructions.closure_products",
               "algebra.suite_bytes_computed", "actions.semidirect_dim_sum")
PINNED_COUNTS = {"sl2": (3, 297, 9, 47952, 6), "a5_leibniz": (3, 208, 9, 20512, 5),
                 "m2_rationals": (3, 6272, 16, 104448, 8),
                 "truncated_poly2": (3, 48, 4, 7680, 4)}

# spans of the four fixture pipelines together, by name; every verdict
# passes, so only the Leibniz one runs a condition check, and the
# associative and commutative ones read condition 2 off the verdict.  Each
# pipeline runs its input's own suite once, and its constructor takes that
# report
FIXTURE_SPANS = {"existence.actor_pipeline": 4, "algebra.own_suite": 4,
                 "algebra.sufficient_conditions": 4, "constructions.build": 4,
                 "constructions.assembly": 4, "constructions.closure": 4,
                 "linalg.nullspace": 8, "linalg.rref": 12,
                 "constructions.induced_action": 4, "actions.semidirect": 4,
                 "algebra.semidirect_suite": 4, "constructions.condition": 1}

# GF(5) dim 3, seeds 0-5 (every strategy: Lie seed 5 is a rejection draw):
# (linalg.rref_calls, algebra.suite_bytes_computed), gated on atlas-gf5.
# Rejection draws are checked by algebra.suite_flags, which no span counts,
# so only the kept draw's suite is in the Lie figure
PINNED_SAMPLER_COUNTS = {"lie": (5, 18144), "leibniz": (6, 15552),
                         "associative": (6, 11664), "commutative": (8, 14256)}

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_binding_exists_and_is_restored():
    spans = _spans_module()
    before = dict(vars(constructions))
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        # one candidate kind each: der, bider, bim, mult
        for a in FIXTURES.values():
            existence.actor_pipeline(a)
    finally:
        tracer.unpatch()
    # every binding is called through, as often as at the recorded seed: a
    # dispatch table holding the functions it found at import time would
    # call round the patches and lose spans here
    assert Counter(span[0] for span in tracer.spans) == FIXTURE_SPANS
    assert all(vars(constructions)[k] is v for k, v in before.items())


def test_traced_counts_of_fixture_pipelines_are_pinned():
    spans = _spans_module()
    for name, a in FIXTURES.items():
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
            existence.actor_pipeline(a)
        finally:
            tracer.unpatch()
        got = tuple(tracer.counts[k] for k in PINNED_KEYS)
        assert got == PINNED_COUNTS[name], name


def test_traced_counts_of_the_sampler_are_pinned():
    spans = _spans_module()
    for category, pinned in PINNED_SAMPLER_COUNTS.items():
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
            for seed in range(6):
                corpus.sample_algebra(random.Random(seed), GF(5), 3, category)
        finally:
            tracer.unpatch()
        got = (tracer.counts["linalg.rref_calls"], tracer.counts["algebra.suite_bytes_computed"])
        assert got == pinned, category
