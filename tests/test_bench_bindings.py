"""The benchmark in perfbench/ times the program by replacing module
bindings by name (perfbench/spans.py).  A refactor that drops or renames
one of those bindings, or stops calling through it, breaks the benchmark;
these tests catch that in the unit suite."""

import importlib.util
import os

from artifact import constructions, existence
from artifact.corpus import a5_leibniz, m2_rationals, sl2, truncated_poly
from artifact.fields import QQ

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
        for a in (sl2(), a5_leibniz(), m2_rationals(), truncated_poly(QQ, 2, "commutative")):
            existence.actor_pipeline(a)
    finally:
        tracer.unpatch()
    names = [span[0] for span in tracer.spans]
    assert {"linalg.nullspace", "algebra.own_suite", "algebra.semidirect_suite"} <= set(names)
    # every constructor calls its row assembly through the traced binding
    assert names.count("constructions.assembly") == names.count("constructions.closure") >= 4
    assert all(vars(constructions)[k] is v for k, v in before.items())
