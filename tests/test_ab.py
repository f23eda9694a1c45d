"""scripts/ab.py's summary and claim rule, on made-up pairs of runs."""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "ab.py")
_spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

LOWER = {"name": "op_tail_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.25}


def _pairs(parent, change, name):
    return [{"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}}
            for p, c in zip(parent, change)]


def _seed_summary(parent, change, metric=HIGHER, all_correct=True):
    return {"pairs": len(parent), "all_correct": all_correct,
            metric["name"]: ab.summarize(_pairs(parent, change, metric["name"]), metric)}


def test_summary_reads_medians_quartiles_and_won_pairs():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [9.0, 12.0, 10.0, 11.0, 10.0]
    s = ab.summarize(_pairs(parent, change, "op_tail_s"), LOWER)
    assert (s["parent_median"], s["change_median"]) == (12.0, 10.0)
    assert (s["parent_q1"], s["parent_q3"]) == (10.5, 13.5)
    assert s["change_better_pairs"] == 4
    assert s["change_worse_frac"] == -1 / 6 and s["result"] == "within_bound"
    # 2.0 apart, inside the parent's interquartile range of 3.0
    assert not s["medians_apart_more_than_parent_iqr"]
    assert not ab.claim_met(_seed_summary(parent, change, LOWER), "op_tail_s")


def test_claim_needs_nine_of_ten_pairs_and_medians_beyond_the_iqr():
    parent = [100.0 + k for k in range(10)]
    change = [110.0 + k for k in range(10)]
    s = _seed_summary(parent, change)
    assert s["ops_per_s"]["change_better_pairs"] == 10 and ab.claim_met(s, "ops_per_s")
    assert not ab.claim_met(_seed_summary(parent, change, all_correct=False), "ops_per_s")
    change[0] = 99.0  # nine of ten still win
    assert ab.claim_met(_seed_summary(parent, change), "ops_per_s")
    change[1] = 100.0  # eight of ten do not
    assert not ab.claim_met(_seed_summary(parent, change), "ops_per_s")
    # a worse change is out of bound past 25%, and never a claim
    s = _seed_summary(parent, [70.0] * 10)
    assert s["ops_per_s"]["change_worse_frac"] > 0.25
    assert s["ops_per_s"]["result"] == "worse"
    assert not ab.claim_met(s, "ops_per_s")


def test_claim_needs_ten_pairs():
    # every pair won by far, but one or two pairs decide nothing
    for k in (1, 2, 9):
        s = _seed_summary([100.0 + j for j in range(k)], [200.0 + j for j in range(k)])
        assert s["ops_per_s"]["change_better_pairs"] == k
        assert not ab.claim_met(s, "ops_per_s")


def test_a_parent_spread_wider_than_the_bound_leaves_the_result_unresolved():
    # parent quartiles 70.0 and 130.0: a spread of 60% of its median of 100
    parent = [50.0, 70.0, 100.0, 130.0, 150.0]
    s = ab.summarize(_pairs(parent, [60.0, 80.0, 90.0, 100.0, 110.0], "ops_per_s"), HIGHER)
    assert s["result"] == "unresolved"
    # far outside the bound, still unresolved while some parent run is better
    s = ab.summarize(_pairs(parent, [10.0, 20.0, 30.0, 40.0, 60.0], "ops_per_s"), HIGHER)
    assert s["result"] == "unresolved"
    # a change that beats every parent run is resolved
    s = ab.summarize(_pairs(parent, [151.0] * 5, "ops_per_s"), HIGHER)
    assert s["result"] == "within_bound"
    s = ab.summarize(_pairs(parent, [49.0] * 5, "op_tail_s"), LOWER)
    assert s["result"] == "within_bound"


def test_one_pair_has_its_values_as_quartiles():
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
