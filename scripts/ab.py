"""Compare two revisions on the benchmark, in alternating pairs.

    python scripts/ab.py --parent REV --change REV --workloads W1,W2 \
        --pairs 10 --seeds 1,2 [--traced] [--claim WORKLOAD:METRIC] \
        [--out BENCH_N.json]

Each revision is exported with `git archive` into its own temporary
directory, so both run from their committed files alone and the checkout's
own tree and git state are left as they are.  For every workload and seed
the script runs `perfbench/run.py --trace 0` once per side and pair, for
BENCHMARK.json's run_seconds, in ABBA order (pair 1 runs the parent first,
pair 2 the change first, and so on), so that drift of the host cancels.  With --traced it adds one
`--trace 1` run per side and workload at the first seed, for the exact
counts.

The output JSON holds every run, and per workload and seed a summary of
each end-to-end metric of BENCHMARK.json: the medians and quartiles of
both sides, the pairs the change won, its relative change against the
parent median (positive is worse) and its result against the metric's
bound: "within_bound", "worse", or "unresolved" when the parent's
interquartile range is wider than the bound times the parent median and
the change does not beat the parent in every run.  A claim (--claim) is met when every run is
correct, there are at least ten pairs, the change is better in at least 9
of every 10 of them, and its median lies beyond the parent's interquartile
range from the parent median, on the better side.  The tree hash of
src/artifact and the code lines of each of its modules
(scripts/code_lines.py) are recorded for both sides.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import code_lines  # noqa: E402

SIDES = ("parent", "change")
CLAIM_SHARE = 0.9  # the share of pairs a claimed gain must win
CLAIM_PAIRS = 10  # the fewest pairs that can decide a claim


def export(rev: str, dest: str) -> str:
    """The committed tree of rev, written under dest; its commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return sha


def src_tree(sha: str) -> str:
    """The git tree hash of src/artifact at commit sha."""
    return subprocess.run(["git", "rev-parse", sha + ":src/artifact"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py run in tree: its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-2000:]}
    out = json.loads(lines[-1])
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            "failed_lines": [x for x in lines if x.startswith("# FAILED")],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def quartiles(values: list) -> tuple[float, float, float]:
    """(q1, median, q3), each the median itself for fewer than two values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(runs: list, metric: dict) -> dict:
    """The summary of one end-to-end metric over the pairs of runs: runs is
    a list of {"parent": run, "change": run}, metric a row of BENCHMARK.json's
    end_to_end."""
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name]) for r in runs]
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    better = sum((c < p) if lower else (c > p) for p, c in pairs)
    worse_frac = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
    beats_every_run = max(change) < min(parent) if lower else min(change) > max(parent)
    if p3 - p1 > metric["bound"] * abs(pm) and not beats_every_run:
        result = "unresolved"
    else:
        result = "within_bound" if worse_frac <= metric["bound"] else "worse"
    return {"parent_median": pm, "parent_q1": p1, "parent_q3": p3,
            "change_median": cm, "change_q1": c1, "change_q3": c3,
            "change_better_pairs": better, "change_worse_frac": worse_frac,
            "bound": metric["bound"], "result": result,
            "medians_apart_more_than_parent_iqr": abs(cm - pm) > p3 - p1}


def claim_met(summary: dict, metric: str) -> bool:
    """summary is that of one workload and seed.  Every run is correct,
    there are at least CLAIM_PAIRS pairs, the change wins at least
    CLAIM_SHARE of them, and its median is better than the parent's by
    more than the parent's interquartile range."""
    pairs, s = summary["pairs"], summary.get(metric)
    return (summary["all_correct"] and pairs >= CLAIM_PAIRS and s["change_worse_frac"] < 0
            and s["medians_apart_more_than_parent_iqr"]
            and s["change_better_pairs"] >= CLAIM_SHARE * pairs)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workloads", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seeds", required=True, help="comma-separated, e.g. 1,2")
    p.add_argument("--traced", action="store_true", help="add one traced run per side")
    p.add_argument("--claim", default=None, help="WORKLOAD:METRIC claimed better")
    p.add_argument("--out", default=None, help="the JSON file to write")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")

    top = tempfile.mkdtemp(prefix="ab-")
    try:
        trees = {side: os.path.join(top, side) for side in SIDES}
        shas = {side: export(getattr(args, side), trees[side]) for side in SIDES}
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        seconds = bench["run_seconds"]
        runs, summary, traced = [], {}, {}
        for workload in workloads:
            for seed in seeds:
                pairs = []
                for k in range(1, args.pairs + 1):
                    order = SIDES if k % 2 else SIDES[::-1]
                    pair = {side: run_once(trees[side], workload, seed, seconds, 0)
                            for side in order}
                    for side in SIDES:
                        runs.append(dict(pair[side], side=side, workload=workload, seed=seed,
                                         pair=k, ran_first=order[0]))
                    pairs.append(pair)
                    print(f"{workload} seed {seed} pair {k}: " + ", ".join(
                        f"{side} {pair[side].get('metrics')}" for side in SIDES), flush=True)
                ok = [x for x in pairs if all(x[s]["correct"] for s in SIDES)]
                key = f"{workload}/seed{seed}"
                summary[key] = {"pairs": len(pairs), "all_correct": len(ok) == len(pairs)}
                if ok:
                    summary[key].update({m["name"]: summarize(ok, m)
                                         for m in bench["end_to_end"]})
            if args.traced:
                traced[workload] = {side: run_once(trees[side], workload, seeds[0], seconds, 1)
                                    for side in SIDES}
        claim = None
        if args.claim:
            workload, metric = args.claim.split(":")
            by_seed = {}
            for seed in seeds:
                s = summary[f"{workload}/seed{seed}"]
                by_seed[str(seed)] = {"met": claim_met(s, metric), **(s.get(metric) or {})}
            claim = {"workload": workload, "metric": metric,
                     "rule": f"every run correct, at least {CLAIM_PAIRS} pairs, change better "
                             f"in at least {CLAIM_SHARE:.0%} of them, and medians further apart "
                             "than the parent's interquartile range",
                     "by_seed": by_seed, "met": all(x["met"] for x in by_seed.values())}
        lines = {side: code_lines.counts(os.path.join(trees[side], "src", "artifact"))
                 for side in SIDES}
    finally:
        shutil.rmtree(top, ignore_errors=True)

    record = {"command": sys.argv, "revisions": shas,
              "src_artifact_trees": {side: src_tree(shas[side]) for side in SIDES},
              "seconds": seconds,
              "env": {"python": sys.version.split()[0], "nproc": os.cpu_count()},
              "claim": claim, "summary": summary, "traced": traced,
              "code_lines": {side: dict(lines[side], total=sum(lines[side].values()))
                             for side in SIDES},
              "runs": runs}
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if claim is not None:
        print(f"claim {claim['workload']} {claim['metric']}: "
              f"{'met' if claim['met'] else 'not met'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
