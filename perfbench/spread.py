"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                [--out FILE]

For every workload and metric: the per-seed values, their median, and the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median.  That share is what the bounds in BENCHMARK.json
are judged against: it must stay below each end-to-end metric's bound.
Runs go one after another, never in parallel, so they do not disturb each
other's timings.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", required=True, type=_seeds)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t = time.monotonic()
            proc = subprocess.run(bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - t
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and res["correct"]
            with open(os.path.join(ROOT, ".perfbench_out",
                                   f"{wl}-seed{seed}-trace{args.trace}.json")) as fh:
                record = json.load(fh)
            report.setdefault("env", record["env"])
            runs.append({"seed": seed, "wall_s": wall, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"],
                         "passes": record["passes"],
                         "op_tail_percentile": record["op_tail_percentile"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{wl} seed {seed}: {wall:.1f} s wall, correct {res['correct']}",
                  flush=True)
        summary = {}
        for name in (runs[0]["metrics"] if runs else ()):
            values = [r["metrics"][name] for r in runs]
            med, iqr = spread(values) if len(values) > 1 else (values[0], 0.0)
            summary[name] = {"median": med, "iqr_frac": iqr}
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s" and args.trace == 0:
                flag = "ok" if iqr < bound / 3 else ("within bound" if iqr < bound else "OVER")
            print(f"  {wl:18s} {name:36s} median {med:.6g}  iqr/median {iqr:.4f} {flag}")
        report["workloads"][wl] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
