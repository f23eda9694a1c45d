"""Record the golden outputs and exact counts that later runs are checked
against.  Run it only on a commit whose outputs are known to be right.

    python3 perfbench/record_golden.py --seeds 0-11 [--workloads a,b]

For every workload and seed it makes the inputs, runs one traced pass and
stores a digest of each op's output bytes and the pass's exact counts in
perfbench/golden.json.  Ops whose output cannot depend on the seed (the
group checks and the fixed dim-6 algebras) are stored once under "fixed",
and checked at every seed; the others only at the recorded seeds.
"""

import argparse
import json
import os
import shutil
import sys

import worker

_OUT = os.path.join(os.path.dirname(worker.HERE), ".perfbench_out", "golden")


def record(wl, spans, workload, seed):
    d = os.path.join(_OUT, f"{workload}-{seed}")
    shutil.rmtree(d, ignore_errors=True)
    wl.make_inputs(workload, seed, d)
    ops = wl.load_ops(workload, d, d)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        rows = worker.run_passes(ops, 1, tracer)[0]
    finally:
        tracer.unpatch()
    shutil.rmtree(d, ignore_errors=True)
    # only outputs that pass every check visible at any seed are recorded
    reasons = worker.check_passes(wl, workload, seed, ops, [rows], {})
    bad = [(op.label, r) for op, r in zip(ops, reasons) if r]
    if bad:
        raise SystemExit(f"{workload} seed {seed}: ops failed: {bad}")
    digests = {op.label: worker.digest(runs[0][1]) for op, runs in zip(ops, rows)}
    counts = {k: tracer.counts[k] for k in spans.COUNTS}
    return ops, digests, counts


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", required=True)
    p.add_argument("--workloads", default=None)
    args = p.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    wl = worker._import_program()
    import spans
    golden = worker._load_golden()
    for workload in (args.workloads.split(",") if args.workloads else wl.WORKLOADS):
        for seed in seeds:
            ops, digests, counts = record(wl, spans, workload, seed)
            golden.setdefault("outputs", {}).setdefault(workload, {})[str(seed)] = digests
            golden.setdefault("counts", {}).setdefault(workload, {})[str(seed)] = counts
            fixed = golden.setdefault("fixed", {}).setdefault(workload, {})
            for op in ops:
                dg = digests[op.label]
                if op.fixed and fixed.setdefault(op.label, dg) != dg:
                    raise SystemExit(f"{workload}: output of {op.label} "
                                     f"depends on the seed")
            print(f"{workload} seed {seed}: {len(ops)} ops recorded", flush=True)
            with open(worker.GOLDEN, "w") as fh:
                json.dump(golden, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
