"""One child process of the benchmark: either one set-up or one measured run.

    python3 perfbench/worker.py setup --workload W --seed N --dir D
    python3 perfbench/worker.py run --workload W --seed N --dir D --seconds S
                                    --trace 0|1 --result R

A set-up child imports the program, makes the inputs and writes them to D,
and prints its own set-up time.  A run child loads the inputs from D and
runs the workload's ops one after another, single-threaded, as one
closed-loop client: first one untimed run of each op marked warm, then
whole passes over the op list, as many as the workload's nominal pass time
fits into S seconds (at least one).  A fixed reference kernel is timed
before each timed execution, and the times are reported at the reference
speed (host_factor below).  With
--trace 1 the untraced passes are followed by as many traced passes (at
least two), which give the per-layer metrics and the tracing overhead.
Every output is checked after the timed section.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time

_T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDEN = os.path.join(HERE, "golden.json")

def _import_program():
    if not os.path.isfile(os.path.join(SRC, "artifact", "__init__.py")):
        raise SystemExit(f"program sources not found under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    return workloads


def environment() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


TAIL_BEYOND = 10  # samples that lie beyond the reported tail

# The shared host this benchmark was calibrated on changes speed by up to a
# third, in spells of tens of seconds to minutes that often span a whole
# run, so the same op takes 1.5 s in one run and 2.3 s in the next.  Each
# run therefore times a fixed reference kernel, independent of the program,
# before every timed execution; host_factor is the median kernel time over
# REF_NOMINAL_S, the kernel's time on that host at its fast speed.  The
# kernel mixes what the program spends its time on: an integer loop,
# Fraction arithmetic (allocation-heavy, as over Q) and in-place int64
# array arithmetic over 1 MB (as in the GF(p) identity kernel).  Reported
# times are raw times divided by host_factor: seconds at the reference
# speed.  The raw figures stay in the record.
REF_NOMINAL_S = 0.0075
SETUP_REFS = 15  # kernel runs after each set-up


_REF_ARRAYS = []


def reference_s() -> float:
    """Wall time of one run of the reference kernel.  Its arrays are made
    once, so that its time does not depend on the state the workload left
    the allocator in."""
    import numpy as np
    from fractions import Fraction
    if not _REF_ARRAYS:
        _REF_ARRAYS.extend([np.arange(1 << 17, dtype=np.int64),
                            np.empty(1 << 17, dtype=np.int64)])
    a, b = _REF_ARRAYS
    t = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    q = Fraction(0)
    for i in range(600):
        q += Fraction(i % 13, i % 11 + 1) * Fraction(3, i % 7 + 1)
    for _ in range(3):
        np.multiply(a, 3, out=b)
        np.add(b, 1, out=b)
        np.remainder(b, 5, out=b)
    return time.perf_counter() - t


def host_factor(ref_times) -> float:
    return statistics.median(ref_times) / REF_NOMINAL_S


def hd_quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of xs: the mean of all order
    statistics, the i-th of n weighted by the Beta((n+1)p, (n+1)(1-p))
    probability of [(i-1)/n, i/n].

    The latencies of a workload fall into clusters, one per kind of op, and
    the plain sample median is one execution at the edge of a cluster, so it
    carries all of that one moment's host noise.  This estimate draws on the
    executions around the quantile instead."""
    import numpy as np
    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    t = np.linspace(0.0, 1.0, 200001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], t)), cdf)
    edges[-1] = 1.0
    return float(np.diff(edges) @ xs)


def latency_metrics(latencies) -> dict:
    """Executions per second of busy time, the median latency, and the
    highest percentile with TAIL_BEYOND executions beyond it; both quantiles
    are Harrell-Davis estimates."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise SystemExit(f"{n} executions are too few for a tail")
    tail_p = (n - TAIL_BEYOND) / n
    return {"ops_per_s": n / sum(latencies),
            "op_p50_s": hd_quantile(latencies, 0.5),
            "op_tail_s": hd_quantile(latencies, tail_p),
            "tail_beyond": TAIL_BEYOND, "op_tail_percentile": 100.0 * tail_p,
            "op_p50_s_sample": statistics.median(latencies),
            "op_tail_s_sample": sorted(latencies)[n - TAIL_BEYOND - 1]}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_passes(ops, n_passes, tracer=None, warm_up=False, refs=None):
    """n_passes passes over ops.  A pass is made of rounds: round r runs
    every op with op.repeat > r, so the runs of a cheap op are spread over
    the pass instead of all falling into one moment of the host's load.
    With warm_up, one pass that runs each op marked warm once.  With a
    list refs, the reference kernel is timed before each run and its time
    appended.

    Returns, per pass and op, a list of (latency, output bytes or None,
    error text).  Output bytes are made after each run and are not part of
    its latency.
    """
    passes = []
    for _ in range(n_passes):
        rows = [[] for _ in ops]
        for r in range(max(op.repeat for op in ops)):
            for op, runs in zip(ops, rows):
                if r >= (op.warm if warm_up else op.repeat):
                    continue
                run = op.run
                if refs is not None:
                    refs.append(reference_s())
                if tracer is not None:
                    tracer.op = 0 if tracer.op is None else tracer.op + 1
                    run = tracer.wrap(op.run, "op")
                t = time.perf_counter()
                try:
                    result, err = run(), None
                except Exception as exc:  # counted as a failed op
                    result, err = None, f"{type(exc).__name__}: {exc}"
                lat = time.perf_counter() - t
                data = None
                if err is None:
                    try:
                        data = op.output(result)
                    except Exception as exc:
                        err = f"output: {type(exc).__name__}: {exc}"
                del result
                runs.append((lat, data, err))
        passes.append(rows)
    return passes


def _load_golden():
    try:
        with open(GOLDEN) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def check_passes(wl, workload, seed, ops, passes, golden):
    """Per-op failure reasons (None when the op's outputs are right)."""
    recorded = golden.get("outputs", {}).get(workload, {}).get(str(seed), {})
    fixed = golden.get("fixed", {}).get(workload, {})
    brute = {}
    reasons = []
    for i, op in enumerate(ops):
        outs = [run for rows in passes for run in rows[i]]
        err = next((e for _, _, e in outs if e), None)
        if err is None and len({d for _, d, _ in outs}) != 1:
            err = "output differs between runs"
        data = outs[0][1]
        if err is None:
            try:
                wl.check_output(workload, op, data, brute)
            except Exception as exc:  # a malformed output fails its op too
                err = f"{type(exc).__name__}: {exc}"
        want = recorded.get(op.label, fixed.get(op.label))
        if err is None and want is not None and want != digest(data):
            err = "output bytes differ from the recorded golden output"
        reasons.append(err)
    return reasons


def layer_metrics(tracer, n_passes) -> dict:
    """Per-layer seconds, per pass over the op list."""
    import spans
    out = {m: 0.0 for m in spans.SELF_TIME_METRIC.values()}
    for name, t in tracer.self_times().items():
        if name in spans.SELF_TIME_METRIC:
            out[spans.SELF_TIME_METRIC[name]] += t
    out = {m: v / n_passes for m, v in out.items()}
    op_s = sum(e - s for name, s, e, _, _ in tracer.spans
               if name == spans.OP_SPAN) / n_passes
    out["trace.op_s"] = op_s
    out["trace.remainder_s"] = op_s - sum(
        out[m] for m in spans.SELF_TIME_METRIC.values())
    return out


def _latencies(passes):
    return [lat for rows in passes for runs in rows for lat, _, _ in runs]


def cmd_setup(args):
    wl = _import_program()
    wl.make_inputs(args.workload, args.seed, args.dir, tiny=args.tiny)
    setup_s = time.perf_counter() - _T0
    # the host's speed right after, for scaling set-up time like op times
    factor = host_factor([reference_s() for _ in range(SETUP_REFS)])
    print(json.dumps({"setup_s": setup_s / factor, "raw_setup_s": setup_s,
                      "host_factor": factor}))


def cmd_run(args):
    wl = _import_program()
    import spans
    work = os.path.join(args.dir, "work")
    os.makedirs(work, exist_ok=True)
    ops = wl.load_ops(args.workload, args.dir, work)
    n_passes = wl.passes_for(args.workload, args.seconds)
    # caches and the interpreter's own specialisation settle before timing
    warm = run_passes(ops, 1, warm_up=True)
    refs = []
    passes = run_passes(ops, n_passes, refs=refs)
    raw = _latencies(passes)
    factor = host_factor(refs)
    res = {"env": environment(), "labels": [op.label for op in ops],
           "repeats": [op.repeat for op in ops], "passes": n_passes,
           "raw_latencies": raw, "ref_times": refs, "host_factor": factor,
           "latencies": [x / factor for x in raw],
           "raw": latency_metrics(raw)}
    res.update(latency_metrics(res["latencies"]))
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        traced, counts = [], []
        try:
            # at least two traced passes, for the repeat check on the counts
            for _ in range(max(2, n_passes)):
                # the reference kernel runs here too, so that the overhead
                # compares like with like
                traced += run_passes(ops, 1, tracer, refs=[])
                counts.append({k: tracer.counts[k] for k in spans.COUNTS})
                num, den = tracer.counts["_useful_num"], tracer.counts["_useful_den"]
                tracer.counts.clear()
        finally:
            tracer.unpatch()
        metrics = layer_metrics(tracer, len(traced))
        metrics.update(counts[0])
        metrics["algebra.suite_useful_frac"] = num / den if den else 0.0
        untraced_rate = res["raw"]["ops_per_s"]
        traced_lat = _latencies(traced)
        traced_rate = len(traced_lat) / sum(traced_lat)
        metrics["trace.untraced_ops_per_s"] = untraced_rate
        metrics["trace.traced_ops_per_s"] = traced_rate
        metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
        res["metrics"] = metrics
        res["counts_per_pass"] = counts
        res["counts_repeat"] = all(c == counts[0] for c in counts)
        res["spans"] = len(tracer.spans)
        spans_path = args.result[: -len(".json")] + ".spans.jsonl"
        tracer.dump(spans_path)
        passes += traced
    golden = _load_golden()
    reasons = check_passes(wl, args.workload, args.seed, ops, passes + warm, golden)
    if args.trace:
        with open(os.path.join(args.dir, "manifest.json")) as fh:
            tiny = json.load(fh)["tiny"]
        want = golden.get("counts", {}).get(args.workload, {}).get(str(args.seed))
        res["counts_match_golden"] = (tiny or want is None
                                      or want == res["counts_per_pass"][0])
    res["failures"] = {op.label: r for op, r in zip(ops, reasons) if r}
    # every execution of a failing op counts, in the untraced passes
    res["failed"] = sum(op.repeat for op, r in zip(ops, reasons) if r) * n_passes
    res["digests"] = [digest(runs[0][1]) if runs[0][1] is not None else None
                      for runs in passes[0]]
    with open(args.result, "w") as fh:
        json.dump(res, fh, sort_keys=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("role", choices=("setup", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    if args.role == "setup":
        cmd_setup(args)
    else:
        cmd_run(args)


if __name__ == "__main__":
    main()
