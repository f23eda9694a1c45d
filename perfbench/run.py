"""The benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up runs SETUPS times, each in a fresh
child process (import, input generation, file writing), and setup_s is the
median.  The workload then runs in one more child, pinned to one BLAS/OpenMP
thread, so that its peak RSS is the workload's own.  Times are reported at
the reference speed of the host (see worker.host_factor); the raw ones are
in the record.  With --trace 0 the last line of stdout is the end-to-end
metrics; with --trace 1 it is the per-layer metrics of a separate traced
run.  Workloads, metrics and the reasons for both are in
perfbench/README.md.  Everything written goes under .perfbench_out/ in the
checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUPS = 3
CHILD_TIMEOUT = 170  # seconds for the whole run, all children together
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def _spawn(args, deadline):
    """Run one worker child to completion and return its stdout."""
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args[0]} ran past the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: "
                         f"{err.decode(errors='replace').strip()[-2000:]}")
    return out.decode()


def _run_measured(args, deadline, log_path):
    """The measured child, reaped with wait4 so its own peak RSS is read."""
    env = dict(os.environ, **CHILD_ENV)
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT,
                                env=env, stdout=subprocess.DEVNULL, stderr=log)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise BenchError("workload child ran past the time limit")
            time.sleep(0.05)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        with open(log_path, "rb") as fh:
            err = fh.read().decode(errors="replace").strip()[-2000:]
        raise BenchError(f"workload child exited {proc.returncode}: {err}")
    return usage.ru_maxrss


def end_to_end(res, setup_times, maxrss_kib) -> dict:
    metrics = {k: (res[k], unit) for k, unit in
               (("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"))}
    metrics["peak_rss_mb"] = (maxrss_kib / 1024.0, "MB")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="artifact benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the self-test only")
    args = p.parse_args(argv)
    # on SIGTERM, unwind through the finally clauses that stop the children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + CHILD_TIMEOUT
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    tiny = ["--tiny"] if args.tiny else []
    try:
        setup_times, setup_raw, inputs = [], [], []
        for k in range(SETUPS):
            d = os.path.join(run_dir, f"setup{k}")
            out = _spawn(["setup"] + common + ["--dir", d] + tiny, deadline)
            got = json.loads(out.strip().splitlines()[-1])
            setup_times.append(got["setup_s"])
            setup_raw.append(got)
            inputs.append(_read_tree(d))
        if any(x != inputs[0] for x in inputs):
            raise BenchError("set-up made different inputs from one seed")
        result_path = os.path.join(OUT, tag + ".json")
        maxrss = _run_measured(["run"] + common + [
            "--dir", os.path.join(run_dir, "setup0"), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--result", result_path], deadline,
            os.path.join(run_dir, "stderr.log"))
        with open(result_path) as fh:
            res = json.load(fh)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = end_to_end(res, setup_times, maxrss)
    ops = len(res["latencies"])
    correct = not res["failures"]
    if args.trace:
        correct = correct and res["counts_repeat"] and res["counts_match_golden"]
        sys.path.insert(0, HERE)
        from spans import LAYER_UNITS
        shown = {k: (v, LAYER_UNITS[k]) for k, v in sorted(res["metrics"].items())}
    else:
        shown = metrics
    record = dict(res, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, setup_times=setup_times,
                  setup_raw=setup_raw,
                  end_to_end={k: v for k, (v, _) in metrics.items()},
                  failed_frac=res["failed"] / ops)
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)

    env = res["env"]
    print(f"# {args.workload} seed {args.seed}: {ops} executions in {res['passes']} "
          f"passes, op_tail_s is p{res['op_tail_percentile']:.1f} with "
          f"{res['tail_beyond']} beyond it, failed_frac "
          f"{res['failed'] / ops:.4f}; nproc {env['nproc']}, "
          f"{env['cpu_model']}, python {env['python']}, numpy {env['numpy']}")
    raw = res["raw"]
    print(f"# host_factor {res['host_factor']:.4f} (set-up "
          + ", ".join(f"{g['host_factor']:.4f}" for g in setup_raw)
          + f"); raw ops_per_s {raw['ops_per_s']!r}, op_p50_s "
          f"{raw['op_p50_s']!r}, op_tail_s {raw['op_tail_s']!r}, setup_s "
          f"{statistics.median(g['raw_setup_s'] for g in setup_raw)!r}")
    for label, reason in res["failures"].items():
        print(f"# FAILED {label}: {reason}")
    if args.trace and not res["counts_repeat"]:
        print("# FAILED exact counts differ between traced passes")
    if args.trace and not res["counts_match_golden"]:
        print("# FAILED exact counts differ from the recorded counts for this seed")
    for k, (v, unit) in shown.items():
        print(f"# {k} = {v!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": ops, "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in shown.items()},
    }))
    return 0


def _read_tree(d):
    files = {}
    for dirpath, _, names in os.walk(d):
        for n in names:
            path = os.path.join(dirpath, n)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, d)] = fh.read()
    return files


if __name__ == "__main__":
    sys.exit(main())
