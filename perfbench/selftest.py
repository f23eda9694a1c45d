"""Fast self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with --tiny, untraced and traced, and
asserts that the last line is the result object, that it reports a correct
run, and that every metric BENCHMARK.json names is there, finite, and
carries its unit.  Also checks that the benchmark refuses to run, without
printing a result, when the program's sources are missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(bench, workload, trace, proc):
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True, proc.stdout
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert res["failed"] == 0
    want = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in want}, \
        set(res["metrics"]) ^ {m["name"] for m in want}
    for m in want:
        got = res["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}, got
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
    if not trace:
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in want), res["metrics"]


def check_refuses_without_sources(bench):
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_result(bench, w["name"], trace, run(ROOT, w["name"], trace))
            print(f"ok {w['name']} trace {trace}", flush=True)
    check_refuses_without_sources(bench)
    print("ok refuses to run without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
