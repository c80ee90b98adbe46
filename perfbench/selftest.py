"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py            # from the repository root, ~3 minutes

Runs every workload at minimal length, untraced and traced, and asserts
that the last stdout line is a JSON object with exactly the keys `correct`,
`attempted`, `failed` and `metrics`; that the metric names and units are
exactly those BENCHMARK.json lists for the mode; that every value is a
finite number; and that every output check passed. It also asserts that
the benchmark exits non-zero without a result in a directory that holds
only BENCHMARK.json and perfbench/ (no sources to benchmark).
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 180


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(bench, workload, trace, proc):
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metric names or units differ from BENCHMARK.json"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], result
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, {result['attempted']} checks")


def check_refuses_without_sources(bench):
    bare = os.path.join(ROOT, ".perfbench_out", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "the benchmark ran without sources"
        assert '"metrics"' not in proc.stdout, "the benchmark printed a result without sources"
        print("ok  refuses to run without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check_refuses_without_sources(bench)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_result(bench, w["name"], trace, run(ROOT, w["name"], trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
