"""Quick check of the benchmark harness itself.

    python3 perfbench/selftest.py

Runs every workload, ``paper-config`` included, once with tracing off and
once traced, at the smallest setting (``--seconds 1``: one workload process
each).  It prints every metric by name with its unit, and fails on a
missing, extra or mis-unitized metric, a failed output check or a malformed
result line.  It also checks that the benchmark exits non-zero, without a
result, in a copy that holds only ``BENCHMARK.json`` and the benchmark's own
files.  About five minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=240)


def check_result(workload: str, trace: int) -> list:
    done = run_bench(ROOT, workload, trace)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {workload:13s} {line}")
    if done.returncode != 0 or not lines:
        return [f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        problems.append(f"metrics missing {missing}, extra {extra}, wrong unit {units}")
    for name, metric in result.get("metrics", {}).items():
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{name} is not a number")
    if not trace:
        problems += [f"{name} is not positive" for name, metric in result["metrics"].items()
                     if not metric["value"] > 0]
    return [f"{workload} trace {trace}: {p}" for p in problems]


def check_refuses_without_sources() -> list:
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(bare, "desk-sweep", 0)
    shutil.rmtree(bare, ignore_errors=True)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if done.returncode == 0 or last[0].startswith("{"):
        return ["a copy without the program's sources did not fail"]
    return []


def main() -> int:
    problems = check_refuses_without_sources()
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"{workload} trace {trace}", flush=True)
            problems += check_result(workload, trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
