"""simloc benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 30 --trace 0

Every sample runs in a fresh worker process (``worker.py``) with OpenBLAS
and OpenMP pinned to one thread, importing simloc from this checkout's
``src``.  A warm-up process first fills the import and page caches; the
imports themselves are still paid, and timed, in every later process.

``--trace 0`` measures with tracing off: set-up-only processes plus workload
processes repeated until ``--seconds`` of timed work are done, and reports
the medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb``.  ``--trace 1``
runs the workload once untraced and once traced, and reports the per-layer
metrics of the traced process plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Per-run details (provenance, every sample, every check) are written to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("desk-pipeline", "desk-sweep", "paper-config")
SETUP_PROBES = 4  # set-up-only processes per run, on top of the workload processes
DEADLINE_S = 170.0  # a run must end within 180 s
PINNED_THREADS = "1"


class HarnessError(RuntimeError):
    pass


def _cache_sizes() -> dict:
    """Per-core L2 and shared L3 bytes from glibc's sysconf (no file is read)."""
    import ctypes

    codes = {"l2_bytes": 191, "l3_bytes": 194}  # _SC_LEVEL2/3_CACHE_SIZE
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
    except (OSError, AttributeError):
        return dict.fromkeys(codes)
    return {key: max(libc.sysconf(code), 0) or None for key, code in codes.items()}


def _source_hash() -> str:
    """Digest of the program and benchmark sources: identifies the code run."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


class Runner:
    """Starts worker processes for one workload and collects their results."""

    def __init__(self, workload: str, seed: int, run_dir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update(
            OPENBLAS_NUM_THREADS=PINNED_THREADS,
            OMP_NUM_THREADS=PINNED_THREADS,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
        )
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, mode: str, trace: bool = False) -> dict:
        self.count += 1
        stem = self.run_dir / f"{self.count:02d}-{mode}{'-traced' if trace else ''}"
        out, log = stem.with_suffix(".json"), stem.with_suffix(".log")
        with open(log, "w") as log_fh:
            t0 = time.monotonic()
            cmd = [
                sys.executable, str(HERE / "worker.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--mode", mode, "--trace", "1" if trace else "0",
                "--t0", repr(t0), "--out", str(out), "--work-dir", str(stem) + ".work",
            ]
            try:
                done = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=log_fh,
                                      stderr=subprocess.STDOUT, timeout=max(self.remaining(), 1.0))
            except subprocess.TimeoutExpired:
                raise HarnessError(f"{mode} process exceeded the run deadline; see {log}")
        if done.returncode != 0 or not out.exists():
            tail = log.read_text()[-2000:]
            raise HarnessError(f"{mode} process exited {done.returncode}; {log}:\n{tail}")
        return json.loads(out.read_text())


def _tally(results):
    items = [item for r in results for item in r["items"]]
    failed = [item for item in items if not item["ok"]]
    return len(items), failed


def measure(runner: Runner, seconds: float):
    """End-to-end metrics with tracing off."""
    samples = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    runs = []
    timed = 0.0
    while not runs or timed < seconds:
        if runs and runner.remaining() < 1.5 * max(r["wall_s"] + r["setup_s"] for r in runs):
            break
        runs.append(runner.spawn("run"))
        if "wall_s" not in runs[-1]:
            break  # set-up failed; the failure is already recorded
        timed += runs[-1]["wall_s"]
    complete = [r for r in runs if "wall_s" in r]
    detail = {
        "wall_s": [r["wall_s"] for r in complete],
        "setup_s": [r["setup_s"] for r in samples + runs if "setup_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in complete],
        "cpu_s": [r["cpu_s"] for r in complete],
    }
    metrics = {}
    if complete:
        metrics = {
            "wall_s": (statistics.median(detail["wall_s"]), "s"),
            "setup_s": (statistics.median(detail["setup_s"]), "s"),
            "peak_rss_mb": (statistics.median(detail["peak_rss_mb"]), "MB"),
        }
    return metrics, samples + runs, detail


def trace(runner: Runner):
    """Per-layer metrics from one traced process, against one untraced one."""
    plain = runner.spawn("run")
    traced = runner.spawn("run", trace=True)
    results = [plain, traced]
    if "layers" not in traced or "wall_s" not in plain:
        return {}, results, {}
    metrics = {k: (v["value"], v["unit"]) for k, v in traced["layers"].items()}
    metrics["process.cpu_s"] = (plain["cpu_s"], "s")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    traced["items"].append(_counts_repeat(runner, traced["exact_counts"]))
    detail = {"notes": traced["notes"], "exact_counts": traced["exact_counts"],
              "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}
    return metrics, results, detail


def _counts_repeat(runner: Runner, counts: dict) -> dict:
    """Flag drift of the exact counts against the last traced run of the
    same code at the same seed in this checkout."""
    path = OUT / "counts" / f"{runner.workload}-seed{runner.seed}.json"
    code = _source_hash()
    name = "exact counts repeat"
    if path.exists():
        previous = json.loads(path.read_text())
        if previous["code"] == code and previous["counts"] != counts:
            return {"name": name, "ok": False,
                    "detail": f"drift: was {previous['counts']}, now {counts}"}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"code": code, "counts": counts}, indent=1))
    return {"name": name, "ok": True, "detail": json.dumps(counts)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="simloc benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed work to collect per run (at least one workload process)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "simloc" / "__init__.py").is_file():
        print(f"error: no simloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir, deadline)
    try:
        warm = runner.spawn("warm")
        metrics, results, detail = trace(runner) if args.trace else measure(runner, args.seconds)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = _tally(results)
    prov = dict(warm["provenance"])
    prov.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        git_commit=_git_commit(), source_sha256=_source_hash(),
        nproc=len(os.sched_getaffinity(0)), cpu_count=os.cpu_count(), **_cache_sizes(),
    )
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"provenance": prov, "metrics": reported,
              "attempted": attempted, "failed": failed, "detail": detail}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))

    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = detail.get("notes", {}).get(name)
        print(f"{name:36s} {value:>16.6g} {unit}" + (f"  ({note})" if note else ""))
    for item in failed:
        print(f"FAILED {item['name']}: {item['detail']}")
    if not metrics:
        print("error: the workload produced no measurement", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
