"""One fresh workload process: set-up, timed phase, output checks.

``run.py`` starts this script once per sample, with the thread pools pinned
and ``PYTHONPATH`` pointing at the checkout's ``src``.  ``--t0`` is the
parent's ``time.monotonic()`` just before the spawn; CLOCK_MONOTONIC is
system-wide, so ``setup_s`` covers interpreter start, imports and the
workload's set-up.  Modes:

* ``warm``: import everything, report provenance and exit (fills the
  import and page caches);
* ``setup``: also build the workload, report ``setup_s`` and exit;
* ``run``: set up, time the workload, then check its outputs.

The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import simloc
import tracing
from workloads import WORKLOADS

# Counts that must repeat exactly between runs of one commit at one seed.
EXACT_COUNTS = (
    "multiport.lu.calls",
    "multiport.solve.rhs_cols",
    "simopt.iterations",
    "localizer.localize.calls",
    "localizer.steering_cols",
)


def _openblas_version():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def provenance() -> dict:
    return {
        "simloc": simloc.__version__,
        "simloc_path": str(Path(simloc.__file__).parent),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_version(),
        "python": sys.version.split()[0],
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _failure(name: str) -> dict:
    return {"name": name, "ok": False, "detail": traceback.format_exc(limit=-3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("warm", "setup", "run"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "trace": args.trace, "items": []}
    if args.mode == "warm":
        result["provenance"] = provenance()
        args.out.write_text(json.dumps(result))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.start()
    args.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            workload = WORKLOADS[args.workload](args.seed, args.work_dir)
        except Exception:
            result["items"].append(_failure("set-up"))
            args.out.write_text(json.dumps(result))
            return 0
        result["setup_s"] = time.monotonic() - args.t0
        result["items"].append({"name": "set-up", "ok": True, "detail": ""})
        if args.mode == "setup":
            args.out.write_text(json.dumps(result))
            return 0

        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            workload.run()
            ran = {"name": "timed phase", "ok": True, "detail": ""}
        except Exception:
            ran = _failure("timed phase")
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["items"].append(ran)
        if tracer is not None:
            tracer.stop()
            tracer.uninstall()
            metrics, notes = tracing.layer_metrics(tracer)
            result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            result["notes"] = notes
            result["exact_counts"] = {k: metrics[k][0] for k in EXACT_COUNTS}
            tracer.dump(args.out.with_suffix(".spans.json"))
        if ran["ok"]:
            try:
                result["items"] += workload.checks()
            except Exception:
                result["items"].append(_failure("output checks"))
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
