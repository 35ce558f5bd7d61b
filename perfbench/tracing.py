"""Span recorder for the traced run.

Every layer is timed from outside the program: each layer's public functions
are replaced, for the life of one worker process, by wrappers installed on
the module attributes their callers look up at call time.  A few calls are
only counted, not timed (``steering_matrix`` inside the localizer and
scipy's ``minimize`` inside the optimizer), because a span there would move
their time out of the layer that calls them.  LU counts come from the
``scipy.linalg`` functions that ``simloc.multiport`` calls, never from
changing the program.

A span is ``[name, start, end, parent]``; spans stay in memory and are
written out when the worker ends.  A span's self time is its duration minus
that of its direct children.  The program is single-threaded here, so
children never overlap and their durations simply add.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.linalg

import simloc.bounds
import simloc.channel
import simloc.cli
import simloc.estimation
import simloc.localizer
import simloc.matio
import simloc.multiport
import simloc.simopt
import simloc.sweep
from simloc.errors import ConditioningError

LAYERS = (
    "cli", "channel", "multiport", "simopt", "estimation",
    "bounds", "localizer", "sweep", "matio",
)

# Modules whose namespace holds a reference to a wrapped layer function.
_CALLERS = (
    simloc.cli, simloc.sweep, simloc.simopt, simloc.multiport, simloc.channel,
    simloc.estimation, simloc.bounds, simloc.localizer, simloc.matio,
)

# (layer, function names) wrapped wherever a caller module imported them.
_LAYER_FUNCTIONS = {
    "channel": ("estimate_covariance", "reduce_subspace", "covariance_from_matrix"),
    "multiport": ("build_sim_network", "effective_projection_matrix", "row_orthonormality_gap"),
    "simopt": ("optimize", "optimize_multistart", "calibrate_projection"),
    "estimation": (
        "monte_carlo_mse", "mmse_full", "mmse_reduced", "mmse_post_sim",
        "rsls_ideal", "rsls_post_sim", "digital_baseline",
    ),
    "bounds": ("fim_peb", "mismatch_metrics", "mse_ratio_check"),
    "localizer": ("localize",),
    "sweep": ("run_sweep", "run_cell"),
    "matio": (
        "save_complex_matrix", "load_complex_matrix", "save_real_vector",
        "load_real_vector", "save_csv", "load_csv",
    ),
}

_CLI_COMMANDS = {
    "cmd_covariance": "covariance",
    "cmd_optimize_sim": "optimize-sim",
    "cmd_estimate": "estimate",
    "cmd_bounds": "bounds",
}


class _ModuleProxy:
    """Stands in for a module: overridden attributes first, the rest delegated."""

    def __init__(self, module, **overrides):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans and counts while ``active``; inert otherwise."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active = False
        self.window = [0.0, 0.0]
        self._stack = []
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, on_return=None):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result

        return wrapper

    def counter(self, fn, on_return):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                on_return(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- installation -------------------------------------------------------

    def install(self):
        hooks = {
            "monte_carlo_mse": _count_mc_trials,
            "optimize": _count_converged,
        }
        for layer, names in _LAYER_FUNCTIONS.items():
            for fname in names:
                original = getattr(getattr(simloc, layer), fname)
                hook = hooks.get(fname)
                if layer == "matio" and fname.startswith("save_"):
                    hook = _count_written
                for module in _CALLERS:
                    if module.__dict__.get(fname) is original:
                        self._patch(module, fname, self.span(f"{layer}.{fname}", original, hook))
        for fname, command in _CLI_COMMANDS.items():
            self._patch(simloc.cli, fname, self.span(f"cli.{command}", getattr(simloc.cli, fname)))
        self._patch(simloc.cli, "main", self.span("cli.main", simloc.cli.main))

        net_cls = simloc.multiport.SimNetwork
        self._patch(net_cls, "solve", self.span("multiport.solve", net_cls.solve, _count_rhs))
        lu = self.span("multiport.lu", scipy.linalg.lu_factor, _count_lu_flops)
        self._patch(simloc.multiport, "sla", _ModuleProxy(scipy.linalg, lu_factor=lu))
        self._patch(
            simloc.localizer, "steering_matrix",
            self.counter(simloc.localizer.steering_matrix, _count_steering_cols),
        )
        self._patch(simloc.simopt, "minimize", self.counter(simloc.simopt.minimize, _count_nit))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def start(self):
        self.window[0] = time.perf_counter()
        self.active = True

    def stop(self):
        self.active = False
        self.window[1] = time.perf_counter()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"window": self.window, "spans": self.spans}))


def _count_mc_trials(counts, args, kwargs, result):
    counts["estimation.mc_trials"] += kwargs["trials"] if "trials" in kwargs else args[2]


def _count_converged(counts, args, kwargs, trace):
    counts["simopt.converged"] += int(trace.converged)


def _count_written(counts, args, kwargs, result):
    counts["matio.files_written"] += 1
    counts["matio.bytes_written"] += os.path.getsize(args[0])


def _count_rhs(counts, args, kwargs, result):
    rhs = np.asarray(args[1])
    counts["multiport.solve.rhs_cols"] += 1 if rhs.ndim == 1 else rhs.shape[1]


def _count_lu_flops(counts, args, kwargs, result):
    n = np.asarray(args[0]).shape[0]
    counts["multiport.lu.gflop_computed"] += 8.0 / 3.0 * n**3 / 1e9


def _count_steering_cols(counts, args, kwargs, result):
    counts["localizer.steering_cols"] += len(args[1])


def _count_nit(counts, args, kwargs, result):
    counts["simopt.iterations"] += int(result.nit)


# -- per-layer metrics ---------------------------------------------------------


def _tail(durations_ms):
    """Highest percentile with at least ten samples beyond it (median floor)."""
    n = len(durations_ms)
    if n == 0:
        return 0.0, 0.0
    pct = max(50.0, 100.0 * (1.0 - 10.0 / n))
    return float(np.percentile(durations_ms, pct)), pct


def layer_metrics(tracer: Tracer):
    """Per-layer metrics of one traced process.

    Returns ``(metrics, notes)``: ``metrics`` maps name -> (value, unit);
    ``notes`` carries sample counts behind the percentiles.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = Counter()
    self_time = Counter()
    calls = Counter()
    durations = {}
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        calls[name] += 1
        durations.setdefault(name, []).append(1e3 * (end - start))
    layer_self = Counter()
    for name, s in self_time.items():
        layer_self[name.split(".", 1)[0]] += s

    # LUs made inside an optimizer restart, wherever that restart was called
    optimize_spans = {i for i, sp in enumerate(spans) if sp[0] == "simopt.optimize"}
    lu_in_restarts = 0
    for name, start, end, parent in spans:
        if name != "multiport.lu":
            continue
        while parent >= 0 and parent not in optimize_spans:
            parent = spans[parent][3]
        lu_in_restarts += parent >= 0

    c = tracer.counts
    restarts = calls["simopt.optimize"]
    localize_ms = durations.get("localizer.localize", [])
    tail_ms, tail_pct = _tail(localize_ms)
    window = tracer.window[1] - tracer.window[0]
    m = {
        "localizer.localize.calls": (calls["localizer.localize"], "count"),
        "localizer.localize.s": (total["localizer.localize"], "s"),
        "localizer.localize.p50_ms": (
            float(np.median(localize_ms)) if localize_ms else 0.0, "ms"),
        "localizer.localize.tail_ms": (tail_ms, "ms"),
        "localizer.steering_cols": (c["localizer.steering_cols"], "count"),
        "simopt.optimize.calls": (restarts, "count"),
        "simopt.optimize.s": (total["simopt.optimize"], "s"),
        "simopt.iterations": (c["simopt.iterations"], "count"),
        "simopt.lu_per_restart": (lu_in_restarts / restarts if restarts else 0.0, "count"),
        "simopt.converged_ratio": (c["simopt.converged"] / restarts if restarts else 0.0, "1"),
        "multiport.lu.calls": (calls["multiport.lu"], "count"),
        "multiport.lu.s": (total["multiport.lu"], "s"),
        "multiport.lu.gflop_computed": (c["multiport.lu.gflop_computed"], "GFLOP"),
        "multiport.solve.calls": (calls["multiport.solve"], "count"),
        "multiport.solve.rhs_cols": (c["multiport.solve.rhs_cols"], "count"),
        "multiport.solve.s": (self_time["multiport.solve"], "s"),
        "multiport.conditioning_errors": (
            c[f"multiport.solve.raised.{ConditioningError.__name__}"], "count"),
        "multiport.build_sim_network.s": (total["multiport.build_sim_network"], "s"),
        "channel.estimate_covariance.calls": (calls["channel.estimate_covariance"], "count"),
        "channel.estimate_covariance.s": (total["channel.estimate_covariance"], "s"),
        "estimation.monte_carlo_mse.calls": (calls["estimation.monte_carlo_mse"], "count"),
        "estimation.monte_carlo_mse.s": (total["estimation.monte_carlo_mse"], "s"),
        "estimation.mc_trials": (c["estimation.mc_trials"], "count"),
        "bounds.fim_peb.calls": (calls["bounds.fim_peb"], "count"),
        "bounds.fim_peb.s": (total["bounds.fim_peb"], "s"),
        "bounds.mismatch_metrics.s": (total["bounds.mismatch_metrics"], "s"),
        "sweep.run_cell.calls": (calls["sweep.run_cell"], "count"),
        "sweep.run_cell.s": (total["sweep.run_cell"], "s"),
        "sweep.run_cell.self_s": (self_time["sweep.run_cell"], "s"),
        "cli.covariance.s": (total["cli.covariance"], "s"),
        "cli.optimize-sim.s": (total["cli.optimize-sim"], "s"),
        "cli.estimate.s": (total["cli.estimate"], "s"),
        "cli.bounds.s": (total["cli.bounds"], "s"),
        "matio.files_written": (c["matio.files_written"], "count"),
        "matio.bytes_written": (c["matio.bytes_written"], "B"),
        "matio.s": (sum(t for n, t in total.items() if n.startswith("matio.")), "s"),
        "trace.window_s": (window, "s"),
        "trace.unattributed_s": (window - sum(layer_self.values()), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    n = len(localize_ms)
    notes = {
        "localizer.localize.tail_ms": f"p{tail_pct:g} of {n} calls" if n else "no calls",
        "localizer.localize.p50_ms": f"p50 of {n} calls" if n else "no calls",
    }
    return m, notes
