"""The benchmark's traced run wraps simloc functions by name, and its
workloads call simloc by name; a renamed or deleted function must fail
here rather than in the benchmark."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import simloc.cli
import simloc.localizer
import simloc.simopt
import simloc.sweep
from simloc.channel import estimate_covariance, reduce_subspace, steering_vector
from simloc.geometry import (
    GainModel,
    GeometryConfig,
    UncertaintyRegion,
    build_sim_geometry,
    region_at,
)
from simloc.multiport import build_sim_network

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_by_path("perfbench_tracing", TRACING)


def _simloc_object(path):
    """The object a dotted ``simloc...`` path names; AttributeError or
    ImportError if there is none."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def _simloc_path(node):
    """``simloc.a.b`` for an attribute chain rooted at the name simloc."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "simloc":
        return ".".join(["simloc", *reversed(parts)])
    return None


def test_workload_set_ups_build_and_their_simloc_names_exist(tmp_path):
    # every simloc.<module>.<name> the workloads use, and each keyword they
    # pass to one, exists; the desk set-ups build and their CLI argv parse
    tree = ast.parse(WORKLOADS.read_text())
    paths, keywords = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "simloc":
            paths |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            paths |= {a.name for a in node.names if a.name.split(".")[0] == "simloc"}
        elif isinstance(node, ast.Attribute) and _simloc_path(node):
            paths.add(_simloc_path(node))
        elif isinstance(node, ast.Call) and _simloc_path(node.func):
            keywords += [(_simloc_path(node.func), k.arg) for k in node.keywords]
    assert {"simloc.channel.estimate_covariance", "simloc.sweep.run_sweep"} <= paths
    missing = []
    for path in sorted(paths):
        try:
            _simloc_object(path)
        except (AttributeError, ImportError):
            missing.append(path)
    assert not missing, f"perfbench/workloads.py uses missing {missing}"
    for path, keyword in keywords:
        assert keyword in inspect.signature(_simloc_object(path)).parameters, (path, keyword)

    workloads = load_by_path("perfbench_workloads", WORKLOADS)
    pipeline = workloads.DeskPipeline(1, tmp_path)
    parser = simloc.cli.build_parser()
    for argv in pipeline.argvs:
        parser.parse_args(argv)
    sweep_cell = workloads.DeskSweep(1, tmp_path)
    assert sweep_cell.cfg.sweep.distances_m == (workloads.SWEEP_CELL[0],)


def test_traced_names_exist_and_install_round_trips():
    tracing = load_tracing()
    for layer, names in tracing._LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"simloc.{layer}")
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"simloc.{layer} lacks traced {missing}"
    original = simloc.sweep.run_cell
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert simloc.sweep.run_cell is not original
    finally:
        tracer.uninstall()
    assert simloc.sweep.run_cell is original


def test_batched_localize_counts_one_coarse_grid():
    # the benchmark's localizer counters: one span per localize call and one
    # coarse grid per call, whatever the batch size; the Newton polish builds
    # no steering matrix
    tracing = load_tracing()
    sim, _ = build_sim_geometry(
        GeometryConfig(k_y=8, k_z=1, layers=1, carrier_frequency_hz=28e9)
    )
    region = UncertaintyRegion(center=(0.3, 0.0), diameter=0.1)
    cfg = simloc.localizer.LocalizerConfig(coarse_grid=8)
    n = 4
    rng = np.random.default_rng(0)
    batch = np.stack([steering_vector(sim, p) for p in region.sample(n, rng)])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.start()
        simloc.localizer.localize(batch, sim, region, cfg)
        tracer.stop()
    finally:
        tracer.uninstall()
    assert tracer.counts["localizer.steering_cols"] == cfg.coarse_grid**2
    assert [span[0] for span in tracer.spans] == ["localizer.localize"]


def test_optimizer_lus_are_traced():
    # the benchmark counts LUs by wrapping the scipy.linalg that multiport
    # calls at factorization time: every factorization the network performs
    # must show up as one multiport.lu span
    tracing = load_tracing()
    sim, rx = build_sim_geometry(
        GeometryConfig(k_y=8, k_z=1, layers=2, carrier_frequency_hz=28e9, receiver_elements=3)
    )
    net = build_sim_network(sim, rx)
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))
    misses = {"n": 0}
    factorization = net._factorization

    def counting_factorization():
        misses["n"] += net._fact is None
        return factorization()

    net._factorization = counting_factorization
    cfg = simloc.simopt.OptimizerConfig(rng_seed=3, max_iters=20, target_delta_u=0.0)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.start()
        simloc.simopt.optimize(net, u.conj().T, cfg)
        tracer.stop()
    finally:
        tracer.uninstall()
    lu_spans = sum(span[0] == "multiport.lu" for span in tracer.spans)
    assert misses["n"] > 0
    assert lu_spans == misses["n"]


def test_iterations_count_the_stage_the_stop_rule_ends():
    # simopt.iterations sums the accepted L-BFGS steps of every stage, the
    # stage the stop rule ends included; with trace_every = 1 each is one
    # trace row between the start row and the final row
    tracing = load_tracing()
    sim, rx = build_sim_geometry(
        GeometryConfig(k_y=16, k_z=1, layers=3, carrier_frequency_hz=28e9, receiver_elements=4)
    )
    cov = estimate_covariance(sim, region_at(0.4, 0.0, 0.2), GainModel(3.0), n_samples=2000, rng_seed=0)
    u, _ = reduce_subspace(cov, l_fixed=4)
    net = build_sim_network(sim, rx)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.start()
        trace = simloc.simopt.optimize(net, u.conj().T, simloc.simopt.OptimizerConfig(rng_seed=0))
        tracer.stop()
    finally:
        tracer.uninstall()
    assert trace.stopped_on_target
    # the stage the rule ended accepted steps before it fired
    assert trace.stage_bounds[-1] < len(trace.objective) - 1
    assert tracer.counts["simopt.iterations"] == len(trace.objective) - 2
