"""The benchmark's traced run wraps simloc functions by name; a renamed or
deleted function must fail here rather than in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import simloc.localizer
import simloc.sweep
from simloc.channel import steering_vector
from simloc.geometry import GeometryConfig, UncertaintyRegion, build_sim_geometry

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
