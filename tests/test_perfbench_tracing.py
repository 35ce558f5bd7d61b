"""The benchmark's traced run wraps simloc functions by name; a renamed or
deleted function must fail here rather than in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import simloc.sweep

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
