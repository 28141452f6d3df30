"""The benchmark under ``perfbench/`` reads each per-layer metric from a
function of this package, found by name: a function that is deleted, renamed
or made private drops its metric as absent.  The benchmark files are only
read here, never changed or installed."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import sharp_ineq

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_names_a_traced_function():
    for info in pkgutil.iter_modules(sharp_ineq.__path__):
        importlib.import_module(f"sharp_ineq.{info.name}")
    metrics, tracing = _load("metrics"), _load("tracing")
    traced = {name for name, _, _ in tracing.targets()}
    wanted = [layer for layer in metrics.PER_LAYER if layer.target is not None]
    assert wanted
    assert [layer.name for layer in wanted if layer.target not in traced] == []
