"""The benchmark under ``perfbench/`` reads each per-layer metric from a
function of this package, found by name: a function that is deleted, renamed
or made private drops its metric as absent.  The benchmark files are only
read here, never changed or installed."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
import textwrap
from pathlib import Path

import sharp_ineq

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _import_package():
    for info in pkgutil.iter_modules(sharp_ineq.__path__):
        importlib.import_module(f"sharp_ineq.{info.name}")


def test_every_per_layer_metric_names_a_traced_function():
    _import_package()
    metrics, tracing = _load("metrics"), _load("tracing")
    traced = {name for name, _, _ in tracing.targets()}
    wanted = [layer for layer in metrics.PER_LAYER if layer.target is not None]
    assert wanted
    assert [layer.name for layer in wanted if layer.target not in traced] == []


def _argument_reads(tracing) -> list:
    """``(target, pos, name)`` for each ``_arg(args, kwargs, pos, "name")``
    in a post-call hook of ``tracing.POST``."""
    out = []
    for target, hook in tracing.POST.items():
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(hook)))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg":
                pos, name = (ast.literal_eval(a) for a in node.args[2:4])
                out.append((target, pos, name))
    return out


def test_tracer_reads_each_argument_at_its_position():
    # a counter reads a positional argument by index: a reordered or renamed
    # parameter would feed it another argument without any error
    _import_package()
    tracing = _load("tracing")
    functions = {name: fn for name, fn, _ in tracing.targets()}
    reads = _argument_reads(tracing)
    assert ("oracle.exact_holder_constant", 3, "window_radius") in reads
    for target, pos, name in reads:
        params = list(inspect.signature(functions[target]).parameters)
        assert params[pos] == name, (target, pos, name)
