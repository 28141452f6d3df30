"""Out-of-tree tracing of the ``sharp_ineq`` layers.

The package itself carries no instrumentation, so the traced run wraps it
from outside.  ``install`` replaces every public function of the traced
modules (plus a few listed methods) with a wrapper that records a span:
name, start, end, parent span and op id.  A function object is replaced
wherever the package holds it -- in every ``sharp_ineq.*`` module namespace,
in every class namespace, and as a value of module-level dicts (such as the
CLI's subcommand table) -- so calls made through ``from .x import f`` are
caught too.  ``Tracer.remove`` puts every original binding back.

Spans live in flat arrays and are written out once, at the end of the run.
Self time is computed afterwards from the span tree (``self_times``); counters
that need arguments or return values (points gathered, Fraction pairs, MC
samples, ...) are accumulated by the wrappers as the calls happen.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "sharp_ineq"
MODULES = (
    "space", "modulus", "_quad", "calculus", "extremals",
    "operators", "oracle", "cli", "_kernels", "_lattice",
)
# methods traced with a span, besides the modules' public functions;
# the span of ``Cls.__init__`` is named after the class (the constructor)
METHODS = (
    ("space", "Space", "sample_ball"),
    ("space", "Space", "enumerate_ball"),
    ("modulus", "TableModulus", "__init__"),
)
# methods only counted: they run per Fraction pair, where a span would
# cost more than the call it measures
COUNTED = (
    ("modulus", "PowerModulus", "eval_fraction", "modulus.eval_fraction.calls"),
    ("modulus", "TableModulus", "eval_fraction", "modulus.eval_fraction.calls"),
)
HYPERSINGULAR = "operators.hypersingular_full"


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------


class SpanStore:
    """Spans in flat arrays; ``recursive[i]`` marks a span nested inside
    another span of the same name (excluded from inclusive totals)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.recursive = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return nid

    def __len__(self):
        return len(self.start)

    def is_active(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and self.active[nid] > 0

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\top\tstart\tend\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name_id[i]]}\t{self.parent[i]}\t{self.op[i]}"
                    f"\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent, overlaps merged)."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0.0
        lo_run = hi_run = None
        for c in sorted(children.get(i, ()), key=lambda k: start[k]):
            lo, hi = max(start[c], s), min(end[c], e)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            elif hi > hi_run:
                hi_run = hi
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(e - s - covered)
    return out


def aggregate(store: SpanStore) -> dict:
    """Per span name: ``calls``, ``total_s`` (outermost spans only) and
    ``self_s``."""
    selfs = self_times(store.start, store.end, store.parent)
    out: dict[str, dict] = {}
    for i, nid in enumerate(store.name_id):
        row = out.setdefault(store.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if not store.recursive[i]:
            row["total_s"] += store.end[i] - store.start[i]
    return out


# ----------------------------------------------------------------------
# counters from arguments and return values
# ----------------------------------------------------------------------


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _random_suite(store, args, kwargs, result, dt, nested):
    if not nested:
        tid = _arg(args, kwargs, 0, "theorem_id")
        store.counters[f"oracle.random_suite.{tid}.total_s"] += dt


def _exact_verify(store, args, kwargs, result, dt, nested):
    if not nested:
        space = _arg(args, kwargs, 1, "space")
        store.counters[f"oracle.exact_verify.d{space.d}.total_s"] += dt


def _exact_holder_constant(store, args, kwargs, result, dt, nested):
    space = _arg(args, kwargs, 1, "space")
    r = int(_arg(args, kwargs, 3, "window_radius"))
    n = (r + 1) ** space.m * (2 * r + 1) ** (space.d - space.m)
    store.counters["oracle.exact_holder_constant.pairs"] += n * (n - 1) // 2


def _make_plan(store, args, kwargs, result, dt, nested):
    space = _arg(args, kwargs, 0, "space")
    radius = int(_arg(args, kwargs, 1, "window_radius"))
    offsets = result.offsets
    key = (space.kind, space.d, space.m, radius, offsets.shape,
           hashlib.blake2b(offsets.tobytes(), digest_size=16).digest())
    store.distinct["_lattice.make_plan"].add(key)
    store.counters["lattice.make_plan.padded_points"] += result.padded_points.shape[0]


def _window_points(store, args, kwargs, result, dt, nested):
    n = int(result.shape[0])
    store.counters["lattice.window_points.points"] += n
    if store.is_active(HYPERSINGULAR):
        store.counters["operators.hypersingular_full.lattice_points"] += n


def _cone_eval(store, args, kwargs, result, dt, nested):
    points = _arg(args, kwargs, 0, "points")
    centers = _arg(args, kwargs, 1, "centers")
    store.counters["kernels.cone_eval.evals"] += len(points) * len(centers)


def _ball_sums(store, args, kwargs, result, dt, nested):
    n = len(_arg(args, kwargs, 1, "base_idx"))
    k = len(_arg(args, kwargs, 2, "lin_offsets"))
    store.counters["kernels.ball_sums.gathers"] += n * k
    # gathered float64 values, the output row and the weights, from array sizes
    store.counters["kernels.ball_sums.bytes_computed"] += 8 * (n * k + n + k)


def _ball_integral_of_modulus(store, args, kwargs, result, dt, nested):
    store.counters[f"calculus.ball_integral_of_modulus.method.{result.method}.calls"] += 1


def _sample_ball(store, args, kwargs, result, dt, nested):
    store.counters["space.Space.sample_ball.samples"] += int(_arg(args, kwargs, 2, "n"))


def _cli_main(store, args, kwargs, result, dt, nested):
    if result != 0:
        store.counters["cli.main.nonzero_exit"] += 1


def _count_integrand(store, args, kwargs, nested):
    """Pre-call hook of ``adaptive_simpson``: count integrand evaluations.
    Nested calls receive the already counting integrand."""
    if nested or not args:
        return args
    f = args[0]
    counters = store.counters

    def counted(t):
        counters["quad.adaptive_simpson.evals"] += 1
        return f(t)

    return (counted,) + tuple(args[1:])


POST = {
    "oracle.random_suite": _random_suite,
    "oracle.exact_verify": _exact_verify,
    "oracle.exact_holder_constant": _exact_holder_constant,
    "_lattice.make_plan": _make_plan,
    "_lattice.window_points": _window_points,
    "_kernels.cone_eval": _cone_eval,
    "_kernels.ball_sums": _ball_sums,
    "calculus.ball_integral_of_modulus": _ball_integral_of_modulus,
    "space.Space.sample_ball": _sample_ball,
    "cli.main": _cli_main,
}
PRE = {"_quad.adaptive_simpson": _count_integrand}


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _span_wrapper(fn, name: str, store: SpanStore):
    nid = store.intern(name)
    post = POST.get(name)
    pre = PRE.get(name)
    clock = time.perf_counter
    stack, active = store.stack, store.active
    s_name, s_parent, s_op = store.name_id, store.parent, store.op
    s_rec, s_start, s_end = store.recursive, store.start, store.end

    def wrapper(*args, **kwargs):
        nested = active[nid] > 0
        if pre is not None:
            args = pre(store, args, kwargs, nested)
        idx = len(s_start)
        s_name.append(nid)
        s_parent.append(stack[-1] if stack else -1)
        s_op.append(store.op_id)
        s_rec.append(1 if nested else 0)
        s_end.append(0.0)
        stack.append(idx)
        active[nid] += 1
        t0 = clock()
        s_start.append(t0)
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            s_end[idx] = t1
            active[nid] -= 1
            stack.pop()
        if post is not None:
            post(store, args, kwargs, result, t1 - t0, nested)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _count_wrapper(fn, counter: str, store: SpanStore):
    counters = store.counters

    def wrapper(*args, **kwargs):
        counters[counter] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    return wrapper


def package_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def bindings() -> list:
    """Every place the package binds a value: ``(namespace, key, value)``
    for module attributes, class attributes of the package's classes, and
    values of module-level dicts.  Used to rebind and to check restoration."""
    out = []
    for mod in package_modules():
        for key, value in list(vars(mod).items()):
            out.append((mod, key, value))
            if isinstance(value, dict) and not key.startswith("__"):
                for k2, v2 in list(value.items()):
                    out.append((value, k2, v2))
            elif inspect.isclass(value) and value.__module__.startswith(PACKAGE):
                for k2, v2 in list(vars(value).items()):
                    out.append((value, k2, v2))
    return out


def _set(ns, key, value):
    if isinstance(ns, dict):
        ns[key] = value
    else:
        setattr(ns, key, value)


def targets() -> list:
    """``(span_or_counter_name, function, is_counter)`` for everything the
    traced run wraps; functions missing from the package are skipped."""
    out = []
    for short in MODULES:
        mod = sys.modules.get(f"{PACKAGE}.{short}")
        if mod is None:
            continue
        for key, value in vars(mod).items():
            if (
                not key.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == mod.__name__
            ):
                out.append((f"{short}.{key}", value, False))
    for short, cls_name, meth in METHODS:
        cls = getattr(sys.modules.get(f"{PACKAGE}.{short}"), cls_name, None)
        fn = vars(cls).get(meth) if cls is not None else None
        if inspect.isfunction(fn):
            name = f"{short}.{cls_name}" if meth == "__init__" else f"{short}.{cls_name}.{meth}"
            out.append((name, fn, False))
    for short, cls_name, meth, counter in COUNTED:
        cls = getattr(sys.modules.get(f"{PACKAGE}.{short}"), cls_name, None)
        fn = vars(cls).get(meth) if cls is not None else None
        if inspect.isfunction(fn):
            out.append((counter, fn, True))
    return out


class Tracer:
    """Installed wrappers and the bindings they replaced."""

    def __init__(self, store: SpanStore):
        self.store = store
        self.replaced: list = []
        self.wrapped: set[str] = set()

    def remove(self) -> None:
        for ns, key, original in reversed(self.replaced):
            _set(ns, key, original)
        self.replaced.clear()


def install(store: SpanStore) -> Tracer:
    """Wrap every target wherever the package binds it."""
    tracer = Tracer(store)
    wrappers = {}
    for name, fn, is_counter in targets():
        if id(fn) in wrappers:
            continue
        wrappers[id(fn)] = (
            _count_wrapper(fn, name, store) if is_counter else _span_wrapper(fn, name, store)
        )
        tracer.wrapped.add(name)
    try:
        for ns, key, value in bindings():
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                tracer.replaced.append((ns, key, value))
                _set(ns, key, wrapper)
    except BaseException:
        tracer.remove()
        raise
    return tracer


def layer_metrics(store: SpanStore, wrapped: set, layers, overhead: float) -> dict:
    """Values of the per-layer metrics; a metric whose traced function is
    not in ``wrapped`` is left out (absent), not reported as zero."""
    agg = aggregate(store)
    out = {}
    for layer in layers:
        if layer.target is None:
            out[layer.name] = overhead
            continue
        if layer.target not in wrapped:
            continue
        if layer.stat in ("calls", "total_s", "self_s"):
            out[layer.name] = agg.get(layer.target, {}).get(layer.stat, 0)
        elif layer.stat == "distinct_ratio":
            calls = agg.get(layer.target, {}).get("calls", 0)
            out[layer.name] = len(store.distinct[layer.target]) / calls if calls else 0.0
        else:
            out[layer.name] = store.counters.get(layer.name, 0)
    return out
