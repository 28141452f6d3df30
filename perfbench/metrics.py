"""Names, units and directions of the benchmark's metrics.

``END_TO_END`` is what a user of ``sharp_ineq`` sees, measured with tracing
off.  ``PER_LAYER`` comes from the traced run only; each entry names the
traced function (``target``) it is read from, so a metric whose function has
been removed is reported as absent, and the span statistic (``stat``) it
takes, or ``None`` for a counter kept under the metric's own name.  Metric
names drop the leading underscore of the private modules (``_lattice`` ->
``lattice``): a metric name starts with a letter or a digit.  ``BENCHMARK.json`` lists the same
metrics; a self-test keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.2),
    ("op_p50_ms", "ms", "lower", 0.2),
    ("op_tail_ms", "ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "frac", "higher", 0.05),
)

THEOREMS = (
    "lemma1", "nagy", "nagy_l1", "sobolev", "charge",
    "hypersingular", "mixed_additive", "mixed_multiplicative",
)


SPAN_STATS = {"calls": "count", "total_s": "s", "self_s": "s"}


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    target: Optional[str]   # traced function the metric is read from
    stat: Optional[str] = None


def public(target: str) -> str:
    return target.lstrip("_")


def _stats(target: str, stats: str) -> list:
    return [
        Layer(f"{public(target)}.{s}", SPAN_STATS.get(s, "count"), target,
              s if s in SPAN_STATS else None)
        for s in stats.split()
    ]


def _per_layer() -> tuple:
    out = []
    out += [Layer(f"oracle.random_suite.{t}.total_s", "s", "oracle.random_suite") for t in THEOREMS]
    out += _stats("oracle.random_suite", "self_s")
    out += [Layer(f"oracle.exact_verify.d{d}.total_s", "s", "oracle.exact_verify") for d in (1, 2, 3)]
    out += _stats("oracle.exact_verify", "self_s")
    out += _stats("oracle.exact_holder_constant", "calls self_s pairs")
    out += _stats("oracle.mc_cross_check", "total_s")
    out += _stats("modulus.TableModulus", "calls self_s")
    out += [Layer("modulus.eval_fraction.calls", "count", "modulus.eval_fraction.calls")]
    out += _stats("_lattice.make_plan", "calls self_s padded_points")
    out += [Layer("lattice.make_plan.distinct_ratio", "frac", "_lattice.make_plan", "distinct_ratio")]
    out += _stats("_lattice.evaluate_padded", "self_s")
    out += _stats("_lattice.window_points", "calls points self_s")
    out += _stats("_kernels.cone_eval", "calls self_s evals")
    out += _stats("_kernels.ball_sums", "calls self_s gathers")
    out += [Layer("kernels.ball_sums.bytes_computed", "bytes", "_kernels.ball_sums")]
    out += _stats("calculus.ball_integral_at", "calls self_s")
    out += _stats("calculus.ball_integral_of_modulus", "calls self_s")
    out += [
        Layer(f"calculus.ball_integral_of_modulus.method.{m}.calls", "count",
              "calculus.ball_integral_of_modulus")
        for m in ("closed_form", "radial1d", "monte_carlo", "lattice_exact")
    ]
    for fn in ("sup_norm", "l1_norm", "seminorm_local"):
        out += _stats(f"calculus.{fn}", "total_s")
    out += _stats("operators.charge_seminorm", "calls self_s total_s")
    out += _stats("operators.kernel_ball_mass", "total_s")
    out += _stats("operators.kernel_tail_mass", "total_s")
    out += _stats("operators.theorem_report", "total_s")
    out += _stats("operators.hypersingular_full", "total_s lattice_points")
    out += _stats("operators.stechkin_curve", "total_s")
    out += _stats("_quad.adaptive_simpson", "calls self_s evals")
    out += _stats("_quad.bisect_increasing", "calls")
    for fn in ("make_f_eh", "make_G_eh", "split_point_a"):
        out += _stats(f"extremals.{fn}", "total_s")
    out += [Layer("space.Space.sample_ball.samples", "count", "space.Space.sample_ball")]
    out += _stats("space.Space.enumerate_ball", "calls")
    out += _stats("cli.main", "self_s nonzero_exit")
    for cmd in ("constant", "verify", "stechkin", "oracle"):
        out += _stats(f"cli.cmd_{cmd}", "total_s")
    out += [Layer("trace.overhead_frac", "frac", None)]
    return tuple(out)


PER_LAYER = _per_layer()
