"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import re
from fractions import Fraction

import metrics
import stats
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# the tail rule
# ----------------------------------------------------------------------


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 101))          # 1..100, shuffled order must not matter
    value, pct, n = stats.tail(values[::-1])
    assert value == 90 and n == 100 and pct == 90.0
    assert sum(v > value for v in values) == 10


def test_tail_needs_eleven_samples():
    assert stats.tail(list(range(10))) is None
    value, pct, n = stats.tail(list(range(11)))
    assert (value, n) == (0, 11) and abs(pct - 100.0 / 11) < 1e-12


def test_tail_with_ties():
    values = [1.0] * 50 + [5.0] * 20
    value, pct, _ = stats.tail(values)
    assert value == 5.0 and abs(pct - 100.0 * 60 / 70) < 1e-12


def test_speed_correction_uses_local_calibration():
    lat = [2.0, 2.0, 2.0, 2.0]
    cal = [1.0, 1.0, 2.0, 2.0]
    assert stats.speed_corrected(lat, cal, 1.0, window=0) == [2.0, 2.0, 1.0, 1.0]
    # window 1: medians of [1, 1], [1, 1, 2], [1, 2, 2], [2, 2]
    assert stats.speed_corrected(lat, cal, 1.0, window=1) == [2.0, 2.0, 1.0, 1.0]
    assert stats.speed_corrected(lat, cal, 0.5, window=0)[0] == 1.0


# ----------------------------------------------------------------------
# self time on a span tree
# ----------------------------------------------------------------------


def test_self_time_arithmetic():
    # 0: root [0, 10]
    # 1: child [1, 3]   2: child [2, 4] (overlaps 1)   3: child [9, 12] (runs past root)
    # 4: grandchild of 1 [1.5, 2]
    start = [0.0, 1.0, 2.0, 9.0, 1.5]
    end = [10.0, 3.0, 4.0, 12.0, 2.0]
    parent = [-1, 0, 0, 0, 1]
    got = tracing.self_times(start, end, parent)
    # root: 10 - |[1, 4] U [9, 10]| = 10 - 4
    assert got == [6.0, 1.5, 2.0, 3.0, 0.5]


def test_aggregate_counts_recursion_once():
    store = tracing.SpanStore()
    a = store.intern("a")
    for s, e, p, rec in ((0.0, 4.0, -1, 0), (1.0, 2.0, 0, 1)):
        store.name_id.append(a)
        store.parent.append(p)
        store.op.append(0)
        store.recursive.append(rec)
        store.start.append(s)
        store.end.append(e)
    row = tracing.aggregate(store)["a"]
    assert row == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


# ----------------------------------------------------------------------
# wrappers: installed everywhere, removed without a trace
# ----------------------------------------------------------------------


def _snapshot():
    return [(ns, key, value) for ns, key, value in tracing.bindings()]


def test_install_and_remove_restore_every_binding():
    import sharp_ineq
    from sharp_ineq import cli, oracle

    before = _snapshot()
    original = oracle.random_suite
    store = tracing.SpanStore()
    tracer = tracing.install(store)
    try:
        assert oracle.random_suite is not original
        assert sharp_ineq.random_suite is oracle.random_suite
        assert cli.random_suite is oracle.random_suite
        assert cli._COMMANDS["verify"] is cli.cmd_verify
        assert cli.cmd_verify.__wrapped__ is not None
    finally:
        tracer.remove()
    after = _snapshot()
    assert len(before) == len(after)
    for (ns0, k0, v0), (ns1, k1, v1) in zip(before, after):
        assert ns0 is ns1 and k0 == k1
        assert v0 is v1, f"{k0} not restored"


def test_traced_calls_leave_outputs_unchanged():
    from sharp_ineq import oracle

    plain = oracle.random_suite("charge", 3, 7).to_json()
    store = tracing.SpanStore()
    tracer = tracing.install(store)
    try:
        traced = oracle.random_suite("charge", 3, 7).to_json()
    finally:
        tracer.remove()
    assert json.dumps(plain, sort_keys=True) == json.dumps(traced, sort_keys=True)
    layers = tracing.layer_metrics(store, tracer.wrapped, metrics.PER_LAYER, 0.0)
    assert layers["oracle.random_suite.charge.total_s"] > 0
    assert layers["operators.charge_seminorm.calls"] == 3
    assert layers["calculus.ball_integral_at.calls"] > 0
    assert layers["kernels.cone_eval.evals"] > 0
    assert layers["oracle.random_suite.self_s"] > 0


def test_removed_function_is_absent_not_zero():
    store = tracing.SpanStore()
    wrapped = {"oracle.random_suite"}
    layers = tracing.layer_metrics(store, wrapped, metrics.PER_LAYER, 0.5)
    assert "oracle.random_suite.self_s" in layers
    assert "kernels.ball_sums.calls" not in layers
    assert layers["trace.overhead_frac"] == 0.5


# ----------------------------------------------------------------------
# the correctness gate
# ----------------------------------------------------------------------


def test_gate_flags_tampered_suite_report():
    wl = workloads.Suites(1, ROOT)
    op = wl.cycle(0)[1]
    report = op.call()
    good = wl.check(op, report)
    assert not good.failed
    wl.reference = {op.key: good.fingerprint}
    assert not wl.check(op, report).failed
    tampered = dataclasses.replace(report, min_gap=report.min_gap + 1e-15)
    bad = wl.check(op, tampered)
    assert bad.failed and not bad.explained


def test_gate_flags_nonzero_fraction_gap():
    wl = workloads.Exact(1, ROOT)
    op = wl.cycle(0)[1]                       # nagy on lattice(1, 0), h = 3/2
    report = op.call()
    assert not wl.check(op, report).failed
    exact = dict(report.exact, gap=Fraction(1, 10**12))
    bad = wl.check(op, dataclasses.replace(report, exact=exact))
    assert bad.failed and not bad.explained


def test_only_monte_carlo_verify_configs_are_known_defects():
    for cmd, cfg, known in workloads.cli_configs(3):
        is_mc_verify = cmd == "verify" and cfg.get("method") == "monte_carlo"
        assert (known is not None) == is_mc_verify


def test_seed_fixes_inputs():
    assert workloads.cli_configs(5) == workloads.cli_configs(5)
    assert workloads.cli_configs(5) != workloads.cli_configs(6)
    a, b = workloads.Suites(5, ROOT), workloads.Suites(5, ROOT)
    assert [op.key for op in a.cycle(0)] == [op.key for op in b.cycle(0)]


# ----------------------------------------------------------------------
# BENCHMARK.json lists what the harness measures
# ----------------------------------------------------------------------


def test_benchmark_json_matches_metric_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    assert e2e == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (lay.name, lay.unit) for lay in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == ["suites", "exact", "cli"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
