"""One benchmark worker: a fresh process that imports ``sharp_ineq``, builds
one workload's inputs from the seed, runs one warm-up op, and then

* ``--mode setup``: stops, reporting the time all that took;
* ``--mode run``:   runs the closed loop for ``--seconds`` (whole cycles),
                    timing each op, and reports latencies, gate outcomes and
                    peak RSS;
* ``--mode trace``: runs the closed loop untraced for half the time, then
                    replays the same ops with the tracing wrappers installed,
                    and reports the per-layer metrics and tracing overhead.

``run.py`` starts it and reads the JSON it writes to ``--result``.
"""

import time

T_START = time.perf_counter()  # before numpy and sharp_ineq are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_REASONS = 20
# The calibration loop runs after every op.  Its time tracks the speed the
# machine gives this process at that moment, which drifts by up to half on
# a host shared with other tenants; CAL_REFERENCE_S is its time at the
# speed the reported figures are scaled to.
CAL_ITERATIONS = 12_500
CAL_REFERENCE_S = 0.8e-3  # typical on an idle 2.1 GHz Xeon core
SETUP_CALIBRATIONS = 5


def calibrate() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Gate:
    """Collects op outcomes and checks that repeated inputs give repeated
    outputs."""

    def __init__(self):
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.known: dict = {}
        self.unexplained: list = []

    def record(self, op, outcome) -> None:
        prev = self.first.setdefault(op.key, outcome.fingerprint)
        if prev != outcome.fingerprint:
            outcome.failed, outcome.explained = True, False
            outcome.reason = "output differs from an earlier run of the same input"
        self.attempted += 1
        if not outcome.failed:
            return
        self.failed += 1
        if outcome.explained and op.known_defect:
            self.known[op.known_defect] = self.known.get(op.known_defect, 0) + 1
        else:
            self.unexplained.append(f"{op.key}: {outcome.reason}")

    @property
    def correct(self) -> bool:
        return not self.unexplained

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "known_defects": self.known,
            "unexplained": self.unexplained[:MAX_REASONS],
            "correct": self.correct,
        }


def run_op(workloads, wl, op):
    """Time the public call alone; the gate's check runs after the clock."""
    wl.prepare(op)
    t0 = time.perf_counter()
    try:
        result = op.call()
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        dt = time.perf_counter() - t0
        return dt, workloads.Outcome(None, True, False, f"raised {exc!r}")
    dt = time.perf_counter() - t0
    return dt, wl.check(op, result)


def closed_loop(workloads, wl, gate, seconds):
    """Whole cycles until ``seconds`` have passed; returns the ops run, their
    latencies, the calibration time after each, the wall time and the number
    of cycles."""
    ops, lat, cal = [], [], []
    t0 = time.perf_counter()
    c = 0
    while True:
        for op in wl.cycle(c):
            dt, outcome = run_op(workloads, wl, op)
            cal.append(calibrate())
            gate.record(op, outcome)
            ops.append(op)
            lat.append(dt)
        c += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return ops, lat, cal, time.perf_counter() - t0, c


def replay(workloads, wl, gate, ops, store=None):
    """Run ``ops`` again; returns their latencies and calibration times."""
    lat, cal = [], []
    for i, op in enumerate(ops):
        if store is not None:
            store.op_id = i
        dt, outcome = run_op(workloads, wl, op)
        if store is not None:
            store.op_id = -1
        cal.append(calibrate())
        gate.record(op, outcome)
        lat.append(dt)
    return lat, cal


def rerun_singletons(workloads, wl, gate, ops):
    """Run again, untimed, every CLI input the loop ran only once, so byte
    identity on rerun is checked for all of them."""
    counts: dict = {}
    for op in ops:
        counts[op.key] = counts.get(op.key, 0) + 1
    once = [op for op in ops if counts[op.key] == 1]
    replay(workloads, wl, gate, once)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))

    import workloads  # imports sharp_ineq

    wl = workloads.make(args.workload, args.seed, root)
    try:
        gate = Gate()
        first = wl.cycle(0)[0]
        gate.record(first, run_op(workloads, wl, first)[1])
        setup_s = time.perf_counter() - T_START
        result = {"setup_s": setup_s, "warmup_correct": gate.correct}
        if args.mode == "setup":
            cal = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
            result.update(gate.summary())
            result["setup_corrected_s"] = setup_s * CAL_REFERENCE_S / cal
        elif args.mode == "run":
            result.update(timed(workloads, wl, args, root))
        else:
            result.update(traced(workloads, wl, args, root))
    finally:
        wl.close()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def timed(workloads, wl, args, root) -> dict:
    import envinfo

    gate = Gate()
    ops, lat, cal, wall, cycles = closed_loop(workloads, wl, gate, args.seconds)
    items = sum(op.items for op in ops)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.RERUN_SINGLETONS:
        rerun_singletons(workloads, wl, gate, ops)
    corrected = stats.speed_corrected(lat, cal, CAL_REFERENCE_S)
    return {
        "wall_s": wall,
        "cycles": cycles,
        "ops": len(ops),
        "items": items,
        "latencies_ms": [x * 1e3 for x in lat],
        "corrected_ms": [x * 1e3 for x in corrected],
        "calibration_ms": [x * 1e3 for x in cal],
        "peak_rss_mb": rss_kb / 1024.0,
        **gate.summary(),
        "env": envinfo.collect(root, args.seed),
    }


def traced(workloads, wl, args, root) -> dict:
    import envinfo
    import metrics
    import tracing

    gate = Gate()
    ops, lat, cal, _, cycles = closed_loop(workloads, wl, gate, args.seconds / 2.0)
    store = tracing.SpanStore()
    tracer = tracing.install(store)
    try:
        lat_traced, cal_traced = replay(workloads, wl, gate, ops, store)
    finally:
        tracer.remove()
    untraced_s = sum(stats.speed_corrected(lat, cal, CAL_REFERENCE_S))
    traced_s = sum(stats.speed_corrected(lat_traced, cal_traced, CAL_REFERENCE_S))
    overhead = traced_s / untraced_s - 1.0
    layers = tracing.layer_metrics(store, tracer.wrapped, metrics.PER_LAYER, overhead)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    span_file = os.path.join(out_dir, f"spans-{args.workload}.tsv")  # latest run only
    store.write(span_file)
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "cycles": cycles,
        "ops": len(ops),
        "spans": len(store),
        "span_file": os.path.relpath(span_file, root),
        "layers": layers,
        "absent": [lay.name for lay in metrics.PER_LAYER if lay.name not in layers],
        **gate.summary(),
        "env": envinfo.collect(root, args.seed),
    }


if __name__ == "__main__":
    sys.exit(main())
