"""The sharp_ineq benchmark.

    python3 perfbench/run.py --workload suites|exact|cli|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: the package is imported from ``src/``.
Each workload is a closed loop with one client (each op starts when the
previous one has returned), run in a fresh worker process.

With ``--trace 0`` it prints the end-to-end metrics: set-up time (median of
several fresh workers), items per second, op latency median and tail, peak
RSS, and the share of ops that passed the correctness gate.  Times are
scaled to a reference machine speed, measured by a fixed calibration loop
run after every op (see ``worker.py``); the raw figures are printed beside
them.  With
``--trace 1`` it runs the loop untraced, replays the same ops with every
package layer wrapped, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Result files with
the environment block go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("suites", "exact", "cli")
ITEM = {"suites": "suite trial", "exact": "exact replay", "cli": "CLI command"}
SETUP_WORKERS = 7
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"


class BenchError(RuntimeError):
    pass


def worker(mode: str, workload: str, seed: int, seconds: float, root: str, tag: str) -> dict:
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    result = os.path.join(root, OUT_DIR, f"worker-{os.getpid()}-{tag}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--root", root, "--result", result,
    ]
    timeout = SETUP_TIMEOUT_S if mode == "setup" else RUN_TIMEOUT_S
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out after {timeout} s") from exc
    try:
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}")
        with open(result, "r", encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        if os.path.exists(result):
            os.remove(result)


def end_to_end(workload: str, seed: int, seconds: float, root: str) -> dict:
    probes = [
        worker("setup", workload, seed, seconds, root, f"setup{i}")
        for i in range(SETUP_WORKERS)
    ]
    setups = [p["setup_corrected_s"] for p in probes]
    run = worker("run", workload, seed, seconds, root, "run")
    lat, raw = run["corrected_ms"], run["latencies_ms"]
    tail = stats.tail(lat)
    tail_ms, tail_pct = (tail[0], tail[1]) if tail else (max(lat), 100.0)
    raw_tail = stats.tail(raw)
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": run["items"] / (sum(lat) / 1e3),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_frac": 1.0 - run["failed"] / run["attempted"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh workers; "
                   f"raw {statistics.median(p['setup_s'] for p in probes):.4g} s",
        "items_per_s": f"item = one {ITEM[workload]}; {run['items']} items, {run['ops']} ops, "
                       f"{run['cycles']} cycles; raw {run['items'] / run['wall_s']:.6g} "
                       f"over {run['wall_s']:.2f} s wall",
        "op_p50_ms": f"n={len(lat)}; raw {statistics.median(raw):.6g} ms",
        "op_tail_ms": f"p{tail_pct:.2f}, n={len(lat)}, 10 samples beyond; "
                      f"raw {raw_tail[0] if raw_tail else max(raw):.6g} ms",
        "peak_rss_mb": "ru_maxrss of the run worker",
        "ok_frac": f"failed_frac {run['failed'] / run['attempted']:.6g} "
                   f"= {run['failed']}/{run['attempted']}",
    }
    return {
        "workload": workload,
        "trace": 0,
        "seed": seed,
        "seconds": seconds,
        "correct": bool(run["correct"] and run["warmup_correct"]),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "known_defects": run["known_defects"],
        "unexplained": run["unexplained"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in metrics.END_TO_END
        },
        "notes": notes,
        "setup_samples_s": setups,
        "calibration_median_ms": statistics.median(run["calibration_ms"]),
        "tail_percentile": tail_pct,
        "samples": len(lat),
        "env": run["env"],
    }


def per_layer(workload: str, seed: int, seconds: float, root: str) -> dict:
    run = worker("trace", workload, seed, seconds, root, "trace")
    units = {lay.name: lay.unit for lay in metrics.PER_LAYER}
    return {
        "workload": workload,
        "trace": 1,
        "seed": seed,
        "seconds": seconds,
        "correct": bool(run["correct"] and run["warmup_correct"]),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "known_defects": run["known_defects"],
        "unexplained": run["unexplained"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in run["layers"].items()
        },
        "absent": run["absent"],
        "notes": {
            "trace.overhead_frac": f"traced {run['traced_s']:.3f} s / untraced "
                                   f"{run['untraced_s']:.3f} s - 1 over {run['ops']} ops",
        },
        "spans": run["spans"],
        "span_file": run["span_file"],
        "env": run["env"],
    }


def show(res: dict) -> None:
    print(f"== {res['workload']}  seed={res['seed']}  seconds={res['seconds']:g}  "
          f"trace={res['trace']}  correct={str(res['correct']).lower()}  "
          f"failed={res['failed']}/{res['attempted']}")
    for name, m in res["metrics"].items():
        note = res["notes"].get(name, "")
        print(f"  {name:52s} {m['value']:>16.6g} {m['unit']:6s} {note}")
    for name in res.get("absent", ()):
        print(f"  {name:52s} {'absent':>16s}")
    for defect, count in res["known_defects"].items():
        print(f"  known defect, {count} ops: {defect}")
    for reason in res["unexplained"]:
        print(f"  UNEXPLAINED FAILURE: {reason}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="sharp_ineq benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sharp_ineq", "__init__.py")):
        print("perfbench: run from the root of a sharp_ineq checkout "
              "(src/sharp_ineq not found)", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    try:
        results = [measure(name, args.seed, args.seconds, root) for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for res in results:
        show(res)
        path = os.path.join(
            root, OUT_DIR, f"result-{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)

    if len(results) == 1:
        res = results[0]
        metric_values = res["metrics"]
    else:
        res = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
        metric_values = {
            f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()
        }
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metric_values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
