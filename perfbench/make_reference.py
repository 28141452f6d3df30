"""Record the correctness gate's reference outputs.

    python3 perfbench/make_reference.py

Run from the root of a checkout.  For every recorded workload seed (0 to 20)
it runs the ops the ``suites`` and ``exact`` workloads can issue (every
suite-seed pool entry, every seed-drawn table) and writes

* ``reference/suites.json``: sha256 of ``SuiteReport.to_json()`` per
  ``theorem:seed:trials``, which must stay bit-identical;
* ``reference/exact.json``: the exact ``lhs``, ``rhs_term1``, ``rhs_term2``
  and ``gap`` per replay, fixed by the mathematics.

An output that fails the semantic checks (a suite violation, a nonzero gap)
is not recorded: the script stops instead.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RECORDED_SEEDS = range(0, 21)


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import workloads

    suites, exact = {}, {}
    for seed in RECORDED_SEEDS:
        wl = workloads.Suites(seed, os.getcwd())
        wl.reference = {}
        for c in range(workloads.SUITE_POOL):
            for op in wl.cycle(c):
                outcome = wl.check(op, op.call())
                if outcome.failed:
                    raise SystemExit(f"not recorded, {op.key}: {outcome.reason}")
                suites[op.key] = outcome.fingerprint
        wl = workloads.Exact(seed, os.getcwd())
        wl.reference = {}
        for op in wl.cycle(0):
            if op.key in exact:
                continue
            report = op.call()
            outcome = wl.check(op, report)
            if outcome.failed:
                raise SystemExit(f"not recorded, {op.key}: {outcome.reason}")
            exact[op.key] = wl.fractions(report)
        print(f"seed {seed}: {len(suites)} suite digests, {len(exact)} exact replays", flush=True)

    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name, data in (("suites.json", suites), ("exact.json", exact)):
        with open(os.path.join(workloads.REFERENCE_DIR, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
