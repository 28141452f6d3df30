"""The benchmark's own suite ops, replayed at Tier-1: every ``Suites`` op of
the cycles of workload seeds 1 and 7 (8 theorems, each at the 4 suite seeds
of its pool, 100 trials) must give the ``SuiteReport`` digest recorded in
``perfbench/reference/suites.json``, so a moved bit fails here before the
benchmark's gate sees it.  The benchmark files are only read, never changed
or installed."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _replay(seed: int) -> None:
    workloads = _load_workloads()
    suites = workloads.Suites(seed, str(ROOT))
    ops = [op for c in range(workloads.SUITE_POOL) for op in suites.cycle(c)]
    assert len(ops) == 32
    for op in ops:
        outcome = suites.check(op, op.call())
        assert outcome.fingerprint == suites.reference[op.key], op.key
        assert not outcome.failed, (op.key, outcome.reason)


def test_benchmark_suite_ops_match_their_reference_digests():
    _replay(1)


def test_benchmark_suite_ops_of_workload_seed_7_match_their_reference_digests():
    _replay(7)
