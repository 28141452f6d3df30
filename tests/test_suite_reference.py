"""The benchmark's own suite ops, replayed at Tier-1: every ``Suites`` op of
the cycles of workload seeds 0 to 20 (8 theorems, each at the 4 suite seeds
of its pool, 100 trials), all the keys of ``perfbench/reference/suites.json``,
must give the ``SuiteReport`` digest recorded there, so a moved bit fails
here before the benchmark's gate sees it.  The benchmark files are only
read, never changed or installed."""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_SEEDS = range(21)


@functools.lru_cache(maxsize=None)
def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _ops(seed: int) -> tuple:
    workloads = _load_workloads()
    suites = workloads.Suites(seed, str(ROOT))
    ops = [op for c in range(workloads.SUITE_POOL) for op in suites.cycle(c)]
    assert len(ops) == 32
    return suites, ops


def _replay(seed: int) -> None:
    suites, ops = _ops(seed)
    for op in ops:
        outcome = suites.check(op, op.call())
        assert outcome.fingerprint == suites.reference[op.key], op.key
        assert not outcome.failed, (op.key, outcome.reason)


def test_benchmark_suite_ops_match_their_reference_digests():
    _replay(1)


def test_benchmark_suite_ops_of_workload_seed_7_match_their_reference_digests():
    _replay(7)


@pytest.mark.parametrize("seed", [seed for seed in WORKLOAD_SEEDS if seed not in (1, 7)])
def test_benchmark_suite_ops_of_every_other_workload_seed_match_their_reference_digests(seed):
    _replay(seed)


def test_the_replayed_workload_seeds_cover_every_reference_key():
    keys = {op.key for seed in WORKLOAD_SEEDS for op in _ops(seed)[1]}
    assert len(keys) == 672
    assert keys == set(_ops(0)[0].reference)
