"""Every exact replay the benchmark can issue, against the Fractions it
recorded in ``perfbench/reference/exact.json``.  The file is only read here,
never changed."""

import json
from fractions import Fraction
from pathlib import Path

from sharp_ineq import oracle
from sharp_ineq.modulus import PowerModulus, TableModulus
from sharp_ineq.space import lattice

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "exact.json"


def _modulus(cfg: dict):
    if cfg["kind"] == "power":
        return PowerModulus(cfg["alpha"])
    return TableModulus([[Fraction(t), Fraction(w)] for t, w in cfg["points"]])


def test_exact_verify_matches_benchmark_reference():
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert len(reference) == 245
    wrong = {}
    for key, want in reference.items():
        tid, d, m, h, cfg = key.split("|", 4)
        rep = oracle.exact_verify(tid, lattice(int(d), int(m)), _modulus(json.loads(cfg)), Fraction(h))
        got = {name: str(Fraction(v)) for name, v in rep.exact.items()}
        if got != want:
            wrong[key] = got
    assert wrong == {}
