"""The benchmark's workloads: inputs drawn from the seed, the ops that feed
them to ``sharp_ineq``, and the correctness gate on the ops' outputs.

Each workload is a closed loop over a fixed *cycle* of ops; the seed draws
the parameters inside the cycle, never its structure, so every seed costs
about the same.  An op is one public call a user makes:

* ``suites`` -- ``oracle.random_suite(tid, 100, seed)`` for the 8 theorems;
* ``exact``  -- ``oracle.exact_verify`` on a ladder of lattice sizes;
* ``cli``    -- ``cli.main([...])`` on the shipped and on generated configs.

Ops look the public function up on its module at call time, so the traced
run's wrappers see them.  Importing this module imports ``sharp_ineq``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from sharp_ineq import cli, oracle
from sharp_ineq.modulus import PowerModulus, TableModulus
from sharp_ineq.space import lattice

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

THEOREMS = (
    "lemma1", "nagy", "nagy_l1", "sobolev", "charge",
    "hypersingular", "mixed_additive", "mixed_multiplicative",
)
EXACT_THEOREMS = ("lemma1", "nagy", "nagy_l1", "sobolev", "charge")
LATTICE_THEOREMS = EXACT_THEOREMS + ("hypersingular",)
SUITE_TRIALS = 100
SUITE_POOL = 4  # suite seeds per theorem; cycle c uses pool entry c % SUITE_POOL
# Seed-drawn tables, all in every cycle.  With two tables beside power(1),
# the cycle's median op falls inside the table replays of lattice(2, 1) at
# h = 3/2 rather than on the edge between their power and table replays,
# which differ by about 15 %.
EXACT_TABLES = 2
EXACT_LADDER = (
    (1, 0, "3/2"), (1, 0, "7/2"),
    (2, 0, "3/2"), (2, 0, "5/2"),
    (2, 1, "3/2"), (2, 1, "5/2"),
    (3, 0, "3/2"),
)
SHIPPED_CONFIGS = (
    ("constant", "constant_continuum.json"),
    ("verify", "verify_continuum.json"),
    ("verify", "verify_exact_lattice.json"),
    ("stechkin", "stechkin_line.json"),
    ("oracle", "oracle_quick.json"),
)
MC_SAMPLES = 50_000

# Known defects: an op tagged with one of these may fail in the named way
# without making the run incorrect; it still counts as failed.
MC_VERDICT = (
    "mc-verdict: continuum `verify` with method monte_carlo exits 1 because "
    "classify_verdict ignores Estimate.error_bound, so Monte Carlo noise "
    "marks rows Violated at the sharp extremals"
)


# Monte Carlo `verify` configs, fixed rather than seed-drawn: whether the
# defect above fires depends on the sign of the Monte Carlo error, which is
# about a coin flip per config and seed.  These two fire it (rows lemma1,
# hypersingular and mixed_additive Violated), so every seed shows it.
MC_VERIFY_CONFIGS = (
    {"space": {"kind": "continuum", "d": 2, "m": 0},
     "modulus": {"kind": "power", "alpha": 0.7}, "h_values": [0.8, 1.3],
     "method": "monte_carlo", "mc_samples": MC_SAMPLES, "seed": 9},
    {"space": {"kind": "continuum", "d": 3, "m": 1},
     "modulus": {"kind": "table",
                 "points": [["0", "0"], ["1/2", "1/2"], ["3/2", "5/6"], ["5/2", "1"]]},
     "h_values": [0.9, 1.6], "theorems": list(THEOREMS[:-1]),
     "method": "monte_carlo", "mc_samples": MC_SAMPLES, "seed": 1},
)


@dataclass
class Op:
    key: str                      # equal keys must give equal outputs
    items: int
    call: Callable[[], object]    # the public call, and nothing else
    known_defect: Optional[str] = None
    out_path: Optional[str] = None


@dataclass
class Outcome:
    """The gate's view of one op: what it produced, and whether it failed."""

    fingerprint: Optional[str]
    failed: bool = False
    explained: bool = True        # a failure covered by a named known defect
    reason: str = ""


def _load_reference(name: str) -> dict:
    path = os.path.join(REFERENCE_DIR, name)
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    RERUN_SINGLETONS = False

    def cycle(self, c: int) -> list:
        raise NotImplementedError

    def prepare(self, op: Op) -> None:
        """Runs before each op, outside its timing."""

    def close(self) -> None:
        """Removes what the workload wrote."""


# ======================================================================
# suites
# ======================================================================


class Suites(Workload):
    name = "suites"

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng([seed, 1])
        self.seeds = rng.integers(1, 2**31 - 1, size=(SUITE_POOL, len(THEOREMS))).tolist()
        self.reference = _load_reference("suites.json")

    @staticmethod
    def key(tid: str, seed: int, trials: int) -> str:
        return f"{tid}:{seed}:{trials}"

    def cycle(self, c: int) -> list:
        row = self.seeds[c % SUITE_POOL]
        return [self._op(tid, row[i]) for i, tid in enumerate(THEOREMS)]

    def _op(self, tid: str, seed: int) -> Op:
        return Op(
            key=self.key(tid, seed, SUITE_TRIALS),
            items=SUITE_TRIALS,
            call=lambda: oracle.random_suite(tid, SUITE_TRIALS, seed),
        )

    def check(self, op: Op, report) -> Outcome:
        text = json.dumps(report.to_json(), sort_keys=True)
        fp = hashlib.sha256(text.encode("utf-8")).hexdigest()
        ref = self.reference.get(op.key)
        if ref is not None and ref != fp:
            return Outcome(fp, True, False, "SuiteReport differs from the reference")
        if report.violations:
            return Outcome(fp, True, False, f"{report.violations} violations")
        return Outcome(fp)


# ======================================================================
# exact
# ======================================================================


EXACT_SLOPES = (
    (Fraction(7, 12), Fraction(2, 3), Fraction(3, 4)),
    (Fraction(1, 12), Fraction(1, 6)),
)


def exact_table(rng) -> list:
    """A concave rational table with nodes at t = 0, 1, 2.

    Every seed must cost the same: integer nodes keep the window the power
    modulus gives (the table is constant past t = 2), and the slopes are
    chosen so that no node value is an integer -- an integer-valued table
    replays as cheaply as power(1), a fractional one about 15 % slower."""
    first, second = EXACT_SLOPES
    s1 = first[int(rng.integers(len(first)))]
    s2 = second[int(rng.integers(len(second)))]
    return [["0", "0"], ["1", str(s1)], ["2", str(s1 + s2)]]


class Exact(Workload):
    name = "exact"

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng([seed, 2])
        self.tables = [exact_table(rng) for _ in range(EXACT_TABLES)]
        self.power = PowerModulus(1.0)
        self.moduli = [
            TableModulus([[Fraction(t), Fraction(w)] for t, w in table])
            for table in self.tables
        ]
        self.spaces = {(d, m): lattice(d, m) for d, m, _ in EXACT_LADDER}
        self.reference = _load_reference("exact.json")

    @staticmethod
    def key(tid: str, d: int, m: int, h: str, modulus_cfg: dict) -> str:
        return f"{tid}|{d}|{m}|{h}|{json.dumps(modulus_cfg, sort_keys=True)}"

    def cycle(self, c: int) -> list:
        moduli = [(self.power, {"kind": "power", "alpha": 1.0})] + [
            (omega, {"kind": "table", "points": table})
            for omega, table in zip(self.moduli, self.tables)
        ]
        ops = []
        for d, m, h in EXACT_LADDER:
            for omega, cfg in moduli:
                for tid in EXACT_THEOREMS:
                    ops.append(self._op(tid, self.spaces[(d, m)], omega, h, cfg))
        return ops

    def _op(self, tid, space, omega, h, cfg) -> Op:
        hq = Fraction(h)
        return Op(
            key=self.key(tid, space.d, space.m, h, cfg),
            items=1,
            call=lambda: oracle.exact_verify(tid, space, omega, hq),
        )

    @staticmethod
    def fractions(report) -> dict:
        return {k: str(Fraction(v)) for k, v in sorted(report.exact.items())}

    def check(self, op: Op, report) -> Outcome:
        got = self.fractions(report)
        fp = json.dumps({"verdict": report.verdict, **got}, sort_keys=True)
        ref = self.reference.get(op.key)
        if ref is not None and ref != got:
            return Outcome(fp, True, False, f"Fractions differ from the reference: {got}")
        if got["gap"] != "0" or report.verdict != "EqualityAttained":
            return Outcome(fp, True, False, f"gap {got['gap']}, {report.verdict}")
        return Outcome(fp)


# ======================================================================
# cli
# ======================================================================


def _power(rng) -> dict:
    return {"kind": "power", "alpha": round(float(rng.uniform(0.4, 1.0)), 3)}


def _table(rng) -> dict:
    """A concave table with two or three pieces, as rational strings."""
    n = int(rng.integers(2, 4))
    slopes = sorted({int(v) for v in rng.integers(1, 13, size=n)}, reverse=True)
    t = w = Fraction(0)
    pts = [["0", "0"]]
    for s in slopes:
        step = Fraction(int(rng.integers(1, 5)), 4)
        t += step
        w += step * Fraction(s, 12)
        pts.append([str(t), str(w)])
    return {"kind": "table", "points": pts}


def _h_values(rng, k: int, lo: float, hi: float) -> list:
    return sorted(round(float(v), 3) for v in rng.uniform(lo, hi, k))


def cli_configs(seed: int) -> list:
    """``(command, config, known_defect)`` for the seed-generated configs.

    The structure is fixed (space, method, theorem list, number of window
    scales); the seed draws moduli, scales and Monte Carlo seeds, except in
    the two ``MC_VERIFY_CONFIGS``.  Table configs list their theorems: the
    multiplicative mixed bound is stated for power moduli only.  Lattice
    configs leave out the two mixed bounds, which are continuum statements.
    The two d = 2 lattice configs, the slowest ops, both take power moduli:
    a table makes the full-tail sum about 20 % slower, and the tail
    percentile would then land on the power or the table op depending on
    how many cycles a run completes.
    """
    rng = np.random.default_rng([seed, 3])

    def space(kind, d, m):
        return {"kind": kind, "d": d, "m": m}

    def mc():
        return {"method": "monte_carlo", "mc_samples": MC_SAMPLES,
                "seed": int(rng.integers(1, 2**31 - 1))}

    no_mult = list(THEOREMS[:-1])
    return [
        ("constant", {"space": space("continuum", 1, 0), "modulus": _power(rng),
                      "h_values": _h_values(rng, 3, 0.5, 2.0), "method": "closed_form"}, None),
        ("constant", {"space": space("continuum", 2, 1), "modulus": _table(rng),
                      "h_values": _h_values(rng, 3, 0.5, 2.0), "method": "radial1d"}, None),
        ("constant", {"space": space("continuum", 3, 2), "modulus": _power(rng),
                      "h_values": _h_values(rng, 3, 0.5, 2.0), **mc()}, None),
        ("verify", {"space": space("continuum", 1, 1), "modulus": _power(rng),
                    "h_values": _h_values(rng, 2, 0.5, 2.0), "method": "closed_form"}, None),
        ("verify", {"space": space("continuum", 2, 0), "modulus": _table(rng),
                    "h_values": _h_values(rng, 2, 0.5, 2.0), "method": "radial1d",
                    "theorems": no_mult}, None),
        ("verify", {"space": space("continuum", 3, 1), "modulus": _power(rng),
                    "h_values": _h_values(rng, 2, 0.5, 2.0)}, None),
        ("verify", {"space": space("continuum", 2, 1), "modulus": _power(rng),
                    "h_values": _h_values(rng, 1, 0.5, 2.0), "method": "closed_form"}, None),
        ("verify", {"space": space("continuum", 2, 1), "modulus": _table(rng),
                    "h_values": _h_values(rng, 1, 0.5, 2.0), "theorems": no_mult}, None),
        ("verify", {"space": space("continuum", 3, 1), "modulus": _table(rng),
                    "h_values": _h_values(rng, 1, 0.5, 2.0), "method": "radial1d",
                    "theorems": no_mult}, None),
        ("constant", {"space": space("continuum", 3, 0), "modulus": _table(rng),
                      "h_values": _h_values(rng, 3, 0.5, 2.0), **mc()}, None),
        *(("verify", cfg, MC_VERDICT) for cfg in MC_VERIFY_CONFIGS),
        ("stechkin", {"space": space("continuum", 2, 0), "modulus": _power(rng),
                      "n_values": _h_values(rng, 4, 0.25, 8.0), "method": "closed_form"}, None),
        ("stechkin", {"space": space("continuum", 3, 1), "modulus": _table(rng),
                      "n_values": _h_values(rng, 4, 0.25, 8.0), "method": "radial1d"}, None),
        ("stechkin", {"space": space("continuum", 1, 0), "modulus": _power(rng),
                      "n_values": _h_values(rng, 4, 0.25, 8.0), **mc()}, None),
        ("verify", {"space": space("lattice", 1, 0), "modulus": _table(rng),
                    "h_values": _h_values(rng, 2, 1.1, 3.9),
                    "theorems": list(LATTICE_THEOREMS)}, None),
        ("verify", {"space": space("lattice", 2, 0), "modulus": _power(rng),
                    "h_values": _h_values(rng, 1, 1.1, 1.9),
                    "theorems": list(LATTICE_THEOREMS)}, None),
        ("verify", {"space": space("lattice", 2, 0), "modulus": _power(rng),
                    "h_values": _h_values(rng, 1, 1.1, 1.9),
                    "theorems": list(LATTICE_THEOREMS)}, None),
        ("oracle", {"mc_checks": "all", "seed": int(rng.integers(1, 2**31 - 1))}, None),
    ]


class Cli(Workload):
    name = "cli"
    RERUN_SINGLETONS = True  # byte identity on rerun is part of the gate

    def __init__(self, seed: int, root: str):
        self.dir = os.path.join(root, ".perfbench_out", f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        entries = [
            (cmd, os.path.join(root, "configs", fname), None) for cmd, fname in SHIPPED_CONFIGS
        ]
        for i, (cmd, cfg, known) in enumerate(cli_configs(seed)):
            path = os.path.join(self.dir, f"gen{i:02d}-{cmd}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=1, sort_keys=True)
            entries.append((cmd, path, known))
        self.ops = []
        for i, (cmd, path, known) in enumerate(entries):
            out = os.path.join(self.dir, f"out{i:02d}.txt")
            argv = [cmd, "--config", path, "--out", out]
            self.ops.append(Op(
                key=f"{i:02d}:{os.path.basename(path)}",
                items=1,
                call=lambda argv=argv: cli.main(argv),
                known_defect=known,
                out_path=out,
            ))

    def cycle(self, c: int) -> list:
        return self.ops

    def prepare(self, op: Op) -> None:
        if os.path.exists(op.out_path):
            os.remove(op.out_path)

    @staticmethod
    def check(op: Op, code) -> Outcome:
        try:
            with open(op.out_path, "rb") as fh:
                output = fh.read()
        except OSError:
            output = b""
        fp = f"{code}:{hashlib.sha256(output).hexdigest()}"
        violated = b"Violated" in output
        if code == 0 and not violated:
            return Outcome(fp)
        reason = f"exit {code}" + (", Violated rows" if violated else "")
        explained = op.known_defect is not None and code in (0, 1)
        return Outcome(fp, True, explained, reason)

    def close(self):
        for name in os.listdir(self.dir):
            os.remove(os.path.join(self.dir, name))
        os.rmdir(self.dir)


WORKLOADS = {"suites": Suites, "exact": Exact, "cli": Cli}


def make(name: str, seed: int, root: str):
    return WORKLOADS[name](seed, root)
