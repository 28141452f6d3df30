import argparse
import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sharp_ineq import (
    PowerModulus,
    QuadratureSpec,
    RequestError,
    Space,
    TableModulus,
    ball_integral_of_modulus,
    cli,
    continuum,
    exact_verify,
    extremals,
    lattice,
    modulus,
    operators,
    stechkin_curve,
    theorem_report,
)
from sharp_ineq.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture
def line_cfg(tmp_path):
    return write_cfg(
        tmp_path,
        "line.json",
        {
            "space": {"kind": "continuum", "d": 1, "m": 0},
            "modulus": {"kind": "power", "alpha": 1.0},
            "h_values": [1.0],
        },
    )


def run_cli(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_constant_golden_csv(capsys, line_cfg):
    code, out, err = run_cli(capsys, ["constant", "--config", line_cfg])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "d,m,alpha_or_modulus,h,mu,integral,deviation"
    assert lines[1] == "1,0,1,1,2,1,0.5"
    assert err == ""


def test_constant_json_format(capsys, line_cfg):
    code, out, _ = run_cli(capsys, ["constant", "--config", line_cfg, "--format", "json"])
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0]["deviation"] == 0.5


def test_verify_equality_line(capsys, line_cfg):
    code, out, _ = run_cli(capsys, ["verify", "--config", line_cfg])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("theorem_id,d,m,")
    body = "\n".join(lines[1:])
    assert "EqualityAttained" in body
    assert "Violated" not in body
    # all eight bounds are reported by default
    assert len(lines) == 9


def test_verify_exact_mode(capsys, tmp_path):
    cfg = write_cfg(
        tmp_path,
        "exact.json",
        {
            "space": {"kind": "lattice", "d": 1, "m": 0},
            "modulus": {"kind": "power", "alpha": 1.0},
            "h_values": ["3/2"],
            "exact": True,
            "theorems": ["lemma1", "nagy"],
        },
    )
    code, out, _ = run_cli(capsys, ["verify", "--config", cfg])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].endswith(",exact")
    for line in lines[1:]:
        assert line.endswith(",EqualityAttained,0")


@pytest.mark.parametrize("theorems, exact, want", [
    (None, False, [0.8, 1.3]),
    (["hypersingular", "mixed_multiplicative"], False, []),
    (["lemma1", "nagy", "charge"], True, []),
], ids=["every-theorem", "no-modulus-integral", "exact"])
def test_verify_computes_one_modulus_integral_per_h(capsys, tmp_path, monkeypatch,
                                                    theorems, exact, want):
    # the theorems at one h share one Monte Carlo I(h): 2 calls for two h
    # values where a call per theorem made 12
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return ball_integral_of_modulus(*args, **kwargs)

    for module in (cli, operators, extremals):
        monkeypatch.setattr(module, "ball_integral_of_modulus", counted)
    if exact:
        payload = {"space": {"kind": "lattice", "d": 2, "m": 0}, "h_values": ["3/2", "5/2"],
                   "exact": True}
    else:
        payload = {"space": {"kind": "continuum", "d": 2, "m": 0}, "h_values": [0.8, 1.3],
                   "method": "monte_carlo", "mc_samples": 2000, "seed": 3}
    payload["modulus"] = {"kind": "power", "alpha": 1.0}
    if theorems is not None:
        payload["theorems"] = theorems
    code, out, _ = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, "v.json", payload)])
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 1 + 2 * (len(theorems) if theorems else 8)
    assert calls == want


def test_verify_exact_rejects_continuum(capsys, tmp_path):
    cfg = write_cfg(
        tmp_path,
        "bad.json",
        {
            "space": {"kind": "continuum", "d": 1, "m": 0},
            "modulus": {"kind": "power", "alpha": 1.0},
            "h_values": [1.0],
            "exact": True,
        },
    )
    code, _, err = run_cli(capsys, ["verify", "--config", cfg])
    assert code == EXIT_CONFIG
    assert "lattice" in err


def test_verify_table_modulus_rational_points(capsys, tmp_path):
    cfg = write_cfg(
        tmp_path,
        "table.json",
        {
            "space": {"kind": "lattice", "d": 1, "m": 0},
            "modulus": {"kind": "table", "points": [[0, 0], [1, "2/3"], [2, 1]]},
            "h_values": ["3/2"],
            "exact": True,
            "theorems": ["nagy"],
        },
    )
    code, out, _ = run_cli(capsys, ["verify", "--config", cfg])
    assert code == EXIT_OK
    assert "EqualityAttained,0" in out


def test_stechkin_curve_halving(capsys, tmp_path):
    cfg = write_cfg(
        tmp_path,
        "curve.json",
        {
            "space": {"kind": "continuum", "d": 1, "m": 0},
            "modulus": {"kind": "power", "alpha": 1.0},
            "n_values": [0.5, 1, 2],
        },
    )
    code, out, _ = run_cli(capsys, ["stechkin", "--config", cfg])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "d,m,alpha_or_modulus,n,h,e_n"
    errs = [float(line.split(",")[-1]) for line in lines[1:]]
    assert errs == pytest.approx([0.5, 0.25, 0.125], rel=1e-9)


def test_oracle_json_sections(capsys, tmp_path):
    cfg = write_cfg(
        tmp_path,
        "oracle.json",
        {
            "suites": [{"theorem_id": "nagy", "trials": 10, "seed": 2}],
            "mc_checks": ["ball_integral"],
            "exact": [
                {
                    "theorem_id": "nagy",
                    "space": {"kind": "lattice", "d": 1, "m": 0},
                    "modulus": {"kind": "power", "alpha": 1.0},
                    "h": "3/2",
                }
            ],
        },
    )
    code, out, _ = run_cli(capsys, ["oracle", "--config", cfg])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["suites"][0]["violations"] == 0
    assert doc["mc_checks"][0]["ok"] is True
    assert doc["exact"][0]["exact"] == "0"


def test_oracle_rejects_csv(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "o.json", {"mc_checks": ["ball_integral"]})
    code, _, err = run_cli(capsys, ["oracle", "--config", cfg, "--format", "csv"])
    assert code == EXIT_CONFIG
    assert "json" in err


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, ["constant", "--config", "/nonexistent/x.json"])
    assert code == EXIT_CONFIG
    assert "cannot read" in err


def test_config_missing_modulus(capsys, tmp_path):
    cfg = write_cfg(
        tmp_path, "m.json", {"space": {"kind": "continuum", "d": 1, "m": 0}, "h_values": [1]}
    )
    code, _, err = run_cli(capsys, ["constant", "--config", cfg])
    assert code == EXIT_CONFIG
    assert "modulus" in err


LINE = {"kind": "continuum", "d": 1, "m": 0}
ZZ = {"kind": "lattice", "d": 1, "m": 0}
POWER1 = {"kind": "power", "alpha": 1.0}
TABLE = {"kind": "table", "points": [[0, 0], ["1/2", "2/5"], [2, 1]]}
# malformed table nodes, refused where the library parses them
BAD_NODES = {
    "word": [[0, 0], ["1", "x"], [2, 1]],
    "zero-denominator": [[0, 0], ["1", "1/0"], [2, 1]],
    "bare-numbers": [0, 1, 2],
    "beyond-float": [[0, 0], ["1", "1e400"], [2, "1e400"]],
}
BAD_NODE_CASES = [
    (command, {"kind": "table", "points": points}, f"{command}-table-{name}")
    for command in ("constant", "verify", "oracle")
    for name, points in BAD_NODES.items()
]


# a quadrature method asked for where it does not apply
METHOD_MISMATCHES = {
    "closed-form-table": ({"space": LINE, "modulus": TABLE, "method": "closed_form"},
                          "closed form"),
    "lattice-exact-continuum": ({"space": LINE, "modulus": POWER1, "method": "lattice_exact"},
                                "lattice"),
    "radial1d-lattice": ({"space": ZZ, "modulus": POWER1, "method": "radial1d"}, "continuum"),
}
METHOD_MISMATCH_CASES = [
    (command, {**payload, "h_values": [1.5]}, needle, f"{command}-{name}")
    for command in ("constant", "verify")
    for name, (payload, needle) in METHOD_MISMATCHES.items()
]


def _bad_node_payload(command, modulus):
    if command == "oracle":
        return {"exact": [{"theorem_id": "nagy", "space": ZZ, "modulus": modulus, "h": "3/2"}]}
    payload = {"space": ZZ, "modulus": modulus, "h_values": ["3/2"]}
    return {**payload, "exact": True} if command == "verify" else payload


@pytest.mark.parametrize(
    "command,payload,needle",
    [
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [-1]}, "positive"),
        ("constant", {"space": LINE, "modulus": POWER1, "h_values": [-1]}, "positive"),
        ("verify", {"space": ZZ, "modulus": POWER1, "h_values": [1.0]}, "h > 1"),
        (
            "verify",
            {"space": ZZ, "modulus": {"kind": "power", "alpha": 0.5},
             "h_values": ["3/2"], "exact": True},
            "rational modulus",
        ),
        ("oracle", {"suites": [{"theorem_id": "nagy", "trials": 0}]}, "trials"),
        ("constant", {"space": LINE, "modulus": POWER1, "h_values": [1], "seed": "s"}, "'seed'"),
        (
            "constant",
            {"space": LINE, "modulus": POWER1, "h_values": [1], "mc_samples": "many"},
            "'mc_samples'",
        ),
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [1], "tol": "tiny"}, "tiny"),
        ("oracle", {"suites": [{"theorem_id": "nagy", "trials": 2, "seed": "x"}]}, "suite 'seed'"),
        ("oracle", {"mc_checks": ["ball_integral"], "seed": "x"}, "'seed'"),
        ("stechkin", {"space": LINE, "modulus": POWER1, "n_values": [-2]}, "n_values"),
        ("verify", {"space": {**LINE, "d": 2.5}, "modulus": POWER1, "h_values": [1]}, "bad d"),
        ("constant", {"space": {**LINE, "m": 0.5}, "modulus": POWER1, "h_values": [1]}, "bad m"),
        ("oracle", {"suites": [{"theorem_id": "nagy", "trials": 2.7}]}, "suite 'trials'"),
        ("oracle", {"suites": [{"theorem_id": "nagy", "trials": 2, "seed": 1.9}]},
         "suite 'seed'"),
        (
            "constant",
            {"space": LINE, "modulus": POWER1, "h_values": [1], "mc_samples": 1000.9},
            "'mc_samples'",
        ),
        ("constant", {"space": LINE, "modulus": POWER1, "h_values": [1], "seed": True}, "'seed'"),
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [1], "tol": math.nan}, "finite"),
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [1], "tol": -1}, "'tol'"),
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [1], "tol": math.inf}, "finite"),
        ("verify", {"space": ZZ, "modulus": POWER1, "h_values": [math.inf]}, "finite"),
        ("verify", {"space": ZZ, "modulus": POWER1, "h_values": [math.inf], "exact": True},
         "finite"),
        ("oracle", {"exact": [{"theorem_id": "nagy", "space": ZZ, "modulus": POWER1,
                               "h": math.inf}]}, "finite"),
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [True]}, "True"),
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [1], "tol": False}, "False"),
        ("stechkin", {"space": LINE, "modulus": POWER1, "n_values": [True]}, "True"),
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [1], "exact": "no"},
         "'exact'"),
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [1], "kernel": 5}, "'kernel'"),
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [1],
                    "kernel": {"form": "table", "points": [[math.nan, 1]]}}, "finite"),
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [1],
                    "kernel": {"form": "table", "points": [[1, math.nan]]}}, "finite"),
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [1],
                    "kernel": {"form": "table", "points": [[1, math.inf]]}}, "finite"),
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [1],
                    "kernel": {"form": "power_law", "beta": True}}, "beta"),
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [10**400]}, "finite"),
        ("stechkin", {"space": LINE, "modulus": POWER1, "n_values": [10**400]}, "finite"),
        ("verify", {"space": LINE, "modulus": {"kind": "power", "alpha": True},
                    "h_values": [1]}, "True"),
        ("constant", {"space": {**LINE, "d": 2}, "modulus": POWER1, "h_values": [1],
                      "method": "monte_carlo", "mc_samples": 100, "seed": -1}, "'seed'"),
        ("oracle", {"suites": [{"theorem_id": "nagy", "trials": 2, "seed": -3}]},
         "suite 'seed'"),
        ("oracle", {"mc_checks": ["ball_integral"], "seed": -3}, "'seed'"),
        ("verify", {"space": ZZ, "modulus": POWER1, "h_values": [1.5],
                    "theorems": ["nagy", "mixed_additive"]}, "continuum statements"),
        ("verify", {"space": LINE, "modulus": TABLE, "h_values": [1],
                    "theorems": ["mixed_multiplicative"]}, "power moduli"),
        ("oracle", {"exact": [{"theorem_id": "nagy", "space": LINE, "modulus": POWER1,
                               "h": "3/2"}]}, "lattice"),
        ("oracle", {"exact": [{"space": ZZ, "modulus": POWER1, "h": "3/2"}]},
         "each exact entry needs a 'theorem_id'"),
        ("verify", {"space": LINE, "modulus": POWER1, "h_values": [1], "exact": True},
         "lattice"),
        ("stechkin", {"space": ZZ, "modulus": POWER1, "n_values": [1]}, "continuum"),
        ("stechkin", {"space": LINE, "modulus": POWER1, "n_values": [1],
                      "method": "lattice_exact"}, "lattice"),
        *[(c, _bad_node_payload(c, m), "bad modulus config") for c, m, _ in BAD_NODE_CASES],
        *[(c, payload, needle) for c, payload, needle, _ in METHOD_MISMATCH_CASES],
    ],
    ids=["verify-negative-h", "constant-negative-h", "lattice-h-1",
         "exact-irrational-alpha", "suite-zero-trials", "constant-bad-seed",
         "constant-bad-mc-samples", "verify-bad-tol", "suite-bad-seed",
         "mc-checks-bad-seed", "stechkin-negative-n", "fractional-d", "fractional-m",
         "fractional-trials", "fractional-suite-seed", "fractional-mc-samples",
         "boolean-seed", "nan-tol", "negative-tol", "infinite-tol", "lattice-infinite-h",
         "exact-infinite-h", "oracle-exact-infinite-h", "boolean-h", "boolean-tol",
         "boolean-n", "string-exact", "number-kernel", "nan-kernel-radius", "nan-kernel-value",
         "infinite-kernel-value", "boolean-beta", "huge-integer-h", "huge-integer-n",
         "boolean-alpha", "negative-seed", "negative-suite-seed", "negative-mc-checks-seed",
         "lattice-mixed-listed", "table-multiplicative-listed", "oracle-exact-continuum",
         "oracle-exact-no-theorem-id",
         "verify-exact-continuum", "stechkin-lattice", "stechkin-lattice-exact-continuum",
         *[name for _, _, name in BAD_NODE_CASES],
         *[name for _, _, _, name in METHOD_MISMATCH_CASES]],
)
def test_config_mistakes_exit_config(capsys, tmp_path, command, payload, needle):
    cfg = write_cfg(tmp_path, "bad.json", payload)
    code, out, err = run_cli(capsys, [command, "--config", cfg])
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and needle in err
    assert out == ""


@pytest.mark.parametrize(
    "tid,space,alpha",
    [("hypersingular", ZZ, 1.0), ("nagy", LINE, 1.0), ("nagy", ZZ, 0.5)],
    ids=["non-exact-theorem", "continuum", "irrational-alpha"],
)
def test_exact_mistakes_read_as_the_library_refusal(capsys, tmp_path, tid, space, alpha):
    # one rule: exact_verify's ValueError is, word for word, both commands' config error
    modulus = {"kind": "power", "alpha": alpha}
    with pytest.raises(ValueError) as refusal:
        exact_verify(tid, Space.from_config(space), PowerModulus(alpha), Fraction(3, 2))
    payloads = {
        "verify": {"space": space, "modulus": modulus, "h_values": ["3/2"], "exact": True,
                   "theorems": [tid]},
        "oracle": {"exact": [{"theorem_id": tid, "space": space, "modulus": modulus,
                              "h": "3/2"}]},
    }
    for command, payload in payloads.items():
        cfg = write_cfg(tmp_path, f"{command}.json", payload)
        code, out, err = run_cli(capsys, [command, "--config", cfg])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"config error: {refusal.value}\n"


@pytest.mark.parametrize(
    "refuse,command,payload",
    [
        (lambda: theorem_report("mixed_additive", lattice(1, 0), PowerModulus(1.0), 1.5),
         "verify", {"space": ZZ, "modulus": POWER1, "h_values": [1.5],
                    "theorems": ["mixed_additive"]}),
        (lambda: stechkin_curve(lattice(1, 0), PowerModulus(1.0), [1.0]),
         "stechkin", {"space": ZZ, "modulus": POWER1, "n_values": [1]}),
        (lambda: QuadratureSpec(mc_samples=1),
         "constant", {"space": LINE, "modulus": POWER1, "h_values": [1],
                      "method": "monte_carlo", "mc_samples": 1}),
        (lambda: ball_integral_of_modulus(continuum(1, 0), TableModulus(TABLE["points"]), 1.0,
                                          QuadratureSpec(method="closed_form")),
         "constant", {"space": LINE, "modulus": TABLE, "h_values": [1],
                      "method": "closed_form"}),
    ],
    ids=["lattice-mixed", "stechkin-lattice", "one-mc-sample", "closed-form-table"],
)
def test_request_mistakes_read_as_the_library_refusal(capsys, tmp_path, refuse, command,
                                                      payload):
    # one rule, one text: the library's RequestError is, word for word, the config error
    with pytest.raises(RequestError) as refusal:
        refuse()
    cfg = write_cfg(tmp_path, "bad.json", payload)
    code, out, err = run_cli(capsys, [command, "--config", cfg])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"config error: {refusal.value}\n"


# error types that main alone maps to an exit code
_MAPPED = {"ValueError", "TypeError", "KeyError", "ZeroDivisionError"}
_MAY_CATCH = {"main"}


def _caught_names(handler: ast.ExceptHandler) -> set:
    if handler.type is None:  # a bare except catches every type
        return set(_MAPPED)
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(handler.type) if isinstance(n, (ast.Name, ast.Attribute))}


def test_only_main_maps_library_errors_to_exit_codes():
    tree = ast.parse(Path(cli.__file__).read_text())
    wrappers = sorted(
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name not in _MAY_CATCH
        for handler in ast.walk(fn)
        if isinstance(handler, ast.ExceptHandler) and _caught_names(handler) & _MAPPED
    )
    assert wrappers == [], "re-wrapped library errors; raise RequestError in the library"


@pytest.mark.parametrize(
    "space,modulus,want",
    [
        (ZZ, POWER1, ["lemma1", "nagy", "nagy_l1", "sobolev", "charge", "hypersingular"]),
        (LINE, TABLE, ["lemma1", "nagy", "nagy_l1", "sobolev", "charge", "hypersingular",
                       "mixed_additive"]),
    ],
    ids=["lattice", "table"],
)
def test_verify_defaults_to_the_applicable_theorems(capsys, tmp_path, space, modulus, want):
    cfg = write_cfg(tmp_path, "default.json", {"space": space, "modulus": modulus,
                                               "h_values": [1.5]})
    code, out, err = run_cli(capsys, ["verify", "--config", cfg])
    assert code == EXIT_OK and err == ""
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[0] for row in rows] == want
    assert {row[-1] for row in rows} == {"EqualityAttained"}


def test_seed_flag_must_be_nonnegative(capsys, line_cfg):
    code, out, err = run_cli(capsys, ["constant", "--config", line_cfg, "--seed", "-1"])
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and "--seed must be a nonnegative integer" in err
    assert out == ""


def test_seed_flag_checked_when_no_seed_is_read(capsys, tmp_path):
    # an exact-only oracle config draws no random number, and still refuses
    payload = {"exact": [{"theorem_id": "nagy", "space": ZZ, "modulus": POWER1, "h": "3/2"}]}
    cfg = write_cfg(tmp_path, "exact_only.json", payload)
    code, out, _ = run_cli(capsys, ["oracle", "--config", cfg])
    assert code == EXIT_OK and out
    code, out, err = run_cli(capsys, ["oracle", "--config", cfg, "--seed", "-1"])
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and "--seed must be a nonnegative integer" in err
    assert out == ""


def test_alpha_string_reads_as_its_number(capsys, tmp_path):
    outs = []
    for alpha in ("1/2", 0.5):
        payload = {"space": LINE, "modulus": {"kind": "power", "alpha": alpha},
                   "h_values": [1, "3/2"]}
        cfg = write_cfg(tmp_path, "a.json", payload)
        code, out, err = run_cli(capsys, ["verify", "--config", cfg])
        assert code == EXIT_OK and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


# Every config number, one per field: the command, a payload with the JSON
# text of the number at "@N@", the words naming the field in a refusal, and
# two (number, equivalent JSON float) pairs, an int and a "p/q" string.
NUMBER_FIELDS = {
    "h_values": ("verify", {"space": LINE, "modulus": POWER1, "h_values": ["@N@"]},
                 "'h_values'", [("2", "2.0"), ('"3/2"', "1.5")]),
    "exact-h": ("oracle", {"exact": [{"theorem_id": "nagy", "space": ZZ, "modulus": POWER1,
                                      "h": "@N@"}]},
                "'h'", [("2", "2.0"), ('"21/10"', "2.1")]),
    "alpha": ("constant", {"space": LINE, "modulus": {"kind": "power", "alpha": "@N@"},
                           "h_values": [1.5]},
              "alpha", [("1", "1.0"), ('"1/2"', "0.5")]),
    "table-node": ("constant", {"space": LINE, "modulus": {"kind": "table",
                                                            "points": [[0, 0], ["@N@", 1], [4, 2]]},
                                "h_values": [1.5]},
                   "table node", [("1", "1.0"), ('"1/2"', "0.5")]),
    "kernel-beta": ("verify", {"space": ZZ, "modulus": POWER1, "h_values": [2.5],
                               "theorems": ["hypersingular"],
                               "kernel": {"form": "power_law", "beta": "@N@"}},
                    "kernel beta", [("2", "2.0"), ('"1/4"', "0.25")]),
    "kernel-cutoff": ("verify", {"space": ZZ, "modulus": POWER1, "h_values": [2.5],
                                 "theorems": ["hypersingular"],
                                 "kernel": {"form": "power_law", "beta": 0.5, "cutoff": "@N@"}},
                      "kernel cutoff", [("3", "3.0"), ('"7/2"', "3.5")]),
    "kernel-node": ("verify", {"space": LINE, "modulus": POWER1, "h_values": [1],
                               "theorems": ["hypersingular"],
                               "kernel": {"form": "table", "points": [["@N@", 1], [4, 0.5]]}},
                    "kernel node", [("1", "1.0"), ('"1/2"', "0.5")]),
    "tol": ("verify", {"space": LINE, "modulus": POWER1, "h_values": [1], "tol": "@N@"},
            "'tol'", [("0", "0.0"), ('"1/4"', "0.25")]),
    "n_values": ("stechkin", {"space": LINE, "modulus": POWER1, "n_values": ["@N@"]},
                 "'n_values'", [("2", "2.0"), ('"3/2"', "1.5")]),
}
# refused in every field; a string beyond the float range exited 3 at the parent
BAD_NUMBERS = {"true": "true", "nan": "NaN", "json-1e999": "1e999", "string-1e999": '"1e999"',
               "zero-denominator": '"1/0"', "word": '"x"'}


def _run_number(capsys, tmp_path, field, text):
    command, payload, _, _ = NUMBER_FIELDS[field]
    path = tmp_path / f"{field}.json"
    path.write_text(json.dumps(payload).replace('"@N@"', text))
    return run_cli(capsys, [command, "--config", str(path)])


@pytest.mark.parametrize("kind", ["int", "string"])
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_config_numbers_read_one_way(capsys, tmp_path, field, kind):
    # an int or a "p/q" string prints the bytes of the JSON float it equals
    text, float_text = NUMBER_FIELDS[field][3][kind == "string"]
    want = _run_number(capsys, tmp_path, field, float_text)
    assert want[0] == EXIT_OK and want[1] and want[2] == ""
    assert _run_number(capsys, tmp_path, field, text) == want


@pytest.mark.parametrize("bad", BAD_NUMBERS)
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_config_number_mistakes_name_their_field(capsys, tmp_path, field, bad):
    code, out, err = _run_number(capsys, tmp_path, field, BAD_NUMBERS[bad])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error:") and NUMBER_FIELDS[field][2] in err


def test_library_reads_config_numbers_as_the_cli_does():
    assert modulus.from_config({"kind": "power", "alpha": "1/2"}) == PowerModulus(0.5)
    with pytest.raises(RequestError, match="alpha"):
        modulus.from_config({"kind": "power", "alpha": True})
    assert operators.kernel_from_config({"form": "power_law", "beta": "1/4"}) == \
        operators.PowerLawKernel(beta=0.25)


@pytest.mark.parametrize("command, payload, needle", [
    ("constant", {"space": LINE, "modulus": POWER1, "h_values": [1], "method": "monte_carlo",
                  "mc_samples": 1e12}, "Monte Carlo samples"),
    ("constant", {"space": LINE, "modulus": POWER1, "h_values": [1], "method": "monte_carlo",
                  "mc_samples": 2**22 + 1}, "Monte Carlo samples"),
    ("oracle", {"suites": [{"theorem_id": "charge", "trials": 1e9}]}, "suite 'trials'"),
    ("oracle", {"suites": [{"theorem_id": "mixed_additive", "trials": 10**5 + 1}]},
     "suite 'trials'"),
], ids=["mc-samples-1e12", "mc-samples-budget", "trials-1e9", "trials-budget"])
def test_config_sizes_refused_before_any_draw(capsys, tmp_path, monkeypatch, command,
                                              payload, needle):
    # before: an uncaught MemoryError (exit 1), or a suite that never finishes
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(Space, "sample_ball", no_draw)
    cfg = write_cfg(tmp_path, "big.json", payload)
    code, out, err = run_cli(capsys, [command, "--config", cfg])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error:") and needle in err


SPACE3 = {"kind": "continuum", "d": 3, "m": 0}


@pytest.mark.parametrize("command, extra", [
    ("constant", {}),
    ("verify", {"theorems": ["nagy"]}),
], ids=["constant", "verify"])
def test_sample_coordinates_refused_before_any_draw(capsys, tmp_path, monkeypatch, command,
                                                    extra):
    # a (2^21, 3) ball sample holds 1.5 budgets of coordinates; sample_ball
    # refuses it before building its generator
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    payload = {"space": SPACE3, "modulus": POWER1, "h_values": [1], "method": "monte_carlo",
               "mc_samples": 2**21, **extra}
    cfg = write_cfg(tmp_path, "big.json", payload)
    code, out, err = run_cli(capsys, [command, "--config", cfg])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error:") and "mc_samples * d = 2097152 * 3" in err


@pytest.mark.parametrize("command, payload", [
    ("constant", {"space": {**SPACE3, "d": 21}, "h_values": [1]}),
    ("stechkin", {"space": {**SPACE3, "d": 21}, "n_values": [1]}),
    ("verify", {"space": SPACE3, "h_values": [1], "theorems": ["hypersingular"],
                "mc_samples": 2**21}),
], ids=["constant-d21", "stechkin-d21", "verify-hypersingular-d3"])
def test_sample_budget_spares_runs_that_sample_no_points(capsys, tmp_path, command, payload):
    # closed forms and the radial hypersingular path hold no (mc_samples, d)
    # array, so neither a large d nor a large sample count is refused
    cfg = write_cfg(tmp_path, "c.json", {"modulus": POWER1, **payload})
    code, out, err = run_cli(capsys, [command, "--config", cfg])
    assert (code, err) == (EXIT_OK, "") and out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_tol_flag_must_be_finite_and_nonnegative(capsys, line_cfg, tol):
    code, out, err = run_cli(capsys, ["verify", "--config", line_cfg, f"--tol={tol}"])
    assert code == EXIT_CONFIG
    assert "'tol' must be finite and nonnegative" in err
    assert out == ""


@pytest.mark.parametrize("samples", [0, 1, -5])
def test_monte_carlo_needs_two_samples(capsys, tmp_path, samples):
    payload = {"space": LINE, "modulus": POWER1, "h_values": [1],
               "method": "monte_carlo", "mc_samples": samples}
    cfg = write_cfg(tmp_path, "mc.json", payload)
    code, out, err = run_cli(capsys, ["constant", "--config", cfg])
    assert code == EXIT_CONFIG
    assert "at least 2 Monte Carlo samples" in err
    assert out == ""


def test_monte_carlo_verify_reads_noise_as_equality(capsys, tmp_path):
    # At the sharp extremals a Monte Carlo I(h) misses the closed form by about
    # one standard error, which must not read as a violated bound.
    payload = {"space": {"kind": "continuum", "d": 2, "m": 0},
               "modulus": {"kind": "power", "alpha": 0.7}, "h_values": [0.8, 1.3],
               "method": "monte_carlo", "mc_samples": 50_000, "seed": 9}
    cfg = write_cfg(tmp_path, "mc.json", payload)
    code, out, err = run_cli(capsys, ["verify", "--config", cfg])
    assert code == EXIT_OK, out
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 16
    assert not any(row.endswith("Violated") for row in rows)
    assert all(row.rsplit(",", 1)[1] in ("EqualityAttained", "Holds") for row in rows)


def test_oracle_exact_node_irrational_modulus_is_config_error(capsys, tmp_path):
    node = {"theorem_id": "nagy", "space": ZZ, "modulus": {"kind": "power", "alpha": 0.5},
            "h": "3/2"}
    cfg = write_cfg(tmp_path, "o.json", {"exact": [node]})
    code, _, err = run_cli(capsys, ["oracle", "--config", cfg])
    assert code == EXIT_CONFIG
    assert "rational modulus" in err


def test_divergent_kernel_is_numeric_failure(capsys, tmp_path):
    cfg = write_cfg(
        tmp_path,
        "div.json",
        {
            "space": {"kind": "continuum", "d": 1, "m": 0},
            "modulus": {"kind": "power", "alpha": 0.4},
            "h_values": [1.0],
            "theorems": ["hypersingular"],
            "kernel": {"form": "power_law", "beta": 0.8},
        },
    )
    code, _, err = run_cli(capsys, ["verify", "--config", cfg])
    assert code == EXIT_NUMERIC
    assert "numeric failure" in err


@pytest.mark.parametrize("beta", [0.6, 1.5])
@pytest.mark.parametrize("modulus", [
    {"kind": "power", "alpha": 0.5},
    {"kind": "table", "points": [[0, 0], [1, "3/4"], [2, 1]]},
], ids=["power", "table"])
@pytest.mark.parametrize("d, m", [(1, 0), (2, 1)])
def test_lattice_kernel_converges_for_every_beta(capsys, tmp_path, d, m, modulus, beta):
    # counting measure puts no mass at 0 < rho < 1: beta at or beyond the
    # modulus exponent diverges only on the continuum
    cfg = write_cfg(tmp_path, "lat.json", {
        "space": {"kind": "lattice", "d": d, "m": m}, "modulus": modulus,
        "h_values": [2.5], "theorems": ["hypersingular"],
        "kernel": {"form": "power_law", "beta": beta},
    })
    code, out, err = run_cli(capsys, ["verify", "--config", cfg])
    assert (code, err) == (EXIT_OK, "")
    assert out.strip().splitlines()[1].endswith(",EqualityAttained")


def test_stechkin_radius_is_the_closed_form(capsys, tmp_path):
    # the budget n = 1e100 lies far beyond any bisection bracket
    cfg = write_cfg(tmp_path, "s.json", {"space": LINE, "modulus": {"kind": "power", "alpha": 0.5},
                                         "n_values": [1e100]})
    code, out, err = run_cli(capsys, ["stechkin", "--config", cfg, "--format", "json"])
    assert (code, err) == (EXIT_OK, "")
    [row] = json.loads(out)
    assert row["h"] == (1.0 / 1e100 / 2.0) ** (1.0 / 1)
    assert row["e_n"] > 0


@pytest.mark.parametrize("n", [1e300, 1e-300])
def test_stechkin_extreme_budget_names_the_ball_integral(capsys, tmp_path, n):
    # I(h) underflows to 0 at h = 5e-301 and overflows at h = 5e299; neither
    # may pass on as a silent e_n
    cfg = write_cfg(tmp_path, "s.json", {"space": LINE, "modulus": {"kind": "power", "alpha": 0.5},
                                         "n_values": [n]})
    code, out, err = run_cli(capsys, ["stechkin", "--config", cfg])
    assert code == EXIT_NUMERIC
    assert "I(h)" in err and out == ""


@pytest.mark.parametrize("command, space, h, word", [
    ("constant", {"kind": "continuum", "d": 2, "m": 0}, 1e200, "mu(B_h)"),
    ("verify", LINE, 1e300, "power integral"),
    ("constant", {"kind": "lattice", "d": 700, "m": 0}, 1.5,
     "mu(B_h) overflows the float range at h = 1.5"),
    ("verify", {"kind": "lattice", "d": 700, "m": 0}, 1.5,
     "mu(B_h) overflows the float range at h = 1.5"),
])
def test_float_range_failure_names_its_quantity(capsys, tmp_path, command, space, h, word):
    # the ball measure overflows before I(h) is reached, on the continuum and
    # as a lattice count (3^700 points); the mixed bounds' box masses
    # overflow in a closed-form power integral
    cfg = write_cfg(tmp_path, "big.json", {"space": space, "h_values": [h],
                                           "modulus": {"kind": "power", "alpha": 1.0}})
    code, out, err = run_cli(capsys, [command, "--config", cfg])
    assert (code, out) == (EXIT_NUMERIC, "")
    assert word in err


@pytest.mark.parametrize("command", ["constant", "stechkin", "oracle"])
def test_tol_flag_only_on_verify(capsys, line_cfg, command):
    # the verdict tolerance is read by verify alone
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", line_cfg, "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_lattice_sweep_over_point_budget_is_numeric_failure(capsys, tmp_path):
    # a cutoff of 10^7 shells is refused before any array is allocated
    cfg = write_cfg(
        tmp_path,
        "huge.json",
        {
            "space": {"kind": "lattice", "d": 3, "m": 0},
            "modulus": {"kind": "power", "alpha": 1.0},
            "h_values": [1.5],
            "theorems": ["hypersingular"],
            "kernel": {"form": "power_law", "beta": 0.5, "cutoff": 1e7},
        },
    )
    code, _, err = run_cli(capsys, ["verify", "--config", cfg])
    assert code == EXIT_NUMERIC
    assert "budget" in err


def test_out_flag_writes_file(tmp_path, capsys, line_cfg):
    target = tmp_path / "result.csv"
    code, out, _ = run_cli(capsys, ["constant", "--config", line_cfg, "--out", str(target)])
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text().startswith("d,m,")


def test_byte_determinism(capsys, tmp_path):
    cfg = write_cfg(
        tmp_path,
        "det.json",
        {
            "suites": [{"theorem_id": "mixed_additive", "trials": 15, "seed": 4}],
            "mc_checks": ["split_objective"],
        },
    )
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["oracle", "--config", cfg])
        assert code == EXIT_OK
        runs.append(out)
    assert runs[0] == runs[1]


def test_seed_flag_overrides(capsys, tmp_path):
    cfg = write_cfg(
        tmp_path, "s.json", {"suites": [{"theorem_id": "nagy", "trials": 8, "seed": 1}]}
    )
    _, out1, _ = run_cli(capsys, ["oracle", "--config", cfg])
    _, out2, _ = run_cli(capsys, ["oracle", "--config", cfg, "--seed", "99"])
    assert json.loads(out1)["suites"][0]["seed"] == 1
    assert json.loads(out2)["suites"][0]["seed"] == 99


def test_bad_theorem_id(capsys, tmp_path):
    cfg = write_cfg(
        tmp_path,
        "bad_tid.json",
        {
            "space": {"kind": "continuum", "d": 1, "m": 0},
            "modulus": {"kind": "power", "alpha": 1.0},
            "h_values": [1.0],
            "theorems": ["riemann"],
        },
    )
    code, _, err = run_cli(capsys, ["verify", "--config", cfg])
    assert code == EXIT_CONFIG
    assert "unknown theorem id" in err


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Monte Carlo verify runs: they reach the sampled kernel ball/tail masses and
# the radial table-kernel quadratures, which no shipped config does.
MC_CONFIGS = {
    "mc_plane.json": {
        "space": {"kind": "continuum", "d": 2, "m": 0},
        "modulus": {"kind": "power", "alpha": 0.7},
        "h_values": [0.8, 1.3],
        "method": "monte_carlo", "mc_samples": 30000, "seed": 5,
    },
    "mc_half_space.json": {
        "space": {"kind": "continuum", "d": 3, "m": 1},
        "modulus": {"kind": "table", "points": [[0, 0], [0.5, 0.4], [2, 1]]},
        "h_values": [1.2],
        "theorems": ["lemma1", "nagy", "nagy_l1", "sobolev", "charge", "hypersingular",
                     "mixed_additive"],
        "kernel": {"form": "table", "points": [[0.5, 2.0], [1.5, 1.0], [3.0, 0.25]]},
        "method": "monte_carlo", "mc_samples": 30000, "seed": 11,
    },
}


@pytest.mark.parametrize(
    "name,digest",
    [
        ("constant_continuum.json",
         "393d1ab108059382f8e43e0ca275d332fbb696d412b244eb94d619132172dc9d"),
        ("oracle_quick.json", "24d1e1546c3f4733a3945bd9afda2aec3dba571a9dd160615cd4836cbfe16473"),
        ("stechkin_line.json", "64ba83e5dfff3f196d610cd10f63d5c258b2c44f5e183677330d0d6b0c546d70"),
        ("verify_continuum.json",
         "439277ee60c2c9f7fe4c67a3345362318fb644d11a9b4f852429a50c96fd4c7d"),
        ("verify_exact_lattice.json",
         "6a799c143244c1b26cf7d91b83836781aaba2d4ade180f65e00c33d2f5b14bda"),
        ("mc_plane.json", "2a6b4405639e4e6fb27c4338ed6817a3ecb552f4a8d29ab2ce0e860f5e944f0e"),
        ("mc_half_space.json", "2ff2843e70987ace29aa6596f1fe56af934455cd41868b6b25b2c815d0e5687d"),
    ],
)
def test_cli_outputs_pinned(capsys, tmp_path, name, digest):
    """sha256 of the stdout of each run, recorded once; a refactor that moves
    a printed digit fails here, which two runs of one build cannot show."""
    if name in MC_CONFIGS:
        path, command = write_cfg(tmp_path, name, MC_CONFIGS[name]), "verify"
    else:
        path, command = str(CONFIGS / name), name.split("_")[0]
    code, out, _ = run_cli(capsys, [command, "--config", path])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_parser_reuse_leaks_no_flag_into_the_next_call(capsys, tmp_path, monkeypatch, line_cfg):
    seen = []
    verify = cli._COMMANDS["verify"]

    def recorded(cfg, args):
        seen.append(dict(vars(args)))
        return verify(cfg, args)

    monkeypatch.setitem(cli._COMMANDS, "verify", recorded)
    plain = ["verify", "--config", line_cfg]
    dest = tmp_path / "out.json"
    first = run_cli(capsys, plain)
    flagged = run_cli(capsys, [*plain, "--tol", "0.5", "--seed", "3", "--format", "json",
                               "--out", str(dest)])
    assert flagged == (EXIT_OK, "", "") and json.loads(dest.read_text())
    assert run_cli(capsys, plain) == first
    assert seen[2] == seen[0] != seen[1]
    assert {k: seen[2][k] for k in ("tol", "seed", "format", "out")} == \
        {"tol": None, "seed": None, "format": "csv", "out": None}


def test_usage_error_between_calls_changes_no_byte(capsys, line_cfg):
    argv = ["constant", "--config", line_cfg]
    before = run_cli(capsys, argv)
    with pytest.raises(SystemExit) as usage:
        main([*argv, "--tol", "1"])  # --tol belongs to verify alone
    assert usage.value.code == EXIT_CONFIG
    cap = capsys.readouterr()
    assert cap.out == "" and "unrecognized arguments: --tol 1" in cap.err
    assert run_cli(capsys, argv) == before


def test_parser_built_once_per_process(capsys, monkeypatch, line_cfg):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    # the subcommand parsers are ArgumentParsers too, so the whole tree counts
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    for _ in range(3):
        assert run_cli(capsys, ["constant", "--config", line_cfg])[0] == EXIT_OK
    assert built == ["sharp-ineq", *(f"sharp-ineq {name}" for name in cli._COMMANDS)]


SHIPPED_BY_COMMAND = {
    "constant": "constant_continuum.json",
    "verify": "verify_continuum.json",
    "stechkin": "stechkin_line.json",
    "oracle": "oracle_quick.json",
}


def test_fresh_process_prints_the_in_process_bytes(capsys):
    # a one-shot process builds its own parser; a reused one must print the
    # same bytes after every other command has run
    for command, name in SHIPPED_BY_COMMAND.items():
        run_cli(capsys, [command, "--config", str(CONFIGS / name)])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for command, name in SHIPPED_BY_COMMAND.items():
        argv = [command, "--config", str(CONFIGS / name)]
        fresh = subprocess.run([sys.executable, "-m", "sharp_ineq.cli", *argv],
                               capture_output=True, env=env, timeout=120)
        code, out, err = run_cli(capsys, argv)
        assert fresh.returncode == code == EXIT_OK
        assert (fresh.stdout, fresh.stderr) == (out.encode(), err.encode()) and err == ""
