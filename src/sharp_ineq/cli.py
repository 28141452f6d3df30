"""Command-line front end.

Four subcommands, all driven by a single JSON config file (flags only
override fields inside it):

* ``constant``  — ball measures, modulus ball integrals, and the averaged
  deviation ``I(h)/mu(B_h)`` over a grid of window scales.
* ``verify``    — equality/inequality reports for the named sharp bounds,
  optionally in exact rational arithmetic on lattices.
* ``stechkin``  — the best-approximation curve ``n -> E(n)``.
* ``oracle``    — randomized suites, Monte Carlo cross-checks, and exact
  rational replays, as one JSON document.

Exit codes: 0 success, 1 a checked inequality was violated (or a suite /
cross-check failed), 2 a refused request (any ``RequestError``: a malformed
config, or a theorem or quadrature method outside its hypotheses), 3 numeric
failure (divergent integral, point budget, unreachable tolerance).  The
library states each rule once; ``main`` alone maps its errors to exit codes.
Data goes to stdout (or ``--out``), diagnostics to stderr; output bytes are
a pure function of config + seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

from ._quad import QuadratureError
from .calculus import (
    CertificationError,
    QuadratureSpec,
    ball_integral_of_modulus,
    default_spec,
    require_method,
)
from .modulus import Modulus, from_config as modulus_from_config
from .operators import (
    THEOREM_IDS,
    InequalityReport,
    inapplicable,
    kernel_from_config,
    modulus_label,
    require_report,
    stechkin_curve,
    theorem_report,
)
from .oracle import (EXACT_THEOREMS, MC_CHECKS, exact_inapplicable, exact_verify, mc_cross_check,
                     random_suite, require_mc_check, suite_arguments)
from .space import RequestError, Space, config_integer, config_number, config_seed

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


# ----------------------------------------------------------------------
# formatting
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _csv(rows: list[dict]) -> str:
    columns = list(rows[0])
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _render(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return _json_text(rows)
    return _csv(rows)


# ----------------------------------------------------------------------
# config digestion
# ----------------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise RequestError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RequestError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise RequestError("config root must be a JSON object")
    return cfg


def _seed(flag: Optional[int], value, name: str) -> int:
    """The RNG seed: the ``--seed`` flag when given (``main`` has checked
    it), else the config ``value``, read by ``config_seed``."""
    return flag if flag is not None else config_seed(value, name)


def _space_from(cfg: dict) -> Space:
    node = cfg.get("space")
    if not isinstance(node, dict):
        raise RequestError("config needs a 'space' object with kind/d/m")
    return Space.from_config(node)


def _modulus_from(cfg: dict) -> Modulus:
    node = cfg.get("modulus")
    if not isinstance(node, dict):
        raise RequestError("config needs a 'modulus' object")
    return modulus_from_config(node)


def _spec_from(cfg: dict, space: Space, omega: Modulus, seed: Optional[int]) -> Optional[QuadratureSpec]:
    method = cfg.get("method")
    overrides = {}
    if seed is not None or "seed" in cfg:
        overrides["seed"] = _seed(seed, cfg.get("seed"), "'seed'")
    if "mc_samples" in cfg:
        overrides["mc_samples"] = config_integer(cfg["mc_samples"], "'mc_samples'")
    if method is None and not overrides:
        return None
    method = default_spec(space, omega).method if method is None else str(method)
    return QuadratureSpec(method=method, **overrides)


def _radius(value, name: str, space: Space, *, exact: bool):
    """A config ball radius, checked against the space (h > 0; h > 1 on lattices)."""
    h = config_number(value, name, exact=exact)
    space.require_valid_radius(h)
    return h


def _h_values(cfg: dict, space: Space, *, exact: bool) -> list:
    values = cfg.get("h_values")
    name = "'h_values'"
    if values is None and "h" in cfg:
        values, name = [cfg["h"]], "'h'"
    if not isinstance(values, list) or not values:
        raise RequestError("config needs 'h_values' (a nonempty list) or a single 'h'")
    return [_radius(v, name, space, exact=exact) for v in values]


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_constant(cfg: dict, args) -> tuple[str, int]:
    space = _space_from(cfg)
    omega = _modulus_from(cfg)
    spec = _spec_from(cfg, space, omega, args.seed)
    h_values = _h_values(cfg, space, exact=False)
    if spec is not None:
        require_method(space, omega, spec.method)
    rows = []
    for h in h_values:
        mu = float(space.ball_measure(h))
        est = ball_integral_of_modulus(space, omega, h, spec)
        rows.append(
            {
                "d": space.d,
                "m": space.m,
                "alpha_or_modulus": modulus_label(omega),
                "h": float(h),
                "mu": mu,
                "integral": est.value,
                "deviation": est.value / mu,
            }
        )
    return _render(rows, args.format), EXIT_OK


def _require_exact(theorem_id: str, space: Space, omega: Modulus) -> None:
    """Raise the reason ``exact_verify`` would refuse the replay with, before any runs."""
    reason = exact_inapplicable(theorem_id, space, omega)
    if reason is not None:
        raise RequestError(reason)


def _report_row(report: InequalityReport, want_exact: bool) -> dict:
    row = report.to_row()
    if want_exact:
        row["exact"] = str(report.exact["gap"]) if report.exact else ""
    return row


def cmd_verify(cfg: dict, args) -> tuple[str, int]:
    space = _space_from(cfg)
    omega = _modulus_from(cfg)
    exact = cfg.get("exact", False)
    if not isinstance(exact, bool):
        raise RequestError(f"'exact' must be true or false, got {exact!r}")
    theorems = cfg.get("theorems")
    if theorems is None:
        # every theorem stated on this space and modulus
        candidates = EXACT_THEOREMS if exact else THEOREM_IDS
        theorems = [tid for tid in candidates if inapplicable(tid, space, omega) is None]
    if not isinstance(theorems, list) or not theorems:
        raise RequestError("'theorems' must be a nonempty list of theorem ids")
    h_values = _h_values(cfg, space, exact=exact)
    kernel = None
    if "kernel" in cfg:
        if not isinstance(cfg["kernel"], dict):
            raise RequestError("'kernel' must be an object with a 'form'")
        kernel = kernel_from_config(cfg["kernel"])
    tol = args.tol
    if tol is None and cfg.get("tol") is not None:
        tol = config_number(cfg["tol"], "'tol'")
    if tol is not None and not 0.0 <= tol < math.inf:
        raise RequestError(f"'tol' must be finite and nonnegative, got {tol}")
    spec = _spec_from(cfg, space, omega, args.seed)
    for tid in theorems:  # every theorem is checked before the first report
        if exact:
            _require_exact(tid, space, omega)
        else:
            require_report(tid, space, omega, spec)

    # the theorems at one h share one I(h); the cache lives for this command only
    modulus_integral = functools.cache(ball_integral_of_modulus)
    rows = []
    violated = False
    for h in h_values:
        for tid in theorems:
            if exact:
                report = exact_verify(tid, space, omega, h)
            else:
                report = theorem_report(
                    tid, space, omega, h, kernel=kernel, spec=spec,
                    tol=tol, modulus_integral=modulus_integral,
                )
            violated = violated or report.verdict == "Violated"
            rows.append(_report_row(report, exact))
    return _render(rows, args.format), EXIT_VIOLATION if violated else EXIT_OK


def cmd_stechkin(cfg: dict, args) -> tuple[str, int]:
    space = _space_from(cfg)
    omega = _modulus_from(cfg)
    values = cfg.get("n_values")
    if not isinstance(values, list) or not values:
        raise RequestError("config needs 'n_values' (a nonempty list)")
    spec = _spec_from(cfg, space, omega, args.seed)
    points = stechkin_curve(space, omega, [config_number(v, "'n_values'") for v in values], spec)
    rows = [
        {
            "d": space.d,
            "m": space.m,
            "alpha_or_modulus": modulus_label(omega),
            "n": p.n,
            "h": p.h,
            "e_n": p.e_n,
        }
        for p in points
    ]
    return _render(rows, args.format), EXIT_OK


def cmd_oracle(cfg: dict, args) -> tuple[str, int]:
    if args.format == "csv":
        raise RequestError("oracle output is nested; use --format json")
    out: dict = {}
    failed = False

    # every suite, check and replay is read and checked before the first one runs
    runs = []
    suites = cfg.get("suites", [])
    if suites:
        if not isinstance(suites, list):
            raise RequestError("'suites' must be a list of suite objects")
        for node in suites:
            if not isinstance(node, dict) or "theorem_id" not in node:
                raise RequestError("each suite needs at least a 'theorem_id'")
            trials = config_integer(node.get("trials", 1000), "suite 'trials'")
            seed = _seed(args.seed, node.get("seed", 1), "suite 'seed'")
            runs.append((node["theorem_id"], *suite_arguments(node["theorem_id"], trials, seed)))
    checks = cfg.get("mc_checks")
    if checks:
        if checks is True or checks == "all":
            checks = list(MC_CHECKS)
        if not isinstance(checks, list):
            raise RequestError("'mc_checks' must be a list of check names, true, or 'all'")
        mc_seed = _seed(args.seed, cfg.get("seed", 0), "'seed'")
        for name in checks:
            require_mc_check(name)
    replays = []
    exact_nodes = cfg.get("exact", [])
    if exact_nodes:
        if not isinstance(exact_nodes, list):
            raise RequestError("'exact' must be a list of exact-verification objects")
        for node in exact_nodes:
            if not isinstance(node, dict):
                raise RequestError("each exact entry must be an object")
            if "theorem_id" not in node:
                raise RequestError("each exact entry needs a 'theorem_id'")
            space = _space_from(node)
            omega = _modulus_from(node)
            if "h" not in node:
                raise RequestError("each exact entry needs 'h'")
            h = _radius(node["h"], "'h'", space, exact=True)
            _require_exact(node["theorem_id"], space, omega)
            replays.append((node["theorem_id"], space, omega, h))

    if runs:
        reports = []
        for theorem_id, trials, seed in runs:
            rep = random_suite(theorem_id, trials=trials, seed=seed)
            failed = failed or rep.violations > 0
            reports.append(rep.to_json())
        out["suites"] = reports
    if checks:
        results = []
        for name in checks:
            res = mc_cross_check(name, seed=mc_seed)
            failed = failed or not res["ok"]
            results.append(res)
        out["mc_checks"] = results

    if replays:
        reports = []
        for theorem_id, space, omega, h in replays:
            report = exact_verify(theorem_id, space, omega, h)
            failed = failed or report.verdict == "Violated"
            reports.append(_report_row(report, True))
        out["exact"] = reports

    if not out:
        raise RequestError("oracle config needs at least one of 'suites', 'mc_checks', 'exact'")
    return _json_text(out), EXIT_VIOLATION if failed else EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

_COMMANDS = {
    "constant": cmd_constant,
    "verify": cmd_verify,
    "stechkin": cmd_stechkin,
    "oracle": cmd_oracle,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    building it costs about as much as a short command, and ``main`` may
    run many times in one process.  Lazy, so an importer that never parses
    pays nothing; ``parse_args`` still returns a fresh namespace per call."""
    parser = argparse.ArgumentParser(
        prog="sharp-ineq",
        description="Sharp-constant laboratory for smoothness inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("constant", "ball measures and averaged modulus integrals"),
        ("verify", "equality reports for the named sharp bounds"),
        ("stechkin", "best-approximation curve of the identity"),
        ("oracle", "randomized suites, cross-checks, exact replays"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override every RNG seed")
        if name == "verify":
            p.add_argument("--tol", type=float, default=None, help="override verdict tolerance")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.add_argument(
            "--format", choices=("csv", "json"),
            default="json" if name == "oracle" else "csv",
            help="output format",
        )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # checked here, not where a seed is read: a run that reads none
        # (an exact-only oracle config) must refuse it too
        if args.seed is not None and args.seed < 0:
            raise RequestError(f"--seed must be a nonnegative integer, got {args.seed}")
        cfg = _load_config(args.config)
        text, code = _COMMANDS[args.command](cfg, args)
    except RequestError as exc:  # ahead of ValueError, its base class
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, CertificationError, ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
