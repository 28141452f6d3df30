"""Acceptance suite: one test (and one pass/fail line) per shipped guarantee.

Each criterion pins down a user-visible promise — equality at the extremal
witnesses, exact rational gaps on lattices, frozen constants, randomized
no-violation suites, and byte-deterministic CLI output — together with a
wall-clock budget where the promise includes speed.  Budgets are enforced on
steady-state compute: the module-scoped warmup below fills the lattice plan
cache before the clocks start.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sharp_ineq import oracle
from sharp_ineq import operators as ops
from sharp_ineq.cli import EXIT_OK, main
from sharp_ineq.extremals import make_f_eh, sobolev_extremal_pair, split_point_a
from sharp_ineq.modulus import PowerModulus
from sharp_ineq.space import continuum, lattice

MATRIX_SPACES = [(1, 0), (2, 0), (2, 1), (3, 2)]
MATRIX_ALPHAS = [0.5, 1.0]
MATRIX_H = [0.5, 1.0, 2.0]


@pytest.fixture(scope="module", autouse=True)
def warm_backend():
    """Warm the lattice plan cache so timed criteria measure compute."""
    for tid in ("nagy", "hypersingular", "mixed_additive"):
        oracle.random_suite(tid, trials=2, seed=1)


def _stamp(n: int, label: str, detail: str = "") -> None:
    extra = f" ({detail})" if detail else ""
    print(f"acceptance criterion {n} [{label}]: PASS{extra}")


def _matrix():
    return itertools.product(MATRIX_SPACES, MATRIX_ALPHAS, MATRIX_H)


def _assert_equality(rep, tol):
    scale = max(1.0, abs(rep.lhs), abs(rep.rhs))
    assert rep.verdict == ops.VERDICT_EQUALITY, rep
    assert abs(rep.gap) <= tol * scale, rep


def test_criterion_1_averaging_bound_equality_matrix():
    t0 = time.perf_counter()
    worst = 0.0
    for (d, m), alpha, h in _matrix():
        rep = ops.theorem_report("lemma1", continuum(d, m), PowerModulus(alpha), h)
        _assert_equality(rep, 1e-8)
        worst = max(worst, abs(rep.gap) / max(1.0, rep.lhs))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"matrix took {elapsed:.3f}s (budget 1s)"
    _stamp(1, "averaging bound equality", f"24 cases, max rel gap {worst:.2e}, {elapsed:.3f}s")


def test_criterion_2_sup_norm_bounds_equality_matrix():
    t0 = time.perf_counter()
    for (d, m), alpha, h in _matrix():
        for tid in ("nagy", "nagy_l1"):
            rep = ops.theorem_report(tid, continuum(d, m), PowerModulus(alpha), h)
            _assert_equality(rep, 1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"matrix took {elapsed:.3f}s (budget 1s)"
    _stamp(2, "sup-norm bounds equality", f"48 cases, {elapsed:.3f}s")


def test_criterion_3_exact_rational_gaps_on_lattices():
    t0 = time.perf_counter()
    h = Fraction(3, 2)
    om = PowerModulus(1.0)
    for space in (lattice(1, 0), lattice(2, 0)):
        for tid in ("lemma1", "nagy", "charge"):
            rep = oracle.exact_verify(tid, space, om, h)
            gap = rep.exact["gap"]
            assert isinstance(gap, Fraction) and gap == 0, (tid, space.d, gap)
            assert rep.verdict == ops.VERDICT_EQUALITY
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"exact sweeps took {elapsed:.3f}s (budget 5s)"
    _stamp(3, "exact rational equality", f"6 reports, all gaps Fraction(0), {elapsed:.3f}s")


def test_criterion_4_upper_gradient_bound():
    rng = np.random.default_rng(2024)
    pairs_per_instance = 100_000
    for (d, m), alpha, h in _matrix():
        space = continuum(d, m)
        om = PowerModulus(alpha)
        rep = ops.theorem_report("sobolev", space, om, h)
        _assert_equality(rep, 1e-8)
        # the defining pair inequality |f(x)-f(y)| <= (G(x)+G(y)) omega(rho)
        f, g = sobolev_extremal_pair(space, om, h)
        w = h + 1.0
        lo = np.where(np.arange(d) < m, 0.0, -w)
        xs = rng.uniform(0, 1, size=(pairs_per_instance, d)) * (w - lo) + lo
        ys = rng.uniform(0, 1, size=(pairs_per_instance, d)) * (w - lo) + lo
        dist = space.norm(xs - ys)
        keep = dist > 0
        lhs = np.abs(f(xs[keep]) - f(ys[keep]))
        rhs = (g(xs[keep]) + g(ys[keep])) * om(dist[keep])
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-12)
    _stamp(4, "upper-gradient bound", "24 cases x 1e5 sampled pairs")


def test_criterion_5_singular_integral_equalities():
    t0 = time.perf_counter()
    cases = [
        # (d, m, alpha, beta, expected A, expected T) at h = 1
        (1, 0, 1.0, 0.5, 4.0, 4.0),
        (1, 0, 1.0, 0.25, 8.0 / 3.0, 8.0),
        (2, 0, 0.75, 0.5, 32.0, 16.0),
    ]
    for d, m, alpha, beta, a_want, t_want in cases:
        space = continuum(d, m)
        om = PowerModulus(alpha)
        kernel = ops.PowerLawKernel(beta=beta)
        a = ops.kernel_ball_mass(space, om, kernel, 1.0)
        t = ops.kernel_tail_mass(space, kernel, 1.0)
        assert math.isclose(a.value, a_want, rel_tol=1e-12), (d, alpha, beta, a.value)
        assert math.isclose(t.value, t_want, rel_tol=1e-12), (d, alpha, beta, t.value)
        rep = ops.theorem_report("hypersingular", space, om, 1.0, kernel=kernel)
        _assert_equality(rep, 1e-5)
        want_lhs = a_want + om(1.0) * t_want
        assert math.isclose(rep.lhs, want_lhs, rel_tol=1e-5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.3f}s (budget 10s)"
    _stamp(5, "singular-integral equality", f"3 kernel triples, {elapsed:.3f}s")


def test_criterion_6_mixed_difference_bounds():
    # (a) all-lines extremal equality, d = 1 and 2
    for d in (1, 2):
        rep = ops.theorem_report("mixed_additive", continuum(d, 0), PowerModulus(1.0), 1.0)
        _assert_equality(rep, 1e-5)
    # (b) the half-line split point and equality through it
    split = split_point_a(PowerModulus(1.0), 1.0, 1)
    assert abs(split.a - (1.0 - 1.0 / math.sqrt(2.0))) < 1e-10
    rep = ops.theorem_report("mixed_additive", continuum(1, 1), PowerModulus(1.0), 1.0)
    _assert_equality(rep, 1e-6)
    # (c) the sharp product-form constant and the additive-to-multiplicative bridge
    assert abs(ops.mixed_multiplicative_constant(1, 0, 1.0) - math.sqrt(2.0)) < 1e-12
    rng = np.random.default_rng(77)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(0, d + 1))
        alpha = float(rng.uniform(0.3, 1.0))
        sup = float(rng.uniform(0.1, 5.0))
        hold = float(rng.uniform(0.1, 5.0))
        h_star = ops.optimal_h(d, m, alpha, sup, hold)
        additive = ops.mixed_nagy_rhs(d, m, PowerModulus(alpha), h_star, hold, sup)
        product = ops.mixed_multiplicative_rhs(d, m, alpha, sup, hold)
        assert abs(additive - product) <= 1e-10 * max(1.0, product), (d, m, alpha)
    _stamp(6, "mixed-difference bounds", "equalities + 20 optimized-window bridges")


def test_criterion_7_best_approximation_curve():
    space = continuum(1, 0)
    om = PowerModulus(1.0)
    pts = ops.stechkin_curve(space, om, [0.5, 1.0, 2.0])
    want = [0.5, 0.25, 0.125]
    for p, e in zip(pts, want):
        assert abs(p.e_n - e) < 1e-10, (p.n, p.e_n)
    grid = np.logspace(-1, 2, 50)
    errs = [p.e_n for p in ops.stechkin_curve(space, om, grid)]
    assert all(b < a for a, b in zip(errs, errs[1:])), "curve must strictly decrease"
    _stamp(7, "best-approximation curve", "3 frozen values + 50-point monotone grid")


def test_criterion_8_randomized_suites_and_cross_checks():
    t0 = time.perf_counter()
    total = 0
    for tid in ops.THEOREM_IDS:
        for seed in range(1, 11):
            rep = oracle.random_suite(tid, trials=1000, seed=seed)
            assert rep.violations == 0, (tid, seed, rep.worst_case)
            total += rep.trials
    sigmas = []
    for name in oracle.MC_CHECKS:
        out = oracle.mc_cross_check(name, seed=0)
        assert out["ok"], out
        sigmas.append(out["sigmas"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s (budget 300s)"
    _stamp(
        8, "randomized suites",
        f"{total} trials, 0 violations; 6 cross-checks max {max(sigmas):.2f} sigma, {elapsed:.1f}s",
    )


def test_criterion_9_cli_byte_determinism(tmp_path, capsys):
    outputs = []
    for tag in ("a", "b"):
        files = []
        for cfg in ("configs/verify_continuum.json", "configs/oracle_quick.json"):
            dest = tmp_path / f"{tag}_{cfg.split('/')[-1]}.out"
            fmt = ["--format", "json"] if "oracle" in cfg else []
            code = main(
                [
                    "oracle" if "oracle" in cfg else "verify",
                    "--config", cfg, "--out", str(dest), *fmt,
                ]
            )
            assert code == EXIT_OK
            files.append(dest.read_bytes())
        outputs.append(files)
    capsys.readouterr()
    assert outputs[0] == outputs[1], "CLI output must be byte-identical across runs"
    _stamp(9, "CLI determinism", "verify + oracle outputs byte-identical")
