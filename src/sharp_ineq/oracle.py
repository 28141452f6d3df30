"""Independent verification: rational-arithmetic checks, randomized
inequality suites, and Monte Carlo cross-checks of the closed forms.

Three layers of distrust, none of which consults the certified metadata the
extremal constructors stamp on their outputs:

* ``exact_verify`` replays a bound on a lattice entirely in ``Fraction``
  arithmetic — sup, seminorm, and smoothness constant are recomputed from
  scratch by finite sweeps whose windows are provably large enough, so a
  zero gap is a machine-checked identity, not a small float.

* ``random_suite`` throws randomized certified-smooth functions (maxima of
  truncated cones) at an inequality and counts violations.  Sweeps run on
  cached gather plans, so a thousand trials of any suite cost well under a
  second.

* ``mc_cross_check`` re-derives each closed-form quantity by plain Monte
  Carlo and reports the discrepancy in standard errors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import _kernels, _lattice
from .calculus import (
    MONTE_CARLO,
    FunctionModel,
    QuadratureSpec,
    ball_integral_of_modulus,
)
from .extremals import make_f_eh, split_point_a
from .modulus import Modulus, PowerModulus, TableModulus
from .operators import (
    ChargeModel,
    InequalityReport,
    PowerLawKernel,
    charge_seminorm,
    kernel_ball_mass,
    kernel_tail_mass,
    mixed_multiplicative_rhs,
    mixed_nagy_rhs,
    modulus_label,
)
from .space import Space, continuum, lattice, strict_int_below

EXACT_THEOREMS = ("lemma1", "nagy", "nagy_l1", "sobolev", "charge")


# ======================================================================
# Exact rational verification on lattices
# ======================================================================


@dataclass(frozen=True)
class ExactFunction:
    """A lattice function evaluated in exact rational arithmetic.

    ``fn`` maps an integer coordinate tuple to a ``Fraction``; a finite
    ``support_radius`` certifies the function vanishes at sup-norm distance
    beyond it (``None`` marks unbounded support, admissible only where a
    sweep can be replaced by a proof).
    """

    fn: Callable[[tuple], Fraction]
    support_radius: Optional[int]
    label: str


def exact_f_eh(space: Space, omega: Modulus, h) -> ExactFunction:
    """The peak-deficiency bump in rational arithmetic."""
    hq = Fraction(h)
    peak = omega.eval_fraction(hq)
    support = strict_int_below(hq)
    origin = (0,) * space.d

    def fn(pt: tuple) -> Fraction:
        rho = space.lattice_distance(pt, origin)
        if rho >= hq:
            return Fraction(0)
        return peak - omega.eval_fraction(Fraction(rho))

    return ExactFunction(fn=fn, support_radius=support, label=f"bump[h={hq}]")


def exact_f_omega(space: Space, omega: Modulus, c=0, sign: int = 1) -> ExactFunction:
    """The radial modulus profile ``c + sign * omega(rho)``; smoothness
    constant exactly 1 by concavity (no sweep needed or possible)."""
    cq = Fraction(c)
    sg = 1 if sign >= 0 else -1
    origin = (0,) * space.d

    def fn(pt: tuple) -> Fraction:
        rho = space.lattice_distance(pt, origin)
        return cq + sg * omega.eval_fraction(Fraction(rho))

    return ExactFunction(fn=fn, support_radius=None, label=f"modulus-profile[c={cq}]")


def _rational_valued(f: ExactFunction) -> ExactFunction:
    """``f`` with every value checked to be an ``int`` or ``Fraction`` (a
    ``bool`` or ``float`` raises ``ValueError``), so no float enters a sweep."""
    fn = f.fn

    def checked(pt: tuple) -> Fraction:
        v = fn(pt)
        if type(v) is not Fraction and type(v) is not int:
            raise ValueError(
                f"exact function {f.label} returned {v!r} ({type(v).__name__}) at {pt}; "
                "exact mode needs int or Fraction values"
            )
        return v

    return replace(f, fn=checked)


def _int_points(space: Space, radius: int) -> list:
    """``_lattice.window_points`` as tuples of Python ints, for Fraction sweeps."""
    return [tuple(p) for p in _lattice.window_points(space, radius).tolist()]


def exact_holder_constant(
    f: ExactFunction, space: Space, omega: Modulus, window_radius: int
) -> Fraction:
    """Largest ``|f(x) - f(y)| / omega(rho(x, y))`` over window pairs.

    For a function supported in radius S, a window of radius ``3 S + 1``
    (stretched to ``S + t_last + 1`` for a modulus constant beyond t_last)
    contains a maximizing pair of the global ratio: the ratio against a far
    zero of ``f`` only decreases with distance once the modulus stops
    growing, so nothing outside the window can do better.  A nonzero value
    in the window beyond the claimed support radius raises ``ValueError``.
    """
    pts = _int_points(space, window_radius)
    vals = [f.fn(p) for p in pts]
    dist = space.lattice_distance
    s = f.support_radius
    if s is not None:
        origin = (0,) * space.d
        for p, v in zip(pts, vals):
            if v != 0 and dist(p, origin) > s:
                raise ValueError(
                    f"exact function {f.label} claims support radius {s} "
                    f"but is {v} at {p}"
                )
    best = Fraction(0)
    for (i, x), (j, y) in itertools.combinations(enumerate(pts), 2):
        num = abs(vals[i] - vals[j])
        if num == 0:
            continue
        ratio = num / omega.eval_fraction(Fraction(dist(x, y)))
        if ratio > best:
            best = ratio
    return best


def _holder_window(f: ExactFunction, omega: Modulus) -> int:
    s = f.support_radius
    base = 3 * s + 1
    if omega.is_bounded():
        t_last = omega.breakpoints()[-1] if omega.breakpoints() else 1.0
        base = max(base, s + int(math.ceil(t_last)) + 1)
    return base


def exact_verify(
    theorem_id: str,
    space: Space,
    omega: Modulus,
    h,
    f: Optional[ExactFunction] = None,
) -> InequalityReport:
    """Replay one additive bound on a lattice in pure Fraction arithmetic.

    Every norm entering either side is recomputed by finite exact sweeps;
    the report's ``exact`` field carries the rational lhs, both right-hand
    terms, and the gap.  A gap of exactly ``Fraction(0)`` is equality on the
    nose.  Needs a rational-valued modulus (power exponent 1, or a table
    with rational nodes) and ``h`` given as a ``Fraction`` or integer.  A
    caller's ``f`` must return ``int`` or ``Fraction`` values and vanish
    beyond its support radius; either breach raises ``ValueError``.
    """
    if theorem_id not in EXACT_THEOREMS:
        raise ValueError(
            f"exact verification covers {EXACT_THEOREMS}, not {theorem_id!r}"
        )
    if not space.is_lattice:
        raise ValueError("exact verification runs on lattice spaces")
    hq = Fraction(h)
    space.require_valid_radius(hq)
    omega.eval_fraction(Fraction(1))  # raises early for irrational moduli
    if f is not None:
        f = _rational_valued(f)

    offsets = [tuple(u) for u in space.closed_ball(strict_int_below(hq)).tolist()]
    mu = Fraction(len(offsets))
    origin = (0,) * space.d
    i_h = sum(
        (omega.eval_fraction(Fraction(space.lattice_distance(u, origin))) for u in offsets),
        Fraction(0),
    )

    if theorem_id == "lemma1":
        if f is None:
            f = exact_f_omega(space, omega)
            holder = Fraction(1)  # concavity: |omega(a) - omega(b)| <= omega(|a - b|)
        else:
            if f.support_radius is None:
                raise ValueError(
                    "exact mode needs a compactly supported function (or the "
                    "default witness) so its smoothness constant is sweepable"
                )
            holder = exact_holder_constant(f, space, omega, _holder_window(f, omega))
        ball = sum((f.fn(u) for u in offsets), Fraction(0))
        lhs = abs(f.fn(origin) - ball / mu)
        term1 = holder * i_h / mu
        term2 = Fraction(0)
        notes = f"witness {f.label}; all quantities rational"
    else:
        if f is None:
            f = exact_f_eh(space, omega, hq)
        if f.support_radius is None:
            raise ValueError(
                "exact mode needs a compactly supported function so that sup, "
                "seminorm, and smoothness sweeps are provably global"
            )
        holder = exact_holder_constant(f, space, omega, _holder_window(f, omega))
        s = f.support_radius
        sup_pts = _int_points(space, s)
        sup = max(abs(f.fn(p)) for p in sup_pts)
        k = strict_int_below(hq)
        sweep_pts = _int_points(space, s + k + 1)
        sem = max(
            abs(sum((f.fn(tuple(a + b for a, b in zip(x, u))) for u in offsets), Fraction(0)))
            for x in sweep_pts
        )
        lhs = sup
        if theorem_id == "nagy_l1":
            l1 = sum((abs(f.fn(p)) for p in sup_pts), Fraction(0))
            term1, term2 = holder * i_h / mu, l1 / mu
            notes = f"witness {f.label}; L1 norm summed over the support"
        elif theorem_id == "sobolev":
            # G == holder/2 is always an admissible upper gradient
            term1, term2 = 2 * (holder / 2) * i_h / mu, sem / mu
            notes = f"witness {f.label}; constant upper gradient holder/2"
        elif theorem_id == "charge":
            term1, term2 = holder * i_h / mu, sem / mu
            notes = (
                f"witness {f.label}; seminorm recomputed as a translated-ball "
                "charge sweep"
            )
        else:  # nagy
            term1, term2 = holder * i_h / mu, sem / mu
            notes = f"witness {f.label}"

    gap = term1 + term2 - lhs
    if gap < 0:
        verdict = "Violated"
    elif gap == 0:
        verdict = "EqualityAttained"
    else:
        verdict = "Holds"
    return InequalityReport(
        theorem_id=theorem_id,
        d=space.d,
        m=space.m,
        modulus_label=modulus_label(omega),
        h=float(hq),
        lhs=float(lhs),
        rhs_term1=float(term1),
        rhs_term2=float(term2),
        tolerance=0.0,
        verdict=verdict,
        notes=notes,
        exact={"lhs": lhs, "rhs_term1": term1, "rhs_term2": term2, "gap": gap},
    )


# ======================================================================
# Randomized certified-smooth test functions
# ======================================================================


@dataclass(frozen=True)
class ConeFunctionSpec:
    """A max of truncated cones: ``max_i (c_i - lam * omega(rho(x, p_i)))+``.

    Taking maxima and positive parts are 1-Lipschitz, so ``lam`` is a
    certified smoothness bound whatever the centers and heights; the sup
    norm is exactly ``max c_i`` (attained at the top cone's apex).
    """

    centers: tuple
    heights: tuple
    lam: float

    def describe(self) -> dict:
        return {
            "centers": [list(c) for c in self.centers],
            "heights": list(self.heights),
            "lam": self.lam,
        }


def make_cone_function(space: Space, omega: Modulus, spec: ConeFunctionSpec) -> FunctionModel:
    centers = np.asarray(spec.centers, dtype=np.float64).reshape(-1, space.d)
    heights = np.asarray(spec.heights, dtype=np.float64)
    if centers.shape[0] != heights.shape[0] or centers.shape[0] == 0:
        raise ValueError("need one height per center, at least one cone")
    if np.any(heights <= 0):
        raise ValueError("cone heights must be positive")
    if space.m and np.any(centers[:, : space.m] < 0):
        raise ValueError("cone centers must lie in the space")
    lam = float(spec.lam)

    def evaluator(pts: np.ndarray) -> np.ndarray:
        return _kernels.cone_eval(pts, centers, heights, lam, omega, space)

    if lam > 0:
        radii = [omega.inverse(c / lam) for c in heights]
        support = None
        if all(math.isfinite(r) for r in radii):
            support = float(
                max(space.norm(c) + r for c, r in zip(centers, radii))
            )
    else:
        support = None
    return FunctionModel(
        name=f"cones[k={len(heights)}]",
        evaluator=evaluator,
        certified_holder_bound=lam,
        certified_sup_norm=float(heights.max()),
        support_radius=support,
    )


# ======================================================================
# Randomized suites
# ======================================================================


@dataclass
class SuiteReport:
    theorem_id: str
    trials: int
    violations: int
    min_gap: float
    worst_case: dict
    seed: int

    def to_json(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "trials": self.trials,
            "violations": self.violations,
            "min_gap": self.min_gap,
            "worst_case": self.worst_case,
            "seed": self.seed,
        }


def _random_modulus(rng, power_only: bool = False) -> Modulus:
    if power_only or rng.random() < 0.5:
        return PowerModulus(float(rng.uniform(0.3, 1.0)))
    n = int(rng.integers(2, 4))
    gaps = rng.uniform(0.4, 1.0, n)
    slopes = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
    pts = [(Fraction(0), Fraction(0))]
    t = Fraction(0)
    w = Fraction(0)
    for g, s in zip(gaps, slopes):
        t += Fraction(float(g))
        w += Fraction(float(g)) * Fraction(float(s))
        pts.append((t, w))
    return TableModulus(pts)


def _random_cone_spec(space: Space, omega: Modulus, rng) -> ConeFunctionSpec:
    k = int(rng.integers(1, 4))
    lam = float(rng.uniform(0.5, 2.0))
    centers = []
    heights = []
    for _ in range(k):
        c = [int(rng.integers(0, 4)) if i < space.m else int(rng.integers(-3, 4))
             for i in range(space.d)]
        r = int(rng.integers(1, 5))
        height = lam * float(omega(float(r)))
        if omega.is_bounded():
            # keep strictly below the plateau so the cone provably hits zero
            height = min(height, lam * omega.max_value * (1.0 - 1e-9))
        centers.append(tuple(float(v) for v in c))
        heights.append(height)
    return ConeFunctionSpec(centers=tuple(centers), heights=tuple(heights), lam=lam)


def _lattice_sweep(f: FunctionModel, space: Space, h: float):
    """Exact lattice sup / seminorm / L1 / averaging-deviation of a
    compactly supported function, via one padded gather plan."""
    k = strict_int_below(h)
    radius = int(math.ceil(f.support_radius)) + k + 1
    plan = _lattice.sweep_plan(space, radius, k)
    padded = _lattice.evaluate_padded(plan, f.evaluator)
    mu = float(len(plan.offsets))
    ball = _kernels.ball_sums(padded, plan.base_idx, plan.lin_offsets)
    base_vals = padded[plan.base_idx]
    return {
        "sup": float(np.max(np.abs(padded))),
        "sem": float(np.max(np.abs(ball))),
        "l1": float(np.sum(np.abs(padded))),
        "dev": float(np.max(np.abs(base_vals - ball / mu))),
        "mu": mu,
    }


def _suite_trial_additive(theorem_id: str, rng) -> tuple[float, float, dict]:
    space = lattice(2, 1)
    omega = _random_modulus(rng)
    h = float(rng.uniform(1.2, 3.0))
    spec = _random_cone_spec(space, omega, rng)
    f = make_cone_function(space, omega, spec)
    sweep = _lattice_sweep(f, space, h)
    lam = f.certified_holder_bound
    i_h = ball_integral_of_modulus(space, omega, h).value
    term1 = lam * i_h / sweep["mu"]
    if theorem_id == "lemma1":
        lhs, term2 = sweep["dev"], 0.0
    elif theorem_id == "nagy":
        lhs, term2 = sweep["sup"], sweep["sem"] / sweep["mu"]
    elif theorem_id == "nagy_l1":
        lhs, term2 = sweep["sup"], sweep["l1"] / sweep["mu"]
    elif theorem_id == "sobolev":
        # constant upper gradient lam/2; term1 = 2 * (lam/2) * I/mu unchanged
        lhs, term2 = sweep["sup"], sweep["sem"] / sweep["mu"]
    elif theorem_id == "charge":
        nu = ChargeModel(density=f)
        sem = charge_seminorm(
            nu, space, h, window_radius=math.ceil(f.support_radius) + strict_int_below(h) + 1
        )
        lhs, term2 = sweep["sup"], sem / sweep["mu"]
    else:
        raise AssertionError(theorem_id)
    rhs = term1 + term2
    case = {"modulus": omega.to_config(), "h": h, "cones": spec.describe()}
    return rhs - lhs, rhs, case


def _suite_trial_hypersingular(rng) -> tuple[float, float, dict]:
    space = lattice(1, 0)
    omega = _random_modulus(rng)
    h = float(rng.uniform(1.2, 3.0))
    kernel = PowerLawKernel(
        beta=float(rng.uniform(0.2, 0.9)), cutoff=float(rng.uniform(20.0, 40.0))
    )
    spec = _random_cone_spec(space, omega, rng)
    f = make_cone_function(space, omega, spec)
    lam = f.certified_holder_bound

    cut = int(math.floor(kernel.cutoff))
    radius = int(math.ceil(f.support_radius)) + cut + 1
    plan = _lattice.sweep_plan(space, radius, cut, punctured=True)
    weights = np.asarray(kernel.value(space.norm(plan.offsets), space.d))
    padded = _lattice.evaluate_padded(plan, f.evaluator)
    weighted = _kernels.ball_sums(padded, plan.base_idx, plan.lin_offsets, weights)
    vals = padded[plan.base_idx] * weights.sum() - weighted
    lhs = float(np.max(np.abs(vals)))

    a_h = kernel_ball_mass(space, omega, kernel, h).value
    t_h = kernel_tail_mass(space, kernel, h).value
    rhs = lam * a_h + 2.0 * f.certified_sup_norm * t_h
    case = {
        "modulus": omega.to_config(),
        "h": h,
        "kernel": kernel.to_config(),
        "cones": spec.describe(),
    }
    return rhs - lhs, rhs, case


def _suite_trial_mixed(theorem_id: str, rng) -> tuple[float, float, dict]:
    power_only = theorem_id == "mixed_multiplicative"
    omega = _random_modulus(rng, power_only=power_only)
    d = int(rng.integers(1, 3))
    m = int(rng.integers(0, d + 1))
    lams = rng.uniform(0.5, 2.0, d)
    if omega.is_bounded():
        t_last = omega.breakpoints()[-1]
        radii = rng.uniform(0.3, max(0.4, 0.9 * t_last), d)
    else:
        radii = rng.uniform(0.3, 2.0, d)
    heights = np.array([lam * float(omega(r)) for lam, r in zip(lams, radii)])
    masses = np.array(
        [
            2.0 * (c * r - lam * omega.antiderivative(r))
            for c, r, lam in zip(heights, radii, lams)
        ]
    )
    deriv_sup = float(np.prod(heights))
    func_sup = float(np.prod(masses))
    others = [float(np.prod(np.delete(heights, i))) for i in range(d)]
    holder_cert = float(np.sum(lams * np.array(others)))
    h = float(rng.uniform(0.5, 2.0))
    if theorem_id == "mixed_additive":
        rhs = mixed_nagy_rhs(d, m, omega, h, holder_cert, func_sup)
    else:
        rhs = mixed_multiplicative_rhs(d, m, omega.alpha, func_sup, holder_cert)
    case = {
        "modulus": omega.to_config(),
        "d": d,
        "m": m,
        "h": h,
        "factor_lams": list(map(float, lams)),
        "factor_radii": list(map(float, radii)),
    }
    return rhs - deriv_sup, rhs, case


def random_suite(theorem_id: str, trials: int = 1000, seed: int = 1) -> SuiteReport:
    """Hammer one inequality with randomized certified-smooth functions.

    Every trial computes the left side exactly (lattice gathers or closed
    factor masses) and the right side from a certified upper bound on the
    smoothness constant, so a negative gap beyond tolerance is a genuine
    counterexample, never sampling noise.  Deterministic per seed.
    """
    from .operators import EQUALITY_TOLS, THEOREM_IDS

    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    tol = EQUALITY_TOLS[theorem_id]
    min_gap = math.inf
    worst: dict = {}
    violations = 0
    for i in range(trials):
        if theorem_id in ("lemma1", "nagy", "nagy_l1", "sobolev", "charge"):
            gap, rhs, case = _suite_trial_additive(theorem_id, rng)
        elif theorem_id == "hypersingular":
            gap, rhs, case = _suite_trial_hypersingular(rng)
        else:
            gap, rhs, case = _suite_trial_mixed(theorem_id, rng)
        if gap < min_gap:
            min_gap = gap
            worst = {"trial": i, "gap": gap, **case}
        if gap < -tol * max(1.0, abs(rhs)):
            violations += 1
    return SuiteReport(
        theorem_id=theorem_id,
        trials=trials,
        violations=violations,
        min_gap=min_gap,
        worst_case=worst,
        seed=seed,
    )


# ======================================================================
# Monte Carlo cross-checks of deterministic paths
# ======================================================================

MC_CHECKS = (
    "ball_integral",
    "kernel_ball_mass",
    "kernel_tail_mass",
    "l1_feh",
    "split_objective",
    "steklov_point",
)


def _check_pair(name: str, det: float, mc: float, stderr: float) -> dict:
    delta = abs(det - mc)
    # a zero-variance estimator must agree to rounding error
    ok = delta <= 4.0 * stderr + 1e-9 * max(1.0, abs(det))
    sigmas = delta / stderr if stderr > 0 else 0.0
    return {
        "name": name,
        "deterministic": det,
        "monte_carlo": mc,
        "stderr": stderr,
        "sigmas": sigmas,
        "ok": bool(ok),
    }


def mc_cross_check(name: str, seed: int = 0, samples: int = 200_000) -> dict:
    """Re-derive one closed-form quantity by Monte Carlo; report sigmas."""
    if name not in MC_CHECKS:
        raise ValueError(f"unknown cross-check {name!r}; expected one of {MC_CHECKS}")
    mc_spec = QuadratureSpec(method=MONTE_CARLO, mc_samples=samples, seed=seed)
    rng = np.random.default_rng(seed + 17)

    if name == "ball_integral":
        space, omega, h = continuum(2, 1), PowerModulus(0.7), 1.3
        det = ball_integral_of_modulus(space, omega, h).value
        est = ball_integral_of_modulus(space, omega, h, mc_spec)
        return _check_pair(name, det, est.value, est.error_bound)

    if name == "kernel_ball_mass":
        space = continuum(1, 0)
        omega = TableModulus([(0, 0), (Fraction(1, 2), Fraction(1, 2)), (2, 1)])
        kernel = PowerLawKernel(beta=0.6)
        det = kernel_ball_mass(space, omega, kernel, 1.5).value
        est = kernel_ball_mass(space, omega, kernel, 1.5, mc_spec)
        return _check_pair(name, det, est.value, est.error_bound)

    if name == "kernel_tail_mass":
        space, kernel = continuum(2, 1), PowerLawKernel(beta=0.5)
        det = kernel_tail_mass(space, kernel, 1.2).value
        est = kernel_tail_mass(space, kernel, 1.2, mc_spec)
        return _check_pair(name, det, est.value, est.error_bound)

    if name == "l1_feh":
        space, omega, h = continuum(2, 0), PowerModulus(0.5), 1.0
        f = make_f_eh(space, omega, h)
        det = f.certified_l1
        box = rng.uniform(-h, h, (samples, 2))
        vals = f(box)
        vol = (2.0 * h) ** 2
        mc = float(vals.mean()) * vol
        stderr = float(vals.std(ddof=1) / math.sqrt(samples)) * vol
        return _check_pair(name, det, mc, stderr)

    if name == "split_objective":
        omega, h = PowerModulus(1.0), 1.0
        split = split_point_a(omega, h, 2)
        f = make_f_eh(continuum(2, 0), omega, h)
        pts = np.column_stack(
            [rng.uniform(0.0, h, samples), rng.uniform(-h, h, samples)]
        )
        vals = np.where(pts[:, 0] < split.a, f(pts), 0.0)
        vol = 2.0 * h * h
        mc = float(vals.mean()) * vol
        stderr = float(vals.std(ddof=1) / math.sqrt(samples)) * vol
        det = split.total_mass / 2.0  # the split point halves the slab mass
        return _check_pair(name, det, mc, stderr)

    if name == "steklov_point":
        space, omega, h = continuum(2, 0), PowerModulus(1.0), 1.0
        f = make_f_eh(space, omega, h)
        x = np.array([0.3, -0.2])
        from .calculus import ball_integral_at

        det = ball_integral_at(f, space, h, x)
        bare = FunctionModel(name="bare", evaluator=f.evaluator)
        u = space.sample_ball(h, samples, seed)
        vals = bare(x[None, :] + u)
        mu = float(space.ball_measure(h))
        mc = float(vals.mean()) * mu
        stderr = float(vals.std(ddof=1) / math.sqrt(samples)) * mu
        return _check_pair(name, det, mc, stderr)

    raise AssertionError("unreachable")
