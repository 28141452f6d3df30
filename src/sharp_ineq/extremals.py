"""Extremal functions: the witnesses that turn inequalities into equalities.

Families
--------

``make_f_eh(space, omega, h)``
    The truncated radial bump ``f(x) = (omega(h) - omega(rho(x, 0)))_+``.
    Uniform norm ``omega(h)``, smoothness constant 1, and both the
    window-h seminorm and the L1 norm equal
    ``omega(h) * mu(B_h) - I(h)``.  Saturates the averaged-oscillation
    bounds and the L1 variant, and is the mixed derivative of the mixed
    extremal below.

``make_f_omega(space, omega)``
    The radial gauge ``omega(rho(x, 0))``: smoothness constant exactly 1,
    saturating the Steklov deviation bound at the origin.

``make_f_e_omega(space, omega, h)``
    ``omega(rho) - omega(h)/2`` inside the h-ball, ``omega(h)/2`` outside;
    the two-sided witness for the truncated singular-kernel bound.

``make_G_eh(space, omega, h)`` (continuum only)
    The corner-sign average of iterated bump integrals on
    ``R_+^m x R^(d-m)``, for every ``0 <= m <= d``.  Its mixed derivative is
    ``f_eh``, and its values at the ``2^d`` corners of the box
    ``[0,h]^m x [-h,h]^(d-m)`` alternate at ``+-sup|G|``, so both mixed
    bounds hold with equality.  For ``d = 2`` this is the theorem of
    Rivlin and Sibner (Amer. Math. Monthly, 1965): a function with
    ``F_xy >= 0`` is approximated by ``phi(x) + psi(y)`` with error a quarter
    of its corner difference.

``split_point_a(omega, h, d)`` solves for the hyperplane ``x_1 = a`` that
bisects the bump mass on the one-half-line box; the Monte Carlo cross-checks
read it, no extremal does.

Every constructor attaches certified metadata evaluated in closed form from
``(omega, h, space)`` at construction time, so parameter sweeps stay exact.
The three radial families state their profile once, as power pieces
(``FunctionModel.radial_pieces``) read off ``omega.pieces``.

The iterated integrals are evaluated without nested quadrature: integrating
a function of ``max_i u_i`` over a box reduces, through the distribution
function of the max, to a single 1-D Stieltjes integral whose integrand is
piecewise ``t**p``; ``_box_mass_orthant`` sums those pieces exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._quad import _power_term, bisect_increasing
from .calculus import Estimate, FunctionModel, ball_integral_of_modulus, constant_model
from .modulus import Modulus
from .space import Space


# ======================================================================
# exact box masses  integral of (omega(h) - omega(max_i u_i))_+ over a box
# ======================================================================


def _box_mass_orthant(
    omega: Modulus, h: float, bounds: Sequence[tuple[float, float]]
) -> float:
    """Exact ``integral over prod_i [a_i, b_i] of (omega(h) - omega(max_i u_i))_+``
    for a box in the positive orthant (all ``0 <= a_i < b_i``).

    The integrand vanishes once any coordinate exceeds ``h``, so the box is
    clipped there first.  The max of independent coordinates has distribution
    function ``V(t) = prod_i (min(b_i, t) - min(a_i, t))``, piecewise a
    polynomial with roots at the ``a_i``; integrating ``(omega(h) - omega) dV``
    reduces to closed-form power integrals on segments.
    """
    hf = float(h)
    W = float(omega(hf))
    clipped = []
    for a, b in bounds:
        a, b = min(float(a), hf), min(float(b), hf)
        if b <= a:
            return 0.0
        clipped.append((a, b))
    t0 = max(a for a, _ in clipped)
    top = max(b for _, b in clipped)
    if top <= t0:
        return 0.0

    cuts = sorted({t0, top, *[b for _, b in clipped if t0 < b < top]})
    total = 0.0
    for s0, s1 in zip(cuts, cuts[1:]):
        mid = 0.5 * (s0 + s1)
        coeffs = [1.0]  # V on this segment, lowest degree first
        for a, b in clipped:
            if mid < b:  # times (t - a)
                coeffs = [c * -a + low for c, low in zip(coeffs + [0.0], [0.0] + coeffs)]
            else:
                coeffs = [c * (b - a) for c in coeffs]
        deriv = [k * c for k, c in enumerate(coeffs)][1:]
        for p0, p1, sigma, p, tau in omega.pieces(s0, s1):
            for k, ck in enumerate(deriv):
                if ck == 0.0:
                    continue
                total += ck * (W - tau) * _power_term(1.0, k + 1, p0, p1)
                if sigma != 0.0:
                    total -= ck * sigma * _power_term(1.0, k + 1 + p, p0, p1)
    return total


def bump_box_integral(
    omega: Modulus, h: float, bounds: Sequence[tuple[float, float]]
) -> float:
    """``integral over prod_i [lo_i, hi_i] of (omega(h) - omega(max_i |u_i|))_+``
    for an arbitrary box (coordinate signs unrestricted).

    Splits each coordinate range at 0 and reflects the negative part, then
    sums the orthant pieces; exact for any modulus with power pieces.
    """
    parts_per_coord = []
    for lo, hi in bounds:
        lo, hi = float(lo), float(hi)
        if hi <= lo:
            return 0.0
        parts = []
        if hi > 0.0:
            parts.append((max(lo, 0.0), hi))
        if lo < 0.0:
            parts.append((max(-hi, 0.0), -lo))
        parts_per_coord.append(parts)
    return sum(
        _box_mass_orthant(omega, h, combo)
        for combo in itertools.product(*parts_per_coord)
    )


def ball_deficiency(space: Space, omega: Modulus, h, i_h: Estimate | None = None) -> Estimate:
    """``omega(h) * mu(B_h) - I(h)``: the shared seminorm/L1 value of the bump,
    on the caller's ``I(h)`` estimate ``i_h`` or, by default, ``default_spec``'s."""
    est = i_h or ball_integral_of_modulus(space, omega, h)
    mu = float(space.ball_measure(h))
    return Estimate(float(omega(float(h))) * mu - est.value, est.method, est.error_bound)


# ======================================================================
# radial families
# ======================================================================


def make_f_eh(space: Space, omega: Modulus, h, i_h: Estimate | None = None) -> FunctionModel:
    """The truncated bump ``(omega(h) - omega(rho(x, 0)))_+``; its certified
    seminorm and L1 norm are ``ball_deficiency(space, omega, h, i_h)``."""
    space.require_valid_radius(h)
    hf = float(h)
    peak = float(omega(hf))

    def evaluator(pts: np.ndarray) -> np.ndarray:
        return np.maximum(peak - np.asarray(omega(space.norm(pts)), dtype=np.float64), 0.0)

    deficiency = ball_deficiency(space, omega, h, i_h)
    pieces = [
        (s0, s1, -sg, p, peak - tau) for (s0, s1, sg, p, tau) in omega.pieces(0.0, hf)
    ] + [(hf, math.inf, 0.0, 1.0, 0.0)]
    meta = {}
    if space.is_continuum:

        def ball_mass(space_: Space, hw: float, x: np.ndarray) -> float:
            box = [
                (x[i], x[i] + hw) if i < space_.m else (x[i] - hw, x[i] + hw)
                for i in range(space_.d)
            ]
            return bump_box_integral(omega, hf, box)

        meta["ball_mass_fn"] = ball_mass
    return FunctionModel(
        name=f"bump[h={hf:g}]",
        evaluator=evaluator,
        radial_pieces=pieces,
        certified_holder_bound=1.0,
        certified_sup_norm=peak,
        certified_seminorm_h=deficiency.value,
        seminorm_at_h=hf,
        certified_l1=deficiency.value,
        support_radius=hf,
        meta=meta,
    )


def make_f_omega(space: Space, omega: Modulus) -> FunctionModel:
    """The radial gauge ``omega(rho(x, 0))``: the smoothness-1 witness,
    unbounded unless ``omega`` is."""

    def evaluator(pts: np.ndarray) -> np.ndarray:
        return np.asarray(omega(space.norm(pts)), dtype=np.float64)

    return FunctionModel(
        name="radial-gauge[c=0,+]",
        evaluator=evaluator,
        radial_pieces=omega.pieces(0.0, math.inf),
        certified_holder_bound=1.0,
        certified_sup_norm=omega.max_value if omega.is_bounded() else None,
    )


def make_f_e_omega(space: Space, omega: Modulus, h) -> FunctionModel:
    """Two-level witness: ``omega(rho) - omega(h)/2`` in B_h, ``omega(h)/2`` outside."""
    space.require_valid_radius(h)
    hf = float(h)
    half = float(omega(hf)) / 2.0

    def evaluator(pts: np.ndarray) -> np.ndarray:
        rho = space.norm(pts)
        return np.where(rho < hf, np.asarray(omega(rho), dtype=np.float64) - half, half)

    pieces = [
        (s0, s1, sg, p, tau - half) for (s0, s1, sg, p, tau) in omega.pieces(0.0, hf)
    ] + [(hf, math.inf, 0.0, 1.0, half)]
    return FunctionModel(
        name=f"two-level[h={hf:g}]",
        evaluator=evaluator,
        radial_pieces=pieces,
        certified_holder_bound=1.0,
        certified_sup_norm=half,
    )


# ======================================================================
# the mixed extremal (continuum only)
# ======================================================================


@dataclass(frozen=True)
class SplitPoint:
    """Solution of the mass-bisection equation for the half-line coordinate."""

    a: float
    residual: float
    total_mass: float


def split_point_a(omega: Modulus, h, d: int) -> SplitPoint:
    """Solve for the hyperplane ``x_1 = a`` bisecting the bump mass.

    On the one-half-line geometry ``B_h = (0,h) x (-h,h)^(d-1)``, find
    ``a`` in (0, h) with
    ``integral_{x in B_h, x_1 < a} (omega(h) - omega(rho)) = half the total``.
    Plain bisection (``bisect_increasing`` on ``[0, h]``, which straddles
    half the mass); the objective is continuous and strictly increasing.
    """
    hf = float(h)
    if not hf > 0:
        raise ValueError("h must be positive")
    factor = 2.0 ** (d - 1)

    def mass_below(a: float) -> float:
        return factor * _box_mass_orthant(omega, hf, [(0.0, a)] + [(0.0, hf)] * (d - 1))

    total = mass_below(hf)
    if not total > 0:
        raise ValueError("degenerate bump: zero mass (is omega constant near 0?)")
    target = 0.5 * total
    a = bisect_increasing(mass_below, target, 0.0, hf)
    return SplitPoint(a=a, residual=mass_below(a) - target, total_mass=total)


def make_G_eh(space: Space, omega: Modulus, h) -> FunctionModel:
    """The corner-sign mixed extremal on ``space = R_+^m x R^(d-m)``.

    ``G(x) = prod_{i >= m} sgn(x_i) * 2^(-m) * sum_tau (-1)^|tau| M_tau(x)``
    over ``tau`` in ``{0,1}^m``, where ``M_tau(x)`` is the bump mass over the
    orthant box with side ``[0, x_i]`` (``tau_i = 0``) or ``[x_i, h]``
    (``tau_i = 1``) on a half-line coordinate and ``[0, |x_i|]`` on a line
    coordinate.  The bump is even in every coordinate, so each term has mixed
    derivative ``f_eh`` and the average does too.  The masses are nonnegative
    and sum to at most the orthant mass ``M`` of the bump, so
    ``sup |G| = 2^(-m) M``, attained with alternating signs at the corners of
    ``[0,h]^m x [-h,h]^(d-m)``.
    """
    if not space.is_continuum:
        raise ValueError("the mixed extremal is a continuum witness")
    space.require_valid_radius(h)
    d, m = space.d, space.m
    hf = float(h)
    taus = list(itertools.product((0, 1), repeat=m))

    def evaluator(pts: np.ndarray) -> np.ndarray:
        if m and np.any(pts[:, :m] < 0):
            raise ValueError("the half-line coordinates must be nonnegative on this space")
        out = np.empty(pts.shape[0], dtype=np.float64)
        for i, row in enumerate(pts):
            sign = float(np.prod(np.sign(row[m:])))
            if sign == 0.0:
                out[i] = 0.0
                continue
            absr = np.abs(row).tolist()
            total = 0.0
            for tau in taus:
                box = [
                    (c, hf) if k < m and tau[k] else (0.0, c) for k, c in enumerate(absr)
                ]
                total += (-1.0) ** sum(tau) * _box_mass_orthant(omega, hf, box)
            out[i] = sign * 2.0**-m * total
        return out

    sup = 2.0**-m * _box_mass_orthant(omega, hf, [(0.0, hf)] * d)
    return FunctionModel(
        name=f"corner-sign-bump[d={d},m={m},h={hf:g}]",
        evaluator=evaluator,
        certified_sup_norm=sup,
        meta={
            "mixed_derivative_holder": 1.0,
            "mixed_derivative_sup": float(omega(hf)),
        },
    )


def sobolev_extremal_pair(space: Space, omega: Modulus, h, i_h: Estimate | None = None):
    """The pair saturating the upper-gradient bound: the bump (built on
    ``i_h`` as in ``make_f_eh``) and G == 1/2."""
    f = make_f_eh(space, omega, h, i_h)
    g = constant_model(0.5)
    g.name = "upper-gradient[1/2]"
    return f, g
