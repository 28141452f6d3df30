"""Extremal functions: the witnesses that turn inequalities into equalities.

Families
--------

``make_f_eh(space, omega, h)``
    The truncated radial bump ``f(x) = (omega(h) - omega(rho(x, 0)))_+``.
    Uniform norm ``omega(h)``, smoothness constant 1, and both the
    window-h seminorm and the L1 norm equal
    ``omega(h) * mu(B_h) - I(h)``.  Saturates the averaged-oscillation
    bounds and the L1 variant, and is the mixed derivative of the iterated
    extremals below.

``make_f_omega(space, omega, c, sign)``
    ``c + sign * omega(rho(x, 0))``: smoothness constant exactly 1,
    saturating the Steklov deviation bound at the origin.

``make_f_e_omega(space, omega, h)``
    ``omega(rho) - omega(h)/2`` inside the h-ball, ``omega(h)/2`` outside;
    the two-sided witness for the truncated singular-kernel bound.

``make_g_eh(omega, h, d)`` (all-lines space) and ``make_G_eh(omega, h, d)``
    (one half-line coordinate) integrate ``f_eh`` once along every
    coordinate, so their mixed derivative is ``f_eh`` itself.  ``G`` starts
    its first-coordinate integration at the median split point ``a`` that
    bisects the mass of ``(omega(h) - omega(rho))`` across the hyperplane
    ``x_1 = a``, which is exactly what makes its uniform norm minimal.

Every constructor attaches certified metadata evaluated in closed form from
``(omega, h, space)`` at construction time, so parameter sweeps stay exact.

The iterated integrals are evaluated without nested quadrature: integrating
a function of ``max_i u_i`` over a box reduces, through the distribution
function of the max, to a single 1-D Stieltjes integral whose integrand is
piecewise ``t**p``; ``_box_mass`` sums those pieces exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as _npoly

from .calculus import Estimate, FunctionModel, ball_integral_of_modulus, constant_model
from .modulus import Modulus
from .space import Space, continuum


# ======================================================================
# exact box masses  integral of (omega(h) - omega(max_i u_i))_+ over a box
# ======================================================================


def _power_diff(q: float, s0: float, s1: float) -> float:
    """(s1**q - s0**q) / q, the antiderivative increment of t**(q-1)."""
    return (s1**q - s0**q) / q


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
        coeffs = np.array([1.0])
        for a, b in clipped:
            if mid < b:
                coeffs = _npoly.polymul(coeffs, np.array([-a, 1.0]))
            else:
                coeffs = coeffs * (b - a)
        deriv = _npoly.polyder(coeffs)
        for p0, p1, sigma, p, tau in omega.pieces(s0, s1):
            for k, ck in enumerate(deriv):
                if ck == 0.0:
                    continue
                total += ck * (W - tau) * _power_diff(k + 1, p0, p1)
                if sigma != 0.0:
                    total -= ck * sigma * _power_diff(k + 1 + p, p0, p1)
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


def _box_mass(omega: Modulus, h: float, l1: float, u1: float, rest: Sequence[float]) -> float:
    """Orthant box mass with explicit first-coordinate range (iterated-integral form)."""
    return _box_mass_orthant(
        omega, h, [(float(l1), float(u1))] + [(0.0, float(b)) for b in rest]
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

    def profile(t):
        return np.maximum(peak - np.asarray(omega(np.abs(t)), dtype=np.float64), 0.0)

    def evaluator(pts: np.ndarray) -> np.ndarray:
        return profile(space.norm(pts))

    deficiency = ball_deficiency(space, omega, h, i_h)
    kinks = [b for b in omega.breakpoints() if b < hf] + [hf]
    prof_pieces = [
        (s0, s1, -sg, p, peak - tau) for (s0, s1, sg, p, tau) in omega.pieces(0.0, hf)
    ] + [(hf, math.inf, 0.0, 1.0, 0.0)]
    meta = {"radial_kinks": kinks, "radial_pieces": prof_pieces}
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
        radial_profile=profile,
        certified_holder_bound=1.0,
        certified_sup_norm=peak,
        certified_seminorm_h=deficiency.value,
        seminorm_at_h=hf,
        certified_l1=deficiency.value,
        upper_gradient_bound=0.5,
        support_radius=hf,
        meta=meta,
    )


def make_f_omega(space: Space, omega: Modulus, c: float = 0.0, sign: int = +1) -> FunctionModel:
    """``c + sign * omega(rho(x, 0))``: the unbounded smoothness-1 witness."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    cf = float(c)

    def profile(t):
        return cf + sign * np.asarray(omega(np.abs(t)), dtype=np.float64)

    def evaluator(pts: np.ndarray) -> np.ndarray:
        return profile(space.norm(pts))

    sup = None
    if omega.is_bounded():
        reach = getattr(omega, "max_value", None)
        if reach is not None:
            sup = max(abs(cf + sign * reach), abs(cf))
    pieces = [
        (s0, s1, sign * sg, p, cf + sign * tau)
        for (s0, s1, sg, p, tau) in omega.pieces(0.0, math.inf)
    ]
    return FunctionModel(
        name=f"radial-gauge[c={cf:g},{'+' if sign > 0 else '-'}]",
        evaluator=evaluator,
        radial_profile=profile,
        certified_holder_bound=1.0,
        certified_sup_norm=sup,
        meta={"radial_kinks": list(omega.breakpoints()), "radial_pieces": pieces},
    )


def make_f_e_omega(space: Space, omega: Modulus, h) -> FunctionModel:
    """Two-level witness: ``omega(rho) - omega(h)/2`` in B_h, ``omega(h)/2`` outside."""
    space.require_valid_radius(h)
    hf = float(h)
    half = float(omega(hf)) / 2.0

    def profile(t):
        tv = np.abs(np.asarray(t, dtype=np.float64))
        inner = np.asarray(omega(tv), dtype=np.float64) - half
        return np.where(tv < hf, inner, half)

    def evaluator(pts: np.ndarray) -> np.ndarray:
        return profile(space.norm(pts))

    pieces = [
        (s0, s1, sg, p, tau - half) for (s0, s1, sg, p, tau) in omega.pieces(0.0, hf)
    ] + [(hf, math.inf, 0.0, 1.0, half)]
    return FunctionModel(
        name=f"two-level[h={hf:g}]",
        evaluator=evaluator,
        radial_profile=profile,
        certified_holder_bound=1.0,
        certified_sup_norm=half,
        meta={
            "radial_kinks": [b for b in omega.breakpoints() if b < hf] + [hf],
            "radial_pieces": pieces,
        },
    )


# ======================================================================
# iterated-integral families (continuum only)
# ======================================================================


def make_g_eh(omega: Modulus, h, d: int) -> FunctionModel:
    """Iterated integral of the bump from 0 along every coordinate (all-lines).

    ``g(x) = integral over prod_i [0, x_i] of f_eh``, with orientation signs
    for negative coordinates.  Its mixed derivative is ``f_eh`` itself; its
    uniform norm is ``h^d * omega(h) - 2^(-d) * I(h)``, attained on the
    corner ``(h, ..., h)``.
    """
    sp = continuum(d, 0)
    sp.require_valid_radius(h)
    hf = float(h)

    def evaluator(pts: np.ndarray) -> np.ndarray:
        out = np.empty(pts.shape[0], dtype=np.float64)
        for i, row in enumerate(pts):
            sign = 1.0
            for c in row:
                if c < 0:
                    sign = -sign
                elif c == 0:
                    sign = 0.0
                    break
            if sign == 0.0:
                out[i] = 0.0
                continue
            absr = np.abs(row)
            out[i] = sign * _box_mass(omega, hf, 0.0, float(absr[0]), absr[1:].tolist())
        return out

    sup = _box_mass(omega, hf, 0.0, hf, [hf] * (d - 1))
    return FunctionModel(
        name=f"iterated-bump[d={d},h={hf:g}]",
        evaluator=evaluator,
        certified_sup_norm=sup,
        meta={
            "mixed_derivative_holder": 1.0,
            "mixed_derivative_sup": float(omega(hf)),
            "sup_attained_at": np.full(d, hf),
        },
    )


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
    Plain bisection; the objective is continuous and strictly increasing.
    """
    hf = float(h)
    if not hf > 0:
        raise ValueError("h must be positive")
    factor = 2.0 ** (d - 1)

    def mass_below(a: float) -> float:
        return factor * _box_mass(omega, hf, 0.0, a, [hf] * (d - 1))

    total = mass_below(hf)
    if not total > 0:
        raise ValueError("degenerate bump: zero mass (is omega constant near 0?)")
    target = 0.5 * total
    lo, hi = 0.0, hf
    for _ in range(90):  # width h * 2**-90 << 1e-12 * h
        mid = 0.5 * (lo + hi)
        if mass_below(mid) < target:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    return SplitPoint(a=a, residual=mass_below(a) - target, total_mass=total)


def make_G_eh(omega: Modulus, h, d: int) -> FunctionModel:
    """Iterated bump integral on the one-half-line space, centered at the split.

    ``G(x) = integral_a^{x_1} integral_0^{x_2} ... integral_0^{x_d} f_eh``.
    The mixed derivative is again ``f_eh``; starting the first coordinate at
    the mass-bisecting ``a`` equalizes the two extreme values, giving
    ``sup |G| = (h^d / 2) * omega(h) - 2^(-d) * I(h)``.
    """
    sp = continuum(d, 1)
    sp.require_valid_radius(h)
    hf = float(h)
    split = split_point_a(omega, h, d)
    a = split.a

    def evaluator(pts: np.ndarray) -> np.ndarray:
        out = np.empty(pts.shape[0], dtype=np.float64)
        for i, row in enumerate(pts):
            x1 = float(row[0])
            if x1 < 0:
                raise ValueError("first coordinate must be nonnegative on this space")
            sign = 1.0 if x1 >= a else -1.0
            for c in row[1:]:
                if c < 0:
                    sign = -sign
                elif c == 0:
                    sign = 0.0
                    break
            if sign == 0.0:
                out[i] = 0.0
                continue
            lo1, hi1 = (a, x1) if x1 >= a else (x1, a)
            absrest = np.abs(row[1:])
            out[i] = sign * _box_mass(omega, hf, lo1, hi1, absrest.tolist())
        return out

    sup = 0.5 * split.total_mass / (2.0 ** (d - 1))
    attained_lo = np.concatenate([[0.0], np.full(d - 1, hf)])
    attained_hi = np.full(d, hf)
    return FunctionModel(
        name=f"split-iterated-bump[d={d},h={hf:g}]",
        evaluator=evaluator,
        certified_sup_norm=sup,
        meta={
            "mixed_derivative_holder": 1.0,
            "mixed_derivative_sup": float(omega(hf)),
            "sup_attained_at": (attained_lo, attained_hi),
        },
    )


def sobolev_extremal_pair(space: Space, omega: Modulus, h, i_h: Estimate | None = None):
    """The pair saturating the upper-gradient bound: the bump (built on
    ``i_h`` as in ``make_f_eh``) and G == 1/2."""
    f = make_f_eh(space, omega, h, i_h)
    g = constant_model(space, 0.5)
    g.name = "upper-gradient[1/2]"
    return f, g
