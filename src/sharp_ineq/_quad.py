"""One-dimensional adaptive quadrature and bisection.

The integrator is bisection-refined Simpson: each interval is accepted when
the two-half refinement changes the Simpson value by less than 15x the local
tolerance (the classical Richardson estimate), otherwise it is split.  Known
kink locations can be passed so the subdivision never straddles a corner of
a piecewise-defined integrand; this keeps convergence fast for truncated
cones and table moduli.

A hard evaluation budget turns runaway refinements into errors instead of
silent inaccuracy.  ``bisect_increasing`` solves ``g(h) = target`` on a
bracket the caller knows straddles the root; it never widens it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be computed within its budget."""


DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-10
DEFAULT_MAX_EVALS = 1_000_000


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def _adaptive_piece(f, a, b, fa, fm, fb, whole, tol, evals, max_evals, depth):
    """Recursive worker. Returns (value, error_estimate, evals)."""
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    evals += 2
    if evals > max_evals:
        raise QuadratureError(
            f"adaptive Simpson exceeded its evaluation budget ({max_evals})"
        )
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    # 15 = 2**4 - 1: Richardson factor for Simpson's rule.
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0, evals
    lv, le, evals = _adaptive_piece(
        f, a, m, fa, flm, fm, left, tol / 2.0, evals, max_evals, depth - 1
    )
    rv, re, evals = _adaptive_piece(
        f, m, b, fm, frm, fb, right, tol / 2.0, evals, max_evals, depth - 1
    )
    return lv + rv, le + re, evals


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    kinks: Iterable[float] = (),
) -> tuple[float, float]:
    """Integrate ``f`` on [a, b], ``a <= b``; returns (value, error_bound).

    ``kinks`` lists interior points where the integrand may lose smoothness;
    the interval is pre-split there.  Tolerances combine as ``tol =
    max(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * |coarse estimate|)`` and are
    divided between subintervals proportionally to a first sweep; refinement
    stops at depth 60 or past ``DEFAULT_MAX_EVALS`` evaluations.  The
    constants are read at call time.
    """
    if b == a:
        return 0.0, 0.0

    pts = [a]
    for k in sorted(set(float(k) for k in kinks)):
        if a < k < b:
            pts.append(k)
    pts.append(b)

    # Coarse pass to set the relative-tolerance scale.
    coarse = 0.0
    cache = []
    evals = 0
    for lo, hi in zip(pts[:-1], pts[1:]):
        flo, fmid, fhi = f(lo), f(0.5 * (lo + hi)), f(hi)
        evals += 3
        s = _simpson(flo, fmid, fhi, hi - lo)
        cache.append((lo, hi, flo, fmid, fhi, s))
        coarse += s
    tol = max(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * abs(coarse))

    total = 0.0
    err_total = 0.0
    span = b - a
    for lo, hi, flo, fmid, fhi, s in cache:
        piece_tol = max(tol * (hi - lo) / span, 1e-300)
        v, e, evals = _adaptive_piece(
            f, lo, hi, flo, fmid, fhi, s, piece_tol, evals, DEFAULT_MAX_EVALS, 60
        )
        total += v
        err_total += e
    return total, err_total


def bisect_increasing(
    g: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
) -> float:
    """Solve ``g(h) = target`` for increasing ``g`` by bisection on [lo, hi].

    A bracket that does not straddle the target raises ``QuadratureError``.
    Terminates when the bracket width drops below 1e-12 relative to the
    midpoint, or after 400 halvings.
    """
    if g(lo) > target or g(hi) < target:
        raise QuadratureError("the bracket does not straddle the target value")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if (hi - lo) <= 1e-12 * max(abs(mid), 1e-300):
            return mid
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _power_term(coeff: float, q: float, s0: float, s1: float) -> float:
    """``coeff * integral of t**(q-1) over [s0, s1]`` in closed form.

    Endpoints may be 0 or inf wherever the integral converges; anything
    divergent, or a power beyond the float range, raises instead of
    returning inf/nan.
    """
    if coeff == 0.0:
        return 0.0
    if q == 0.0:
        if s0 <= 0.0 or math.isinf(s1):
            raise QuadratureError("divergent logarithmic power integral")
        return coeff * math.log(s1 / s0)
    if q < 0.0 and s0 <= 0.0:
        raise QuadratureError(f"power integral t**{q - 1:g} diverges at 0")
    if q > 0.0 and math.isinf(s1):
        raise QuadratureError(f"power integral t**{q - 1:g} diverges at infinity")
    try:
        lo = s0**q
        hi = 0.0 if math.isinf(s1) else s1**q
    except OverflowError:
        raise QuadratureError(
            f"power integral t**{q - 1:g} overflows the float range on [{s0:g}, {s1:g}]"
        ) from None
    return coeff * (hi - lo) / q


def piecewise_power_integral(
    pieces: Sequence[tuple[float, float, float, float, float]],
    lo: float,
    hi: float,
    weight_exponent: float = 0.0,
) -> float:
    """``integral over [lo, hi] of f(t) * t**weight_exponent`` for piecewise-power f.

    ``pieces`` rows are ``(s0, s1, sigma, p, tau)`` meaning
    ``f(t) = sigma * t**p + tau`` on [s0, s1] (``s1`` may be inf).  Exact up to
    floating point; raises QuadratureError on divergence.
    """
    k = float(weight_exponent)
    total = 0.0
    for s0, s1, sigma, p, tau in pieces:
        a = max(float(s0), float(lo))
        b = min(float(s1), float(hi))
        if b <= a:
            continue
        total += _power_term(float(sigma), float(p) + k + 1.0, a, b)
        total += _power_term(float(tau), k + 1.0, a, b)
    return total
