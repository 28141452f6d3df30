"""Moduli of continuity: admissible gauges ``omega`` for smoothness classes.

Two families are supported.

``PowerModulus(alpha)``
    ``omega(t) = t**alpha`` with ``0 < alpha <= 1``.  Concave, unbounded,
    with exact antiderivative ``t**(1+alpha) / (1+alpha)``.

``TableModulus(points)``
    Concave piecewise-linear interpolation through ``(t_i, w_i)`` starting at
    ``(0, 0)``, constant beyond the last breakpoint.  Concavity of the nodes
    (checked at construction) implies semi-additivity
    ``omega(s + t) <= omega(s) + omega(t)``, which is the property every
    bound in this package actually uses.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .space import RequestError, config_number

Real = Union[int, float, Fraction]


class Modulus:
    """Common interface; concrete classes implement the hooks below."""

    def __call__(self, t):
        raise NotImplementedError

    def antiderivative(self, t: float) -> float:
        """Exact ``integral of omega on [0, t]``."""
        raise NotImplementedError

    def inverse(self, y: float) -> float:
        """Smallest ``t`` with ``omega(t) >= y`` (``inf`` if unreachable)."""
        raise NotImplementedError

    def eval_fraction(self, t: Fraction) -> Fraction:
        """Exact rational evaluation; raises if the value is irrational."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Interior points where the derivative may jump (for quadrature)."""
        return ()

    def pieces(self, lo: float, hi: float) -> list[tuple[float, float, float, float, float]]:
        """Decompose omega on [lo, hi] into exact power pieces.

        Returns ``(s0, s1, sigma, p, tau)`` tuples with
        ``omega(t) = sigma * t**p + tau`` on each [s0, s1]; the basis of all
        closed-form integrals against the modulus.
        """
        raise NotImplementedError

    def is_bounded(self) -> bool:
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class PowerModulus(Modulus):
    alpha: float = 1.0

    def __post_init__(self):
        a = float(self.alpha)
        if not (0.0 < a <= 1.0):
            raise RequestError(f"power modulus needs 0 < alpha <= 1, got {self.alpha}")

    def __call__(self, t):
        tv = np.asarray(t, dtype=np.float64)
        out = np.power(tv, self.alpha)
        return out if out.ndim else float(out)

    def antiderivative(self, t: float) -> float:
        p = 1.0 + self.alpha
        return float(t) ** p / p

    def inverse(self, y: float) -> float:
        if y <= 0:
            return 0.0
        return float(y) ** (1.0 / self.alpha)

    def eval_fraction(self, t: Fraction) -> Fraction:
        if self.alpha != 1.0:
            raise ValueError(
                f"t**{self.alpha} is irrational on the lattice; exact mode needs alpha = 1"
            )
        if t < 0:
            raise ValueError("modulus argument must be nonnegative")
        return Fraction(t)

    def pieces(self, lo: float, hi: float):
        if hi <= lo:
            return []
        return [(float(lo), float(hi), 1.0, float(self.alpha), 0.0)]

    def is_bounded(self) -> bool:
        return False

    def to_config(self) -> dict:
        return {"kind": "power", "alpha": float(self.alpha)}


class TableModulus(Modulus):
    """Concave piecewise-linear modulus through given nodes.

    Parameters
    ----------
    points : sequence of (t, w) pairs
        Must start at (0, 0) with strictly increasing ``t`` and nondecreasing
        ``w``, and be concave (nonincreasing chord slopes): the constructive
        guarantee of semi-additivity.  The nodes are checked exactly, as
        integers over a common denominator of the ``t`` (and of the ``w``),
        with slopes compared by cross-multiplication.  Values past the last
        node are held constant.
    """

    def __init__(self, points: Sequence[Sequence[Real]]):
        # Fraction nodes skip the reader: the randomized suites build a table every other trial
        pts = [(t if isinstance(t, Fraction) else config_number(t, "table node", exact=True),
                w if isinstance(w, Fraction) else config_number(w, "table node", exact=True))
               for t, w in points]
        if len(pts) < 2:
            raise RequestError("table modulus needs at least two nodes")
        if pts[0] != (0, 0):
            raise RequestError("table modulus must start at (0, 0)")
        t_den = math.lcm(*(t.denominator for t, _ in pts))
        w_den = math.lcm(*(w.denominator for _, w in pts))
        ts = [t.numerator * (t_den // t.denominator) for t, _ in pts]
        ws = [w.numerator * (w_den // w.denominator) for _, w in pts]
        dt = [t1 - t0 for t0, t1 in zip(ts, ts[1:])]
        dw = [w1 - w0 for w0, w1 in zip(ws, ws[1:])]
        if min(dt) <= 0:
            raise RequestError("table nodes need strictly increasing t")
        if min(dw) < 0:
            raise RequestError("table values must be nondecreasing")
        # slope dw1/dt1 > dw0/dt0, cross-multiplied over the positive gaps
        if any(dw1 * dt0 > dw0 * dt1 for dw0, dw1, dt0, dt1 in zip(dw, dw[1:], dt, dt[1:])):
            raise RequestError(
                "table modulus must be concave (nonincreasing slopes); "
                "a convex jump breaks semi-additivity"
            )
        self._exact = pts
        self._numerators = (ts, ws, 2 * t_den * w_den)
        # int / int is correctly rounded, so these are float() of the nodes
        self._t = np.array([t / t_den for t in ts], dtype=np.float64)
        self._w = np.array([w / w_den for w in ws], dtype=np.float64)

    @functools.cached_property
    def _cum(self) -> list:
        """The integrals of the modulus from 0 to each node, as floats,
        built on the first ``antiderivative`` call, their only reader.  The
        trapezoid ``(t1 - t0) (w0 + w1) / 2`` is an integer over the one
        denominator ``2 t_den w_den``, so each integral is an exact integer
        sum, divided once: ``int / int`` rounds correctly, the float of
        the ``Fraction`` sum."""
        ts, ws, den = self._numerators
        areas = ((t1 - t0) * (w0 + w1) for t0, t1, w0, w1 in zip(ts, ts[1:], ws, ws[1:]))
        return [num / den for num in itertools.accumulate(areas, initial=0)]

    def __call__(self, t):
        tv = np.asarray(t, dtype=np.float64)
        out = np.interp(tv, self._t, self._w)
        return out if out.ndim else float(out)

    def antiderivative(self, t: float) -> float:
        tf = float(t)
        if tf <= 0:
            return 0.0
        idx = int(np.searchsorted(self._t, tf, side="right")) - 1
        if idx >= len(self._t) - 1:
            # beyond the last node the modulus is constant
            full = self._cum[-1]
            return full + (tf - float(self._t[-1])) * float(self._w[-1])
        t0, w0 = float(self._t[idx]), float(self._w[idx])
        t1, w1 = float(self._t[idx + 1]), float(self._w[idx + 1])
        frac = (tf - t0) / (t1 - t0)
        w_at = w0 + frac * (w1 - w0)
        return self._cum[idx] + (tf - t0) * (w0 + w_at) / 2.0

    def inverse(self, y: float) -> float:
        if y <= 0:
            return 0.0
        if y > float(self._w[-1]):
            return float("inf")
        idx = int(np.searchsorted(self._w, y, side="left"))
        t0, w0 = float(self._t[idx - 1]), float(self._w[idx - 1])
        t1, w1 = float(self._t[idx]), float(self._w[idx])
        return t0 + (y - w0) * (t1 - t0) / (w1 - w0)

    def eval_fraction(self, t: Fraction) -> Fraction:
        if t < 0:
            raise ValueError("modulus argument must be nonnegative")
        pts = self._exact
        if t >= pts[-1][0]:
            return pts[-1][1]
        for (t0, w0), (t1, w1) in zip(pts, pts[1:]):
            if t0 <= t <= t1:
                return w0 + (t - t0) * (w1 - w0) / (t1 - t0)
        return Fraction(0)

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(float(t) for t in self._t[1:])

    def pieces(self, lo: float, hi: float):
        if hi <= lo:
            return []
        out = []
        cuts = [float(lo)]
        for t in self._t:
            tf = float(t)
            if lo < tf < hi:
                cuts.append(tf)
        cuts.append(float(hi))
        for s0, s1 in zip(cuts, cuts[1:]):
            mid = 0.5 * (s0 + s1)
            idx = int(np.searchsorted(self._t, mid, side="right")) - 1
            if idx >= len(self._t) - 1:
                out.append((s0, s1, 0.0, 1.0, float(self._w[-1])))
            else:
                t0, w0 = float(self._t[idx]), float(self._w[idx])
                t1, w1 = float(self._t[idx + 1]), float(self._w[idx + 1])
                slope = (w1 - w0) / (t1 - t0)
                out.append((s0, s1, slope, 1.0, w0 - slope * t0))
        return out

    def is_bounded(self) -> bool:
        return True

    @property
    def max_value(self) -> float:
        return float(self._w[-1])

    def to_config(self) -> dict:
        return {
            "kind": "table",
            "points": [[float(t), float(w)] for t, w in self._exact],
        }

    def __repr__(self):
        nodes = ", ".join(f"({float(t):g}, {float(w):g})" for t, w in self._exact)
        return f"TableModulus([{nodes}])"


def from_config(cfg: dict) -> Modulus:
    """The modulus a config object describes.  Anything malformed, down to
    a table node that is no number or lies beyond the float range, raises
    ``RequestError``."""
    try:
        kind = cfg.get("kind")
        if kind == "power":
            return PowerModulus(alpha=config_number(cfg.get("alpha", 1.0), "alpha"))
        if kind == "table":
            pts = cfg.get("points")
            if not pts:
                raise ValueError("table modulus config needs a 'points' list")
            return TableModulus(pts)
        raise ValueError(f"unknown modulus kind: {kind!r}")
    except (ValueError, TypeError) as exc:
        raise RequestError(f"bad modulus config: {exc}") from exc
