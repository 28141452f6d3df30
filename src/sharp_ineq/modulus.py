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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

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
        # not Python's pow: it can differ from np.power in the last bit, which arrays take
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


class _Nodes(NamedTuple):
    """Table nodes ``(ts[i] / t_den, ws[i] / w_den)`` as integer numerators:
    a caller that has them passes this record instead of ``(t, w)`` pairs."""

    ts: list
    ws: list
    t_den: int
    w_den: int


class TableModulus(Modulus):
    """Concave piecewise-linear modulus through given nodes.

    Parameters
    ----------
    points : sequence of (t, w) pairs, or a ``_Nodes`` record
        Must start at (0, 0) with strictly increasing ``t`` and nondecreasing
        ``w``, and be concave (nonincreasing chord slopes): the constructive
        guarantee of semi-additivity.  The nodes are checked exactly, as
        integers over a common denominator of the ``t`` (and of the ``w``),
        with slopes compared by cross-multiplication.  Values past the last
        node are held constant.

    The nodes are kept as those integer numerators and as tuples of their
    floats (``int / int`` rounds correctly: ``float`` of each node); their
    ``Fraction``s and numpy arrays are built when first read.  Scalar reads
    ``bisect`` the tuples: a float argument takes ``np.interp``'s formula,
    an array ``np.interp`` itself, and the two agree bit for bit.
    """

    def __init__(self, points: Union[_Nodes, Sequence[Sequence[Real]]]):
        if isinstance(points, _Nodes):
            ts, ws, t_den, w_den = points
        else:
            # Fraction nodes skip the reader
            pts = [(t if isinstance(t, Fraction) else config_number(t, "table node", exact=True),
                    w if isinstance(w, Fraction) else config_number(w, "table node", exact=True))
                   for t, w in points]
            t_den = math.lcm(*(t.denominator for t, _ in pts))
            w_den = math.lcm(*(w.denominator for _, w in pts))
            ts = [t.numerator * (t_den // t.denominator) for t, _ in pts]
            ws = [w.numerator * (w_den // w.denominator) for _, w in pts]
        if len(ts) < 2:
            raise RequestError("table modulus needs at least two nodes")
        if ts[0] or ws[0]:
            raise RequestError("table modulus must start at (0, 0)")
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
        self._nodes = _Nodes(ts, ws, t_den, w_den)
        self._t = tuple(t / t_den for t in ts)
        self._w = tuple(w / w_den for w in ws)

    @functools.cached_property
    def _exact(self) -> list:
        ts, ws, t_den, w_den = self._nodes
        return [(Fraction(t, t_den), Fraction(w, w_den)) for t, w in zip(ts, ws)]

    @functools.cached_property
    def _arrays(self) -> tuple:
        return np.array(self._t), np.array(self._w)

    @functools.cached_property
    def _cum(self) -> list:
        """The integrals of the modulus from 0 to each node, as floats,
        built on the first ``antiderivative`` call, their only reader.  The
        trapezoid ``(t1 - t0) (w0 + w1) / 2`` is an integer over the one
        denominator ``2 t_den w_den``, so each integral is an exact integer
        sum, divided once: ``int / int`` rounds correctly, the float of
        the ``Fraction`` sum."""
        ts, ws, t_den, w_den = self._nodes
        den = 2 * t_den * w_den
        areas = ((t1 - t0) * (w0 + w1) for t0, t1, w0, w1 in zip(ts, ts[1:], ws, ws[1:]))
        return [num / den for num in itertools.accumulate(areas, initial=0)]

    def __call__(self, t):
        if not isinstance(t, float):
            out = np.interp(np.asarray(t, dtype=np.float64), *self._arrays)
            return out if out.ndim else float(out)
        # np.interp on one point: NaN passes, w[0] below the nodes, the
        # node value on a hit and past the last node, else slope * (t - t_j) + w_j
        tf, ts, ws = float(t), self._t, self._w
        if tf != tf:
            return tf
        j = max(bisect_right(ts, tf) - 1, 0)
        if j == len(ts) - 1 or ts[j] >= tf:
            return ws[j]
        return (ws[j + 1] - ws[j]) / (ts[j + 1] - ts[j]) * (tf - ts[j]) + ws[j]

    def antiderivative(self, t: float) -> float:
        tf = float(t)
        if tf <= 0:
            return 0.0
        ts, ws = self._t, self._w
        idx = bisect_right(ts, tf) - 1
        if idx >= len(ts) - 1:
            # beyond the last node the modulus is constant
            return self._cum[-1] + (tf - ts[-1]) * ws[-1]
        t0, w0, t1, w1 = ts[idx], ws[idx], ts[idx + 1], ws[idx + 1]
        frac = (tf - t0) / (t1 - t0)
        w_at = w0 + frac * (w1 - w0)
        return self._cum[idx] + (tf - t0) * (w0 + w_at) / 2.0

    def inverse(self, y: float) -> float:
        ts, ws = self._t, self._w
        if y <= 0:
            return 0.0
        if y > ws[-1]:
            return float("inf")
        idx = bisect_left(ws, y)
        t0, w0, t1, w1 = ts[idx - 1], ws[idx - 1], ts[idx], ws[idx]
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
        return self._t[1:]

    def pieces(self, lo: float, hi: float):
        if hi <= lo:
            return []
        ts, ws = self._t, self._w
        out = []
        cuts = [float(lo), *(t for t in ts if lo < t < hi), float(hi)]
        for s0, s1 in zip(cuts, cuts[1:]):
            idx = bisect_right(ts, 0.5 * (s0 + s1)) - 1
            if idx >= len(ts) - 1:
                out.append((s0, s1, 0.0, 1.0, ws[-1]))
            else:
                t0, w0, t1, w1 = ts[idx], ws[idx], ts[idx + 1], ws[idx + 1]
                slope = (w1 - w0) / (t1 - t0)
                out.append((s0, s1, slope, 1.0, w0 - slope * t0))
        return out

    def is_bounded(self) -> bool:
        return True

    @property
    def max_value(self) -> float:
        return self._w[-1]

    def to_config(self) -> dict:
        return {"kind": "table", "points": [[t, w] for t, w in zip(self._t, self._w)]}

    def __repr__(self):
        nodes = ", ".join(f"({t:g}, {w:g})" for t, w in zip(self._t, self._w))
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
