"""Ground spaces: products of half-lines and full lines, continuous or discrete.

A space is determined by three numbers:

* ``d``    -- total dimension;
* ``m``    -- how many leading coordinates are restricted to be >= 0;
* ``kind`` -- ``"continuum"`` (Lebesgue measure on R^m_+ x R^(d-m)) or
  ``"lattice"`` (counting measure on Z^m_+ x Z^(d-m)).

The metric is the sup metric ``rho(x, y) = max_i |x_i - y_i|`` and balls are
open: ``B_h(x) = {y : rho(x, y) < h}``.  Both structures are translation
invariant under the monoid operation (coordinatewise addition), which is what
every averaging operator in this package relies on.

Measure of the ball around the origin:

* continuum: ``mu(B_h) = h^m * (2h)^(d-m) = 2^(d-m) * h^d``;
* lattice:   ``(K+1)^m * (2K+1)^(d-m)`` where ``K`` is the largest integer
  strictly below ``h``.  For ``h <= 1`` the lattice ball degenerates to the
  origin alone, so lattice operations require ``h > 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from ._lattice import window_points

CONTINUUM = "continuum"
LATTICE = "lattice"

HLike = Union[int, float, Fraction]


def strict_int_below(h: HLike) -> int:
    """Largest integer strictly less than ``h`` (h > 0), exact for Fractions."""
    if isinstance(h, Fraction):
        return (h.numerator - 1) // h.denominator
    hf = float(h)
    if hf <= 0:
        raise ValueError(f"radius must be positive, got {h}")
    if hf == math.floor(hf):
        return int(hf) - 1
    return math.floor(hf)


def config_integer(value, name: str) -> int:
    """An integer config field.  Integral numbers and integer strings pass;
    booleans, fractional numbers and anything else raise ``ValueError``
    instead of being truncated by ``int()``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"bad {name} {value!r}: expected an integer")


@dataclass(frozen=True)
class Space:
    """A half-line/line product space with its natural invariant measure."""

    kind: str
    d: int
    m: int

    def __post_init__(self):
        if self.kind not in (CONTINUUM, LATTICE):
            raise ValueError(f"unknown space kind: {self.kind!r}")
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError(f"dimension d must be a positive integer, got {self.d!r}")
        if not (isinstance(self.m, int) and 0 <= self.m <= self.d):
            raise ValueError(f"half-line count m must satisfy 0 <= m <= d, got {self.m!r}")

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------

    @property
    def is_lattice(self) -> bool:
        return self.kind == LATTICE

    @property
    def is_continuum(self) -> bool:
        return self.kind == CONTINUUM

    def origin(self) -> np.ndarray:
        dtype = np.int64 if self.is_lattice else np.float64
        return np.zeros(self.d, dtype=dtype)

    def distance(self, x, y) -> np.ndarray:
        """Sup-metric distance; broadcasts over leading axes."""
        xv = np.asarray(x, dtype=np.float64)
        yv = np.asarray(y, dtype=np.float64)
        if xv.shape[-1] != self.d or yv.shape[-1] != self.d:
            raise ValueError("dimension mismatch in distance")
        return np.max(np.abs(xv - yv), axis=-1)

    # ------------------------------------------------------------------
    # balls
    # ------------------------------------------------------------------

    def require_valid_radius(self, h: HLike) -> None:
        if not (float(h) > 0):
            raise ValueError(f"ball radius must be positive, got {h}")
        if self.is_lattice and not (float(h) > 1):
            raise ValueError(
                f"lattice balls need h > 1 (h = {h} gives the bare origin)"
            )

    def ball_measure(self, h: HLike):
        """Measure of the open ball of radius ``h`` around the origin.

        Exact: returns an ``int`` on lattices (a ``Fraction``-safe count) and
        a float on the continuum.
        """
        self.require_valid_radius(h)
        if self.is_lattice:
            k = strict_int_below(h)
            return (k + 1) ** self.m * (2 * k + 1) ** (self.d - self.m)
        hf = float(h)
        return 2.0 ** (self.d - self.m) * hf**self.d

    def enumerate_ball(self, h: HLike) -> np.ndarray:
        """All lattice points of the open ball around the origin, shape (K, d)."""
        if not self.is_lattice:
            raise ValueError("enumerate_ball is only defined on lattice spaces")
        self.require_valid_radius(h)
        return window_points(self, strict_int_below(h))

    def sample_ball(self, h: HLike, n: int, seed: int) -> np.ndarray:
        """Uniform sample of ``n`` points from the ball around the origin.

        Deterministic for a fixed seed: a single PCG64 stream filled in one
        vectorized call, so the result does not depend on how callers chunk
        or parallelize the work afterwards.
        """
        self.require_valid_radius(h)
        rng = np.random.default_rng(seed)
        if self.is_lattice:
            pts = self.enumerate_ball(h)
            idx = rng.integers(0, pts.shape[0], size=n)
            return pts[idx]
        hf = float(h)
        out = np.empty((n, self.d), dtype=np.float64)
        if self.m:
            out[:, : self.m] = rng.uniform(0.0, hf, size=(n, self.m))
        if self.d > self.m:
            out[:, self.m :] = rng.uniform(-hf, hf, size=(n, self.d - self.m))
        return out

    # ------------------------------------------------------------------
    # config round-trip
    # ------------------------------------------------------------------

    @staticmethod
    def from_config(cfg: dict) -> "Space":
        try:
            kind, d, m = cfg["kind"], cfg["d"], cfg["m"]
        except KeyError as exc:
            raise ValueError(f"space config missing key {exc}") from exc
        return Space(kind=str(kind), d=config_integer(d, "d"), m=config_integer(m, "m"))

    def to_config(self) -> dict:
        return {"kind": self.kind, "d": self.d, "m": self.m}


def continuum(d: int, m: int = 0) -> Space:
    return Space(CONTINUUM, d, m)


def lattice(d: int, m: int = 0) -> Space:
    return Space(LATTICE, d, m)
