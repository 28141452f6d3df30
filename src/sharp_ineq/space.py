"""Ground spaces: products of half-lines and full lines, continuous or discrete.

A space is determined by three numbers:

* ``d``    -- total dimension;
* ``m``    -- how many leading coordinates are restricted to be >= 0;
* ``kind`` -- ``"continuum"`` (Lebesgue measure on R^m_+ x R^(d-m)) or
  ``"lattice"`` (counting measure on Z^m_+ x Z^(d-m)).

``Space`` is the one place that knows the metric and its measure: the sup
norm ``rho(u) = max_i |u_i|`` (``norm``; the distance is ``norm(x - y)``,
and the exact integer ``lattice_distance`` serves the Fraction sweeps), the
ball measure, the sphere constant, the lattice ball (``closed_ball``), the
lattice shell counts and ball sampling.  Balls are open:
``B_h(x) = {y : rho(x, y) < h}``.  Both structures are translation invariant
under the monoid operation (coordinatewise addition), which is what every
averaging operator in this package relies on.

Measure of the ball around the origin:

* continuum: ``mu(B_h) = h^m * (2h)^(d-m) = 2^(d-m) * h^d``, so
  ``d mu(B_t) / dt = c * t^(d-1)`` with the sphere constant ``c = d * 2^(d-m)``;
* lattice:   ``(K+1)^m * (2K+1)^(d-m)`` where ``K`` is the largest integer
  strictly below ``h``.  For ``h <= 1`` the lattice ball degenerates to the
  origin alone, so lattice operations require ``h > 1``.

The mixed-difference bounds are statements about boxes ``prod_i [x_i, x_i +
h]`` or ``[x_i - h, x_i + h]``; their volumes and constants are written with
the box in view and stay tied to the sup metric.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from ._lattice import POINT_BUDGET, window_points

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


class RequestError(ValueError):
    """A request outside the package's rules: a malformed config value, or a
    method or theorem asked for where its hypotheses do not hold.  Numeric
    failures stay plain ``ValueError``; the command line tells the two apart
    by this type alone (exit 2 against exit 3)."""


def config_integer(value, name: str) -> int:
    """An integer config field.  Integral numbers and integer strings pass;
    booleans, fractional numbers and anything else raise ``RequestError``
    instead of being truncated by ``int()``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise RequestError(f"bad {name} {value!r}: expected an integer")


def config_seed(value, name: str) -> int:
    """A random seed: a ``config_integer`` that is nonnegative, as numpy's
    generators need."""
    seed = config_integer(value, name)
    if seed < 0:
        raise RequestError(f"{name} must be a nonnegative integer, got {seed}")
    return seed


def config_number(value, name: str, *, exact: bool = False):
    """The one reader of a config number: a number (not a bool) or a
    rational string such as ``"3/2"``, read as the decimal it prints,
    ``Fraction(str(x))`` (the float ``2.1`` is ``21/10`` in exact mode; in
    float mode every finite float reads as itself).  Returns a float, or
    with ``exact`` a ``Fraction``.  Anything else, ``NaN``, infinities and
    values beyond the float range (strings included) raise ``RequestError``.
    """
    try:
        if isinstance(value, bool) or not isinstance(value, (str, numbers.Real)):
            raise ValueError
        q = Fraction(str(value))  # "nan" and "inf" are no fractions
        x = float(q)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise RequestError(f"bad {name} {value!r}: expected a finite number") from None
    return q if exact else x


def _max_last_axis(a: np.ndarray):
    """``a.max(axis=-1)`` as ``np.maximum`` folded over the columns of a short
    last axis: the sup-norm reduction of ``Space.norm``, and the max over the
    cones of ``_kernels.cone_eval``, the reference the suites' cones are
    tested against.  NaN propagates as in ``np.max``; a 1-d ``a`` gives a
    numpy scalar, not a 0-d array."""
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out = np.maximum(out, a[..., j])
    return out[()]


@dataclass(frozen=True)
class Space:
    """A half-line/line product space with its natural invariant measure."""

    kind: str
    d: int
    m: int

    def __post_init__(self):
        if self.kind not in (CONTINUUM, LATTICE):
            raise RequestError(f"unknown space kind: {self.kind!r}")
        if not (isinstance(self.d, int) and self.d >= 1):
            raise RequestError(f"dimension d must be a positive integer, got {self.d!r}")
        if not (isinstance(self.m, int) and 0 <= self.m <= self.d):
            raise RequestError(f"half-line count m must satisfy 0 <= m <= d, got {self.m!r}")

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

    # ------------------------------------------------------------------
    # the metric
    # ------------------------------------------------------------------

    def norm(self, u) -> np.ndarray:
        """``rho(u, 0)`` over the last axis, as float64; a single point gives
        a numpy ``float64`` scalar.

        The max is folded over the ``d`` columns (``_max_last_axis``): numpy
        reduces a short last axis row by row, an order of magnitude slower
        than the fold.  A max is exact, so the bits are those of
        ``np.max(np.abs(u), axis=-1)``.
        """
        return _max_last_axis(np.abs(np.asarray(u, dtype=np.float64)))

    def lattice_distance(self, x: tuple, y: tuple) -> int:
        """``rho(x, y)`` of two integer coordinate tuples, exact (a Python
        int): the distances of the exact replays, which form no float."""
        return max(abs(a - b) for a, b in zip(x, y))

    @property
    def sphere_constant(self) -> float:
        """``c = d * mu(B_1) = d * 2^(d-m)`` on the continuum, so that
        ``d mu(B_t) / dt = c * t^(d-1)``: the factor of every radial
        (layer-cake) reduction.  Callers multiply it in as one factor:
        pre-forming ``c * t^(d-1)`` rounds differently."""
        return self.d * 2.0 ** (self.d - self.m)

    @functools.lru_cache(maxsize=64)
    def shell_count_coefficients(self) -> tuple[float, ...]:
        """Ascending coefficients of ``N(k)``, the number of points of
        ``Z_+^m x Z^(d-m)`` at distance exactly k >= 1 from the origin: the
        polynomial ``(k+1)^m (2k+1)^(d-m) - k^m (2k-1)^(d-m)`` of degree d - 1.
        Cached per space: building the polynomial costs more than a whole
        shell sum."""
        d, m = self.d, self.m
        k = np.polynomial.Polynomial([0.0, 1.0])
        n = (k + 1) ** m * (2 * k + 1) ** (d - m) - k**m * (2 * k - 1) ** (d - m)
        return tuple(n.coef[:d].tolist())  # the k^d terms cancel

    def require_sample_budget(self, n: int) -> None:
        """Refuse ``n`` sample points whose ``(n, d)`` coordinates exceed
        ``POINT_BUDGET``, before any generator is built.  ``sample_ball``, the
        shared offsets of a continuum ball integral and the L1 norm's box
        sample hold all ``n * d`` coordinates.  ``ball_sampler`` holds one
        block of points and does not refuse: the oracle's cross-checks draw
        through it at any ``n`` a ``QuadratureSpec`` admits, while the Monte
        Carlo ``I(h)`` keeps the refusal that bounds a config's
        ``mc_samples``."""
        if n * self.d > POINT_BUDGET:
            raise RequestError(
                f"mc_samples * d = {n} * {self.d} sample coordinates exceed "
                f"the budget of {POINT_BUDGET}"
            )

    # ------------------------------------------------------------------
    # balls
    # ------------------------------------------------------------------

    def require_valid_radius(self, h: HLike) -> None:
        if not (0 < float(h) < math.inf):
            raise RequestError(f"ball radius must be positive and finite, got {h}")
        if self.is_lattice and not (float(h) > 1):
            raise RequestError(
                f"lattice balls need h > 1 (h = {h} gives the bare origin)"
            )

    def ball_measure(self, h: HLike):
        """Measure of the open ball of radius ``h`` around the origin.

        Exact: returns an ``int`` on lattices (a ``Fraction``-safe count) and
        a float on the continuum.  On either, a measure beyond the float
        range raises ``ValueError`` naming ``mu(B_h)`` and ``h``.
        """
        self.require_valid_radius(h)
        if self.is_lattice:
            k = strict_int_below(h)
            count = (k + 1) ** self.m * (2 * k + 1) ** (self.d - self.m)
            if count > sys.float_info.max:  # int against float compares exactly
                raise ValueError(f"mu(B_h) overflows the float range at h = {float(h):g}")
            return count
        hf = float(h)
        try:
            mu = 2.0 ** (self.d - self.m) * hf**self.d
        except OverflowError:
            mu = math.inf
        if mu == math.inf:
            raise ValueError(f"mu(B_h) overflows the float range at h = {hf:g}")
        return mu

    def closed_ball(self, k: int) -> np.ndarray:
        """The lattice points with ``rho(u, 0) <= k`` in C order, shape (N, d):
        the one ball enumeration of the package (under the sup metric, the
        box ``{0..k}^m x {-k..k}^(d-m)``)."""
        return window_points(self, k)

    def enumerate_ball(self, h: HLike) -> np.ndarray:
        """All lattice points of the open ball around the origin, shape (K, d):
        ``closed_ball(strict_int_below(h))``."""
        if not self.is_lattice:
            raise ValueError("enumerate_ball is only defined on lattice spaces")
        self.require_valid_radius(h)
        return self.closed_ball(strict_int_below(h))

    def ball_sampler(self, h: HLike, n: int, seed: int) -> Callable[[int], np.ndarray]:
        """``draw(k)``, the next ``k`` rows of the uniform sample of ``n``
        points from the ball around the origin: a Monte Carlo path holds one
        block of points at a time, and the blocks, however cut, concatenate
        to the one sample of the seed.  On the continuum the half-line
        columns read ``default_rng(seed)``, the line columns a second one
        advanced past its first ``n * m`` words (a float64 uniform reads
        one).  On lattices the ``n`` ball indices are one ``integers`` call
        (bounded draws in blocks would discard buffered 32-bit halves) and a
        block is a gather.  The radius is checked before any generator is
        built; drawing more than ``n`` rows raises ``ValueError``.
        """
        self.require_valid_radius(h)
        pos = 0

        def claim(k: int) -> int:
            """The first row of the next ``k``."""
            nonlocal pos
            if not 0 <= k <= n - pos:
                raise ValueError(f"cannot draw {k} of the {n - pos} sample points left")
            pos += k
            return pos - k

        if self.is_lattice:
            pts = self.enumerate_ball(h)
            idx = np.random.default_rng(seed).integers(0, pts.shape[0], size=n)

            def draw(k: int) -> np.ndarray:
                start = claim(k)
                return pts[idx[start : start + k]]

            return draw
        hf, d, m = float(h), self.d, self.m
        half = np.random.default_rng(seed)
        line = np.random.default_rng(seed)
        line.bit_generator.advance(n * m)

        def draw(k: int) -> np.ndarray:
            claim(k)
            out = np.empty((k, d), dtype=np.float64)
            if m:
                out[:, :m] = half.uniform(0.0, hf, size=(k, m))
            if d > m:
                out[:, m:] = line.uniform(-hf, hf, size=(k, d - m))
            return out

        return draw

    def sample_ball(self, h: HLike, n: int, seed: int) -> np.ndarray:
        """Uniform sample of ``n`` points from the ball around the origin:
        ``ball_sampler(h, n, seed)`` drawn whole.  Deterministic for a fixed
        seed, and the same points however a caller of ``ball_sampler`` cuts
        them into blocks.  Radius and budget are checked before any
        generator is built."""
        self.require_valid_radius(h)
        self.require_sample_budget(n)
        return self.ball_sampler(h, n, seed)(n)

    # ------------------------------------------------------------------
    # config round-trip
    # ------------------------------------------------------------------

    @staticmethod
    def from_config(cfg: dict) -> "Space":
        try:
            kind, d, m = cfg["kind"], cfg["d"], cfg["m"]
        except KeyError as exc:
            raise RequestError(f"space config missing key {exc}") from exc
        return Space(kind=str(kind), d=config_integer(d, "d"), m=config_integer(m, "m"))

    def to_config(self) -> dict:
        return {"kind": self.kind, "d": self.d, "m": self.m}


def continuum(d: int, m: int = 0) -> Space:
    return Space(CONTINUUM, d, m)


def lattice(d: int, m: int = 0) -> Space:
    return Space(LATTICE, d, m)
