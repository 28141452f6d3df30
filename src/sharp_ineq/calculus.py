"""Integral calculus on the model spaces: ball integrals, norms, seminorms.

Central quantities
------------------

``ball_integral_of_modulus``
    ``I(h) = integral over B_h of omega(rho(u, 0)) d(mu)``.  This single
    number drives every approximation bound in the package.  Four methods:

    * ``closed_form``   -- power modulus on the continuum:
      ``I(h) = c / (d + alpha) * h^(d + alpha)``, with the sphere constant
      ``c = d * 2^(d-m)`` of the space;
    * ``radial1d``      -- any modulus on the continuum, via the layer-cake
      reduction ``I(h) = c * integral_0^h omega(t) t^(d-1) dt``
      (``radial_integral``);
    * ``lattice_exact`` -- exact enumeration on lattices;
    * ``monte_carlo``   -- uniform sampling, with a reported standard error,
      drawn and weighed in blocks, reduced in place (``_mc_blocks``).

``ball_integral_at``
    ``integral over x + B_h of f d(mu)`` for one centre or rows of centres:
    the one ball-integral path of the package (``steklov_average`` and the
    continuum ``seminorm_local`` included).

``seminorm_local``
    The averaged-oscillation seminorm at window scale ``h``, the one seminorm
    search (charges included): ``sup over x of | integral over x + B_h of f |``.
    Exact on lattices for compactly supported functions; a grid-search lower
    estimate on the continuum (the certified value is returned when the model
    carries one, after a consistency check against the search).

``radial_integral``
    The layer-cake reduction ``c * integral_lo^hi g(t) t^(d-1) dt`` of a
    radial integrand ``g(rho)`` over a shell: the one radial quadrature of
    the package, ``operators`` included.

``sup_norm``, ``l1_norm``
    Grid/exhaustive estimates of the uniform norm and the L1 norm.

Certified metadata on a ``FunctionModel`` is never trusted blindly: whenever
a computed lower estimate *exceeds* a certified upper value beyond rounding,
a ``CertificationError`` is raised, because that contradicts a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _lattice
from ._quad import adaptive_simpson, piecewise_power_integral
from .modulus import Modulus, PowerModulus
from .space import RequestError, Space, strict_int_below

# quadrature method names
CLOSED_FORM = "closed_form"
RADIAL1D = "radial1d"
MONTE_CARLO = "monte_carlo"
LATTICE_EXACT = "lattice_exact"

_METHODS = (CLOSED_FORM, RADIAL1D, MONTE_CARLO, LATTICE_EXACT)


class CertificationError(RuntimeError):
    """A computed lower bound exceeded a certified upper bound: proof broken."""


@dataclass(frozen=True)
class QuadratureSpec:
    """How integrals should be evaluated: the method, and the sample count
    and seed of Monte Carlo paths (quadrature runs at ``_quad``'s defaults)."""

    method: str = CLOSED_FORM
    mc_samples: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise RequestError(
                f"unknown quadrature method {self.method!r}; expected one of {_METHODS}"
            )
        if not 2 <= self.mc_samples <= _lattice.POINT_BUDGET:
            # an error bar needs a sample variance; the samples must fit in memory
            raise RequestError(f"need at least 2 Monte Carlo samples and at most "
                               f"{_lattice.POINT_BUDGET}, got {self.mc_samples}")


def default_spec(space: Space, omega: Modulus) -> QuadratureSpec:
    """The natural exact-or-near-exact method for a space/modulus pair."""
    if space.is_lattice:
        method = LATTICE_EXACT
    elif isinstance(omega, PowerModulus):
        method = CLOSED_FORM
    else:
        method = RADIAL1D
    return QuadratureSpec(method=method)


@dataclass(frozen=True)
class Estimate:
    """A computed number together with how it was obtained."""

    value: float
    method: str
    error_bound: float = 0.0

    def __float__(self):
        return float(self.value)


# samples per block of a Monte Carlo estimate: a block's points and its
# temporaries stay within the cache, and only the ``n`` weights grow with ``n``
_MC_BLOCK = 8192


def _mc_blocks(n: int, draw: Callable[[int], np.ndarray], weight: Callable) -> Estimate:
    """The mean of ``n`` Monte Carlo weights with its standard error.  The
    weights are ``weight(draw(k))`` for blocks of ``k <= _MC_BLOCK`` samples,
    filled into one array and reduced whole, so the bits are those of one
    ``weight`` call on all ``n`` samples: ``weight`` is elementwise, and
    numpy's pairwise sums see the same array.  The reduction runs in place,
    in the steps of numpy's ``_var``: ``w.mean()`` and ``w.std(ddof=1) /
    sqrt(n)`` bit for bit, with no second array of ``n`` floats."""
    w = np.empty(n, dtype=np.float64)
    for start in range(0, n, _MC_BLOCK):
        k = min(_MC_BLOCK, n - start)
        w[start : start + k] = weight(draw(k))
    mean = w.sum() / n
    w -= mean
    w *= w
    return Estimate(float(mean), MONTE_CARLO, math.sqrt(w.sum() / (n - 1)) / math.sqrt(n))


@dataclass
class FunctionModel:
    """A function on a space, with optional certified analytic metadata.

    ``evaluator`` maps a batch of points, shape (n, d) float64, to values of
    shape (n,).  ``radial_pieces``, when present, asserts that ``f`` is radial
    with ``f(x) = sigma * rho**p + tau`` for ``rho = rho(x, 0)`` in each
    ``(s0, s1, sigma, p, tau)`` row, the rows tiling ``[0, inf)``: the one
    radial description, from which ``_radial_kinks`` and ``_radial_value``
    derive the rest and which unlocks exact 1-D reductions.

    The ``certified_*`` fields are *proved* quantities attached by a
    constructor (closed forms evaluated at construction time), not numerics;
    ``certified_seminorm_h`` is stated at window scale ``seminorm_at_h``.
    """

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    radial_pieces: Optional[list] = None
    certified_holder_bound: Optional[float] = None
    certified_sup_norm: Optional[float] = None
    certified_seminorm_h: Optional[float] = None
    seminorm_at_h: Optional[float] = None
    certified_l1: Optional[float] = None
    support_radius: Optional[float] = None
    meta: dict = field(default_factory=dict)

    def __call__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        out = np.asarray(self.evaluator(np.atleast_2d(pts)), dtype=np.float64)
        return float(out[0]) if single else out

    def without_certificates(self) -> "FunctionModel":
        """Copy with all certified norms stripped (geometry hints kept)."""
        return FunctionModel(
            name=self.name + "|uncertified",
            evaluator=self.evaluator,
            radial_pieces=self.radial_pieces,
            support_radius=self.support_radius,
            meta=dict(self.meta),
        )


def constant_model(value: float) -> FunctionModel:
    v = float(value)
    return FunctionModel(
        name=f"const[{v:g}]",
        evaluator=lambda pts: np.full(pts.shape[0], v),
        radial_pieces=[(0.0, math.inf, 0.0, 1.0, v)],
        certified_holder_bound=0.0,
        certified_sup_norm=abs(v),
    )


def _radial_kinks(f: FunctionModel) -> list:
    """The finite right ends of ``f``'s radial pieces: where its profile may
    lose smoothness (the kinks of ``radial_integral``)."""
    return [s1 for _, s1, _, _, _ in f.radial_pieces if math.isfinite(s1)]


def _radial_value(f: FunctionModel, space: Space, t: float) -> float:
    """``f(t e_1)``, the profile of a radial ``f`` at ``rho = t >= 0``
    (``space.norm(t e_1) = t``)."""
    return f(t * np.eye(1, space.d)[0])


# ======================================================================
# Radial integrals and the ball integral of the modulus
# ======================================================================


def radial_integral(
    space: Space, g: Callable[[float], float], lo: float, hi: float, kinks
) -> Estimate:
    """``c * integral_lo^hi g(t) t^(d-1) dt`` (``c`` the sphere constant), the
    integral of ``g(rho)`` over the shell ``lo <= rho < hi`` (0 if empty), by
    adaptive Simpson split at ``kinks`` (unfiltered: the integrator sorts,
    dedupes and clips them)."""
    if hi <= lo:
        return Estimate(0.0, RADIAL1D, 0.0)
    d, c = space.d, space.sphere_constant
    val, err = adaptive_simpson(lambda t: g(t) * t ** (d - 1), lo, hi, kinks=kinks)
    return Estimate(c * val, RADIAL1D, c * err)


def require_method(space: Space, omega: Modulus, method: str) -> None:
    """Raise ``RequestError`` unless ``ball_integral_of_modulus`` can compute
    ``I(h)`` on ``space`` with ``omega`` by ``method`` (a name
    ``QuadratureSpec`` admits): a caller checks a request with it before
    computing anything."""
    if method == CLOSED_FORM and (space.is_lattice or not isinstance(omega, PowerModulus)):
        raise RequestError("closed form requires a power modulus on the continuum")
    if method == RADIAL1D and space.is_lattice:
        raise RequestError("radial reduction applies to continuum spaces only")
    if method == LATTICE_EXACT and not space.is_lattice:
        raise RequestError("lattice_exact requires a lattice space")


def ball_integral_of_modulus(
    space: Space, omega: Modulus, h, spec: Optional[QuadratureSpec] = None
) -> Estimate:
    """``I(h)``, the ball integral of the modulus, by the requested method.
    A value beyond the float range, or a zero (an underflow) where ``omega(h)
    > 0``, raises ``ValueError`` naming ``I(h)`` and ``h``, not a silent bound."""
    spec = spec or default_spec(space, omega)
    space.require_valid_radius(h)
    method = spec.method
    require_method(space, omega, method)
    d, hf, c = space.d, float(h), space.sphere_constant
    try:
        if method == CLOSED_FORM:
            a = omega.alpha
            est = Estimate(c / (d + a) * hf ** (d + a), CLOSED_FORM, 0.0)
        elif method == RADIAL1D:
            est = radial_integral(space, lambda t: float(omega(t)), 0.0, hf, omega.breakpoints())
        elif method == LATTICE_EXACT:
            value = float(np.sum(omega(space.norm(space.enumerate_ball(h)))))
            est = Estimate(value, LATTICE_EXACT, 0.0)
        else:  # MONTE_CARLO, the one method QuadratureSpec admits besides these
            mu = float(space.ball_measure(h))
            n = spec.mc_samples
            space.require_sample_budget(n)
            mc = _mc_blocks(n, space.ball_sampler(h, n, spec.seed),
                            lambda pts: omega(space.norm(pts)))
            est = Estimate(mu * mc.value, MONTE_CARLO, mu * mc.error_bound)
    except OverflowError:
        est = Estimate(math.inf, method, 0.0)
    if not math.isfinite(est.value):
        raise ValueError(f"I(h) overflows the float range at h = {hf:g}")
    if est.value == 0.0 and omega(hf) > 0:
        raise ValueError(f"I(h) underflows to 0 at h = {hf:g}")
    return est


# ======================================================================
# Search grids
# ======================================================================


def continuum_grid(space: Space, window_radius: float, step: float) -> np.ndarray:
    """Uniform search grid over the window, respecting half-line constraints."""
    w = float(window_radius)
    s = float(step)
    if s <= 0:
        raise ValueError("grid step must be positive")
    n = max(1, int(math.ceil(w / s)))
    pos = np.linspace(0.0, w, n + 1)
    full = np.linspace(-w, w, 2 * n + 1)
    axes = [pos] * space.m + [full] * (space.d - space.m)
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _candidate_points(f: FunctionModel, space: Space) -> np.ndarray:
    """Origin plus declared support boundary points (axis and diagonal)."""
    cands = [space.origin().astype(np.float64)]
    r = f.support_radius
    if r is not None and math.isfinite(r):
        for i in range(space.d):
            e = np.zeros(space.d)
            e[i] = r
            cands.append(e.copy())
            if i >= space.m:
                cands.append(-e)
        diag = np.full(space.d, float(r))
        cands.append(diag)
    return np.array(cands, dtype=np.float64)


def _translations(f: FunctionModel, space: Space, h, window_radius: float) -> np.ndarray:
    """Ball centers searched for a continuum seminorm at window scale h: a
    grid of step h/64 on the line (h/8 otherwise) plus the candidate points."""
    step = float(h) / 64.0 if space.d == 1 else float(h) / 8.0
    grid = continuum_grid(space, float(window_radius), step)
    return np.vstack([grid, _candidate_points(f, space)])


def _check_certified_upper(
    estimate: float, certified: Optional[float], what: str, tol: float = 1e-9
) -> None:
    if certified is None:
        return
    slack = tol * max(1.0, abs(certified))
    if estimate > certified + slack:
        raise CertificationError(
            f"computed {what} {estimate!r} exceeds certified value {certified!r}"
        )


# ======================================================================
# Norms and seminorms
# ======================================================================


def sup_norm(
    f: FunctionModel,
    space: Space,
    window_radius: float,
) -> float:
    """Lower estimate of ``sup |f|`` by exhaustive/grid search.

    Exact on lattices for functions supported inside the window.  On the
    continuum the grid is augmented with the origin and declared support
    boundary, which are the attaining points of every extremal shipped here.
    """
    if f.support_radius is not None and f.support_radius > window_radius:
        raise ValueError(
            f"window radius {window_radius} is smaller than the declared "
            f"support radius {f.support_radius}"
        )
    if space.is_lattice:
        pts = _lattice.window_points(space, int(math.ceil(window_radius)))
        vals = np.abs(f(pts.astype(np.float64)))
        est = float(vals.max())
    else:
        pts = continuum_grid(space, window_radius, window_radius / 128.0)
        vals = np.abs(f(pts))
        extra = np.abs(f(_candidate_points(f, space)))
        est = float(max(vals.max(), extra.max()))
    _check_certified_upper(est, f.certified_sup_norm, "sup norm")
    return est


def l1_norm(
    f: FunctionModel,
    space: Space,
    window_radius: float,
    spec: Optional[QuadratureSpec] = None,
) -> float:
    """``integral |f| d(mu)`` over the window (= over the space when f has
    compact support inside it)."""
    spec = spec or QuadratureSpec()
    if f.support_radius is not None and f.support_radius > window_radius:
        raise ValueError("window smaller than the declared support radius")
    if space.is_lattice:
        pts = _lattice.window_points(space, int(math.ceil(window_radius)))
        est = float(np.sum(np.abs(f(pts.astype(np.float64)))))
    elif f.radial_pieces is not None:
        est = radial_integral(
            space, lambda t: abs(_radial_value(f, space, t)), 0.0, float(window_radius),
            _radial_kinks(f),
        ).value
    elif space.d == 1:
        lo = 0.0 if space.m == 1 else -float(window_radius)

        def scalar(t: float) -> float:
            return abs(float(f(np.array([t]))))

        est, _ = adaptive_simpson(scalar, lo, float(window_radius))
    else:
        space.require_sample_budget(spec.mc_samples)
        rng = np.random.default_rng(spec.seed)
        w = float(window_radius)
        lo = np.where(np.arange(space.d) < space.m, 0.0, -w)
        hi = np.full(space.d, w)
        pts = rng.random((spec.mc_samples, space.d)) * (hi - lo) + lo
        vol = float(np.prod(hi - lo))
        est = vol * float(np.mean(np.abs(f(pts))))
    _check_certified_upper(est, f.certified_l1, "L1 norm", tol=1e-6)
    return est


def _ball_average_at(
    f: FunctionModel, space: Space, h, xs: np.ndarray, spec: QuadratureSpec
) -> np.ndarray:
    """``integral over x + B_h of f`` on the continuum (not divided by
    measure) for each row ``x`` of ``xs``: the exact box mass, the radial
    pieces at the origin, adaptive Simpson on the line, else Monte Carlo on
    one offset sample, drawn at most once per call."""
    hf, d = float(h), space.d
    ball_mass_fn = f.meta.get("ball_mass_fn")
    offsets = None
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        if ball_mass_fn is not None:
            out[i] = ball_mass_fn(space, hf, x)
        elif f.radial_pieces is not None and not np.any(x):
            out[i] = space.sphere_constant * piecewise_power_integral(
                f.radial_pieces, 0.0, hf, d - 1
            )
        elif d == 1:
            lo, r = (-hf if space.m == 0 else 0.0), f.support_radius
            kinks = [] if r is None else [c - x[0] for c in (-r, r) if lo < c - x[0] < hf]
            out[i], _ = adaptive_simpson(
                lambda t: float(f(np.array([x[0] + t]))), lo, hf, kinks=kinks
            )
        else:
            if offsets is None:
                offsets = space.sample_ball(h, spec.mc_samples, spec.seed)
                mu = float(space.ball_measure(h))
            out[i] = mu * float(np.mean(f(x[None, :] + offsets)))
    return out


def ball_integral_at(
    f: FunctionModel,
    space: Space,
    h,
    x,
    spec: Optional[QuadratureSpec] = None,
) -> float:
    """``integral over x + B_h of f d(mu)``, the one ball-integral path: a
    float for one centre ``x``, an array for rows of centres, as
    ``FunctionModel.__call__``.  On lattices one gather of every ball, each
    row summed on its own (bit for bit the single-centre sum); on the
    continuum ``_ball_average_at``, the best path per centre."""
    space.require_valid_radius(h)
    xv = np.asarray(x, dtype=np.float64)
    xs = np.atleast_2d(xv)
    if space.is_lattice:
        offs = space.enumerate_ball(h).astype(np.float64)
        vals = f((xs[:, None, :] + offs).reshape(-1, space.d))
        out = vals.reshape(len(xs), len(offs)).sum(axis=1)
    else:
        out = _ball_average_at(f, space, h, xs, spec or QuadratureSpec())
    return float(out[0]) if xv.ndim == 1 else out


def _seminorm_plan(f: FunctionModel, space: Space, h, window_radius: float) -> _lattice.GatherPlan:
    """The sweep plan of a lattice seminorm: the balls of radius ``h`` centred
    on the window.  A window that does not hold every ball meeting ``f``'s
    support would miss some of them, so it raises ``ValueError``."""
    k = strict_int_below(h)
    if f.support_radius is not None:
        needed = int(math.ceil(f.support_radius)) + k
        if window_radius < needed:
            raise ValueError(
                f"window radius {window_radius} too small: need support + ball = {needed}"
            )
    return _lattice.sweep_plan(space, int(math.ceil(window_radius)), k)


def seminorm_local(
    f: FunctionModel,
    space: Space,
    h,
    window_radius: float,
    spec: Optional[QuadratureSpec] = None,
) -> float:
    """``sup over x of | integral over x + B_h of f |`` at window scale h.

    Lattice: exact sweep of every window ball by ``_lattice.ball_row_sums``,
    one gather with each row summed on its own (bit for bit
    ``ball_integral_at``'s row sums); a window short
    of the declared support dilated by the ball radius raises ``ValueError``.
    Continuum: the max of ``|ball_integral_at|`` over the grid of
    translations (``_translations``), one batched call.  A certified value
    stated at this h is returned after checking it is not *beaten* by the
    search; ``f.without_certificates()`` gives the search result itself.
    """
    space.require_valid_radius(h)
    certified = f.certified_seminorm_h  # read only where it is stated: at this h
    if f.seminorm_at_h is None or not math.isclose(float(f.seminorm_at_h), float(h), rel_tol=1e-12):
        certified = None

    if space.is_lattice:
        plan = _seminorm_plan(f, space, h, window_radius)
        padded = _lattice.evaluate_padded(plan, f.evaluator)
        est = float(np.max(np.abs(_lattice.ball_row_sums(plan, padded))))
    else:
        xs = _translations(f, space, h, window_radius)
        est = float(np.max(np.abs(ball_integral_at(f, space, h, xs, spec))))
    _check_certified_upper(est, certified, f"seminorm at h={h}", tol=1e-8)
    if certified is not None:
        return float(certified)
    return est
