"""Averaging and singular operators, and the sharp bounds of the eight theorems.

The three families
------------------

* ``steklov_average`` — the ball average ``S_h f(x) = (1/mu(B_h)) *
  integral over B_h of f(x+u)``, the optimal norm-``1/mu(B_h)`` approximant
  of the identity.  ``ostrowski_bound`` / ``nagy_rhs`` / ``nagy_l1_rhs`` /
  ``sobolev_rhs`` are the sharp right-hand sides built on it, and the charge
  variants route a set function through its density.

* ``hypersingular_full`` — the integral of ``(f(0) - f(u))`` against a
  radial kernel, singular at the origin, over the whole space; it checks
  its own hypotheses.  It is taken at the origin, where the witness of its
  bound attains equality: the lattice sum, or the radial form on the
  continuum.  ``kernel_ball_mass`` and ``kernel_tail_mass`` give
  ``A(h)`` and ``T(h)`` of its bound ``H A(h) + 2 sup|f| T(h)``.

* ``mixed_nagy_rhs`` bounds the sup norm of the mixed first derivative
  additively, and the ``mixed_multiplicative_*`` functions give the
  best-possible product form obtained by minimizing over the window scale.

``theorem_report`` runs the equality/inequality check for any of the eight
named bounds at its extremal witness and returns an ``InequalityReport``;
``stechkin_curve`` traces the best-approximation error of the identity by
operators of prescribed norm.

The right-hand sides built on ``I(h)`` take it as an ``Estimate`` (``i_h``)
instead of recomputing it; ``theorem_report`` and ``stechkin_curve``
compute it once, so the witness and both terms of a report share it.

Closed forms are used wherever the modulus admits power pieces; Monte Carlo
paths exist for cross-checking and always report a standard error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _lattice
from ._quad import piecewise_power_integral
from .calculus import (
    CLOSED_FORM,
    LATTICE_EXACT,
    MONTE_CARLO,
    Estimate,
    FunctionModel,
    QuadratureSpec,
    _certified_seminorm,
    _mc_mean,
    _radial_kinks,
    _radial_value,
    ball_integral_at,
    ball_integral_of_modulus,
    radial_integral,
    seminorm_local,
)
from .extremals import (
    make_f_e_omega,
    make_f_eh,
    make_f_omega,
    make_G_eh,
    sobolev_extremal_pair,
)
from .modulus import Modulus, PowerModulus
from .space import RequestError, Space, config_number, continuum, strict_int_below

VERDICT_HOLDS = "Holds"
VERDICT_EQUALITY = "EqualityAttained"
VERDICT_VIOLATED = "Violated"

THEOREM_IDS = (
    "lemma1",
    "nagy",
    "nagy_l1",
    "sobolev",
    "charge",
    "hypersingular",
    "mixed_additive",
    "mixed_multiplicative",
)

# Equality verdicts: tight tolerance on closed-form paths, looser where
# adaptive quadrature or kernel sums enter.
EQUALITY_TOLS = {
    "lemma1": 1e-8,
    "nagy": 1e-8,
    "nagy_l1": 1e-8,
    "sobolev": 1e-8,
    "charge": 1e-8,
    "hypersingular": 1e-5,
    "mixed_additive": 1e-5,
    "mixed_multiplicative": 1e-10,
}


def modulus_label(omega: Modulus) -> str:
    if isinstance(omega, PowerModulus):
        return "%.12g" % omega.alpha
    cfg = omega.to_config()
    nodes = ";".join("%g:%g" % (t, w) for t, w in cfg.get("points", []))
    return f"table[{nodes}]"


@dataclass
class InequalityReport:
    """One checked instance of a sharp bound.

    ``gap = rhs - lhs`` must be nonnegative (up to tolerance) for the bound
    to hold; a gap within tolerance of zero is reported as equality attained.
    ``exact`` carries Fraction-valued lhs/rhs/gap when the instance was
    verified in rational arithmetic.
    """

    theorem_id: str
    d: int
    m: int
    modulus_label: str
    h: float
    lhs: float
    rhs_term1: float
    rhs_term2: float
    tolerance: float
    verdict: str
    notes: str = ""
    error_bound: float = 0.0
    exact: Optional[dict] = None

    @property
    def rhs(self) -> float:
        return self.rhs_term1 + self.rhs_term2

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs

    def to_row(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "d": self.d,
            "m": self.m,
            "alpha_or_modulus": self.modulus_label,
            "h": self.h,
            "lhs": self.lhs,
            "rhs_term1": self.rhs_term1,
            "rhs_term2": self.rhs_term2,
            "gap": self.gap,
            "verdict": self.verdict,
        }


def classify_verdict(lhs: float, rhs: float, tol: float, error_bound: float = 0.0) -> str:
    """Verdict on ``gap = rhs - lhs`` at relative tolerance ``tol``.

    A shortfall within four error bounds of the tolerance band (Monte Carlo
    standard errors, quadrature or series-tail remainders) cannot be told
    apart from equality, so only a larger one is a violation.
    """
    scale = max(1.0, abs(lhs), abs(rhs))
    gap = rhs - lhs
    if gap < -(tol * scale + 4.0 * error_bound):
        return VERDICT_VIOLATED
    if gap <= tol * scale:
        return VERDICT_EQUALITY
    return VERDICT_HOLDS


# ======================================================================
# Steklov averaging and the additive right-hand sides
# ======================================================================


def steklov_average(
    f: FunctionModel, space: Space, h, spec: Optional[QuadratureSpec] = None
) -> FunctionModel:
    """The ball average ``S_h f`` (operator norm ``1/mu(B_h)``, its norm from
    L1 to L-infinity) as a function model: each batch of evaluation points
    is one ``ball_integral_at`` call over its rows, divided by ``mu(B_h)``
    (on lattices one gather of every ball of the batch; on the continuum the
    best path per point, Monte Carlo offsets drawn at most once per batch).
    ``lemma1`` reads it at the origin.
    """
    mu = float(space.ball_measure(h))

    def evaluator(pts: np.ndarray) -> np.ndarray:
        return ball_integral_at(f, space, h, pts, spec) / mu

    return FunctionModel(
        name=f"steklov[h={float(h):g}]({f.name})",
        evaluator=evaluator,
        certified_sup_norm=f.certified_sup_norm,
    )


def ostrowski_bound(
    space: Space, omega: Modulus, h, holder_norm: float, i_h: Optional[Estimate] = None,
) -> float:
    """Sharp bound on ``sup |f - S_h f|``: smoothness constant times the
    averaged modulus ``I(h)/mu(B_h)``.  ``i_h`` is the caller's estimate of
    ``I(h)``; without one, ``default_spec``'s method computes it."""
    if holder_norm < 0:
        raise ValueError("the smoothness constant must be nonnegative")
    i_h = i_h or ball_integral_of_modulus(space, omega, h)
    return float(holder_norm) * i_h.value / float(space.ball_measure(h))


def nagy_rhs(
    space: Space, omega: Modulus, h, holder_norm: float, seminorm_h: float,
    i_h: Optional[Estimate] = None,
) -> float:
    """Sharp bound on ``sup |f|`` from the smoothness constant and the
    window-h averaged-oscillation seminorm, on the ``I(h)`` estimate ``i_h``
    as in ``ostrowski_bound``."""
    if seminorm_h < 0:
        raise ValueError("seminorm input must be nonnegative")
    mu = float(space.ball_measure(h))
    return ostrowski_bound(space, omega, h, holder_norm, i_h) + float(seminorm_h) / mu


def nagy_l1_rhs(
    space: Space, omega: Modulus, h, holder_norm: float, l1_norm_value: float,
    i_h: Optional[Estimate] = None,
) -> float:
    """The L1 variant: the seminorm is replaced by the (larger) L1 norm
    (``i_h`` as in ``ostrowski_bound``)."""
    if l1_norm_value < 0:
        raise ValueError("L1 norm input must be nonnegative")
    mu = float(space.ball_measure(h))
    return ostrowski_bound(space, omega, h, holder_norm, i_h) + float(l1_norm_value) / mu


def sobolev_rhs(
    space: Space, omega: Modulus, h, gradient_bound: float, seminorm_h: float,
    i_h: Optional[Estimate] = None,
) -> float:
    """Sup-norm bound through an upper gradient: ``2 * ||G|| * I(h)/mu + sem/mu``
    (``i_h`` as in ``ostrowski_bound``)."""
    if gradient_bound < 0 or seminorm_h < 0:
        raise ValueError("norm inputs must be nonnegative")
    mu = float(space.ball_measure(h))
    return (
        2.0 * float(gradient_bound) * ostrowski_bound(space, omega, h, 1.0, i_h)
        + float(seminorm_h) / mu
    )


# ======================================================================
# Charges (set functions through their densities)
# ======================================================================


@dataclass
class ChargeModel:
    """A signed set function absolutely continuous w.r.t. the space measure.

    Only the density is ever stored: every charge quantity, ``nu(x + B_h)``
    included, is an integral of the density; the set-function view is a shell.
    """

    density: FunctionModel


def charge_seminorm(
    nu: ChargeModel,
    space: Space,
    h,
    window_radius: float,
    spec: Optional[QuadratureSpec] = None,
) -> float:
    """``sup over x of |nu(x + B_h)|``: by the identity ``charge seminorm ==
    density seminorm``, the ``seminorm_local`` search on the density.

    The density's certificates are stripped first, so a certified seminorm
    is never read: the value is the search itself (on lattices the exact
    sweep, on the continuum the translation grid).  A window short of the
    density's support dilated by the ball raises ``ValueError``.
    """
    return seminorm_local(nu.density.without_certificates(), space, h, window_radius, spec)


def charge_nagy_rhs(
    nu: ChargeModel,
    space: Space,
    omega: Modulus,
    h,
    holder_norm: float,
    i_h: Optional[Estimate] = None,
    seminorm_value: Optional[float] = None,
) -> float:
    """Sharp bound on ``sup |density|`` from charge data; delegates to the
    function-side bound with the charge seminorm in place of the function
    seminorm (the two coincide by change of variables) and passes ``i_h`` on."""
    if seminorm_value is None:
        seminorm_value = _certified_seminorm(nu.density, h)
        if seminorm_value is None:
            raise ValueError(
                "no certified seminorm at this window scale; pass seminorm_value "
                "(e.g. from charge_seminorm)"
            )
    return nagy_rhs(space, omega, h, holder_norm, seminorm_value, i_h)


# ======================================================================
# Kernels and their ball/tail masses
# ======================================================================


@dataclass(frozen=True)
class PowerLawKernel:
    """``P(t) = t**(-(d + beta))``, optionally zeroed beyond a cutoff radius.

    The dimension enters at evaluation time (the kernel lives on radii).  A
    finite ``cutoff`` gives a compactly supported kernel; on lattices the
    uncut tail is summed by Hurwitz zeta values (``_lattice_shell_tail``).
    """

    beta: float
    cutoff: float = math.inf

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise RequestError(f"kernel exponent beta must be positive and finite, got {self.beta}")
        if not self.cutoff > 0:
            raise RequestError("cutoff must be positive")

    def value(self, t, d: int):
        tv = np.asarray(t, dtype=np.float64)
        out = np.where(tv <= self.cutoff, tv ** (-(d + self.beta)), 0.0)
        return out if out.ndim else float(out)

    @property
    def support_radius(self) -> float:
        return self.cutoff

    def to_config(self) -> dict:
        cfg = {"form": "power_law", "beta": float(self.beta)}
        if math.isfinite(self.cutoff):
            cfg["cutoff"] = float(self.cutoff)
        return cfg


class TableKernel:
    """Piecewise-linear radial kernel with compact support.

    Constant at the first node's value on ``(0, t_0]``, linear between nodes,
    zero beyond the last node.  Bounded, hence locally integrable.
    """

    def __init__(self, points: Sequence[Sequence[float]]):
        pts = [(config_number(t, "kernel node"), config_number(p, "kernel node"))
               for t, p in points]
        if not pts:
            raise RequestError("a table kernel needs at least one node")
        ts = [t for t, _ in pts]
        if any(t <= 0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
            raise RequestError("kernel nodes need strictly increasing positive radii")
        if any(p < 0 for _, p in pts):
            raise RequestError("kernel values must be nonnegative")
        self._t = np.array(ts, dtype=np.float64)
        self._p = np.array([p for _, p in pts], dtype=np.float64)

    def value(self, t, d: int):
        tv = np.asarray(t, dtype=np.float64)
        out = np.where(
            tv > self._t[-1], 0.0, np.interp(tv, self._t, self._p)
        )
        return out if out.ndim else float(out)

    @property
    def support_radius(self) -> float:
        return float(self._t[-1])

    def breakpoints(self) -> tuple[float, ...]:
        """The node radii, where the kernel loses smoothness."""
        return tuple(float(t) for t in self._t)

    def to_config(self) -> dict:
        return {
            "form": "table",
            "points": [[float(t), float(p)] for t, p in zip(self._t, self._p)],
        }

    def __repr__(self):
        nodes = ", ".join(f"({t:g}, {p:g})" for t, p in zip(self._t, self._p))
        return f"TableKernel([{nodes}])"


def kernel_from_config(cfg: dict):
    """The kernel a config object describes.  Anything malformed, down to a
    missing key, raises ``RequestError``."""
    try:
        form = cfg.get("form")
        if form == "power_law":
            cutoff = config_number(cfg["cutoff"], "kernel cutoff") if "cutoff" in cfg else math.inf
            return PowerLawKernel(beta=config_number(cfg["beta"], "kernel beta"), cutoff=cutoff)
        if form == "table":
            return TableKernel(cfg["points"])
        raise ValueError(f"unknown kernel form {form!r}")
    except (ValueError, TypeError, KeyError) as exc:
        raise RequestError(f"bad kernel config: {exc}") from exc


# Bernoulli numbers B_2, B_4, ..., B_18; the last one only bounds the remainder.
_BERNOULLI_2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
                 43867 / 798)


def _hurwitz_zeta(s: float, a: float) -> tuple[float, float]:
    """``zeta(s, a) = sum_{n >= 0} (a + n)^(-s)`` for ``s > 1``, ``a > 0``.

    Euler-Maclaurin: the terms below ``b = a + n >= s + 16`` are summed
    directly, then the integral, the half term and eight Bernoulli
    corrections at ``b``.  The derivatives of ``t^(-s)`` alternate in sign
    and decrease in size, so the remainder is bounded by the first omitted
    correction, returned as the second value.
    """
    if not (s > 1 and a > 0):
        raise ValueError(f"Hurwitz zeta needs s > 1 and a > 0, got s={s}, a={a}")
    n = max(0, math.ceil(s + 16 - a))
    b = a + n
    terms = [(a + i) ** -s for i in range(n)] + [b ** (1 - s) / (s - 1), 0.5 * b**-s]
    rising = s  # s (s+1) ... (s+2k-2)
    for k, b2k in enumerate(_BERNOULLI_2K, start=1):
        terms.append(b2k / math.factorial(2 * k) * rising * b ** (-s - 2 * k + 1))
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return math.fsum(terms[:-1]), abs(terms[-1])


@functools.lru_cache(maxsize=256)
def _shell_counts(space: Space, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray]:
    """The radii ``k0 .. k1`` as float64 and the shell counts ``N(k)`` there,
    cached per space and range (read-only): the hypersingular suite asks for
    the same few ranges on every trial."""
    _lattice.require_budget(k1 - k0 + 1)
    ks = np.arange(k0, k1 + 1, dtype=np.float64)
    counts = np.polynomial.polynomial.polyval(ks, space.shell_count_coefficients())
    ks.flags.writeable = counts.flags.writeable = False
    return ks, counts


def _lattice_shell_tail(space: Space, kernel, k0: int) -> Estimate:
    """``sum_{k >= k0} N(k) P(k)``, the kernel mass of the shells rho >= k0.

    A kernel with compact support leaves a finite 1-D shell sum.  For the
    uncut power law ``P(k) = k^-(d+beta)`` and ``N(k) = sum_j c_j k^j`` the
    tail is ``sum_j c_j zeta(d + beta - j, k0)``, with the error bound of
    the Hurwitz zeta values.
    """
    d = space.d
    if math.isfinite(kernel.support_radius):
        ks, counts = _shell_counts(space, k0, int(math.floor(kernel.support_radius)))
        vals = counts * np.asarray(kernel.value(ks, d))
        return Estimate(float(vals.sum()), LATTICE_EXACT, 0.0)
    value = err = 0.0
    for j, c in enumerate(space.shell_count_coefficients()):
        z, z_err = _hurwitz_zeta(d + kernel.beta - j, k0)
        value += c * z
        err += abs(c) * z_err
    return Estimate(value, LATTICE_EXACT, err)


def _first_piece_exponent(omega: Modulus) -> float:
    pieces = omega.pieces(0.0, math.inf)
    return float(pieces[0][3])


def _singular_margin(omega: Modulus, kernel: PowerLawKernel) -> float:
    """``eta = (first-piece exponent of omega) - beta``; on the continuum
    ``omega(rho) P(rho)`` is integrable at 0 exactly when ``eta > 0``, else raises."""
    eta = _first_piece_exponent(omega) - kernel.beta
    if eta <= 0:
        raise ValueError(
            "singular part diverges: the modulus exponent must exceed the kernel exponent beta"
        )
    return eta


def kernel_ball_mass(
    space: Space, omega: Modulus, kernel, h, spec: Optional[QuadratureSpec] = None
) -> Estimate:
    """``A(h) = integral over B_h of omega(rho) * P(rho) d(mu)``.

    A lattice sum is always finite.  On the continuum a power-law kernel
    needs a modulus that grows faster than the kernel blows up
    (``_singular_margin``); divergence raises.
    """
    space.require_valid_radius(h)
    hf = float(h)
    d = space.d

    if space.is_lattice:
        # rho over the ball without its origin (omega(0) * P(0) is 0 * inf and
        # contributes nothing), in enumerate_ball order: the cached plan of a
        # one-point window swept by the punctured ball
        rho = _lattice.sweep_plan(space, 0, strict_int_below(h), punctured=True).offset_rho
        vals = np.asarray(omega(rho)) * np.asarray(kernel.value(rho, d))
        return Estimate(float(vals.sum()), LATTICE_EXACT, 0.0)

    if isinstance(kernel, PowerLawKernel):
        spec = spec or QuadratureSpec()
        beta = kernel.beta
        upper = min(hf, kernel.cutoff)
        eta = _singular_margin(omega, kernel)
        if spec.method == MONTE_CARLO:
            rng = np.random.default_rng(spec.seed)
            t = upper * rng.uniform(0.0, 1.0, spec.mc_samples) ** (1.0 / eta)
            dens = eta * t ** (eta - 1.0) / upper**eta
            w = space.sphere_constant * np.asarray(omega(t)) * t ** (-beta - 1.0) / dens
            return _mc_mean(w)
        val = space.sphere_constant * piecewise_power_integral(
            omega.pieces(0.0, upper), 0.0, upper, -beta - 1.0
        )
        return Estimate(val, CLOSED_FORM, 0.0)

    # bounded table kernel: plain radial quadrature
    return radial_integral(
        space, lambda t: float(omega(t)) * float(kernel.value(t, d)),
        0.0, min(hf, kernel.support_radius), omega.breakpoints() + kernel.breakpoints(),
    )


def kernel_tail_mass(
    space: Space, kernel, h, spec: Optional[QuadratureSpec] = None
) -> Estimate:
    """``T(h) = integral over the complement of B_h of P(rho) d(mu)``."""
    space.require_valid_radius(h)
    hf = float(h)
    d = space.d

    if space.is_lattice:
        return _lattice_shell_tail(space, kernel, int(math.ceil(hf)))

    if isinstance(kernel, PowerLawKernel):
        spec = spec or QuadratureSpec()
        beta = kernel.beta
        if spec.method == MONTE_CARLO:
            q = beta / 2.0
            rng = np.random.default_rng(spec.seed)
            t = hf * rng.uniform(0.0, 1.0, spec.mc_samples) ** (-1.0 / q)
            dens = q * hf**q * t ** (-q - 1.0)
            w = space.sphere_constant * np.where(t <= kernel.cutoff, t ** (-beta - 1.0), 0.0) / dens
            return _mc_mean(w)
        if kernel.cutoff <= hf:
            return Estimate(0.0, CLOSED_FORM, 0.0)
        val = space.sphere_constant * (hf ** (-beta) - kernel.cutoff ** (-beta)) / beta
        return Estimate(val, CLOSED_FORM, 0.0)

    return radial_integral(
        space, lambda t: float(kernel.value(t, d)), hf, kernel.support_radius,
        kernel.breakpoints(),
    )


# ======================================================================
# The hypersingular operator
# ======================================================================


def _constant_beyond(f: FunctionModel) -> Optional[tuple[float, float]]:
    """``(S, c)`` with ``f == c`` wherever ``rho > S``: the support radius
    (``c = 0``) or a final constant radial piece; ``None`` when neither is known."""
    if f.support_radius is not None:
        return float(f.support_radius), 0.0
    if f.radial_pieces:
        s0, s1, sigma, _, tau = f.radial_pieces[-1]
        if math.isinf(s1) and sigma == 0:
            return float(s0), float(tau)
    return None


def _hyp_lattice_sum(f: FunctionModel, space: Space, kernel) -> Estimate:
    """Lattice sum of ``(f(0) - f(u)) P(rho(u))`` over ``rho(u) >= 1``.

    When ``f == c`` beyond a radius S (``_constant_beyond``), every shell
    ``rho(u) = k > R = ceil(S)`` sees only ``f(u) = c``: the box
    ``rho(u) <= R`` is summed point by point and the shells past it add
    ``(f(0) - c) * sum_{k > R} N(k) P(k)`` (``_lattice_shell_tail``).
    Otherwise the kernel needs compact support, and its box is summed whole.
    """
    d = space.d
    f0 = float(f(space.origin().astype(np.float64)))
    support = kernel.support_radius
    beyond = _constant_beyond(f)
    if beyond is None:
        if not math.isfinite(support):
            raise ValueError(
                "a full-tail kernel on a lattice needs a function that is constant "
                "beyond a known radius (a support radius or a final constant radial piece)"
            )
        r = int(math.floor(support))
        tail = Estimate(0.0, LATTICE_EXACT, 0.0)
    else:
        s, c = beyond
        r = int(math.ceil(s))
        if math.isfinite(support):
            r = min(r, int(math.floor(support)))
        shells = _lattice_shell_tail(space, kernel, r + 1)
        tail = Estimate(
            (f0 - c) * shells.value, LATTICE_EXACT, abs(f0 - c) * shells.error_bound
        )
    body = 0.0
    if r >= 1:
        pts = space.closed_ball(r).astype(np.float64)
        rho = space.norm(pts)
        keep = rho >= 1
        pts, rho = pts[keep], rho[keep]
        weights = np.asarray(kernel.value(rho, d))
        body = float(np.sum((f0 - f(pts)) * weights))
    return Estimate(body + tail.value, LATTICE_EXACT, tail.error_bound)


def _hyp_radial_origin(f: FunctionModel, space: Space, kernel) -> Estimate:
    """Closed/adaptive value of the singular integral at the origin for a
    function with radial power pieces."""
    d = space.d
    pieces = f.radial_pieces
    f0 = float(pieces[0][4])  # power exponents are positive, so sigma * 0**p vanishes
    if isinstance(kernel, PowerLawKernel):
        diff = [(s0, s1, -sg, p, f0 - tau) for (s0, s1, sg, p, tau) in pieces]
        val = piecewise_power_integral(diff, 0.0, kernel.cutoff, -kernel.beta - 1.0)
        return Estimate(space.sphere_constant * val, CLOSED_FORM, 0.0)
    return radial_integral(
        space, lambda t: (f0 - _radial_value(f, space, t)) * float(kernel.value(t, d)),
        0.0, kernel.support_radius, tuple(_radial_kinks(f)) + kernel.breakpoints(),
    )


def hypersingular_full(f: FunctionModel, space: Space, omega: Modulus, kernel) -> Estimate:
    """``integral over the whole space of (f(0) - f(u)) P(rho(u)) d(mu)``,
    the singular integral at the origin.

    A lattice sum (``_hyp_lattice_sum``) has no singularity and needs no
    certificate.  On the continuum, convergence near the singularity is
    underwritten by the function's certified smoothness bound: required,
    along with a modulus that grows faster than a power-law kernel blows up
    (``_singular_margin``).  The function must then be radial, with
    ``radial_pieces``; the integral is taken in radial form
    (``_hyp_radial_origin``).
    """
    if space.is_lattice:
        return _hyp_lattice_sum(f, space, kernel)
    if f.certified_holder_bound is None:
        raise ValueError(
            "the singular integral on the continuum needs a certified smoothness "
            "bound of f, which underwrites its convergence at the origin"
        )
    if isinstance(kernel, PowerLawKernel):
        _singular_margin(omega, kernel)
    if f.radial_pieces is None:
        raise ValueError(
            "the singular integral on the continuum needs a radial f, with "
            "radial_pieces, to integrate in radial form"
        )
    return _hyp_radial_origin(f, space, kernel)


# ======================================================================
# The mixed-derivative bounds and the multiplicative inequality
# ======================================================================


def mixed_nagy_rhs(
    d: int, m: int, omega: Modulus, h, holder_norm: float, sup_norm_value: float,
    i_h: Optional[Estimate] = None,
) -> float:
    """Additive bound on the sup norm of the mixed derivative:
    ``holder * I(h) / (2^(d-m) h^d) + 2^m / h^d * sup|f|``, with ``I(h)`` of
    ``continuum(d, m)`` (``i_h`` as in ``ostrowski_bound``)."""
    if min(holder_norm, sup_norm_value) < 0:
        raise ValueError("norm inputs must be nonnegative")
    term1 = ostrowski_bound(continuum(d, m), omega, h, holder_norm, i_h)
    return term1 + 2.0**m / float(h) ** d * sup_norm_value


def mixed_multiplicative_constant(d: int, m: int, alpha: float) -> float:
    """The sharp constant of the product-form bound."""
    _check_dm_alpha(d, m, alpha)
    r = alpha / (d + alpha)
    return 2.0 ** (m * r) * ((d + alpha) / alpha) ** r


def optimal_h(d: int, m: int, alpha: float, sup_norm_value: float, holder_norm: float) -> float:
    """The window scale minimizing the additive bound; plugging it back in
    turns the additive form into the multiplicative one."""
    _check_dm_alpha(d, m, alpha)
    if holder_norm <= 0:
        raise ValueError("smoothness constant must be positive (optimal h is unbounded)")
    if sup_norm_value < 0:
        raise ValueError("sup norm must be nonnegative")
    return 2.0 ** (m / (d + alpha)) * (
        (d + alpha) / alpha * sup_norm_value / holder_norm
    ) ** (1.0 / (d + alpha))


def mixed_multiplicative_rhs(
    d: int, m: int, alpha: float, sup_norm_value: float, holder_norm: float
) -> float:
    """``C(d, m, alpha) * sup^(alpha/(d+alpha)) * holder^(d/(d+alpha))``."""
    c = mixed_multiplicative_constant(d, m, alpha)
    if min(sup_norm_value, holder_norm) < 0:
        raise ValueError("norm inputs must be nonnegative")
    r = alpha / (d + alpha)
    return c * sup_norm_value**r * holder_norm ** (1.0 - r)


def _check_dm_alpha(d: int, m: int, alpha: float) -> None:
    """The space and modulus rules, read from ``Space`` and ``PowerModulus``."""
    continuum(d, m)
    PowerModulus(alpha)


# ======================================================================
# Best approximation of the identity by bounded operators
# ======================================================================


@dataclass(frozen=True)
class StechkinPoint:
    """One point of the best-approximation curve: operator budget ``n``
    (a bound on the L1 -> L-infinity norm), the matched window ``h``, and
    the error ``e_n``."""

    n: float
    h: float
    e_n: float


def solve_h_for_measure(space: Space, target: float) -> float:
    """The window scale whose ball has the prescribed measure (continuum)."""
    if space.is_lattice:
        raise ValueError("ball measure is a step function on lattices; no inverse")
    if target <= 0:
        raise ValueError("target measure must be positive")
    return (target / space.ball_measure(1.0)) ** (1.0 / space.d)


def stechkin_curve(
    space: Space, omega: Modulus, n_values: Sequence[float],
    spec: Optional[QuadratureSpec] = None,
) -> list[StechkinPoint]:
    """Best approximation of the identity by operators of norm at most ``n``.

    The norm is the one from L1 to L-infinity, which is ``1/mu(B_h)`` for
    the ball average.  The optimal operator at budget ``n`` is the ball
    average at the scale where ``1/mu(B_h) = n``; its worst-case error over
    the unit smoothness class is ``I(h)/mu(B_h)``.
    """
    if space.is_lattice:
        raise RequestError("the best-approximation curve needs a continuum of scales")
    out = []
    for n in n_values:
        nf = float(n)
        if nf <= 0:
            raise RequestError(f"n_values must be positive (operator norm budgets), got {n}")
        h = solve_h_for_measure(space, 1.0 / nf)
        i_h = ball_integral_of_modulus(space, omega, h, spec)
        out.append(StechkinPoint(n=nf, h=h, e_n=ostrowski_bound(space, omega, h, 1.0, i_h)))
    return out


# ======================================================================
# Theorem reports: equality checks at the extremal witnesses
# ======================================================================


def _report(
    theorem_id: str, space: Space, omega: Modulus, h,
    lhs, term1, term2, tol: float,
    notes: str = "", error_bound: float = 0.0, exact: Optional[dict] = None,
) -> InequalityReport:
    """One checked bound, its verdict by ``classify_verdict`` on the terms as
    passed in: ``Fraction`` terms (``exact``) are decided without a float."""
    return InequalityReport(
        theorem_id=theorem_id,
        d=space.d,
        m=space.m,
        modulus_label=modulus_label(omega),
        h=float(h),
        lhs=float(lhs),
        rhs_term1=float(term1),
        rhs_term2=float(term2),
        tolerance=tol,
        verdict=classify_verdict(lhs, term1 + term2, tol, error_bound),
        notes=notes,
        error_bound=error_bound,
        exact=exact,
    )


def inapplicable(theorem_id: str, space: Space, omega: Modulus) -> Optional[str]:
    """Why ``theorem_id`` is not stated on ``space`` with ``omega``, or
    ``None`` when it is."""
    if theorem_id.startswith("mixed") and space.is_lattice:
        return "mixed-difference bounds are continuum statements"
    if theorem_id == "mixed_multiplicative" and not isinstance(omega, PowerModulus):
        return "the multiplicative form is stated for power moduli"
    return None


def theorem_report(
    theorem_id: str,
    space: Space,
    omega: Modulus,
    h,
    kernel=None,
    spec: Optional[QuadratureSpec] = None,
    tol: Optional[float] = None,
    modulus_integral=None,
) -> InequalityReport:
    """Check one named sharp bound at its extremal witness; every verdict
    should be ``EqualityAttained``.  A theorem not stated on ``space`` with
    ``omega`` (see ``inapplicable``) raises ``RequestError``.

    ``modulus_integral`` computes ``I(h)`` with the signature of
    ``ball_integral_of_modulus``, the default (looked up at call time).  A
    caller checking several theorems at one ``h`` passes one memoized copy,
    so that they share one estimate; it is still called where the theorem
    needs ``I(h)``, so errors surface in the same order.
    """
    if theorem_id not in THEOREM_IDS:
        raise RequestError(f"unknown theorem id {theorem_id!r}; expected one of {THEOREM_IDS}")
    reason = inapplicable(theorem_id, space, omega)
    if reason is not None:
        raise RequestError(f"theorem {theorem_id!r} does not apply here: {reason}")
    if tol is None:
        tol = EQUALITY_TOLS[theorem_id]
    if modulus_integral is None:
        modulus_integral = ball_integral_of_modulus
    d, m = space.d, space.m
    hf = float(h)
    mu = float(space.ball_measure(h))

    if theorem_id == "lemma1":
        f = make_f_omega(space, omega)
        origin = space.origin().astype(np.float64)
        lhs = abs(f(origin) - steklov_average(f, space, h, spec)(origin))
        i_h = modulus_integral(space, omega, h, spec)
        term1 = ostrowski_bound(space, omega, h, 1.0, i_h)
        err = i_h.error_bound / mu
        return _report(theorem_id, space, omega, hf, lhs, term1, 0.0, tol, error_bound=err)

    if theorem_id in ("nagy", "nagy_l1", "sobolev", "charge"):
        # no error bound: term1 and term2 share one I(h), whose error cancels at the bump
        i_h = modulus_integral(space, omega, h, spec)
        if theorem_id == "sobolev":
            f, grad = sobolev_extremal_pair(space, omega, h, i_h)
        else:
            f = make_f_eh(space, omega, h, i_h)
        lhs = f.certified_sup_norm
        if theorem_id == "nagy_l1":
            total = nagy_l1_rhs(space, omega, h, 1.0, f.certified_l1, i_h)
        elif theorem_id == "sobolev":
            total = sobolev_rhs(
                space, omega, h, grad.certified_sup_norm, f.certified_seminorm_h, i_h
            )
        elif theorem_id == "charge":
            nu = ChargeModel(density=f)
            total = charge_nagy_rhs(nu, space, omega, h, 1.0, i_h)
        else:
            total = nagy_rhs(space, omega, h, 1.0, f.certified_seminorm_h, i_h)
        term1 = ostrowski_bound(space, omega, h, 1.0, i_h)
        if theorem_id == "sobolev":
            term1 = 2.0 * grad.certified_sup_norm * term1
        return _report(theorem_id, space, omega, hf, lhs, term1, total - term1, tol)

    if theorem_id == "hypersingular":
        if kernel is None:
            beta = 0.5 * _first_piece_exponent(omega)
            kernel = PowerLawKernel(beta=beta)
        f = make_f_e_omega(space, omega, h)
        val = hypersingular_full(f, space, omega, kernel)
        a = kernel_ball_mass(space, omega, kernel, h, spec)
        t = kernel_tail_mass(space, kernel, h, spec)
        lhs = abs(val.value)
        term1 = 1.0 * a.value
        term2 = 2.0 * f.certified_sup_norm * t.value
        notes = "witness is discontinuous on the sphere rho = h (two-valued there)"
        err = val.error_bound + a.error_bound + 2.0 * f.certified_sup_norm * t.error_bound
        if err > 0:
            notes += f"; tail/quadrature remainder <= {err:.3g}"
        return _report(theorem_id, space, omega, hf, lhs, term1, term2, tol, notes, err)

    if theorem_id in ("mixed_additive", "mixed_multiplicative"):
        extremal = make_G_eh(space, omega, h)
        lhs = extremal.meta["mixed_derivative_sup"]
        holder_cert = extremal.meta["mixed_derivative_holder"]
        func_sup = extremal.certified_sup_norm
        if theorem_id == "mixed_additive":
            i_h = modulus_integral(space, omega, h, spec)
            total = mixed_nagy_rhs(d, m, omega, h, holder_cert, func_sup, i_h)
            term1 = ostrowski_bound(space, omega, h, holder_cert, i_h)
            err = holder_cert * i_h.error_bound / mu
            return _report(
                theorem_id, space, omega, hf, lhs, term1, total - term1, tol, error_bound=err
            )
        alpha = omega.alpha
        h_star = optimal_h(d, m, alpha, func_sup, holder_cert)
        rhs = mixed_multiplicative_rhs(d, m, alpha, func_sup, holder_cert)
        notes = f"additive bound minimized at h = {h_star:.12g}"
        return _report(theorem_id, space, omega, hf, lhs, rhs, 0.0, tol, notes)

    raise AssertionError("unreachable")
