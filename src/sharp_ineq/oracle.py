"""Independent verification: rational-arithmetic checks, randomized
inequality suites, and Monte Carlo cross-checks of the closed forms.

Three layers of distrust, none of which consults the certified metadata the
extremal constructors stamp on their outputs:

* ``exact_verify`` replays a bound on a lattice in exact rational
  arithmetic — sup, seminorm, and smoothness constant are recomputed from
  scratch by finite sweeps whose windows are provably large enough, so a
  zero gap is a machine-checked identity, not a small float.  The witness
  is evaluated once per point on one window box, scaled to integer numerators
  over one common denominator, and swept by integer reductions over
  shifted views.
  ``exact_inapplicable`` states once which replays run (the CLI reads it),
  and all five bounds read ``term1 = holder I(h)/mu`` and one ``term2``.

* ``random_suite`` throws randomized certified-smooth functions (maxima of
  truncated cones) at an inequality and counts violations.  It draws the
  inputs of every trial first, from numpy's ``default_rng(seed)`` stream
  replayed by ``_Draws`` from raw words, so the reports are those of numpy's
  own draws (a numpy stream change fails ``_Draws``'s test by name), then
  evaluates them.  On the lattice every distance a suite reads is an integer
  below a bound from the draws, so each lattice suite reads every cone
  height, ``I(h)`` and cone value from one table of its moduli over those
  integers (``_Cones.table``), the values by one gather over cones padded to
  the widest trial's (``_Cones.on_lattice``).  The additive suites sweep the
  trials that share a cached gather plan as one group, with ``I(h)`` one row
  sum per trial and the charge ball sums one row sum per ball.  The
  hypersingular suite runs a block of trials at a time: each trial's cones
  are a slice of one line through all of them, and one table of the block's
  kernels gives ``A(h)``, ``T(h)`` and the weights as row sums, with the
  left and right sides one elementwise pass over the block.  Each number
  keeps the bits of a trial-by-trial sweep: elementwise ufuncs do not depend
  on the array's shape, maxima are exact, the row sums read a C-contiguous
  take, and the other ball sums stay one matmul per trial, since a matmul
  over many trials rounds in another order.

* ``mc_cross_check`` re-derives each closed-form quantity by plain Monte
  Carlo and reports the discrepancy in standard errors.  The samples are
  drawn and weighed a block at a time (``Space.ball_sampler`` and
  ``calculus._mc_blocks``), with the bits of one draw of them all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels, _lattice
from .calculus import (
    MONTE_CARLO,
    FunctionModel,
    QuadratureSpec,
    _mc_blocks,
    ball_integral_of_modulus,
)
from .extremals import make_f_eh, split_point_a
from .modulus import Modulus, PowerModulus, TableModulus, _Nodes
from .operators import (
    EQUALITY_TOLS,
    THEOREM_IDS,
    InequalityReport,
    PowerLawKernel,
    _report,
    _shell_counts,
    kernel_ball_mass,
    kernel_tail_mass,
    mixed_multiplicative_rhs,
    mixed_nagy_rhs,
)
from .space import (RequestError, Space, config_integer, config_seed, continuum, lattice,
                    strict_int_below)

# the theorems exact_verify replays, each with the notes of its reports
_EXACT_NOTES = {
    "lemma1": "witness {}; all quantities rational",
    "nagy": "witness {}",
    "nagy_l1": "witness {}; L1 norm summed over the support",
    "sobolev": "witness {}; constant upper gradient holder/2",
    "charge": "witness {}; seminorm recomputed as a translated-ball charge sweep",
}
EXACT_THEOREMS = tuple(_EXACT_NOTES)


# ======================================================================
# Exact rational verification on lattices
# ======================================================================


def exact_inapplicable(theorem_id: str, space: Space, omega: Modulus) -> Optional[str]:
    """Why ``exact_verify`` cannot replay ``theorem_id`` on ``space`` with
    ``omega``, or ``None`` when it can: the exact twin of
    ``operators.inapplicable``."""
    if theorem_id not in EXACT_THEOREMS:
        return f"exact mode covers {EXACT_THEOREMS}, not {theorem_id!r}"
    if not space.is_lattice:
        return "exact mode runs on lattice spaces"
    try:
        omega.eval_fraction(Fraction(1))
    except ValueError as exc:
        return f"exact mode needs a rational modulus: {exc}"
    return None


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


def exact_f_omega(space: Space, omega: Modulus) -> ExactFunction:
    """The radial modulus profile ``omega(rho)``; smoothness constant
    exactly 1 by concavity (no sweep needed or possible)."""
    origin = (0,) * space.d

    def fn(pt: tuple) -> Fraction:
        return omega.eval_fraction(Fraction(space.lattice_distance(pt, origin)))

    return ExactFunction(fn=fn, support_radius=None, label="modulus-profile[c=0]")


def _box_values(f: ExactFunction, space: Space, radius: int) -> tuple[np.ndarray, int]:
    """``f`` once on each point of ``_lattice.window_points(space, radius)``,
    as a box of integer numerators (Python ints) over one denominator ``den``.
    A value that is not an ``int`` or ``Fraction`` (a ``bool`` or ``float``),
    or a nonzero one beyond the claimed support radius, raises ``ValueError``."""
    pts = [tuple(p) for p in _lattice.window_points(space, radius).tolist()]
    vals = [f.fn(p) for p in pts]
    s = f.support_radius
    origin = (0,) * space.d
    for p, v in zip(pts, vals):
        if type(v) is not Fraction and type(v) is not int:
            raise ValueError(
                f"exact function {f.label} returned {v!r} ({type(v).__name__}) at {p}; "
                "exact mode needs int or Fraction values"
            )
        if s is not None and v != 0 and space.lattice_distance(p, origin) > s:
            raise ValueError(
                f"exact function {f.label} claims support radius {s} but is {v} at {p}"
            )
    den = math.lcm(*(v.denominator for v in vals))
    num = np.array([v.numerator * (den // v.denominator) for v in vals], dtype=object)
    return num.reshape((radius + 1,) * space.m + (2 * radius + 1,) * (space.d - space.m)), den


def _sub_box(box: np.ndarray, space: Space, r: int, shift: tuple) -> np.ndarray:
    """The values on the window of radius ``r`` shifted by ``shift``: a view
    of ``box``, the values on a window large enough to hold them."""
    m = space.m
    lo = [0] * m + [(n - 1) // 2 - r for n in box.shape[m:]]
    width = [r + 1] * m + [2 * r + 1] * (space.d - m)
    return box[tuple(slice(a + c, a + c + w) for a, c, w in zip(lo, shift, width))]


def _fit(num: np.ndarray, terms: int) -> np.ndarray:
    """Numerators as ``int64`` when no sum of ``terms`` of them can overflow,
    else as they are: Python ints, exact at any size."""
    top = max(map(abs, num.flat), default=0)
    return num.astype(np.int64) if top * terms < 2**63 else num


def _ball_sums(box: np.ndarray, space: Space, r: int, offsets: list) -> np.ndarray:
    """Integer sums over the ball ``offsets`` at each point of the window of
    radius ``r``, from the numerators ``box`` on a window that holds them."""
    ints = _fit(box, len(offsets))
    return sum(_sub_box(ints, space, r, u) for u in offsets)


def exact_holder_constant(
    f: ExactFunction, space: Space, omega: Modulus, window_radius: int, *,
    box: Optional[tuple] = None,
) -> Fraction:
    """Largest ``|f(x) - f(y)| / omega(rho(x, y))`` over window pairs.

    For a function supported in radius S, the window of radius ``3 S + 1``
    holds a pair that attains the global ratio, for every nondecreasing
    ``omega``.  Two points of the support are at most ``2 S`` apart, so a
    pair at distance ``2 S + 1`` or more has a zero endpoint: its values
    differ by at most ``sup |f|``, over a modulus of at least
    ``omega(2 S + 1)``.  A pair with a point outside the window is such a
    pair, or two zeros.  The pair (peak, peak + ``(2 S + 1) e_1``) attains
    exactly ``sup |f| / omega(2 S + 1)`` and lies inside the window.  A
    nonzero value in the window beyond the claimed support radius, or one
    that is not an ``int`` or ``Fraction``, raises ``ValueError``.

    The pairs are swept by difference offset ``u`` (one of each ``+-u``):
    one subtraction of two overlapping views of the integer numerators gives
    the widest ``|f(x + u) - f(x)|``.  The metric is translation invariant,
    so all those pairs share the denominator ``omega(rho(u, 0))``, and the
    largest ratio is exactly the widest difference at each distance over
    that distance's modulus: one ``Fraction`` division per distance.

    ``box`` is ``_box_values`` of ``f`` on a window of radius at least
    ``window_radius``, when the caller has it; the sweep reads its
    ``window_radius`` view.
    """
    origin = (0,) * space.d
    num, den = box if box is not None else _box_values(f, space, window_radius)
    vals = _fit(_sub_box(num, space, window_radius, origin), 2)
    widest: dict = {}
    for u in itertools.product(*(range(1 - n, n) for n in vals.shape)):
        if u <= origin:  # the zero offset, and one of each pair +-u
            continue
        x = tuple(slice(max(-c, 0), n - max(c, 0)) for c, n in zip(u, vals.shape))
        y = tuple(slice(max(c, 0), n + min(c, 0)) for c, n in zip(u, vals.shape))
        top = abs(vals[y] - vals[x]).max()
        if top:
            r = space.lattice_distance(u, origin)
            widest[r] = max(widest.get(r, 0), top)
    ratios = (Fraction(int(t), den) / omega.eval_fraction(Fraction(r)) for r, t in widest.items())
    return max(ratios, default=Fraction(0))


def exact_verify(
    theorem_id: str,
    space: Space,
    omega: Modulus,
    h,
    f: Optional[ExactFunction] = None,
) -> InequalityReport:
    """Replay one additive bound on a lattice in exact rational arithmetic.

    Every norm entering either side is recomputed by finite exact sweeps;
    the report's ``exact`` field carries the rational lhs, both right-hand
    terms, and the gap.  The verdict is ``classify_verdict``'s at tolerance
    0 on these ``Fraction``s, decided without a float: a gap of exactly
    ``Fraction(0)`` is equality on the nose.  ``h`` is a ``Fraction`` or
    integer.  A replay that ``exact_inapplicable`` refuses raises its reason
    as ``RequestError``.
    A caller's ``f`` without a support radius, with a value that is not an
    ``int`` or ``Fraction``, or nonzero beyond its support radius raises
    ``ValueError``.

    The witness defaults to ``exact_f_omega`` (``lemma1``; ``holder = 1`` by
    concavity) or ``exact_f_eh``.  Every bound is ``term1 = holder I(h)/mu``
    plus ``term2``: 0 for ``lemma1``, ``L1/mu`` for ``nagy_l1``, and the
    ball-sum seminorm over ``mu`` for ``nagy``, ``sobolev`` and ``charge``.
    """
    reason = exact_inapplicable(theorem_id, space, omega)
    if reason is not None:
        raise RequestError(reason)
    hq = Fraction(h)
    space.require_valid_radius(hq)
    if f is None:
        f = exact_f_omega(space, omega) if theorem_id == "lemma1" else exact_f_eh(space, omega, hq)
    elif f.support_radius is None:
        raise ValueError(
            "exact mode needs a compactly supported function (or the default "
            "witness) so that its sweeps are provably global"
        )

    k = strict_int_below(hq)
    offsets = [tuple(u) for u in space.closed_ball(k).tolist()]
    mu = Fraction(len(offsets))
    origin = (0,) * space.d
    i_h = sum(
        (omega.eval_fraction(Fraction(space.lattice_distance(u, origin))) for u in offsets),
        Fraction(0),
    )

    # One box holds every point the replay reads, so every value read is
    # checked and each is computed once: the smoothness window 3s + 1, the
    # support with every ball that meets it (s + 2k + 1), and lemma1's ball
    # at the centre.
    s = f.support_radius
    if s is None:  # the default lemma1 witness
        num, den = _box_values(f, space, k)
        holder = Fraction(1)  # concavity: |omega(a) - omega(b)| <= omega(|a - b|)
    else:
        num, den = _box_values(f, space, max(3 * s + 1, s + 2 * k + 1))
        holder = exact_holder_constant(f, space, omega, 3 * s + 1, box=(num, den))

    if theorem_id == "lemma1":
        centre = Fraction(_sub_box(num, space, 0, origin).item(), den)
        ball = Fraction(_ball_sums(num, space, 0, offsets).item(), den)
        lhs = abs(centre - ball / mu)
        term2 = Fraction(0)
    else:
        support = _sub_box(num, space, s, origin)
        absf = abs(_fit(support, support.size))  # guarded for the L1 sum
        lhs = Fraction(int(absf.max()), den)
        if theorem_id == "nagy_l1":
            term2 = Fraction(int(absf.sum()), den) / mu
        else:
            ball = _ball_sums(num, space, s + k + 1, offsets)
            term2 = Fraction(int(abs(ball).max()), den) / mu
    # sobolev's constant upper gradient G = holder/2 is always admissible, and
    # its term 2 * (holder / 2) * I(h) / mu is this same Fraction
    term1 = holder * i_h / mu
    notes = _EXACT_NOTES[theorem_id].format(f.label)

    exact = {"lhs": lhs, "rhs_term1": term1, "rhs_term2": term2, "gap": term1 + term2 - lhs}
    return _report(theorem_id, space, omega, hq, lhs, term1, term2, 0.0, notes, exact=exact)


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


# a suite keeps every trial's draws, about 1 KB each, until it reports, and
# peaks at about 7 KB per trial, 9 KB for charge (tracemalloc, 10,000 trials)
MAX_TRIALS = 10**5
_ADDITIVE_SPACE = lattice(2, 1)
_HYPERSINGULAR_SPACE = lattice(1, 0)
# trials per block of the hypersingular suite, which peaks at about 19 KB
# per trial (tracemalloc, 1000 trials): a suite of MAX_TRIALS runs in blocks
_LINE_TRIALS = 1024


class _Draws:
    """The scalar draws of a PCG64 ``np.random.Generator``, replayed in
    Python from blocks of raw 64-bit words without numpy's per-call cost:
    each method returns what the ``Generator`` method of its name returns.
    ``random`` keeps a word's top 53 bits, ``uniform`` is ``lo + (hi - lo)
    * random()``, and ``integers`` is numpy's Lemire rejection on 32-bit
    half-words, a word's low half first and its high half kept, as PCG64
    buffers them.  One iterator reads the words from blocks of 256: the
    wrapped generator runs up to a block ahead."""

    def __init__(self, rng: np.random.Generator):
        raw = rng.bit_generator.random_raw
        self._word = itertools.chain.from_iterable(iter(lambda: raw(256).tolist(), None)).__next__
        self._half: Optional[int] = None

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float, n: Optional[int] = None):
        if n is None:
            return lo + (hi - lo) * ((self._word() >> 11) * 2.0**-53)
        return [lo + (hi - lo) * ((self._word() >> 11) * 2.0**-53) for _ in range(n)]

    def integers(self, lo: int, hi: int) -> int:
        n = hi - lo
        if not 1 <= n <= 2**32:
            raise ValueError(f"integers({lo}, {hi}) needs 1 <= hi - lo <= 2**32")
        if n == 1:
            return lo
        half = self._half
        while True:
            if half is None:
                w = self._word()
                m, half = (w & 0xFFFFFFFF) * n, w >> 32
            else:
                m, half = half * n, None
            if m & 0xFFFFFFFF >= 2**32 % n:
                self._half = half
                return lo + (m >> 32)


def _random_modulus(rng: _Draws, power_only: bool = False) -> Modulus:
    if power_only or rng.random() < 0.5:
        return PowerModulus(rng.uniform(0.3, 1.0))
    n = rng.integers(2, 4)
    gaps = rng.uniform(0.4, 1.0, n)
    slopes = sorted(rng.uniform(0.1, 1.0, n), reverse=True)
    # Floats are dyadic rationals: the nodes are exact integer sums over
    # the largest denominator, a power of two all the others divide.
    g_ratios = [g.as_integer_ratio() for g in gaps]
    s_ratios = [s.as_integer_ratio() for s in slopes]
    den = max([q for _, q in g_ratios + s_ratios])
    ts, ws = [0], [0]
    for (gp, gq), (sp, sq) in zip(g_ratios, s_ratios):
        g = gp * (den // gq)
        ts.append(ts[-1] + g)
        ws.append(ws[-1] + g * sp * (den // sq))
    return TableModulus(_Nodes(ts, ws, den, den * den))


def _draw_cones(space: Space, rng: _Draws) -> tuple[float, tuple, list]:
    """The random part of a cone function: slope ``lam``, integer centers in
    the space, and for each cone the integer radius at which it reaches 0."""
    k = rng.integers(1, 4)
    lam = rng.uniform(0.5, 2.0)
    ranges = [(0, 4)] * space.m + [(-3, 4)] * (space.d - space.m)
    centers = []
    radii = []
    for _ in range(k):
        centers.append(tuple([rng.integers(lo, hi) for lo, hi in ranges]))
        radii.append(rng.integers(1, 5))
    return lam, tuple(centers), radii


def _table_nodes(omegas: list) -> tuple[list, np.ndarray, np.ndarray]:
    """The positions of the tables among ``omegas`` and their nodes ``t`` and
    ``w``, a row each, padded with ``(inf, w_last)`` (slope 0) past the last."""
    rows = [t for t, omega in enumerate(omegas) if not isinstance(omega, PowerModulus)]
    width = max((len(omegas[t]._t) for t in rows), default=0) + 1
    ts = np.array([omegas[t]._t + (math.inf,) * (width - len(omegas[t]._t)) for t in rows])
    ws = np.array([omegas[t]._w + omegas[t]._w[-1:] * (width - len(omegas[t]._w)) for t in rows])
    return rows, ts.reshape(len(rows), width), ws.reshape(len(rows), width)


def _node_take(ts: np.ndarray, ws: np.ndarray, j: np.ndarray) -> tuple:
    """``t_j, w_j, t_{j+1}, w_{j+1}`` of each row's intervals ``j`` ``(R, N)``."""
    at = (np.arange(len(ts)) * ts.shape[1])[:, None] + j
    return ts.ravel()[at], ws.ravel()[at], ts.ravel()[at + 1], ws.ravel()[at + 1]


def _modulus_table(omegas: list, n: int, nodes: Optional[tuple] = None) -> np.ndarray:
    """Each modulus of ``omegas`` at the integers ``0 .. n - 1``, one
    C-contiguous row per modulus: all power rows from one broadcast
    ``np.power``, all table rows from one broadcast pass of ``np.interp``'s
    own formula ``slope * (x - t_j) + w_j`` on the interval ``j`` of each
    point, ``w_j`` on a node and ``w_last`` past the last.  An elementwise
    ufunc gives each point the bits it gets alone, so ``table[t, r]`` is
    ``omegas[t](r)`` exactly.  ``nodes`` is ``_table_nodes(omegas)``, if known."""
    grid = np.arange(n, dtype=np.float64)
    table = np.empty((len(omegas), n))
    power = [t for t, omega in enumerate(omegas) if isinstance(omega, PowerModulus)]
    alpha = np.array([omegas[t].alpha for t in power], dtype=np.float64)
    table[power] = np.power(grid[None, :], alpha[:, None])
    rows, ts, ws = nodes if nodes is not None else _table_nodes(omegas)
    t0, w0, t1, w1 = _node_take(ts, ws, (ts[:, :, None] <= grid).sum(axis=1) - 1)
    table[rows] = (w1 - w0) / (t1 - t0) * (grid - t0) + w0
    return table


class _Cones:
    """The cone functions of every trial of a suite, from each trial's
    modulus and ``_draw_cones`` draw: trial ``i`` is
    ``max_j (c_j - lam_i * omega_i(rho(x, p_j)))+`` over its cones ``j``.
    Maxima and positive parts are 1-Lipschitz, so ``lam`` certifies the
    smoothness whatever the centers and heights, and the sup norm is the
    largest height, attained at that cone's apex.

    The cones of slope ``lam`` reach 0 at the drawn integer radii: heights
    ``lam * omega(r)``, kept strictly below a bounded modulus's plateau, so
    that every cone is 0 beyond ``rho(p_j, 0) + omega^{-1}(c_j / lam)``, the
    trial's support radius (table inverses in one array pass of
    ``TableModulus.inverse``'s operations, power ones by Python's pow).  It
    is below ``max_j (rho(p_j, 0) + r_j) + 1``, and the suite reads no point
    beyond ``ceil(support) + margin`` of the origin, so one ``_modulus_table``
    over that plus the farthest center, ``table``, holds every ``omega`` it
    reads.  Cones are padded to the widest trial's ``W`` at the origin with
    height ``-inf``: ``centers`` ``(T, W, d)``, ``heights`` ``(T, W)``.
    """

    def __init__(self, space: Space, omegas: list, draws: list, margin: int):
        self.space = space
        self.omegas = omegas
        lams, centers, radii = zip(*draws)
        self.count = list(map(len, radii))
        real = np.arange(max(self.count)) < np.array(self.count)[:, None]
        self.lam = np.array(lams)
        self.centers = np.zeros(real.shape + (space.d,))
        self.centers[real] = list(itertools.chain.from_iterable(centers))
        r = np.zeros(real.shape, dtype=np.intp)
        r[real] = list(itertools.chain.from_iterable(radii))
        norms = space.norm(self.centers)
        nodes = _table_nodes(omegas)
        self.table = _modulus_table(omegas, int((norms + r).max()) + margin + int(norms.max()) + 2,
                                    nodes)
        cap = [lam * omega.max_value * (1.0 - 1e-9) if omega.is_bounded() else math.inf
               for omega, lam in zip(omegas, lams)]
        self.heights = np.minimum(self.lam[:, None] * np.take_along_axis(self.table, r, axis=1),
                                  np.array(cap)[:, None])
        self.heights[~real] = -math.inf
        # 0 < c / lam < w_last, so bisect_left finds w_{j-1} < y <= w_j; a
        # padding cone reaches -inf (table) or 0 (power), below any real one
        y = self.heights / self.lam[:, None]
        reach = np.empty_like(y)
        rows, ts, ws = nodes
        j = np.maximum((ws[:, :, None] < y[rows][:, None, :]).sum(axis=1), 1) - 1
        t0, w0, t1, w1 = _node_take(ts, ws, j)
        reach[rows] = t0 + (y[rows] - w0) * (t1 - t0) / (w1 - w0)
        power = [t for t, omega in enumerate(omegas) if isinstance(omega, PowerModulus)]
        inverses = [omegas[t].inverse(v) for t, row in zip(power, y[power].tolist()) for v in row]
        reach[power] = np.reshape(inverses, (len(power), y.shape[1]))
        self.support = (norms + reach).max(axis=1).tolist()
        assert math.ceil(max(self.support)) <= (norms + r).max() + 1, "a support outgrew the table"

    def describe(self, i: int) -> dict:
        """Trial ``i``'s cones as plain JSON: centers, heights and slope."""
        k = self.count[i]
        return {
            "centers": self.centers[i, :k].tolist(),
            "heights": self.heights[i, :k].tolist(),
            "lam": self.lam[i].item(),
        }

    def on_lattice(self, idx, points: np.ndarray) -> np.ndarray:
        """The cone functions of trials ``idx`` at the integer ``points``
        (float, shape (P, d)): one row per trial.  Each cone's values
        ``(c - lam * table[r])+`` at the distances ``r`` are one pass over
        the trials' ``table`` rows, read at the points by one sup-distance
        pass and one flat take, then maximized over the cones (a padding
        cone is 0): the clip at 0 commutes with the maximum."""
        idx = np.asarray(idx)
        table = self.table[idx]
        vals = np.maximum(self.heights[idx][:, :, None] - self.lam[idx][:, None, None]
                          * table[:, None, :], 0.0)
        rho = self.space.norm(points - self.centers[idx][:, :, None, :]).astype(np.intp)
        rows = np.arange(vals.shape[0] * vals.shape[1]).reshape(vals.shape[:2] + (1,))
        return vals.ravel()[rows * table.shape[1] + rho].max(axis=1)


def _draw_additive(rng: _Draws) -> tuple:
    omega = _random_modulus(rng)
    h = rng.uniform(1.2, 3.0)
    return omega, h, _draw_cones(_ADDITIVE_SPACE, rng)


def _group_rows(keys) -> dict:
    """The positions of ``keys`` by key, each list in order."""
    groups: dict = {}
    for row, key in enumerate(keys):
        groups.setdefault(key, []).append(row)
    return groups


def _sweep_groups(cones: _Cones, hs: list) -> dict:
    """The trials of an additive suite by sweep plan ``(radius, k)``, with
    ``k = strict_int_below(h)`` and a window one step past the sweep of the
    cones' support.  A padded point of a plan lies within ``radius + k =
    ceil(support) + 2 k + 1`` of the origin: the ``margin`` of the suite's
    ``_Cones`` is ``2 k + 1`` of the largest ``h``."""
    return _group_rows((int(math.ceil(support)) + k + 1, k)
                       for k, support in zip(map(strict_int_below, hs), cones.support))


def _take_rows(table: np.ndarray, rows, cols: np.ndarray) -> np.ndarray:
    """``table[rows][:, cols]`` as one flat take, C-contiguous, so each row
    sums as the contiguous 1-D array it equals; the strided
    ``table[rows][:, cols]`` sums in another order."""
    first = np.asarray(rows, dtype=np.intp) * table.shape[1]
    return table.ravel()[first[:, None] + cols]


def _ball_integrals(table: np.ndarray, idx: list, plan: _lattice.GatherPlan) -> np.ndarray:
    """``I(h)`` of trials ``idx``: each trial's ``table`` row summed over the
    plan's ball, which is ``enumerate_ball(h)`` in its order, with the bits
    of ``np.sum(omega(plan.offset_rho))`` (``_take_rows``)."""
    return _take_rows(table, idx, plan.offset_rho.astype(np.intp)).sum(axis=1)


def _additive_suite(theorem_id: str, draws: list) -> tuple[list, list, Callable[[int], dict]]:
    """Gaps and right sides of the additive bounds on ``lattice(2, 1)``.

    Every distance the suite reads is an integer: padded points, cone
    centers, the drawn cone radii and the ball offsets are.  So each trial's
    modulus is evaluated once, as its row of the one ``_Cones.table`` over
    those distances, and read back by index for the cone heights, for the
    cone values of each group of trials that share a sweep plan
    (``_Cones.on_lattice``: one distance pass, one gather and a max over the
    cones) and for ``I(h)`` (``_ball_integrals``).  The ``charge`` ball sums
    of a group are one flat take summed by rows (``_lattice.ball_row_sums``),
    so its ``term2`` is the library's seminorm sweep (``seminorm_local``): a
    test checks it trial by trial against ``charge_seminorm`` of the trial's
    cones as ``_kernels.cone_eval`` evaluates them.  The ``lemma1``, ``nagy``
    and ``sobolev`` ball sums are one gather index for the group and one
    ``@ ones`` per trial: their pinned digests hold the matmul's bits, which
    differ from the row sums' in the last place.

    Every number is the one a trial-by-trial sweep gives: elementwise
    ufuncs give each element the same bits whatever the array's shape;
    maxima are exact, so no grouping or order moves them; each ``I(h)`` and
    each ``charge`` ball sum is the sum of a contiguous row; and the other
    ball sums are the per-trial matmuls, since one matmul over all rows of a
    group, ``(T * N, K) @ w`` or ``(T, N, K) @ w``, rounds differently.
    """
    space = _ADDITIVE_SPACE
    hs = [h for _, h, _ in draws]
    cones = _Cones(space, [omega for omega, _, _ in draws], [c for _, _, c in draws],
                   2 * strict_int_below(max(hs)) + 1)

    gaps = np.empty(len(draws))
    rhss = np.empty(len(draws))
    for (radius, k), idx in _sweep_groups(cones, hs).items():
        plan = _lattice.sweep_plan(space, radius, k)
        mu = float(len(plan.offsets))
        vals = cones.on_lattice(idx, plan.padded_float)
        term1 = cones.lam[idx] * _ball_integrals(cones.table, idx, plan) / mu
        if theorem_id in ("lemma1", "nagy", "sobolev"):
            gather = plan.base_idx[:, None] + plan.lin_offsets
            ones = np.ones(len(plan.lin_offsets))
            ball = np.stack([v[gather] @ ones for v in vals])
        elif theorem_id == "charge":
            ball = _lattice.ball_row_sums(plan, vals)
        if theorem_id == "lemma1":
            lhs = np.abs(vals[:, plan.base_idx] - ball / mu).max(axis=1)
            term2 = 0.0
        else:
            lhs = np.abs(vals).max(axis=1)
            if theorem_id == "nagy_l1":
                term2 = np.sum(np.abs(vals), axis=1) / mu
            else:
                # nagy and charge, whose seminorm is the sup of |ball|;
                # sobolev with the constant upper gradient lam/2, for which
                # term1 = 2 * (lam/2) * I/mu is unchanged
                term2 = np.abs(ball).max(axis=1) / mu
        rhs = term1 + term2
        rhss[idx] = rhs
        gaps[idx] = rhs - lhs

    def case(i: int) -> dict:
        omega, h, _ = draws[i]
        return {"modulus": omega.to_config(), "h": h, "cones": cones.describe(i)}

    return gaps.tolist(), rhss.tolist(), case


def _draw_hypersingular(rng: _Draws) -> tuple:
    omega = _random_modulus(rng)
    h = rng.uniform(1.2, 3.0)
    kernel = PowerLawKernel(beta=rng.uniform(0.2, 0.9), cutoff=rng.uniform(20.0, 40.0))
    return omega, h, kernel, _draw_cones(_HYPERSINGULAR_SPACE, rng)


def _kernel_table(kernels: list, n: int, d: int) -> np.ndarray:
    """Each power-law kernel of ``kernels`` at the distances ``1 .. n``, one
    C-contiguous row per kernel: ``table[t, r - 1]`` is
    ``kernels[t].value(r, d)`` exactly, from one broadcast ``np.power`` and
    the cutoff mask, the elementwise steps ``value`` takes.  It starts at 1:
    the punctured balls never read 0, whose power would divide by zero."""
    grid = np.arange(1, n + 1, dtype=np.float64)
    expo = np.array([-(d + kernel.beta) for kernel in kernels])
    cutoff = np.array([kernel.cutoff for kernel in kernels])
    return np.where(grid <= cutoff[:, None], np.power(grid, expo[:, None]), 0.0)


def _kernel_masses(table: np.ndarray, kernel_table: np.ndarray, hs: list,
                   cuts: list) -> tuple[np.ndarray, np.ndarray]:
    """``A(h)`` and ``T(h)`` on ``_HYPERSINGULAR_SPACE`` of the trials whose
    moduli are the rows of ``table`` (a ``_modulus_table``), whose kernels
    are the rows of ``kernel_table`` (a ``_kernel_table``), and whose radii
    and kernel cuts are ``hs`` and ``cuts``.  ``A(h)`` sums ``omega * P``
    over the punctured ball of ``strict_int_below(h)`` in
    ``kernel_ball_mass``'s order, one take of both tables per ball; ``T(h)``
    sums ``N(r) P(r)`` over the shells ``ceil(h) .. cut`` as
    ``kernel_tail_mass`` does, one take per ``(ceil(h), cut)``.  No row is
    padded: a row of 8 or more terms sums pairwise, so a padded row would
    round differently."""
    space = _HYPERSINGULAR_SPACE
    a_h = np.empty(len(hs))
    for k, rows in _group_rows(map(strict_int_below, hs)).items():
        rho = _lattice.sweep_plan(space, 0, k, punctured=True).offset_rho.astype(np.intp)
        omega = _take_rows(table, rows, rho)
        a_h[rows] = (omega * _take_rows(kernel_table, rows, rho - 1)).sum(axis=1)
    t_h = np.empty(len(hs))
    for (k0, cut), rows in _group_rows(zip(map(math.ceil, hs), cuts)).items():
        ks, counts = _shell_counts(space, k0, cut)
        t_h[rows] = (counts * _take_rows(kernel_table, rows, ks.astype(np.intp) - 1)).sum(axis=1)
    return a_h, t_h


def _hypersingular_suite(draws: list) -> tuple[list, list, Callable[[int], dict]]:
    """Gaps and right sides of the truncated hypersingular bound on
    ``lattice(1, 0)``: the operator as weighted ball sums over the kernel's
    annulus, against ``lam A(h) + 2 sup|f| T(h)``.

    Trial ``i``'s plan, a window of ``radius`` swept by the annulus cut at
    ``cut``, pads to the line ``[-pad, pad]``, ``pad = radius + cut``.  The
    space is one-dimensional, so every such line is a slice of the widest,
    ``window_points(space, reach)``: the cones of a block of
    ``_LINE_TRIALS`` trials are one ``_Cones.on_lattice`` call on that line,
    whose points lie within ``reach = ceil(support) + 2 cut + 1`` of the
    origin (the ``margin`` of the suite's ``_Cones`` is ``2 cut + 1`` of the
    largest cut), and each trial reads its own line as a slice, with the
    bits ``cone_eval`` gives it.

    The rest of a block reads one ``_kernel_table`` of its kernels, the
    oracle's own ``P``: ``A(h)`` and ``T(h)`` by ``_kernel_masses``, and the
    weights as one take per ``cut`` at the plan's ``offset_rho``, summed by
    rows.  The left sides ``|window * sum(w) - weighted|`` are one
    elementwise pass over the block, with each trial's maximum by
    ``np.maximum.reduceat``, and so are the right sides.  Only the
    ``ball_sums`` matmul stays per trial: a common plan would add
    zero-weight offsets, and a stacked matmul would round in another order,
    each moving the last bits of the sums.
    """
    space = _HYPERSINGULAR_SPACE
    hs = [h for _, h, _, _ in draws]
    kernels = [kernel for _, _, kernel, _ in draws]
    cuts = [int(math.floor(kernel.cutoff)) for kernel in kernels]
    cones = _Cones(space, [omega for omega, _, _, _ in draws], [c for _, _, _, c in draws],
                   2 * max(cuts) + 1)
    radii = [int(math.ceil(s)) + cut + 1 for s, cut in zip(cones.support, cuts)]
    reach = max(radius + cut for radius, cut in zip(radii, cuts))
    line = _lattice.window_points(space, reach).astype(np.float64)
    hmax = cones.heights.max(axis=1)
    gaps = []
    rhss = []
    for lo in range(0, len(draws), _LINE_TRIALS):
        hi = min(lo + _LINE_TRIALS, len(draws))
        block = range(lo, hi)
        b_cuts = cuts[lo:hi]
        b_radii = radii[lo:hi]
        kernel_table = _kernel_table(kernels[lo:hi], max(b_cuts), space.d)
        plans = {key: _lattice.sweep_plan(space, *key, punctured=True)
                 for key in set(zip(b_radii, b_cuts))}

        a_h, t_h = _kernel_masses(cones.table[lo:hi], kernel_table, hs[lo:hi], b_cuts)
        weights = [None] * len(block)
        wsum = np.empty(len(block))
        for cut, rows in _group_rows(b_cuts).items():
            rho = plans[b_radii[rows[0]], cut].offset_rho.astype(np.intp)
            w = _take_rows(kernel_table, rows, rho - 1)
            wsum[rows] = w.sum(axis=1)
            for row, w_row in zip(rows, w):
                weights[row] = w_row

        windows = []
        weighted = []
        for padded, radius, cut, w_row in zip(cones.on_lattice(block, line), b_radii,
                                              b_cuts, weights):
            plan = plans[radius, cut]
            padded = padded[reach - radius - cut: reach + radius + cut + 1]
            windows.append(padded[plan.base_idx])
            weighted.append(_kernels.ball_sums(padded, plan.base_idx, plan.lin_offsets, w_row))
        sizes = [len(window) for window in windows]
        vals = np.concatenate(windows) * np.repeat(wsum, sizes) - np.concatenate(weighted)
        lhs = np.maximum.reduceat(np.abs(vals), np.cumsum([0] + sizes[:-1]))
        rhs = cones.lam[lo:hi] * a_h + 2.0 * hmax[lo:hi] * t_h
        gaps.extend((rhs - lhs).tolist())
        rhss.extend(rhs.tolist())

    def case(i: int) -> dict:
        omega, h, kernel, _ = draws[i]
        return {
            "modulus": omega.to_config(),
            "h": h,
            "kernel": kernel.to_config(),
            "cones": cones.describe(i),
        }

    return gaps, rhss, case


def _suite_trial_mixed(theorem_id: str, rng: _Draws) -> tuple[float, float, dict]:
    power_only = theorem_id == "mixed_multiplicative"
    omega = _random_modulus(rng, power_only=power_only)
    d = rng.integers(1, 3)
    m = rng.integers(0, d + 1)
    lams = rng.uniform(0.5, 2.0, d)
    if omega.is_bounded():
        t_last = omega.breakpoints()[-1]
        radii = rng.uniform(0.3, max(0.4, 0.9 * t_last), d)
    else:
        radii = rng.uniform(0.3, 2.0, d)
    # plain floats: with d <= 2 factors each product and sum below rounds
    # once, as numpy's reductions do, without their per-call cost
    heights = [lam * float(omega(r)) for lam, r in zip(lams, radii)]
    masses = [
        2.0 * (c * r - lam * omega.antiderivative(r))
        for c, r, lam in zip(heights, radii, lams)
    ]
    deriv_sup = math.prod(heights)
    func_sup = math.prod(masses)
    others = [math.prod(heights[:i] + heights[i + 1:]) for i in range(d)]
    holder_cert = sum(lam * o for lam, o in zip(lams, others))
    h = rng.uniform(0.5, 2.0)
    if theorem_id == "mixed_additive":
        rhs = mixed_nagy_rhs(d, m, omega, h, holder_cert, func_sup)
    else:
        rhs = mixed_multiplicative_rhs(d, m, omega.alpha, func_sup, holder_cert)
    case = {
        "modulus": omega.to_config(),
        "d": d,
        "m": m,
        "h": h,
        "factor_lams": lams,
        "factor_radii": radii,
    }
    return rhs - deriv_sup, rhs, case


def _suite_trials(
    theorem_id: str, trials: int, seed: int
) -> tuple[Sequence[float], Sequence[float], Callable[[int], dict]]:
    """Every trial's gap and right side of one suite, in trial order, and
    ``case(i)``, the inputs of trial ``i``; ``random_suite`` reduces them.

    Every draw reads numpy's ``default_rng(seed)`` stream through one
    ``_Draws``, which replays it from raw words: the numbers numpy's own
    scalar draws give, without their per-call cost.  The lattice suites
    draw the inputs of all trials first and then evaluate them.  No
    evaluation draws a random number, so each trial sees the numbers it
    would see drawn and evaluated one at a time, and the evaluation is free
    to batch trials that share a sweep plan.  The mixed suites, closed products with no
    sweep to share, draw and evaluate one trial at a time.
    """
    rng = _Draws(np.random.default_rng(seed))
    if theorem_id in EXACT_THEOREMS:
        draws = [_draw_additive(rng) for _ in range(trials)]
        return _additive_suite(theorem_id, draws)
    if theorem_id == "hypersingular":
        draws = [_draw_hypersingular(rng) for _ in range(trials)]
        return _hypersingular_suite(draws)
    gaps, rhss, cases = zip(*(_suite_trial_mixed(theorem_id, rng) for _ in range(trials)))
    return gaps, rhss, cases.__getitem__


def suite_arguments(theorem_id: str, trials, seed) -> tuple[int, int]:
    """``random_suite``'s ``trials`` and ``seed``, read by ``config_integer``
    and ``config_seed``, once ``theorem_id`` and the trial count are checked:
    a request it refuses raises ``RequestError`` before any draw."""
    if theorem_id not in THEOREM_IDS:
        raise RequestError(f"unknown theorem id {theorem_id!r}")
    trials = config_integer(trials, "suite 'trials'")
    seed = config_seed(seed, "suite 'seed'")
    if not 0 < trials <= MAX_TRIALS:
        raise RequestError(f"suite 'trials' must lie in 1..{MAX_TRIALS}, got {trials}")
    return trials, seed


def random_suite(theorem_id: str, trials: int = 1000, seed: int = 1) -> SuiteReport:
    """Hammer one inequality with randomized certified-smooth functions.

    Every trial computes the left side exactly (lattice gathers or closed
    factor masses) and the right side from a certified upper bound on the
    smoothness constant, so a negative gap beyond tolerance is a genuine
    counterexample, never sampling noise.  Deterministic per seed: the
    inputs are numpy's ``default_rng(seed)`` draws, replayed from raw words
    by ``_Draws``.  ``trials`` and ``seed`` are read by ``config_integer``;
    a negative seed raises ``RequestError`` (``suite_arguments``).
    """
    trials, seed = suite_arguments(theorem_id, trials, seed)
    gaps, rhss, case = _suite_trials(theorem_id, trials, seed)
    tol = EQUALITY_TOLS[theorem_id]
    # a non-finite gap or right side is a violation, ranked below any finite gap
    keys = [gap if math.isfinite(gap) and math.isfinite(rhs) else -math.inf
            for gap, rhs in zip(gaps, rhss)]
    worst = min(range(trials), key=keys.__getitem__)
    violations = sum(key == -math.inf or key < -tol * max(1.0, abs(rhs))
                     for key, rhs in zip(keys, rhss))
    return SuiteReport(
        theorem_id=theorem_id,
        trials=trials,
        violations=violations,
        min_gap=gaps[worst],
        worst_case={"trial": worst, "gap": gaps[worst], **case(worst)},
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


# library quantities checked against their own Monte Carlo path: the
# function and its arguments, looked up and built when the check runs
_LIBRARY_CHECKS = {
    "ball_integral": lambda: (ball_integral_of_modulus, continuum(2, 1), PowerModulus(0.7), 1.3),
    "kernel_ball_mass": lambda: (kernel_ball_mass, continuum(1, 0), TableModulus(
        [(0, 0), (Fraction(1, 2), Fraction(1, 2)), (2, 1)]), PowerLawKernel(beta=0.6), 1.5),
    "kernel_tail_mass": lambda: (kernel_tail_mass, continuum(2, 1), PowerLawKernel(beta=0.5), 1.2),
}


def require_mc_check(name: str) -> None:
    """Raise ``RequestError`` unless ``name`` is one of ``MC_CHECKS``."""
    if name not in MC_CHECKS:
        raise RequestError(f"unknown cross-check {name!r}; expected one of {MC_CHECKS}")


def mc_cross_check(name: str, seed: int = 0, samples: int = 200_000) -> dict:
    """Re-derive one closed-form quantity by Monte Carlo; report sigmas."""
    require_mc_check(name)
    seed = config_seed(seed, "'seed'")
    mc_spec = QuadratureSpec(method=MONTE_CARLO, mc_samples=samples, seed=seed)

    if name in _LIBRARY_CHECKS:
        quantity, *args = _LIBRARY_CHECKS[name]()
        det = quantity(*args).value
        est = quantity(*args, mc_spec)
        return _check_pair(name, det, est.value, est.error_bound)

    if name == "l1_feh":
        space, omega, h = continuum(2, 0), PowerModulus(0.5), 1.0
        f = make_f_eh(space, omega, h)
        det = f.certified_l1
        # the box [-h, h]^2 is the ball of the plane
        est = _mc_blocks(samples, space.ball_sampler(h, samples, seed + 17), f)
        vol = (2.0 * h) ** 2
        return _check_pair(name, det, est.value * vol, est.error_bound * vol)

    if name == "split_objective":
        omega, h = PowerModulus(1.0), 1.0
        split = split_point_a(omega, h, 2)
        f = make_f_eh(continuum(2, 0), omega, h)
        # the slab [0, h] x [-h, h] is the ball of the half-plane
        draw = continuum(2, 1).ball_sampler(h, samples, seed + 17)
        est = _mc_blocks(samples, draw, lambda pts: np.where(pts[:, 0] < split.a, f(pts), 0.0))
        vol = 2.0 * h * h
        det = split.total_mass / 2.0  # the split point halves the slab mass
        return _check_pair(name, det, est.value * vol, est.error_bound * vol)

    if name == "steklov_point":
        space, omega, h = continuum(2, 0), PowerModulus(1.0), 1.0
        f = make_f_eh(space, omega, h)
        x = np.array([0.3, -0.2])
        from .calculus import ball_integral_at

        det = ball_integral_at(f, space, h, x)
        bare = FunctionModel(name="bare", evaluator=f.evaluator)
        est = _mc_blocks(samples, space.ball_sampler(h, samples, seed),
                         lambda offsets: bare(x[None, :] + offsets))
        mu = float(space.ball_measure(h))
        return _check_pair(name, det, est.value * mu, est.error_bound * mu)

    raise AssertionError("unreachable")
