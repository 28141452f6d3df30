import dataclasses
import hashlib
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sharp_ineq import _kernels, _lattice, operators, oracle
from sharp_ineq.modulus import PowerModulus, TableModulus, _Nodes
from sharp_ineq.space import RequestError, continuum, lattice

RAMP = PowerModulus(1.0)
F = Fraction


# ----------------------------------------------------------------------
# exact rational verification


def test_exact_f_eh_values():
    f = oracle.exact_f_eh(lattice(1, 0), RAMP, F(3, 2))
    assert f.support_radius == 1
    assert f.fn((0,)) == F(3, 2)
    assert f.fn((1,)) == F(1, 2)
    assert f.fn((2,)) == 0
    assert isinstance(f.fn((1,)), Fraction)


def test_exact_f_omega_values():
    f = oracle.exact_f_omega(lattice(2, 0), RAMP)
    assert f.support_radius is None
    assert f.fn((2, -3)) == 3
    assert isinstance(f.fn((1, 0)), Fraction)


def test_exact_holder_constant_of_bump():
    f = oracle.exact_f_eh(lattice(1, 0), RAMP, F(5, 2))
    got = oracle.exact_holder_constant(f, lattice(1, 0), RAMP, window_radius=8)
    assert got == 1
    assert isinstance(got, Fraction)


def test_exact_holder_constant_table_modulus():
    om = TableModulus([(0, 0), (1, F(2, 3)), (2, 1)])
    f = oracle.exact_f_eh(lattice(2, 0), om, F(3, 2))
    got = oracle.exact_holder_constant(f, lattice(2, 0), om, window_radius=4)
    assert got == 1


def _pair_loop_holder(f, space, omega, window_radius):
    """The smoothness constant by the definition: every window pair, one
    Fraction ratio each."""
    pts = [tuple(p) for p in _lattice.window_points(space, window_radius).tolist()]
    vals = [f.fn(p) for p in pts]
    modulus = [omega.eval_fraction(F(r)) for r in range(2 * window_radius + 1)]
    best = F(0)
    for (i, x), (j, y) in itertools.combinations(enumerate(pts), 2):
        num = abs(vals[i] - vals[j])
        if num:
            best = max(best, num / modulus[space.lattice_distance(x, y)])
    return best


def _random_exact_function(space, rng, max_support):
    """Signed rational values on the window of a random support radius up to
    ``max_support``, over one of the denominators 3, 4, 12 and 7, and 0 beyond it."""
    s = int(rng.integers(0, max_support + 1))
    den = int(rng.choice([3, 4, 12, 7]))
    pts = [tuple(p) for p in _lattice.window_points(space, s).tolist()]
    table = {p: F(int(rng.integers(-9, 10)), den) for p in pts}
    return oracle.ExactFunction(fn=lambda p: table.get(p, F(0)), support_radius=s, label="random")


HOLDER_MODULI = (
    RAMP,
    TableModulus([(0, 0), (1, F(7, 12)), (2, F(3, 4))]),
    TableModulus([(0, 0), (1, F(2, 3)), (3, F(5, 4))]),
)
# a table whose last node, 9, lies beyond the window 3s + 1 of every
# support radius s up to 2
FAR_TABLE = TableModulus([(0, 0), (1, F(1, 3)), (2, F(1, 2)), (9, F(3, 4))])


@pytest.mark.parametrize("space", [lattice(1, 0), lattice(2, 0), lattice(2, 1),
                                   lattice(3, 0), lattice(3, 1)], ids=repr)
def test_exact_holder_constant_matches_pair_loop(space):
    # 3 x 56 + 2 x 16 functions, the window one ring past the support; on
    # d = 3 the support radius stays below 2 to keep the pair loop cheap
    rng = np.random.default_rng([14, space.d, space.m])
    for trial in range(16 if space.d == 3 else 56):
        f = _random_exact_function(space, rng, 1 if space.d == 3 else 2)
        omega = HOLDER_MODULI[trial % len(HOLDER_MODULI)]
        radius = f.support_radius + 1
        want = _pair_loop_holder(f, space, omega, radius)
        got = oracle.exact_holder_constant(f, space, omega, radius)
        assert got == want and type(got) is Fraction, (trial, got, want)


@pytest.mark.parametrize("space, max_support", [(lattice(1, 0), 2), (lattice(2, 1), 1)],
                         ids=["Z1_0", "Z2_1"])
def test_exact_holder_constant_window_3s_plus_1_reaches_far_nodes(space, max_support):
    # the window 3s + 1 must hold a maximizing pair, against a window past
    # every node; the seed draws every support radius up to max_support
    rng = np.random.default_rng([15, space.d, space.m])
    for trial in range(8):
        f = _random_exact_function(space, rng, max_support)
        s = f.support_radius
        want = _pair_loop_holder(f, space, FAR_TABLE, s + 10)
        got = oracle.exact_holder_constant(f, space, FAR_TABLE, 3 * s + 1)
        assert got == want and type(got) is Fraction, (trial, got, want)


@pytest.mark.parametrize("big", [2**62 + 5, 2**70 + 1],
                         ids=["int64-overflowing-difference", "beyond-int64"])
def test_exact_holder_constant_huge_numerators(big):
    # over one common denominator the numerators exceed 2**62, so a difference
    # of two of them overflows int64: the sweep must fall back to Python ints
    space = lattice(2, 0)
    table = {(0, 0): F(big, 3), (1, 0): F(-big, 3), (0, -1): F(big - 7, 3), (1, 1): F(5, 3)}
    f = oracle.ExactFunction(fn=lambda p: table.get(p, F(0)), support_radius=1, label="huge")
    got = oracle.exact_holder_constant(f, space, RAMP, 2)
    assert got == _pair_loop_holder(f, space, RAMP, 2) == F(2 * big, 3)
    assert type(got) is Fraction


def test_exact_verify_sums_guarded_by_their_own_counts():
    # 2**61 on the 5 points of the support: a 3-offset ball sum fits int64,
    # the 5-term L1 sum does not
    f = oracle.ExactFunction(fn=lambda p: 2**61 if abs(p[0]) <= 2 else 0,
                             support_radius=2, label="flat")
    rep = oracle.exact_verify("nagy_l1", lattice(1, 0), RAMP, F(3, 2), f=f)
    assert rep.exact["lhs"] == 2**61
    assert rep.exact["rhs_term2"] == F(5 * 2**61, 3)
    # 2**62 on 3 points: each value fits int64, their 3-offset ball sum does not
    f = oracle.ExactFunction(fn=lambda p: 2**62 if abs(p[0]) <= 1 else 0,
                             support_radius=1, label="flat")
    rep = oracle.exact_verify("nagy", lattice(1, 0), RAMP, F(3, 2), f=f)
    assert rep.exact["rhs_term2"] == 2**62


@pytest.mark.parametrize("tid", oracle.EXACT_THEOREMS)
@pytest.mark.parametrize("space", [lattice(1, 0), lattice(2, 0), lattice(2, 1)])
def test_exact_verify_equality_on_the_nose(tid, space):
    rep = oracle.exact_verify(tid, space, RAMP, F(3, 2))
    assert rep.verdict == "EqualityAttained"
    assert rep.exact["gap"] == 0
    assert isinstance(rep.exact["lhs"], Fraction)
    assert rep.tolerance == 0.0


def test_exact_verify_frozen_rationals():
    rep = oracle.exact_verify("nagy", lattice(1, 0), RAMP, F(3, 2))
    assert rep.exact["lhs"] == F(3, 2)
    assert rep.exact["rhs_term1"] == F(2, 3)
    assert rep.exact["rhs_term2"] == F(5, 6)
    rep2 = oracle.exact_verify("nagy", lattice(2, 0), RAMP, F(3, 2))
    assert rep2.exact["rhs_term1"] == F(8, 9)
    assert rep2.exact["rhs_term2"] == F(11, 18)
    rep3 = oracle.exact_verify("lemma1", lattice(1, 0), RAMP, F(3, 2))
    assert rep3.exact["lhs"] == F(2, 3) == rep3.exact["rhs_term1"]


# Recorded before the shared box enumerator replaced the tuple builders of
# the exact sweeps, and the "far" row before the smoothness window lost its
# stretch for bounded moduli; every value is fixed by the mathematics.
EXACT_PINS = {
    (2, 1, "power"): ("3/2", "5/6", "2/3", "5/6"),
    (2, 1, "table"): ("3/4", "5/9", "7/36", "5/9"),
    (3, 1, "power"): ("3/2", "17/18", "5/9", "17/18"),
    (3, 1, "table"): ("3/4", "17/27", "13/108", "17/27"),
    (2, 1, "far"): ("29/56", "37/90", "269/2520", "37/90"),
}
# modulus and h of each pin; the h = 5/2 bump has support radius 2
EXACT_PIN_CASES = {
    "power": (RAMP, F(3, 2)),
    "table": (TableModulus([(0, 0), (1, F(2, 3)), (2, F(5, 6))]), F(3, 2)),
    "far": (FAR_TABLE, F(5, 2)),
}


@pytest.mark.parametrize("key", sorted(EXACT_PINS), ids=lambda k: f"Z{k[0]}_{k[1]}-{k[2]}")
def test_exact_verify_pinned_fractions(key):
    d, m, name = key
    omega, h = EXACT_PIN_CASES[name]
    lhs, term1, term2, lemma1 = (F(v) for v in EXACT_PINS[key])
    space = lattice(d, m)
    tids = oracle.EXACT_THEOREMS if d == 2 else ("nagy", "nagy_l1")
    for tid in tids:
        rep = oracle.exact_verify(tid, space, omega, h)
        if tid == "lemma1":
            want = {"lhs": lemma1, "rhs_term1": lemma1, "rhs_term2": F(0), "gap": F(0)}
        else:
            want = {"lhs": lhs, "rhs_term1": term1, "rhs_term2": term2, "gap": F(0)}
        assert rep.exact == want, (tid, rep.exact)
        assert rep.verdict == "EqualityAttained"


@pytest.mark.parametrize("omega", [RAMP, TableModulus([(0, 0), (1, F(7, 12)), (2, F(3, 4))])],
                         ids=["power", "table"])
@pytest.mark.parametrize("d, h", [(3, F(3, 2)), (4, F(3, 2)), (3, F(5, 2))], ids=str)
def test_exact_verify_nagy_at_scale(d, h, omega):
    rep = oracle.exact_verify("nagy", lattice(d, 0), omega, h)
    assert rep.exact["gap"] == 0
    assert rep.verdict == "EqualityAttained"


def test_exact_verify_table_modulus():
    om = TableModulus([(0, 0), (1, F(2, 3)), (2, 1)])
    rep = oracle.exact_verify("nagy", lattice(1, 0), om, F(3, 2))
    assert rep.exact["gap"] == 0
    assert rep.verdict == "EqualityAttained"


def test_exact_verify_user_function_holds():
    # an asymmetric two-point witness: bound holds strictly
    def fn(pt):
        if pt == (0,):
            return F(2)
        if pt == (1,):
            return F(1)
        return F(0)

    f = oracle.ExactFunction(fn=fn, support_radius=1, label="two-point")
    rep = oracle.exact_verify("nagy", lattice(1, 0), RAMP, F(3, 2), f=f)
    # sup 2 against 4/3 (holder 2, I = 2, mu = 3) + 1 (ball sums (3, 2, 1) over mu)
    assert rep.verdict == "Holds"
    assert rep.exact["gap"] == F(1, 3)


@pytest.mark.parametrize("tid", ["lemma1", "nagy"])
@pytest.mark.parametrize("value", [2.0, True, 0.5], ids=["float", "bool", "half"])
def test_exact_verify_rejects_inexact_values(tid, value):
    # a float or bool value would turn the sweeps and the verdict into floats
    def fn(pt):
        return value if pt == (0,) else 0

    f = oracle.ExactFunction(fn=fn, support_radius=1, label="inexact")
    with pytest.raises(ValueError, match="int or Fraction"):
        oracle.exact_verify(tid, lattice(1, 0), RAMP, F(3, 2), f=f)


@pytest.mark.parametrize("tid", ["lemma1", "nagy", "charge", "nagy_l1", "sobolev"])
def test_exact_verify_rejects_false_support_radius(tid):
    # claims radius 1 but is 5 at (3,): the sweeps would never see that value
    def fn(pt):
        return F(5) if pt == (3,) else F(0)

    f = oracle.ExactFunction(fn=fn, support_radius=1, label="liar")
    with pytest.raises(ValueError, match="support radius 1"):
        oracle.exact_verify(tid, lattice(1, 0), RAMP, F(3, 2), f=f)
    if tid == "lemma1":
        return  # it reads only its smoothness window and ball, out to radius 3 below
    # claims radius 0 but is 5 at (5,): beyond the smoothness window 3s + 1 = 1,
    # inside the seminorm sweep, which reads out to s + 2k + 1 = 7 at h = 7/2;
    # unscanned, it passed with lhs 1 while the true sup is 5
    far = {(0,): F(1), (5,): F(5)}
    f = oracle.ExactFunction(fn=lambda p: far.get(p, F(0)), support_radius=0, label="far liar")
    with pytest.raises(ValueError, match="support radius 0"):
        oracle.exact_verify(tid, lattice(1, 0), RAMP, F(7, 2), f=f)


@pytest.mark.parametrize("tid", oracle.EXACT_THEOREMS)
@pytest.mark.parametrize("space, h", [(lattice(1, 0), F(7, 2)), (lattice(2, 1), F(5, 2))])
@pytest.mark.parametrize("witness", ["default", "caller"])
def test_exact_verify_builds_one_box(monkeypatch, tid, space, h, witness):
    # one box per replay, each point evaluated once (the parent built two for
    # every witness with a support radius)
    boxes, points = [], []
    box_values = oracle._box_values

    def counted(f, space, radius):
        boxes.append(radius)
        return box_values(f, space, radius)

    monkeypatch.setattr(oracle, "_box_values", counted)
    bump = oracle.exact_f_eh(space, RAMP, h)

    def fn(pt):
        points.append(pt)
        return bump.fn(pt)

    f = None if witness == "default" else oracle.ExactFunction(fn, bump.support_radius, "bump")
    rep = oracle.exact_verify(tid, space, RAMP, h, f=f)
    assert rep.exact["gap"] == 0
    k = s = bump.support_radius
    want = k if (tid, witness) == ("lemma1", "default") else max(3 * s + 1, s + 2 * k + 1)
    assert boxes == [want]
    if f is not None:
        assert len(points) == len(set(points)) == len(space.closed_ball(want))


# every lattice(d, m) with d <= 3, and power(1) with concave tables whose
# node values have denominators 3, 4 and 12
RADIAL_SPACES = [lattice(d, m) for d in (1, 2, 3) for m in range(d + 1)]
RADIAL_MODULI = (
    RAMP,
    TableModulus([(0, 0), (1, F(2, 3)), (2, F(1))]),
    TableModulus([(0, 0), (1, F(3, 4)), (2, F(5, 4))]),
    TableModulus([(0, 0), (1, F(7, 12)), (2, F(3, 4))]),
)
RADIAL_H = (F(3, 2), F(5, 2), F(7, 2))


def _per_point(f):
    """``f`` without its profile: a caller's plain per-point function."""
    return dataclasses.replace(f, profile=None)


@pytest.mark.parametrize("space", RADIAL_SPACES, ids=repr)
def test_radial_box_is_the_per_point_box(space):
    # the default witnesses on the boxes exact_verify builds for them
    for omega, h in itertools.product(RADIAL_MODULI, RADIAL_H):
        k = int(h)
        bump, profile = oracle.exact_f_eh(space, omega, h), oracle.exact_f_omega(space, omega)
        for f, radius in ((bump, 3 * k + 1), (profile, k)):
            assert f.profile is not None
            num, den = oracle._box_values(f, space, radius)
            want, want_den = oracle._box_values(_per_point(f), space, radius)
            assert den == want_den
            assert num.dtype == want.dtype == object and num.shape == want.shape
            assert num.tolist() == want.tolist()
            assert {type(v) for v in num.flat} == {int}


@pytest.mark.parametrize("space", RADIAL_SPACES, ids=repr)
def test_radial_replay_is_the_per_point_replay(space):
    # lemma1's default witness has no support radius, so a caller cannot
    # pass it.  On d = 3, nagy stands for the others, which read the same
    # box, and h = 7/2 is left to the box test: its sweeps take 0.1-0.25 s.
    tids = ("nagy",) if space.d == 3 else ("nagy", "nagy_l1", "sobolev", "charge")
    hs = RADIAL_H[:2] if space.d == 3 else RADIAL_H
    for omega, h, tid in itertools.product(RADIAL_MODULI, hs, tids):
        rep = oracle.exact_verify(tid, space, omega, h)
        plain = oracle.exact_verify(tid, space, omega, h,
                                    f=_per_point(oracle.exact_f_eh(space, omega, h)))
        assert rep.exact == plain.exact and rep.exact["gap"] == 0
        assert {type(v) for v in rep.exact.values()} == {Fraction}


def test_radial_box_refuses_as_the_per_point_box():
    # a profile that fails at one distance is refused at the first point in
    # C order at that distance, in the per-point path's words
    space = lattice(2, 1)
    for profile, match in ((lambda rho: 0.5 if rho == 2 else F(0),
                            "returned 0.5 (float) at (0, -2)"),
                           (lambda rho: F(1, 3) if rho == 3 else F(0),
                            "claims support radius 1 but is 1/3 at (0, -3)")):
        f = oracle.ExactFunction(fn=lambda pt: profile(space.lattice_distance(pt, (0, 0))),
                                 support_radius=1, label="radial", profile=profile)
        for g in (f, _per_point(f)):
            with pytest.raises(ValueError, match=re.escape(match)):
                oracle._box_values(g, space, 3)


class _RecordedViews(np.ndarray):
    """An array that records the index of each view taken of its ``int64``
    copies: in ``exact_holder_constant``, the y and x views of each offset."""

    views: list = []

    def __getitem__(self, index):
        if self.dtype == np.int64:
            _RecordedViews.views.append(index)
        return super().__getitem__(index)


@pytest.mark.parametrize("space, radius", [
    (lattice(1, 0), 2), (lattice(1, 1), 3), (lattice(2, 1), 2), (lattice(2, 2), 1),
    (lattice(3, 1), 1), (lattice(3, 2), 0),
], ids=["Z1_0-r2", "Z1_1-r3", "Z2_1-r2", "Z2_2-r1", "Z3_1-r1", "Z3_2-r0"])
def test_sweep_reaches_each_offset_pair_once(space, radius):
    f = oracle.exact_f_eh(space, RAMP, F(2 * radius + 3, 2))
    num, den = oracle._box_values(f, space, radius)
    _RecordedViews.views = []
    oracle.exact_holder_constant(f, space, RAMP, radius, box=(num.view(_RecordedViews), den))
    views = _RecordedViews.views
    offsets = [tuple(b.start - a.start for a, b in zip(x, y))
               for y, x in zip(views[::2], views[1::2])]
    shape = num.shape
    assert len(views) == 2 * len(offsets)
    assert len(offsets) == (math.prod(2 * n - 1 for n in shape) - 1) // 2
    every = set(itertools.product(*(range(1 - n, n) for n in shape))) - {(0,) * space.d}
    swept = set(offsets) | {tuple(-c for c in u) for u in offsets}
    assert len(set(offsets)) == len(offsets) and swept == every


def test_exact_replay_memory_is_a_few_boxes():
    # nagy on lattice(3, 0) at h = 5/2 reads one box of 15^3 points; the
    # sweep holds one int64 copy of its smoothness window, its offsets'
    # distances and one difference at a time: a peak of 367 KB, 13.6 int64
    # copies of the box.  Sweeping all pairs at once would hold 3375^2 / 2.
    box = 8 * 15**3
    oracle.exact_verify("nagy", lattice(3, 0), RAMP, F(3, 2))  # caches and lazy imports
    tracemalloc.start()
    try:
        oracle.exact_verify("nagy", lattice(3, 0), RAMP, F(5, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * box


def test_work_budget_admits_lattice_4_at_5_halves(monkeypatch):
    # nagy on lattice(4, 0) at h = 5/2 takes 1.8e10 steps, about 5 s: both
    # budgets pass, and the replay reaches its box
    def reached(f, space, radius):
        raise LookupError(radius)

    monkeypatch.setattr(oracle, "_box_values", reached)
    with pytest.raises(LookupError, match="^7$"):
        oracle.exact_verify("nagy", lattice(4, 0), RAMP, F(5, 2))


def test_holder_sweep_without_a_box_checks_the_work_budget():
    f = oracle.exact_f_eh(lattice(1, 0), RAMP, F(10**6))
    with pytest.raises(ValueError, match=f"work budget of {_lattice.WORK_BUDGET}$"):
        oracle.exact_holder_constant(f, lattice(1, 0), RAMP, 3 * 10**6)


@pytest.mark.parametrize("n, text", [
    (4194305, "4194305"), (10**12 - 1, "999999999999"), (10**12, "about 1.00e+12"),
    (10**13 - 1, "about 1.00e+13"), (2 * 10**308 - 1, "about 2.00e+308"),
    (3**700, "about 9.66e+333"),
], ids=["budget-plus-one", "twelve-digits", "thirteen-digits", "rounds-up", "2e308", "3^700"])
def test_budget_counts_are_readable(n, text):
    assert _lattice._count(n) == text


def test_exact_verify_guards():
    with pytest.raises(ValueError):
        oracle.exact_verify("hypersingular", lattice(1, 0), RAMP, F(3, 2))
    with pytest.raises(ValueError):
        oracle.exact_verify("nagy", continuum(1, 0), RAMP, F(3, 2))
    with pytest.raises(ValueError, match="irrational"):
        oracle.exact_verify("nagy", lattice(1, 0), PowerModulus(0.5), F(3, 2))
    unbounded = oracle.exact_f_omega(lattice(1, 0), RAMP)
    with pytest.raises(ValueError, match="compactly supported"):
        oracle.exact_verify("nagy", lattice(1, 0), RAMP, F(3, 2), f=unbounded)


# ----------------------------------------------------------------------
# cone functions: randomized but certified witnesses


def _cone_draws(seed, trials):
    """``trials`` additive draws: their ``_Cones`` on ``lattice(2, 1)``, the
    window that holds every support with a step to spare, and every trial's
    cone values on that window, read from one modulus table."""
    rng = oracle._Draws(np.random.default_rng(seed))
    draws = [oracle._draw_additive(rng) for _ in range(trials)]
    space = oracle._ADDITIVE_SPACE
    cones = oracle._Cones(space, [omega for omega, _, _ in draws], [c for _, _, c in draws], 1)
    radius = math.ceil(max(cones.support)) + 1
    points = _lattice.window_points(space, radius)
    vals = cones.on_lattice(range(trials), points.astype(np.float64))
    assert {type(omega) for omega, _, _ in draws} == {PowerModulus, TableModulus}
    assert {len(c[1]) for _, _, c in draws} == {1, 2, 3}
    return cones, points, vals


def test_cone_function_certificates():
    """The sup of each trial's cones is its largest height, attained at that
    cone's apex (the hypersingular right side reads it), and the cones are 0
    beyond ``_Cones.support``."""
    cones, points, vals = _cone_draws(6, 60)
    space = cones.space
    rho = space.norm(points)
    for i, row in enumerate(vals):
        heights = cones.heights[i, :cones.count[i]]
        apex = cones.centers[i, int(np.argmax(heights))]
        apex = np.flatnonzero((points == apex).all(axis=1))
        assert row.max() == heights.max() == row[apex].item()
        assert row.min() == 0.0
        assert np.all(row[rho > cones.support[i]] == 0.0)
        assert (row[rho <= cones.support[i]] > 0.0).any()


def test_cone_function_support_radius():
    space = lattice(1, 0)
    cones = oracle._Cones(space, [RAMP, RAMP], [(2.0, ((2,),), [1]),
                                                (1.0, ((1,), (-3,)), [2, 1])], 0)
    # per-cone reach |p| + omega^{-1}(c/lam) with c = lam * omega(r): |p| + r
    assert cones.support == [3.0, 4.0]
    # the first trial's cones are padded to two, at the origin with height -inf
    assert cones.heights.tolist() == [[2.0, -math.inf], [2.0, 1.0]]
    assert cones.centers.tolist() == [[[2.0], [0.0]], [[1.0], [-3.0]]]
    assert cones.describe(0) == {"centers": [[2.0]], "heights": [2.0], "lam": 2.0}
    assert cones.describe(1) == {"centers": [[1.0], [-3.0]], "heights": [2.0, 1.0], "lam": 1.0}


def test_cone_function_holder_pairs_property():
    """``|f(x) - f(y)| <= lam omega(rho(x, y))`` over every pair of window
    points, for every trial: ``lam`` is a certified smoothness bound."""
    cones, points, vals = _cone_draws(4, 40)
    rho = cones.space.norm(points[:, None, :] - points[None, :, :])
    off = rho > 0
    for i, row in enumerate(vals):
        bound = cones.lam[i] * cones.omegas[i](rho[off])
        assert np.all(np.abs(row[:, None] - row[None, :])[off] <= bound * (1 + 1e-12))


@pytest.mark.parametrize(
    "omega",
    [PowerModulus(0.6), TableModulus([(0, 0), (1, "0.8"), (3, "1.4")])],
    ids=["power", "table"],
)
def test_cone_function_matches_formula(omega):
    space = lattice(2, 1)
    centers = np.array([[0.0, 1.0], [2.0, -2.0]])
    heights = np.array([0.8, 1.1])
    pts = np.random.default_rng(5).uniform(-4.0, 4.0, size=(300, 2))
    want = np.empty(len(pts))
    for i, x in enumerate(pts):
        dist = np.max(np.abs(x - centers), axis=1)
        want[i] = max(float(np.max(heights - 1.3 * omega(dist))), 0.0)
    assert np.array_equal(_kernels.cone_eval(pts, centers, heights, 1.3, omega, space), want)
    far = _kernels.cone_eval(pts + 20.0, centers, heights, 1.3, omega, space)
    assert np.all(far == 0.0)


def test_cone_eval_clamps_at_zero():
    out = _kernels.cone_eval(
        np.array([[10.0, 10.0]]), np.zeros((1, 2)), np.array([0.5]), 1.0, PowerModulus(1.0),
        continuum(2, 0),
    )
    assert out[0] == 0.0


def _table_rows_match(omegas, n):
    table = oracle._modulus_table(omegas, n)
    assert table.shape == (len(omegas), n) and table.flags.c_contiguous
    grid = np.arange(n)
    for omega, row in zip(omegas, table):
        assert row.tobytes() == omega(grid).tobytes(), (omega, n)


# a node on an integer, a plateau, only two nodes, and a last node past,
# on and before the end of the grid of each n
HAND_TABLES = [
    TableModulus([(0, 0), (1, "0.75"), (3, "1.25")]),
    TableModulus([(0, 0), ("1.5", 1), ("2.5", 1)]),
    TableModulus([(0, 0), ("2.5", 1)]),
    TableModulus([(0, 0), ("0.5", "0.5"), (6, 2), (40, "2.5")]),
    TableModulus([(0, 0), ("0.25", "0.1")]),
]


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_modulus_table_rows_are_the_moduli(n):
    """Every row of ``_modulus_table`` is its modulus on ``np.arange(n)``
    byte for byte: 2000 drawn moduli of both kinds, tables of three and four
    nodes padded to one width, and the hand tables, alone and among them."""
    rng = oracle._Draws(np.random.default_rng(n))
    drawn = [oracle._random_modulus(rng) for _ in range(2000)]
    assert {len(omega._t) for omega in drawn if isinstance(omega, TableModulus)} == {3, 4}
    assert sum(isinstance(omega, PowerModulus) for omega in drawn) in range(900, 1100)
    _table_rows_match(drawn + HAND_TABLES, n)
    _table_rows_match(HAND_TABLES, n)
    _table_rows_match([RAMP, PowerModulus(0.3)], n)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_padded_cones_are_the_per_trial_cone_functions(width):
    """Additive draws whose widest trial has ``width`` cones: each trial's
    cones are padded to that width with height ``-inf``, its support is the
    per-cone ``rho(p, 0) + omega.inverse(c / lam)`` of its real cones, and
    its ``on_lattice`` row has the bits of ``cone_eval`` of its real cones."""
    rng = oracle._Draws(np.random.default_rng(11))
    draws = [d for d in (oracle._draw_additive(rng) for _ in range(400)) if len(d[2][1]) <= width]
    draws = draws[:60]
    space = oracle._ADDITIVE_SPACE
    cones = oracle._Cones(space, [omega for omega, _, _ in draws], [c for _, _, c in draws], 1)
    assert cones.heights.shape == (60, width) and set(cones.count) == set(range(1, width + 1))
    assert {type(omega) for omega, _, _ in draws} == {PowerModulus, TableModulus}
    points = _lattice.window_points(space, math.ceil(max(cones.support)) + 1).astype(np.float64)
    vals = cones.on_lattice(range(len(draws)), points)
    for i, (omega, _, (lam, _, _)) in enumerate(draws):
        k = cones.count[i]
        assert np.all(cones.heights[i, k:] == -math.inf)
        reach = [float(space.norm(c)) + omega.inverse(c_h / lam)
                 for c, c_h in zip(cones.centers[i, :k], cones.heights[i, :k].tolist())]
        assert cones.support[i].hex() == max(reach).hex()
        want = _kernels.cone_eval(points, cones.centers[i, :k], cones.heights[i, :k], lam, omega,
                                  space)
        assert vals[i].tobytes() == want.tobytes()


def test_cone_supports_are_the_table_inverses():
    """The supports of cones over the hand tables, with radii on, between
    and past their nodes, are those of ``TableModulus.inverse``, bit for
    bit."""
    space = lattice(1, 0)
    omegas, draws = [], []
    for omega in HAND_TABLES:
        for lam in (1.0, 0.75, 1.3, 2.0):
            omegas.append(omega)
            draws.append((lam, ((0,), (2,), (-1,)), [1, 2, 3]))
    cones = oracle._Cones(space, omegas, draws, 0)
    for omega, (lam, centers, _), heights, support in zip(omegas, draws, cones.heights.tolist(),
                                                           cones.support):
        reach = [abs(c) + omega.inverse(c_h / lam) for (c,), c_h in zip(centers, heights)]
        assert support.hex() == max(reach).hex()


def test_ball_sums_weights():
    rng = np.random.default_rng(1)
    padded = rng.normal(size=300)
    base = rng.integers(50, 200, size=40)
    offs = rng.integers(-40, 60, size=12)
    w = rng.uniform(0.0, 1.0, size=12)
    got = _kernels.ball_sums(padded, base, offs, w)
    want = (padded[base[:, None] + offs[None, :]] * w).sum(axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-13)


# ----------------------------------------------------------------------
# randomized suites


THEOREMS = ["lemma1", "nagy", "nagy_l1", "sobolev", "charge", "hypersingular",
            "mixed_additive", "mixed_multiplicative"]


@pytest.mark.parametrize("tid", THEOREMS)
def test_random_suite_no_violations(tid):
    rep = oracle.random_suite(tid, trials=40, seed=3)
    assert rep.violations == 0, rep.worst_case
    assert rep.trials == 40
    assert rep.min_gap > -1e-9


def test_random_suite_deterministic():
    a = oracle.random_suite("nagy", trials=25, seed=9)
    b = oracle.random_suite("nagy", trials=25, seed=9)
    assert a.to_json() == b.to_json()
    c = oracle.random_suite("nagy", trials=25, seed=10)
    assert c.to_json() != a.to_json()


# sha256 of the sorted-key JSON of random_suite(tid, 200, seed): any change to
# the suites' arithmetic or RNG draw order shows up here
SUITE_DIGESTS = {
    ("lemma1", 1): "a58388f3162a715114c4cb29d4e7fa9b651653aeda3ead431cefcb4e95716479",
    ("lemma1", 2): "dadf07fc99a1ced0f4fd84ff97358ca8c71fd409b501b5ff544ae276196f2f75",
    ("nagy", 1): "6cdfe9d6521ec5b4e7dd7d48b9bfe6b9f63d5871cc9c83348e911a63f2ccc991",
    ("nagy", 2): "1136e20781526986693780035b1c71ccff499f6c17b18e301d847146a7f23039",
    ("nagy_l1", 1): "86e62c66b050934ec6f4b836aca017e1157469a1563b0e256fed7b8b0412074f",
    ("nagy_l1", 2): "885fa08bc1e140490b1bde127f59cb5f84b296a72086e27551a27f04e5b76ece",
    ("sobolev", 1): "5d436202760b7152f35dcb18ea4e1f7220d4f3f1f9d8361e6fe3be3bdab2d336",
    ("sobolev", 2): "7b5056f00a1c35f7cf2b2df0d9694b546c4644eea8d60bfa140b60ce7415dc0f",
    ("charge", 1): "f56f08843db57a41a0b133b343eba578f1c62d3683744dffb5a3e772699c7b8e",
    ("charge", 2): "79805fddf79c0fd5d2a6b418c1478df2ec0748f3d3aa58b92cb20de817aa29ce",
    ("hypersingular", 1): "5a67bb324c4e2efc79663dcc56dd58a4fca65ca2c7d275079d02a37d51b93d68",
    ("hypersingular", 2): "1d89d1c9fe3da874df4ddecaee9a55ee1c98cc3facb8d3688f68ceb8dc50098a",
    ("mixed_additive", 1): "542747f4dda2c0e263ae9099fd0bc2a37515a355d1e3cd692c96f9427562d9bf",
    ("mixed_additive", 2): "e1b3838ffc87ac2c577eb1242fbe7c2f23e315580542328dc984307e9de844c3",
    ("mixed_multiplicative", 1): "f308648cd257ea7947f80e74e0651a84131701be952badb8b920ef226f8ec1b0",
    ("mixed_multiplicative", 2): "288bad2cd14702d6b949ddbece4bd6a97f8f3c91c5873e31efc77cf9549d5395",
}


@pytest.mark.parametrize("tid,seed", sorted(SUITE_DIGESTS))
def test_random_suite_pinned_digests(tid, seed):
    rep = oracle.random_suite(tid, 200, seed)
    blob = json.dumps(rep.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == SUITE_DIGESTS[(tid, seed)]


# sha256 of the float64 bytes of every trial's gap, then every trial's right
# side, of oracle._suite_trials(tid, 200, seed): a moved bit in any trial shows
# here, not only one in the worst trial that SUITE_DIGESTS sees
TRIAL_DIGESTS = {
    ("lemma1", 1): "baa9820b9fb0406438ec758e546d062097bb911987d20d596700b08b582a20c8",
    ("lemma1", 2): "4df8d570c8b5a366bcecef48f5de453e28c3195dbd3a485620344b564569a41a",
    ("nagy", 1): "3fba8eb7059972405a9be1c7599250d97d05016d4d9cd87ff6da8b219771c2ad",
    ("nagy", 2): "4205e9395aa1a9ab910c05ce502a3f9837e2a2390cfde71165e2cebe726b6879",
    ("nagy_l1", 1): "00bf2c2950487c653af661b91e90412354820e4dc0228ac5053661e61121ef3f",
    ("nagy_l1", 2): "41e3bed96e2615e4b9f4eac59ad7eff951ca90af9a4c1b41b39d09777537cd9a",
    ("sobolev", 1): "3fba8eb7059972405a9be1c7599250d97d05016d4d9cd87ff6da8b219771c2ad",
    ("sobolev", 2): "4205e9395aa1a9ab910c05ce502a3f9837e2a2390cfde71165e2cebe726b6879",
    ("charge", 1): "50e7a031f4f1c3d35f920af9ac63cf50bc2cca229bd7cea374bc51f95503e82b",
    ("charge", 2): "0436d5096a5e9c2f401bfc7adbf7515df7fd34fa0dc5f96d50861e20b30e2ab2",
    ("hypersingular", 1): "dd58bf4f9fbcab4703eab8de9f6913f83afdaf103d4c4ed05e004b90dc3920fc",
    ("hypersingular", 2): "96e4a231bacc61d9595dd5f33769b23b03098f1a3a1f2852f1a49dc626d521c5",
    ("mixed_additive", 1): "7da60140bba08d5921519688e94f63a9deeca36fdc9ef8cf5cf841b7dcef0132",
    ("mixed_additive", 2): "fcad77fb4e8b9ff5c983bce0d07887e172a5ea1d2d78c508dbd93415b0eaa75a",
    ("mixed_multiplicative", 1): "84651dfab99c51eaeca4a999ad861a266f212913b971280c9fadb65dbdb261ea",
    ("mixed_multiplicative", 2): "14214e17ff94365466c4206978ccaee89fecc03b82689edcd4707e2caf3f8b19",
}


def _trial_digest(tid, seed):
    gaps, rhss, _ = oracle._suite_trials(tid, 200, seed)
    blob = b"".join(np.asarray(a, dtype=np.float64).tobytes() for a in (gaps, rhss))
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("tid,seed", sorted(TRIAL_DIGESTS))
def test_suite_trials_pinned_digests(tid, seed):
    assert _trial_digest(tid, seed) == TRIAL_DIGESTS[(tid, seed)]


def test_trial_digests_see_a_strided_ball_integral(monkeypatch):
    # I(h) summed over the strided table[idx][:, rho] rounds in another order:
    # it moves 3 to 12 of the 200 trials of each additive suite at seeds 1
    # and 2, while all of their SUITE_DIGESTS still match
    def strided(table, idx, plan):
        return table[idx][:, plan.offset_rho.astype(np.intp)].sum(axis=1)

    monkeypatch.setattr(oracle, "_ball_integrals", strided)
    for tid in oracle.EXACT_THEOREMS:
        assert _trial_digest(tid, 1) != TRIAL_DIGESTS[(tid, 1)], tid


# sha256 of the sorted-key JSON of random_suite(tid, 3000, 3), whose
# hypersingular suite runs in three blocks of _LINE_TRIALS
SUITE_DIGESTS_3000 = {
    "lemma1": "619e1aa2c1b0170c4e7967cba8a719a65fc44d17e02f2075e654cf21b7d03315",
    "nagy": "b29df6f7cb4cf0e53570a4498828f2db4b272fc8b0328f74aa2fc1631d1c39ba",
    "nagy_l1": "7a73dc5cd9622b9c1f55332cea664339ee846c093247cbc84e856a7d32a7b085",
    "sobolev": "bbb0eeca6506266bda7210c039c2754b6ed06db559994bb1214c7b0f32c8765e",
    "charge": "a11e562888729e0247446f3a3a29f59c2950440ec12e2f4ebeb6760b9d3f17f7",
    "hypersingular": "8214b5d9747f6a67b7933791ef1f4286eaa09c50971e4efc5e4270f5c7f97405",
}
SUITE_REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "suites.json").read_text()
)


def _report_digest(rep) -> str:
    return hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("tid", sorted(SUITE_DIGESTS_3000))
def test_lattice_suites_build_one_modulus_table(monkeypatch, tid):
    """Each lattice suite evaluates its moduli in one ``_modulus_table``, at
    100 trials (the first benchmark reference op of the suite) and at 3000,
    with the reports pinned for both."""
    built = []
    table = oracle._modulus_table

    def counted(*args):
        built.append(args[1])
        return table(*args)

    monkeypatch.setattr(oracle, "_modulus_table", counted)
    key = min(k for k in SUITE_REFERENCE if k.startswith(f"{tid}:") and k.endswith(":100"))
    assert _report_digest(oracle.random_suite(tid, 100, int(key.split(":")[1]))) == \
        SUITE_REFERENCE[key]
    assert len(built) == 1
    assert _report_digest(oracle.random_suite(tid, 3000, 3)) == SUITE_DIGESTS_3000[tid]
    assert len(built) == 2


def _mutant_trials(monkeypatch, gaps, rhss):
    """``random_suite`` reads ``gaps`` and ``rhss`` as its trials."""
    def trials(theorem_id, n, seed):
        assert n == len(gaps)
        return gaps, rhss, lambda i: {"inputs": i}

    monkeypatch.setattr(oracle, "_suite_trials", trials)


@pytest.mark.parametrize("gaps, rhss, violations, worst", [
    ([math.nan] * 5, [1.0] * 5, 5, 0),
    ([0.5, 0.1, math.nan, 0.3, math.nan], [1.0] * 5, 2, 2),
    ([0.5, 0.1, 0.2], [1.0, math.inf, 1.0], 1, 1),
    ([0.2, -math.inf, 0.1], [1.0, 1.0, math.nan], 2, 1),
    ([0.3, 0.1, 0.1, -0.5], [1.0, 1.0, 1.0, 1.0], 1, 3),
    ([0.3, 0.1, 0.1], [1.0, 1.0, 1.0], 0, 1),
], ids=["all-nan", "nan-gaps", "inf-rhs", "-inf-gap-nan-rhs", "finite-violation", "finite"])
def test_random_suite_counts_a_non_finite_trial_as_a_violation(monkeypatch, gaps, rhss,
                                                               violations, worst):
    """A gap or right side that is not finite is a violation, and the first
    such trial is the worst case; among finite gaps the first smallest is."""
    _mutant_trials(monkeypatch, gaps, rhss)
    rep = oracle.random_suite("nagy", len(gaps), 1)
    assert rep.violations == violations
    assert rep.worst_case == {"trial": worst, "gap": gaps[worst], "inputs": worst}
    assert rep.min_gap is gaps[worst]


@pytest.mark.parametrize("tid", sorted(SUITE_DIGESTS_3000))
def test_a_nan_cone_function_fails_every_lattice_suite(monkeypatch, tid):
    """A mutant ``on_lattice`` that gives NaN everywhere makes every trial's
    gap NaN: the suite counts each as a violation instead of passing."""
    def nan_cones(self, idx, points):
        return np.full((len(idx), len(points)), math.nan)

    monkeypatch.setattr(oracle._Cones, "on_lattice", nan_cones)
    rep = oracle.random_suite(tid, 20, 1)
    assert rep.violations == 20
    assert rep.worst_case["trial"] == 0 and math.isnan(rep.min_gap)


def _random_modulus_fraction_sums(rng, power_only: bool = False):
    """``oracle._random_modulus`` as it read when it summed its nodes in
    ``Fraction``s, one float at a time."""
    if power_only or rng.random() < 0.5:
        return PowerModulus(float(rng.uniform(0.3, 1.0)))
    n = int(rng.integers(2, 4))
    gaps = rng.uniform(0.4, 1.0, n)
    slopes = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
    pts = [(Fraction(0), Fraction(0))]
    t = Fraction(0)
    w = Fraction(0)
    for g, s in zip(gaps, slopes):
        t += Fraction(float(g))
        w += Fraction(float(g)) * Fraction(float(s))
        pts.append((t, w))
    return TableModulus(pts)


def _next_draws(rng) -> list:
    """Draws that read two half-words and a word: they agree between two
    streams only if both stand at the same word and half-word."""
    return [rng.integers(0, 2**32), rng.integers(0, 2**32), rng.random(), rng.integers(0, 7)]


def test_random_modulus_matches_fraction_sums():
    """The integer node record ``_random_modulus`` builds gives the table
    that ``(t, w)`` pairs of the summed ``Fraction``s give, bit for bit."""
    tables = 0
    for seed in range(200):
        draws, rng = oracle._Draws(np.random.default_rng(seed)), np.random.default_rng(seed)
        got = oracle._random_modulus(draws)
        want = _random_modulus_fraction_sums(rng)
        assert type(got) is type(want)
        assert got.to_config() == want.to_config()
        if isinstance(got, TableModulus):
            tables += 1
            assert got._exact == want._exact
            assert all(type(v) is Fraction for node in got._exact for v in node)
            assert [v.hex() for v in got._t + got._w] == [v.hex() for v in want._t + want._w]
            assert [c.hex() for c in got._cum] == [c.hex() for c in want._cum]
            assert repr(got) == repr(want)
            t_grid = np.linspace(-0.5, 1.5 * got._t[-1], 41).tolist()
            y_grid = np.linspace(-0.5, 1.5 * got._w[-1], 41).tolist()
            assert ([got.antiderivative(t).hex() for t in t_grid]
                    == [want.antiderivative(t).hex() for t in t_grid])
            assert [got.inverse(y).hex() for y in y_grid] == [want.inverse(y).hex() for y in y_grid]
        assert _next_draws(draws) == _next_draws(rng)
    assert tables > 80


@pytest.mark.parametrize("ts, ws, message", [
    ([0], [0], "at least two nodes"),
    ([0, 4, 8], [16, 20, 24], "start at (0, 0)"),
    ([0, 4, 4], [0, 16, 20], "strictly increasing t"),
    ([0, 4, 8], [0, 16, 12], "nondecreasing"),
    ([0, 4, 8], [0, 8, 24], "concave"),
], ids=["one-node", "off-origin", "non-increasing-t", "decreasing-w", "convex"])
def test_node_record_refused_as_the_pairs_are(ts, ws, message):
    """A ``_Nodes`` record (``t`` over ``den``, ``w`` over ``den**2``, as
    ``_random_modulus`` builds it) fails the checks with the message the
    same nodes as ``(t, w)`` pairs raise."""
    den = 4
    with pytest.raises(RequestError, match=re.escape(message)) as want:
        TableModulus([(F(t, den), F(w, den * den)) for t, w in zip(ts, ws)])
    with pytest.raises(RequestError) as got:
        TableModulus(_Nodes(ts, ws, den, den * den))
    assert str(got.value) == str(want.value)


# 1 draws nothing; 3 * 2**30 + 1 rejects about a quarter of the half-words
DRAW_RANGES = (1, 2, 3, 4, 7, 2**31 - 1, 3 * 2**30 + 1, 2**32)


def _same_call(order, draws, rng) -> None:
    """One call of a kind ``order`` picks, made of ``_Draws`` and of numpy's
    ``Generator``: both give the same numbers."""
    kind = int(order.integers(0, 4))
    if kind == 0:
        assert draws.random() == rng.random()
    elif kind == 1:
        lo, hi = sorted(order.uniform(-5.0, 5.0, 2).tolist())
        assert draws.uniform(lo, hi) == rng.uniform(lo, hi)
    elif kind == 2:
        lo, hi, n = -1.5, float(order.uniform(0.0, 3.0)), int(order.integers(0, 5))
        assert draws.uniform(lo, hi, n) == rng.uniform(lo, hi, n).tolist()
    else:
        n = DRAW_RANGES[int(order.integers(0, len(DRAW_RANGES)))]
        lo = int(order.integers(-9, 9))
        got, want = draws.integers(lo, lo + n), rng.integers(lo, lo + n)
        assert type(got) is int and got == want


def test_draws_replay_numpy_generator():
    """``_Draws`` returns what numpy's ``Generator`` returns, call by call,
    for calls in a random order, and leaves the stream where numpy does."""
    order = np.random.default_rng(99)
    for seed in range(200):
        draws, rng = oracle._Draws(np.random.default_rng(seed)), np.random.default_rng(seed)
        for _ in range(int(order.integers(1, 60))):
            _same_call(order, draws, rng)
        assert _next_draws(draws) == _next_draws(rng), seed


def test_draws_replay_numpy_generator_across_word_blocks():
    """Runs of 600 to 3000 calls read several blocks of 256 words, and stay
    call for call on numpy's stream."""
    order = np.random.default_rng(98)
    for seed, calls in enumerate([600, 1400, 2200, 3000]):
        draws, rng = oracle._Draws(np.random.default_rng(seed)), np.random.default_rng(seed)
        for _ in range(calls):
            _same_call(order, draws, rng)
        assert _next_draws(draws) == _next_draws(rng), seed


def test_draws_carry_a_half_word_across_a_refill():
    """The high half of a block's last word waits through the refill that
    the next full word needs, and is the next half-word drawn."""
    for seed in range(3):
        draws, rng = oracle._Draws(np.random.default_rng(seed)), np.random.default_rng(seed)
        for block in range(3):
            for _ in range(255 - (block > 0)):
                assert draws.random() == rng.random()
            assert draws.integers(0, 7) == rng.integers(0, 7)  # the low half of word 256
            assert draws.random() == rng.random()  # the next block's first word
            assert draws.integers(0, 7) == rng.integers(0, 7)  # the kept high half
        assert _next_draws(draws) == _next_draws(rng), seed


def test_draws_integers_range_checked():
    draws = oracle._Draws(np.random.default_rng(0))
    for lo, hi in [(0, 2**32 + 1), (3, 3), (3, 2)]:
        with pytest.raises(ValueError):
            draws.integers(lo, hi)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _per_trial_heights(omega, lam, radii):
    """The heights of one trial's cones as the suites computed them one
    trial at a time: ``lam * omega(radii)`` from one call, kept strictly
    below a bounded modulus's plateau."""
    heights = lam * np.asarray(omega(np.asarray(radii)), dtype=np.float64)
    if omega.is_bounded():
        heights = np.minimum(heights, lam * omega.max_value * (1.0 - 1e-9))
    return heights


def _additive_groups(seed, trials):
    """An additive suite's draws, its ``_Cones``, its sweep groups and their
    modulus table."""
    rng = oracle._Draws(np.random.default_rng(seed))
    draws = [oracle._draw_additive(rng) for _ in range(trials)]
    cones = oracle._Cones(oracle._ADDITIVE_SPACE, [omega for omega, _, _ in draws],
                          [c for _, _, c in draws], 5)
    return draws, cones, oracle._sweep_groups(cones, [h for _, h, _ in draws])


def test_grouped_suite_evaluation_matches_the_per_trial_path():
    """Every plan group of a 1000-trial additive draw, read from the modulus
    tables, has the bits of the per-trial path: ``cone_eval`` for the cone
    values, ``np.sum(omega(offset_rho))`` for ``I(h)``, and ``lam *
    omega(radii)`` for the heights."""
    draws, cones, groups = _additive_groups(24, 1000)
    space = oracle._ADDITIVE_SPACE
    omegas = cones.omegas
    assert {type(omega) for omega in omegas} == {PowerModulus, TableModulus}
    assert {len(c[1]) for _, _, c in draws} == {1, 2, 3}
    assert len(groups) > 5

    for i, (omega, _, (lam, _, radii)) in enumerate(draws):
        want = _per_trial_heights(omega, lam, radii)
        assert np.array_equal(_bits(cones.heights[i, :len(radii)]), _bits(want))
        assert cones.describe(i)["heights"] == want.tolist()

    for (radius, k), idx in groups.items():
        plan = _lattice.sweep_plan(space, radius, k)
        vals = cones.on_lattice(idx, plan.padded_float)
        i_h = oracle._ball_integrals(cones.table, idx, plan)
        for row, i in enumerate(idx):
            omega, lam = omegas[i], draws[i][2][0]
            k_i = cones.count[i]
            want = _kernels.cone_eval(plan.padded_float, cones.centers[i, :k_i],
                                      cones.heights[i, :k_i], lam, omega, space)
            assert np.array_equal(vals[row].view(np.int64), _bits(want))
            assert i_h[row].view(np.int64) == _bits(np.sum(omega(plan.offset_rho)))


@pytest.mark.parametrize("seed", [1, 2])
def test_charge_ball_row_sums_are_the_library_seminorm(seed, cone_function):
    """Every sweep group of the 200-trial charge suite: the group's
    ``ball_row_sums`` has the bits of each row's own call and of the row
    sum of one gather per trial, and each row's sup of ``|ball|`` is the
    library's ``charge_seminorm`` of the trial's cone function."""
    draws, cones, groups = _additive_groups(seed, 200)
    space = oracle._ADDITIVE_SPACE
    assert min(map(len, groups.values())) == 1 and max(map(len, groups.values())) > 1

    for (radius, k), idx in groups.items():
        plan = _lattice.sweep_plan(space, radius, k)
        vals = cones.on_lattice(idx, plan.padded_float)
        ball = _lattice.ball_row_sums(plan, vals)
        assert ball.shape == (len(idx), len(plan.base_idx))
        for row, i in enumerate(idx):
            want = vals[row][plan.base_idx[:, None] + plan.lin_offsets].sum(axis=1)
            assert ball[row].tobytes() == want.tobytes()
            assert _lattice.ball_row_sums(plan, vals[row]).tobytes() == want.tobytes()
            omega, h, draw = draws[i]
            density = cone_function(space, omega, draw)
            sem = operators.charge_seminorm(density, space, h, window_radius=radius)
            assert np.abs(ball[row]).max().tobytes() == np.float64(sem).tobytes()


def test_charge_suite_builds_no_per_trial_function(monkeypatch):
    """The charge suite sums each group's cone values once: it builds no
    cone function and runs no library seminorm per trial."""
    want = oracle.random_suite("charge", 50, 1).to_json()

    def refused(*args, **kwargs):
        raise AssertionError("the charge suite evaluated a trial on its own")

    monkeypatch.setattr(operators, "charge_seminorm", refused)
    monkeypatch.setattr(_kernels, "cone_eval", refused)
    assert oracle.random_suite("charge", 50, 1).to_json() == want


def test_no_suite_evaluates_a_cone_function_alone(monkeypatch):
    """Every suite reads its cones from ``_Cones.on_lattice``: with
    ``cone_eval`` refused, all eight reports are unchanged."""
    want = {tid: oracle.random_suite(tid, 50, 1).to_json() for tid in THEOREMS}

    def refused(*args, **kwargs):
        raise AssertionError("a suite evaluated a cone function on its own")

    monkeypatch.setattr(_kernels, "cone_eval", refused)
    for tid in THEOREMS:
        assert oracle.random_suite(tid, 50, 1).to_json() == want[tid], tid


def _hypersingular_draws(seed):
    """The 200 draws of the hypersingular suite at ``seed``, and their ``_Cones``."""
    rng = oracle._Draws(np.random.default_rng(seed))
    draws = [oracle._draw_hypersingular(rng) for _ in range(200)]
    assert {type(omega) for omega, _, _, _ in draws} == {PowerModulus, TableModulus}
    assert {len(c[1]) for _, _, _, c in draws} == {1, 2, 3}
    cuts = [math.floor(kernel.cutoff) for _, _, kernel, _ in draws]
    cones = oracle._Cones(oracle._HYPERSINGULAR_SPACE, [omega for omega, _, _, _ in draws],
                          [c for _, _, _, c in draws], 2 * max(cuts) + 1)
    return draws, cones


@pytest.mark.parametrize("seed", [1, 2])
def test_hypersingular_lines_are_the_per_trial_cones(seed, monkeypatch):
    """Each trial of the 200-trial hypersingular suite reads its padded line
    as a slice of one line through all trials' cones: the slice's points are
    its plan's padded points, and the values that reach ``ball_sums`` have
    the bits of ``cone_eval`` on those points.  The weights that reach it,
    rows of the suite's kernel table, have the bits of ``kernel.value`` at
    the plan's offsets."""
    draws, cones = _hypersingular_draws(seed)
    space = oracle._HYPERSINGULAR_SPACE
    cuts = [math.floor(kernel.cutoff) for _, _, kernel, _ in draws]
    radii = [math.ceil(s) + cut + 1 for s, cut in zip(cones.support, cuts)]
    reach = max(r + c for r, c in zip(radii, cuts))
    line = _lattice.window_points(space, reach)

    seen = []
    ball_sums = _kernels.ball_sums

    def recorded(padded, base_idx, lin_offsets, weights):
        seen.append((padded.copy(), base_idx, weights.copy()))
        return ball_sums(padded, base_idx, lin_offsets, weights)

    monkeypatch.setattr(_kernels, "ball_sums", recorded)
    oracle._hypersingular_suite(draws)
    assert len(seen) == len(draws)
    for i, (padded, base_idx, weights) in enumerate(seen):
        plan = _lattice.sweep_plan(space, radii[i], cuts[i], punctured=True)
        pad = radii[i] + cuts[i]
        assert np.array_equal(line[reach - pad: reach + pad + 1], plan.padded_points)
        assert base_idx is plan.base_idx
        k_i = cones.count[i]
        want = _kernels.cone_eval(plan.padded_float, cones.centers[i, :k_i],
                                  cones.heights[i, :k_i], draws[i][3][0], draws[i][0], space)
        assert padded.tobytes() == want.tobytes()
        assert weights.tobytes() == draws[i][2].value(plan.offset_rho, space.d).tobytes()


@pytest.mark.parametrize("seed", [1, 2])
def test_hypersingular_tables_are_the_library_masses(seed):
    """The hypersingular suite's own tables hold the library's bits on the
    200 trials of seeds 1 and 2, which cover both balls, cuts across 20..39
    and both modulus kinds: each ``_kernel_table`` row is ``kernel.value``
    on its grid, and ``_kernel_masses`` gives ``kernel_ball_mass`` and
    ``kernel_tail_mass`` byte for byte."""
    draws, cones = _hypersingular_draws(seed)
    space = oracle._HYPERSINGULAR_SPACE
    hs = [h for _, h, _, _ in draws]
    kernels = [kernel for _, _, kernel, _ in draws]
    cuts = [math.floor(kernel.cutoff) for kernel in kernels]
    assert {math.ceil(h) - 1 for h in hs} == {1, 2}
    assert min(cuts) <= 21 and max(cuts) >= 38
    grid = np.arange(1, max(cuts) + 1, dtype=np.float64)
    kernel_table = oracle._kernel_table(kernels, len(grid), space.d)
    a_h, t_h = oracle._kernel_masses(oracle._modulus_table(cones.omegas, 3), kernel_table,
                                     hs, cuts)
    for i, (omega, h, kernel, _) in enumerate(draws):
        assert kernel_table[i].tobytes() == kernel.value(grid, space.d).tobytes()
        a_want = operators.kernel_ball_mass(space, omega, kernel, h).value
        t_want = operators.kernel_tail_mass(space, kernel, h).value
        assert a_h[i].tobytes() == np.float64(a_want).tobytes()
        assert t_h[i].tobytes() == np.float64(t_want).tobytes()


def test_hypersingular_suite_runs_no_library_mass(monkeypatch):
    """The hypersingular suite derives ``A(h)`` and ``T(h)`` from its own
    tables: with the library's masses refused, its reports are unchanged."""
    want = {seed: oracle.random_suite("hypersingular", 50, seed).to_json() for seed in (1, 2)}

    def refused(*args, **kwargs):
        raise AssertionError("the hypersingular suite called a library mass")

    monkeypatch.setattr(oracle, "kernel_ball_mass", refused)
    monkeypatch.setattr(oracle, "kernel_tail_mass", refused)
    for seed in (1, 2):
        assert oracle.random_suite("hypersingular", 50, seed).to_json() == want[seed]


@pytest.mark.parametrize("block", [1, 7, 64])
def test_hypersingular_blocks_keep_the_trial_digests(monkeypatch, block):
    """Blocks of 1, 7 and 64 trials, with a short last block for 7 and 64,
    give every trial the bits of one block of all 200."""
    monkeypatch.setattr(oracle, "_LINE_TRIALS", block)
    for seed in (1, 2):
        assert _trial_digest("hypersingular", seed) == TRIAL_DIGESTS[("hypersingular", seed)]


def test_trial_digests_see_the_batched_tail(monkeypatch):
    # T(h) started one shell late, at ceil(h) + 1: the hypersingular pins
    # see the tail sums of the batched suite
    def late(space, k0, k1):
        return operators._shell_counts(space, k0 + 1, k1)

    monkeypatch.setattr(oracle, "_shell_counts", late)
    assert _trial_digest("hypersingular", 1) != TRIAL_DIGESTS[("hypersingular", 1)]


def test_suite_report_json_round_trip():
    rep = oracle.random_suite("mixed_additive", trials=10, seed=1)
    data = rep.to_json()
    assert json.loads(json.dumps(data)) == data  # plain JSON types only
    assert data["theorem_id"] == "mixed_additive"
    assert data["violations"] == 0
    assert set(data) >= {"theorem_id", "trials", "violations", "min_gap", "worst_case", "seed"}


def test_random_suite_unknown_id():
    with pytest.raises(ValueError):
        oracle.random_suite("goldbach", trials=5, seed=1)


@pytest.mark.parametrize(
    "trials, seed, message",
    [
        (True, 1, "bad suite 'trials' True: expected an integer"),
        (2.5, 1, "bad suite 'trials' 2.5: expected an integer"),
        (5, True, "bad suite 'seed' True: expected an integer"),
        (5, -1, "suite 'seed' must be a nonnegative integer, got -1"),
    ],
)
def test_random_suite_reads_its_arguments(trials, seed, message):
    with pytest.raises(RequestError) as err:
        oracle.random_suite("nagy", trials=trials, seed=seed)
    assert str(err.value) == message


def test_random_suite_integral_float_arguments_read_as_ints():
    rep = oracle.random_suite("mixed_additive", trials=3.0, seed=2.0)
    assert rep.to_json() == oracle.random_suite("mixed_additive", trials=3, seed=2).to_json()
    assert type(rep.trials) is int and type(rep.seed) is int


@pytest.mark.parametrize("trials", [0, oracle.MAX_TRIALS + 1, 10**9])
def test_random_suite_trials_bounded(monkeypatch, trials):
    # refused before a single draw: a suite keeps every trial's draws
    def no_draw(rng):
        raise AssertionError("drew a trial")

    monkeypatch.setattr(oracle, "_draw_additive", no_draw)
    with pytest.raises(RequestError, match=f"suite 'trials' must lie in 1..{oracle.MAX_TRIALS}"):
        oracle.random_suite("nagy", trials=trials, seed=1)


# ----------------------------------------------------------------------
# Monte Carlo cross-checks of the closed forms


@pytest.mark.parametrize("name", oracle.MC_CHECKS)
def test_mc_cross_checks_within_4_sigma(name):
    out = oracle.mc_cross_check(name, seed=0, samples=60_000)
    assert out["ok"], out
    assert out["name"] == name
    assert "deterministic" in out and "monte_carlo" in out


def test_mc_cross_check_unknown_name():
    with pytest.raises(ValueError):
        oracle.mc_cross_check("nonexistent")


@pytest.mark.parametrize("seed", [-1, True, 0.5])
def test_mc_cross_check_refuses_a_bad_seed(seed):
    with pytest.raises(RequestError, match="'seed'"):
        oracle.mc_cross_check("ball_integral", seed=seed, samples=10)


def test_mc_cross_check_seed_sensitivity():
    a = oracle.mc_cross_check("ball_integral", seed=1, samples=20_000)
    b = oracle.mc_cross_check("ball_integral", seed=2, samples=20_000)
    assert a["monte_carlo"] != b["monte_carlo"]
    assert a["deterministic"] == b["deterministic"]
