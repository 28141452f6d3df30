import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharp_ineq.extremals import (
    _box_mass_orthant,
    ball_deficiency,
    bump_box_integral,
    make_f_e_omega,
    make_f_eh,
    make_f_omega,
    make_G_eh,
    sobolev_extremal_pair,
    split_point_a,
)
from sharp_ineq.calculus import _radial_kinks, _radial_value, constant_model
from sharp_ineq.modulus import PowerModulus, TableModulus
from sharp_ineq.space import continuum, lattice


def test_ball_deficiency_lattice_values():
    om = PowerModulus(1.0)
    # d=1: mu=3, omega(3/2)*3 - 2 = 2.5
    assert ball_deficiency(lattice(1, 0), om, 1.5).value == 2.5
    # d=2, m=0: mu=9, 13.5 - 8 = 5.5
    assert ball_deficiency(lattice(2, 0), om, 1.5).value == 5.5


def test_ball_deficiency_continuum_closed():
    # d=1, alpha=1, h=1: 1*2 - 1 = 1
    est = ball_deficiency(continuum(1, 0), PowerModulus(1.0), 1.0)
    assert math.isclose(est.value, 1.0, rel_tol=1e-14)


def test_bump_profile_values():
    space = continuum(1, 0)
    f = make_f_eh(space, PowerModulus(1.0), 1.0)
    got = f(np.array([[0.0], [0.25], [-0.5], [1.0], [3.0]]))
    np.testing.assert_allclose(got, [1.0, 0.75, 0.5, 0.0, 0.0])
    assert f.certified_sup_norm == 1.0
    assert f.certified_holder_bound == 1.0
    assert f.support_radius == 1.0
    assert f.seminorm_at_h == 1.0


def test_bump_uses_sup_metric():
    f = make_f_eh(continuum(2, 0), PowerModulus(1.0), 1.0)
    assert f(np.array([0.3, -0.8])) == pytest.approx(0.2)


def test_two_level_profile():
    # omega = t, h = 1: values -1/2 at 0, 0 at 1/2, then the jump to +1/2
    f = make_f_e_omega(continuum(1, 0), PowerModulus(1.0), 1.0)
    got = f(np.array([[0.0], [0.5], [1.0], [2.0]]))
    np.testing.assert_allclose(got, [-0.5, 0.0, 0.5, 0.5])
    assert f.certified_sup_norm == 0.5
    assert f.radial_pieces[-1] == (1.0, math.inf, 0.0, 1.0, 0.5)


def test_radial_gauge_signs_and_sup():
    space = continuum(1, 0)
    om = TableModulus([(0, 0), (1, 1)])
    gauge = make_f_omega(space, om)
    assert gauge(np.array([2.0])) == 1.0
    assert gauge.certified_sup_norm == 1.0
    assert make_f_omega(space, PowerModulus(0.5)).certified_sup_norm is None

    # smoothness constant 1: no sampled pair beats it, axis neighbours attain it
    space, om = continuum(2, 1), PowerModulus(0.5)
    gauge = make_f_omega(space, om)
    assert gauge.certified_holder_bound == 1.0
    rng = np.random.default_rng(11)
    xs = rng.uniform(-1, 1, size=(5000, 2))
    ys = rng.uniform(-1, 1, size=(5000, 2))
    xs[:, 0] = np.abs(xs[:, 0])
    ys[:, 0] = np.abs(ys[:, 0])
    xs = np.vstack([xs, [[0.0, 0.0]]])
    ys = np.vstack([ys, [[0.0, 0.7]]])
    ratio = np.abs(gauge(xs) - gauge(ys)) / om(space.norm(xs - ys))
    assert ratio.max() <= 1.0 + 1e-12
    assert math.isclose(ratio[-1], 1.0, rel_tol=1e-12)


def _radial_models(space, omega, h):
    """Each radial constructor with the kinks it stated beside its pieces
    before the pieces became its one radial description."""
    below = [b for b in omega.breakpoints() if b < h] + [h]
    yield make_f_eh(space, omega, h), below
    yield make_f_omega(space, omega), list(omega.breakpoints())
    yield make_f_e_omega(space, omega, h), below
    yield constant_model(-0.7), []


@pytest.mark.parametrize("d, m", [(d, m) for d in (1, 2, 3) for m in range(d + 1)])
@pytest.mark.parametrize("omega", [PowerModulus(0.5), PowerModulus(1.0),
                                   TableModulus([(0, 0), ("1/2", "2/5"), (2, 1)])],
                         ids=["power0.5", "power1", "table"])
def test_radial_pieces_state_the_profile(d, m, omega):
    space = continuum(d, m)
    for f, kinks in _radial_models(space, omega, 1.2):
        pieces = f.radial_pieces
        ends = [(s0, s1) for s0, s1, _, _, _ in pieces]
        assert ends[0][0] == 0.0 and ends[-1][1] == math.inf, f.name
        assert all(s0 < s1 for s0, s1 in ends), f.name
        assert all(a[1] == b[0] for a, b in zip(ends, ends[1:])), f.name
        for s0, s1, sigma, p, tau in pieces:
            width = 3.0 if math.isinf(s1) else s1 - s0
            for t in (s0 + 0.25 * width, s0 + 0.5 * width, s0 + 0.75 * width):
                assert _radial_value(f, space, t) == pytest.approx(
                    sigma * t**p + tau, rel=1e-12, abs=0.0), (f.name, t)
        assert _radial_kinks(f) == kinks, f.name


def test_bump_ball_mass_fn_central_value():
    space = continuum(2, 1)
    om = PowerModulus(0.5)
    f = make_f_eh(space, om, 1.0)
    mass = f.meta["ball_mass_fn"](space, 1.0, space.origin().astype(np.float64))
    mu = space.ball_measure(1.0)
    closed_I = 2 * 2.0 / 2.5  # d 2^(d-m)/(d+alpha) h^(d+alpha)
    assert math.isclose(mass, om(1.0) * mu - closed_I, rel_tol=1e-12)


def test_bump_box_integral_against_mc():
    om = PowerModulus(0.5)
    bounds = [(-0.3, 0.8), (0.1, 1.0)]
    got = bump_box_integral(om, 1.0, bounds)
    rng = np.random.default_rng(5)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    pts = rng.uniform(0, 1, size=(600_000, 2)) * (hi - lo) + lo
    vals = np.maximum(1.0 - om(np.max(np.abs(pts), axis=1)), 0.0)
    vol = float(np.prod(hi - lo))
    mc = vol * float(np.mean(vals))
    stderr = vol * float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(got - mc) <= 4 * stderr + 1e-12


def test_bump_box_integral_outside_support():
    assert bump_box_integral(PowerModulus(1.0), 1.0, [(2.0, 3.0)]) == 0.0


def _box_mass_polynomial_reference(omega, h, bounds):
    """``_box_mass_orthant`` as it was written on ``numpy.polynomial``."""
    from numpy.polynomial import polynomial as npoly

    hf, W = float(h), float(omega(float(h)))
    clipped = [(min(float(a), hf), min(float(b), hf)) for a, b in bounds]
    t0, top = max(a for a, _ in clipped), max(b for _, b in clipped)
    if any(b <= a for a, b in clipped) or top <= t0:
        return 0.0
    total = 0.0
    cuts = sorted({t0, top, *[b for _, b in clipped if t0 < b < top]})
    for s0, s1 in zip(cuts, cuts[1:]):
        mid, coeffs = 0.5 * (s0 + s1), np.array([1.0])
        for a, b in clipped:
            coeffs = npoly.polymul(coeffs, [-a, 1.0]) if mid < b else coeffs * (b - a)
        deriv = npoly.polyder(coeffs)
        for p0, p1, sigma, p, tau in omega.pieces(s0, s1):
            for k, ck in enumerate(deriv):
                if ck == 0.0:
                    continue
                total += ck * (W - tau) * ((p1 ** (k + 1) - p0 ** (k + 1)) / (k + 1))
                if sigma != 0.0:
                    q = k + 1 + p
                    total -= ck * sigma * ((p1**q - p0**q) / q)
    return total


def test_box_mass_keeps_the_polynomial_reference_bits():
    rng = np.random.default_rng(11)
    nonzero = 0
    for i in range(300):
        om = (PowerModulus(1.0), PowerModulus(0.5), _TABLE)[i % 3]
        h = float(rng.uniform(0.3, 2.5))
        d = int(rng.integers(1, 4))
        bounds = [tuple(sorted(rng.uniform(0.0, 1.2 * h, 2))) for _ in range(d)]
        if i % 2:
            bounds[0] = (0.0, bounds[0][1])
        want = _box_mass_polynomial_reference(om, h, bounds)
        assert _box_mass_orthant(om, h, bounds) == want
        nonzero += want != 0.0
    assert nonzero > 200


def test_iterated_bump_sup_norm():
    om = PowerModulus(1.0)
    # d=1: integral_0^1 (1 - t) dt = 1/2
    g1 = make_G_eh(continuum(1, 0), om, 1.0)
    assert math.isclose(g1.certified_sup_norm, 0.5, rel_tol=1e-14)
    assert math.isclose(g1(np.array([1.0])), 0.5, rel_tol=1e-14)
    # d=2: h^d omega(h) - 2^-d I(h) = 1 - 8/3/4 = 1/3
    g2 = make_G_eh(continuum(2, 0), om, 1.0)
    assert math.isclose(g2.certified_sup_norm, 1.0 / 3.0, rel_tol=1e-13)
    assert math.isclose(g2(np.array([1.0, 1.0])), 1.0 / 3.0, rel_tol=1e-13)


def test_iterated_bump_sign_symmetry():
    g = make_G_eh(continuum(2, 0), PowerModulus(1.0), 1.0)
    v = g(np.array([0.7, 0.6]))
    assert g(np.array([-0.7, 0.6])) == -v
    assert g(np.array([-0.7, -0.6])) == v
    assert g(np.array([0.0, 0.6])) == 0.0


def test_split_point_known_value():
    # omega = t, h = 1, d = 1: a solves a - a^2/2 = 1/4, i.e. a = 1 - 1/sqrt(2)
    split = split_point_a(PowerModulus(1.0), 1.0, 1)
    assert math.isclose(split.a, 1.0 - 1.0 / math.sqrt(2.0), abs_tol=1e-12)
    assert abs(split.residual) < 1e-12
    assert math.isclose(split.total_mass, 0.5, rel_tol=1e-14)


def test_split_point_total_mass_d2():
    split = split_point_a(PowerModulus(1.0), 1.0, 2)
    # integral over (0,1) x (-1,1) of (1 - max(x1, |x2|)) = 2/3
    assert math.isclose(split.total_mass, 2.0 / 3.0, rel_tol=1e-12)


def test_split_point_rejects_bad_h():
    with pytest.raises(ValueError):
        split_point_a(PowerModulus(1.0), 0.0, 1)


def test_split_iterated_bump_sup():
    om = PowerModulus(1.0)
    # d=1: (h/2) omega(h) - I/2^d = 1/2 - 1/4 = 1/4
    G1 = make_G_eh(continuum(1, 1), om, 1.0)
    assert math.isclose(G1.certified_sup_norm, 0.25, rel_tol=1e-13)
    # d=2: 1/2 - (8/3)/4... on the half-plane I(h)=d 2^{d-1}/(d+1) = 4/3; 1/2 - 1/3 = 1/6
    G2 = make_G_eh(continuum(2, 1), om, 1.0)
    assert math.isclose(G2.certified_sup_norm, 1.0 / 6.0, rel_tol=1e-13)


def test_split_iterated_bump_balance():
    """The split equalizes |G| at the two extreme corners."""
    om = PowerModulus(1.0)
    G = make_G_eh(continuum(2, 1), om, 1.0)
    v_lo = abs(G(np.array([0.0, 1.0])))
    v_hi = abs(G(np.array([1.0, 1.0])))
    assert math.isclose(v_lo, v_hi, rel_tol=1e-10)
    assert math.isclose(v_hi, G.certified_sup_norm, rel_tol=1e-10)


def test_split_iterated_bump_domain_guard():
    G = make_G_eh(continuum(1, 1), PowerModulus(1.0), 1.0)
    with pytest.raises(ValueError):
        G(np.array([-0.5]))
    G = make_G_eh(continuum(3, 2), PowerModulus(1.0), 1.0)
    with pytest.raises(ValueError):
        G(np.array([0.5, -0.1, 0.2]))
    with pytest.raises(ValueError):
        make_G_eh(lattice(2, 1), PowerModulus(1.0), 1.5)


def test_corner_sign_extremal_builds_no_corner_list():
    # the 2^m corner signs are read only by the evaluator, one at a time:
    # building G on 18 half-lines holds no list of 2^18 tuples
    tracemalloc.start()
    try:
        make_G_eh(continuum(18, 18), PowerModulus(1.0), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_TABLE = TableModulus([(0, 0), ("1/2", "2/5"), (2, 1)])
_DM = [(d, m) for d in (1, 2, 3) for m in range(d + 1)]


@pytest.mark.parametrize("d, m", _DM)
def test_corner_sign_extremal_alternates_and_is_bounded(d, m):
    """G is +-sup at the 2^d corners of [0,h]^m x [-h,h]^(d-m), signed by the
    number of low coordinates, and |G| <= sup on 10^4 random points in all."""
    om = (PowerModulus(1.0), PowerModulus(0.5), _TABLE)[(d + m) % 3]
    h = (0.7, 1.3)[d % 2]
    G = make_G_eh(continuum(d, m), om, h)
    sup = G.certified_sup_norm
    lows = [0.0 if i < m else -h for i in range(d)]
    corners = np.array(list(itertools.product(*[(lo, h) for lo in lows])))
    signs = (-1.0) ** np.sum(corners < h, axis=1)
    np.testing.assert_allclose(G(corners), signs * sup, rtol=1e-13, atol=0.0)
    rng = np.random.default_rng([d, m])
    pts = rng.uniform(-1.5 * h, 1.5 * h, (10_000 // len(_DM) + 1, d))
    pts[:, :m] = np.abs(pts[:, :m])
    assert np.all(np.abs(G(pts)) <= sup + 1e-12)


@pytest.mark.parametrize("om", [PowerModulus(1.0), PowerModulus(0.5), _TABLE])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_corner_sign_certificate_is_half_the_split_mass(d, om):
    # at m = 1 the certificate keeps the bits of the split-point form
    split = split_point_a(om, 0.9, d)
    G = make_G_eh(continuum(d, 1), om, 0.9)
    assert G.certified_sup_norm == 0.5 * split.total_mass / 2.0 ** (d - 1)


def test_sobolev_pair_contract():
    space = continuum(2, 1)
    f, g = sobolev_extremal_pair(space, PowerModulus(0.5), 1.0)
    assert g(np.array([0.3, 0.3])) == 0.5
    # the pair inequality |f(x)-f(y)| <= (g(x)+g(y)) omega(rho(x,y)) at H=1
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, size=(2000, 2))
    ys = rng.uniform(-1, 1, size=(2000, 2))
    xs[:, 0] = np.abs(xs[:, 0])
    ys[:, 0] = np.abs(ys[:, 0])
    om = PowerModulus(0.5)
    dist = space.norm(xs - ys)
    lhs = np.abs(f(xs) - f(ys))
    rhs = (g(xs) + g(ys)) * om(dist)
    assert np.all(lhs <= rhs + 1e-12)


def test_lattice_bump_certificates():
    space = lattice(2, 1)
    f = make_f_eh(space, PowerModulus(1.0), 1.5)
    # mu = 6, I = 5, so seminorm = 1.5*6 - 5 = 4
    assert f.certified_seminorm_h == 4.0
    assert f.certified_l1 == 4.0
    assert "ball_mass_fn" not in f.meta


@given(
    alpha=st.floats(min_value=0.2, max_value=1.0),
    h=st.floats(min_value=0.3, max_value=3.0),
    d=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_iterated_sup_closed_form(alpha, h, d):
    """sup g = h^d omega(h) - I(h)/2^d for the all-lines iterated bump."""
    om = PowerModulus(alpha)
    g = make_G_eh(continuum(d, 0), om, h)
    I = d * 2.0**d / (d + alpha) * h ** (d + alpha)
    want = h**d * om(h) - I / 2.0**d
    assert math.isclose(g.certified_sup_norm, want, rel_tol=1e-10)
