import math
import re

import numpy as np
import pytest

from sharp_ineq import _lattice
from sharp_ineq.calculus import (
    CLOSED_FORM,
    LATTICE_EXACT,
    MONTE_CARLO,
    RADIAL1D,
    CertificationError,
    Estimate,
    FunctionModel,
    QuadratureSpec,
    ball_integral_at,
    ball_integral_of_modulus,
    constant_model,
    continuum_grid,
    default_spec,
    l1_norm,
    seminorm_local,
    sup_norm,
)
from sharp_ineq.extremals import make_f_e_omega, make_f_eh
from sharp_ineq.modulus import PowerModulus, TableModulus
from sharp_ineq.operators import ChargeModel, charge_seminorm
from sharp_ineq.space import RequestError, Space, continuum, lattice


def closed(d, m, alpha, h):
    return d * 2.0 ** (d - m) / (d + alpha) * h ** (d + alpha)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(method="gauss")
    spec = QuadratureSpec(method=MONTE_CARLO)
    assert (spec.method, spec.mc_samples, spec.seed) == (MONTE_CARLO, 200_000, 0)


def test_quadrature_spec_bounds_the_sample_count():
    # refused before any draw: a Monte Carlo path holds (samples, d) arrays
    assert QuadratureSpec(mc_samples=_lattice.POINT_BUDGET).mc_samples == _lattice.POINT_BUDGET
    for n in (_lattice.POINT_BUDGET + 1, 10**12):
        with pytest.raises(RequestError, match=f"at most {_lattice.POINT_BUDGET}, got {n}"):
            QuadratureSpec(method=MONTE_CARLO, mc_samples=n)


def test_sample_coordinates_bounded_before_any_draw(monkeypatch):
    # memory grows with samples * d: the line takes the whole budget, d = 3
    # not half of it, at each entry point that holds (samples, d)
    continuum(1, 0).require_sample_budget(_lattice.POINT_BUDGET)

    def no_draw(*args, **kwargs):
        raise AssertionError("drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    n = _lattice.POINT_BUDGET // 2
    refusal = re.escape(f"mc_samples * d = {n} * 3 sample coordinates exceed")
    bare = FunctionModel(name="bare", evaluator=lambda pts: np.ones(len(pts)))
    for refuse in (
        lambda: continuum(3, 1).sample_ball(1.5, n, seed=0),
        lambda: lattice(3, 0).sample_ball(1.5, n, seed=0),
        lambda: l1_norm(bare, continuum(3, 0), 1.0, QuadratureSpec(MONTE_CARLO, n)),
    ):
        with pytest.raises(RequestError, match=refusal):
            refuse()


def test_default_spec_dispatch():
    assert default_spec(lattice(2, 1), PowerModulus(1.0)).method == LATTICE_EXACT
    assert default_spec(continuum(2, 1), PowerModulus(0.5)).method == CLOSED_FORM
    table = TableModulus([(0, 0), (1, 1)])
    assert default_spec(continuum(1, 0), table).method == RADIAL1D


def test_estimate_floats():
    e = Estimate(2.5, CLOSED_FORM)
    assert float(e) == 2.5 and e.error_bound == 0.0


@pytest.mark.parametrize(
    "d,m,alpha,h",
    [(1, 0, 1.0, 1.0), (2, 0, 0.5, 1.5), (2, 1, 0.5, 1.3), (3, 2, 0.75, 0.7)],
)
def test_ball_integral_closed_form_matrix(d, m, alpha, h):
    space = continuum(d, m)
    om = PowerModulus(alpha)
    est = ball_integral_of_modulus(space, om, h)
    assert est.method == CLOSED_FORM
    assert math.isclose(est.value, closed(d, m, alpha, h), rel_tol=1e-14)


@pytest.mark.parametrize("d,m", [(1, 0), (2, 1), (3, 0)])
def test_radial_matches_closed_form(d, m):
    space = continuum(d, m)
    om = PowerModulus(0.6)
    spec = QuadratureSpec(method=RADIAL1D)
    est = ball_integral_of_modulus(space, om, 1.2, spec)
    assert math.isclose(est.value, closed(d, m, 0.6, 1.2), rel_tol=1e-9)
    assert est.error_bound < 1e-7


def test_radial_table_modulus():
    # I(h) = 2 * 1 * int_0^h omega(t) dt on the line; omega the unit ramp
    om = TableModulus([(0, 0), (1, 1)])
    space = continuum(1, 0)
    est = ball_integral_of_modulus(space, om, 2.0, QuadratureSpec(method=RADIAL1D))
    assert math.isclose(est.value, 2.0 * (0.5 + 1.0), rel_tol=1e-10)


def test_lattice_ball_integral_exact():
    # d=1 ball of radius 3/2 holds {-1, 0, 1}: I = 2 * omega(1)
    space = lattice(1, 0)
    est = ball_integral_of_modulus(space, PowerModulus(1.0), 1.5)
    assert est.method == LATTICE_EXACT and est.value == 2.0
    # d=2, m=0: 3x3 block, eight points at distance 1
    est2 = ball_integral_of_modulus(lattice(2, 0), PowerModulus(1.0), 1.5)
    assert est2.value == 8.0


def test_monte_carlo_ball_integral_within_4_sigma():
    space = continuum(2, 1)
    om = PowerModulus(0.7)
    spec = QuadratureSpec(method=MONTE_CARLO, mc_samples=100_000, seed=7)
    est = ball_integral_of_modulus(space, om, 1.3, spec)
    want = closed(2, 1, 0.7, 1.3)
    assert est.error_bound > 0
    assert abs(est.value - want) <= 4.0 * est.error_bound


def test_invalid_radius_rejected():
    with pytest.raises(ValueError):
        ball_integral_of_modulus(lattice(1, 0), PowerModulus(1.0), 1.0)
    with pytest.raises(ValueError):
        ball_integral_of_modulus(continuum(1, 0), PowerModulus(1.0), 0.0)


@pytest.mark.parametrize("space, omega, h, method, word", [
    (continuum(1, 0), PowerModulus(0.5), 5e299, CLOSED_FORM, "overflows"),  # OverflowError
    (continuum(2, 0), TableModulus([(0, 0), (1, 0.75), (2, 1)]), 1e154, RADIAL1D,
     "overflows"),  # a sum that reaches inf without raising
    (continuum(1, 0), PowerModulus(0.5), 5e-301, CLOSED_FORM, "underflows"),
])
def test_ball_integral_beyond_float_range_names_itself(space, omega, h, method, word):
    with pytest.raises(ValueError, match=rf"I\(h\) {word}.* h = {re.escape(f'{h:g}')}$"):
        ball_integral_of_modulus(space, omega, h, QuadratureSpec(method=method))


def test_continuum_grid_respects_half_lines():
    grid = continuum_grid(continuum(2, 1), 1.0, 0.5)
    assert grid.shape[1] == 2
    assert np.all(grid[:, 0] >= 0.0)
    assert grid[:, 1].min() == -1.0 and grid[:, 1].max() == 1.0
    with pytest.raises(ValueError):
        continuum_grid(continuum(1, 0), 1.0, 0.0)


def test_sup_norm_hits_certified_value():
    space = continuum(2, 0)
    f = make_f_eh(space, PowerModulus(0.5), 1.0)
    got = sup_norm(f, space, 2.0)
    assert math.isclose(got, f.certified_sup_norm, rel_tol=1e-12)


def test_sup_norm_window_too_small():
    space = continuum(1, 0)
    f = make_f_eh(space, PowerModulus(1.0), 2.0)
    with pytest.raises(ValueError):
        sup_norm(f, space, 1.0)


def test_certification_error_fires():
    space = continuum(1, 0)
    f = constant_model(2.0)
    f.certified_sup_norm = 1.0  # deliberately wrong certificate
    with pytest.raises(CertificationError):
        sup_norm(f, space, 1.0)


def test_l1_norm_of_bump_matches_deficiency():
    # ||f_eh||_1 = omega(h) mu(B_h) - I(h); for alpha=1, h=1 on the line: 2 - 1
    space = continuum(1, 0)
    f = make_f_eh(space, PowerModulus(1.0), 1.0)
    got = l1_norm(f, space, 1.0)
    assert math.isclose(got, 1.0, rel_tol=1e-9)
    assert math.isclose(f.certified_l1, 1.0, rel_tol=1e-14)


def _bare_bump(space):
    """The bump with its certificates, radial pieces and box-mass engine
    stripped, so only the generic quadrature paths can integrate it."""
    f = make_f_eh(space, PowerModulus(1.0), 1.0)
    bare = f.without_certificates()
    bare.radial_pieces = None
    bare.meta = {}
    return f, bare


def test_l1_norm_and_ball_integral_adaptive_line():
    # d = 1 without a radial profile: adaptive Simpson on |f| and on the ball
    space = continuum(1, 0)
    f, bare = _bare_bump(space)
    assert math.isclose(l1_norm(bare, space, 2.0), f.certified_l1, rel_tol=1e-9)
    got = ball_integral_at(bare, space, 1.0, space.origin())
    assert math.isclose(got, f.certified_seminorm_h, rel_tol=1e-9)


def test_l1_norm_and_ball_integral_monte_carlo_plane():
    # d = 2 without a radial profile: uniform sampling of the window / the ball
    space = continuum(2, 0)
    f, bare = _bare_bump(space)
    spec = QuadratureSpec(method=MONTE_CARLO, mc_samples=200_000, seed=3)
    assert math.isclose(l1_norm(bare, space, 2.0, spec), f.certified_l1, rel_tol=5e-3)
    got = ball_integral_at(bare, space, 1.0, space.origin(), spec)
    assert math.isclose(got, f.certified_seminorm_h, rel_tol=5e-3)


def test_l1_norm_lattice_exact():
    space = lattice(2, 0)
    f = make_f_eh(space, PowerModulus(1.0), 1.5)
    # values: 1.5 at 0, 0.5 at the eight distance-1 points
    assert l1_norm(f, space, 2.0) == 1.5 + 8 * 0.5


def test_ball_integral_at_lattice_translation():
    space = lattice(1, 0)
    f = make_f_eh(space, PowerModulus(1.0), 2.5)
    # brute force against direct evaluation
    for x in ([0.0], [1.0], [-2.0]):
        want = sum(float(f(np.array([x[0] + u]))) for u in (-2, -1, 0, 1, 2))
        got = ball_integral_at(f, space, 2.5, np.array(x))
        assert math.isclose(got, want, rel_tol=1e-14)


def test_ball_integral_at_continuum_exact_mass():
    # translated-bump ball masses come from the exact box engine; check the
    # central one against the closed form omega(h) mu - I
    space = continuum(2, 1)
    om = PowerModulus(0.5)
    f = make_f_eh(space, om, 1.0)
    mu = space.ball_measure(1.0)
    want = om(1.0) * mu - closed(2, 1, 0.5, 1.0)
    got = ball_integral_at(f, space, 1.0, space.origin())
    assert math.isclose(got, want, rel_tol=1e-12)


def test_ball_integral_at_continuum_translated_mc():
    space = continuum(2, 0)
    om = PowerModulus(1.0)
    f = make_f_eh(space, om, 1.0)
    x = np.array([0.4, -0.3])
    got = ball_integral_at(f, space, 1.0, x)
    rng = np.random.default_rng(3)
    pts = x + rng.uniform(-1.0, 1.0, size=(400_000, 2))
    vals = f(pts)
    mc = 4.0 * float(np.mean(vals))
    stderr = 4.0 * float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(got - mc) <= 4.0 * stderr


def _batch_cases():
    z21 = lattice(2, 1)
    bump = make_f_eh(z21, PowerModulus(1.0), 2.5)
    yield "lattice", bump, z21, 2.5, None, [[0.0, 0.0], [1.0, -2.0], [3.0, 1.0]]
    p21 = continuum(2, 1)
    box = make_f_eh(p21, PowerModulus(0.5), 1.0)
    yield "box mass", box, p21, 0.8, None, [[0.0, 0.0], [0.3, -0.4], [1.2, 0.5]]
    p20 = continuum(2, 0)
    two_level = make_f_e_omega(p20, PowerModulus(1.0), 1.0)
    mc = QuadratureSpec(method=MONTE_CARLO, mc_samples=2000, seed=3)
    yield "pieces and MC", two_level, p20, 0.5, mc, [[0.4, -0.1], [0.0, 0.0], [-0.6, 0.2]]
    line = continuum(1, 0)
    _, bare = _bare_bump(line)
    yield "adaptive line", bare, line, 1.0, None, [[0.0], [0.3], [-0.7]]


@pytest.mark.parametrize("case", list(_batch_cases()), ids=lambda c: c[0])
def test_ball_integral_at_batched_centres_match_single(case):
    _, f, space, h, spec, centres = case
    xs = np.array(centres)
    got = ball_integral_at(f, space, h, xs, spec)
    assert got.shape == (len(xs),)
    want = [ball_integral_at(f, space, h, x, spec) for x in xs]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    if space.is_lattice:  # the row sums are the per-ball np.sum of the gather
        offs = space.enumerate_ball(h).astype(np.float64)
        assert want == [float(np.sum(f(x[None, :] + offs))) for x in xs]


def test_ball_integral_search_draws_one_sample_per_call(monkeypatch):
    # every off-origin centre of the search reads the same Monte Carlo offsets
    draws = []
    sample_ball = Space.sample_ball

    def counted(self, *args):
        draws.append(args)
        return sample_ball(self, *args)

    monkeypatch.setattr(Space, "sample_ball", counted)
    space = continuum(2, 0)
    f = make_f_e_omega(space, PowerModulus(1.0), 1.0)
    spec = QuadratureSpec(method=MONTE_CARLO, mc_samples=20_000, seed=3)
    for search in (lambda: seminorm_local(f, space, 0.5, 1.0, spec),
                   lambda: charge_seminorm(ChargeModel(f), space, 0.5, 1.0, spec)):
        draws.clear()
        assert search().hex() == "0x1.d589ec6734a41p-2"
        assert len(draws) == 1


def test_seminorm_local_certified_and_sweep_agree():
    space = continuum(1, 0)
    om = PowerModulus(1.0)
    f = make_f_eh(space, om, 1.0)
    cert = seminorm_local(f, space, 1.0, 2.0)
    sweep = seminorm_local(f.without_certificates(), space, 1.0, 2.0)
    assert math.isclose(cert, 1.0, rel_tol=1e-14)  # the deficiency above
    assert sweep <= cert * (1 + 1e-12)
    assert sweep >= 0.99 * cert  # maximizer x=0 lies on the search grid


def test_seminorm_local_lattice_window_guard():
    space = lattice(1, 0)
    f = make_f_eh(space, PowerModulus(1.0), 1.5)
    with pytest.raises(ValueError):
        seminorm_local(f, space, 1.5, 1.0)
    val = seminorm_local(f, space, 1.5, 4.0)
    # ball sum at the origin: 1.5 + 2 * 0.5
    assert val == 2.5


def test_constant_model_and_uncertified_copy():
    c = constant_model(-3.0)
    assert c(np.array([0.5, 0.5])) == -3.0
    assert c.certified_holder_bound == 0.0
    bare = c.without_certificates()
    assert bare.certified_sup_norm is None
    assert bare.radial_pieces == c.radial_pieces
    assert bare(np.array([1.0, 0.0])) == -3.0
