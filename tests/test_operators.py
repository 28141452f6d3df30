import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharp_ineq import _lattice, extremals, oracle
from sharp_ineq import operators as ops
from sharp_ineq._quad import QuadratureError
from sharp_ineq.calculus import (
    MONTE_CARLO,
    FunctionModel,
    QuadratureSpec,
    ball_integral_at,
    ball_integral_of_modulus,
    l1_norm,
    seminorm_local,
)
from sharp_ineq.extremals import make_f_e_omega, make_f_eh, make_f_omega, make_G_eh
from sharp_ineq.modulus import PowerModulus, TableModulus
from sharp_ineq.space import RequestError, continuum, lattice, strict_int_below

RAMP = PowerModulus(1.0)


# ----------------------------------------------------------------------
# averages and additive right-hand sides


def test_steklov_average_lattice_values():
    space = lattice(1, 0)
    f = make_f_eh(space, RAMP, 1.5)
    s = ops.steklov_average(f, space, 1.5)
    # at the origin: (0.5 + 1.5 + 0.5) / 3
    assert s(np.array([0.0])) == pytest.approx(2.5 / 3.0)


@pytest.mark.parametrize("space", [lattice(2, 1), lattice(3, 0)], ids=["Z2_1", "Z3_0"])
def test_steklov_average_lattice_matches_per_point_sums(space, cone_function):
    rng = np.random.default_rng(space.d)
    f = cone_function(space, RAMP, oracle._draw_cones(space, oracle._Draws(rng)))
    s = ops.steklov_average(f, space, 2.5)
    offsets = space.enumerate_ball(2.5).astype(np.float64)
    mu = float(space.ball_measure(2.5))
    xs = _lattice.window_points(space, 3).astype(np.float64)
    want = np.array([float(np.sum(f(x[None, :] + offsets))) for x in xs]) / mu
    assert np.array_equal(s(xs), want)


def test_steklov_average_continuum_central_value():
    space = continuum(1, 0)
    f = make_f_eh(space, RAMP, 1.0)
    s = ops.steklov_average(f, space, 1.0)
    # ball mass at 0 is the deficiency 1, measure 2
    assert s(np.array([0.0])) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("space", [lattice(2, 1), continuum(1, 0)], ids=["Z2_1", "R1_0"])
def test_lemma1_reads_the_steklov_average(space, monkeypatch):
    # the report's left side |f(0) - S_h f(0)| is the library's ball average
    calls = []
    steklov = ops.steklov_average

    def counted(*args, **kwargs):
        calls.append(args)
        return steklov(*args, **kwargs)

    monkeypatch.setattr(ops, "steklov_average", counted)
    rep = ops.theorem_report("lemma1", space, RAMP, 1.5)
    assert len(calls) == 1
    assert rep.verdict == ops.VERDICT_EQUALITY


def test_ostrowski_bound_value():
    # I(h)/mu on the line at alpha=1, h=1: 1/2
    assert ops.ostrowski_bound(continuum(1, 0), RAMP, 1.0, 1.0) == pytest.approx(0.5)
    assert ops.ostrowski_bound(continuum(1, 0), RAMP, 1.0, 3.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        ops.ostrowski_bound(continuum(1, 0), RAMP, 1.0, -1.0)


def test_additive_rhs_values_at_extremal():
    space = continuum(1, 0)
    f = make_f_eh(space, RAMP, 1.0)
    rhs = ops.nagy_rhs(space, RAMP, 1.0, 1.0, f.certified_seminorm_h)
    assert rhs == pytest.approx(f.certified_sup_norm, rel=1e-12)  # equality case
    rhs_l1 = ops.nagy_l1_rhs(space, RAMP, 1.0, 1.0, f.certified_l1)
    assert rhs_l1 == pytest.approx(rhs, rel=1e-12)  # seminorm == L1 for the bump
    rhs_sob = ops.sobolev_rhs(space, RAMP, 1.0, 0.5, f.certified_seminorm_h)
    assert rhs_sob == pytest.approx(rhs, rel=1e-12)
    for bad in (ops.nagy_rhs, ops.nagy_l1_rhs):
        with pytest.raises(ValueError):
            bad(space, RAMP, 1.0, 1.0, -0.1)


# ----------------------------------------------------------------------
# charges


def test_charge_ball_mass_and_average():
    space = lattice(1, 0)
    f = make_f_eh(space, RAMP, 1.5)
    # the largest ball charge is the one at the origin: 1.5 + 2 * 0.5
    assert ops.charge_seminorm(f, space, 1.5, window_radius=4.0) == pytest.approx(2.5)


def test_charge_seminorm_matches_density_seminorm():
    space = lattice(2, 1)
    f = make_f_eh(space, RAMP, 1.5)
    got = ops.charge_seminorm(f, space, 1.5, window_radius=3.0)
    assert got == pytest.approx(f.certified_seminorm_h, rel=1e-12)


@pytest.mark.parametrize("sweep", ["charge_seminorm", "seminorm_local"])
def test_lattice_seminorms_refuse_a_window_short_of_the_support(sweep):
    # 1 at x = 6 with support radius 6.5: balls of radius 5/2 meet it from
    # centres out to ceil(6.5) + 2 = 9, so a window of 3 would read 0
    space = lattice(1, 0)
    f = FunctionModel(name="spike", evaluator=lambda x: (x[:, 0] == 6).astype(np.float64),
                      support_radius=6.5)
    seminorm = {
        "charge_seminorm": lambda w: ops.charge_seminorm(f, space, 2.5, window_radius=w),
        "seminorm_local": lambda w: seminorm_local(f, space, 2.5, w),
    }[sweep]
    with pytest.raises(ValueError, match=r"too small: need support \+ ball = 9"):
        seminorm(3)
    assert seminorm(9) == 1.0


LATTICES = [lattice(d, m) for d in (1, 2, 3) for m in range(d + 1)]


@pytest.mark.parametrize("h", [1.5, 2.5])
@pytest.mark.parametrize("space", LATTICES, ids=lambda s: f"Z{s.d}_{s.m}")
def test_charge_seminorm_lattice_gather_path(space, h, cone_function):
    rng = np.random.default_rng(10 * space.d + space.m)
    omega = RAMP if space.m % 2 else TableModulus([(0, 0), (1, 0.8), (3, 1.4)])
    f = cone_function(space, omega, oracle._draw_cones(space, oracle._Draws(rng)))
    k = strict_int_below(h)
    radius = math.ceil(f.support_radius) + k + 1
    got = ops.charge_seminorm(f, space, h, window_radius=radius)

    xs = _lattice.window_points(space, radius).astype(np.float64)
    assert got == max(abs(ball_integral_at(f, space, h, x)) for x in xs)
    assert got == seminorm_local(f, space, h, radius)
    assert got > 0

    plan = _lattice.sweep_plan(space, radius, k)
    for arr in (plan.offsets, plan.padded_points, plan.base_idx, plan.lin_offsets):
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("punctured", [False, True])
def test_sweep_plan_arrays_are_read_only(punctured):
    # every array a cached plan holds is shared by all its callers
    plan = _lattice.sweep_plan(lattice(2, 1), 4, 2, punctured)
    names = [f.name for f in dataclasses.fields(plan)]
    assert {"padded_points", "padded_float", "offsets", "offset_rho"} <= set(names)
    arrays = [getattr(plan, name) for name in names]
    assert all(isinstance(a, np.ndarray) for a in arrays)
    assert plan.padded_float.dtype == np.float64
    assert np.array_equal(plan.padded_float, plan.padded_points)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("space", [continuum(1, 0), continuum(2, 1)], ids=["R1_0", "R2_1"])
def test_charge_seminorm_continuum_grid_search(space):
    f = make_f_eh(space, RAMP, 1.0)
    got = ops.charge_seminorm(f, space, 1.0, window_radius=2.0)
    assert got == pytest.approx(f.certified_seminorm_h, rel=1e-12)


# ----------------------------------------------------------------------
# kernels


def test_power_law_kernel_basics():
    k = ops.PowerLawKernel(beta=0.5)
    assert k.value(2.0, 1) == pytest.approx(2.0 ** (-1.5))
    assert k.support_radius == math.inf
    kc = ops.PowerLawKernel(beta=0.5, cutoff=3.0)
    assert kc.value(4.0, 1) == 0.0
    assert kc.value(2.0, 1) == k.value(2.0, 1)
    with pytest.raises(ValueError):
        ops.PowerLawKernel(beta=0.0)
    with pytest.raises(ValueError):
        ops.PowerLawKernel(beta=1.0, cutoff=0.0)


def test_table_kernel_basics():
    k = ops.TableKernel([(1.0, 2.0), (2.0, 1.0)])
    assert k.value(0.5, 1) == 2.0  # constant head
    assert k.value(1.5, 1) == 1.5
    assert k.value(3.0, 1) == 0.0
    assert k.support_radius == 2.0
    with pytest.raises(ValueError):
        ops.TableKernel([])
    with pytest.raises(ValueError):
        ops.TableKernel([(0.0, 1.0)])
    with pytest.raises(ValueError):
        ops.TableKernel([(1.0, -1.0)])


@pytest.mark.parametrize("make", [
    lambda: ops.PowerLawKernel(beta=math.inf),
    lambda: ops.TableKernel([(math.nan, 1.0)]),
    lambda: ops.TableKernel([(1.0, math.inf)]),
    lambda: ops.TableKernel([(True, 1.0)]),
], ids=["infinite-beta", "nan-radius", "infinite-value", "boolean-radius"])
def test_kernels_reject_non_finite_and_boolean_numbers(make):
    with pytest.raises(ValueError):
        make()


def test_kernel_config_round_trip():
    for k in (
        ops.PowerLawKernel(beta=0.7),
        ops.PowerLawKernel(beta=0.7, cutoff=5.0),
        ops.TableKernel([(1.0, 2.0), (2.0, 0.5)]),
    ):
        again = ops.kernel_from_config(k.to_config())
        for t in (0.5, 1.5, 4.0, 6.0):
            assert again.value(t, 2) == pytest.approx(k.value(t, 2))
    with pytest.raises(ValueError):
        ops.kernel_from_config({"form": "gaussian"})


def test_kernel_ball_and_tail_frozen_values():
    # d=1, omega = t, beta = 1/2, h = 1: A = 2 int_0^1 t^{-1/2} = 4, T = 2 int_1^inf t^{-3/2} = 4
    space = continuum(1, 0)
    kernel = ops.PowerLawKernel(beta=0.5)
    a = ops.kernel_ball_mass(space, RAMP, kernel, 1.0)
    t = ops.kernel_tail_mass(space, kernel, 1.0)
    assert a.value == pytest.approx(4.0, rel=1e-14)
    assert t.value == pytest.approx(4.0, rel=1e-14)
    assert a.error_bound == 0.0 and t.error_bound == 0.0


def test_kernel_ball_mass_divergence():
    space = continuum(1, 0)
    with pytest.raises(ValueError, match="diverges"):
        ops.kernel_ball_mass(space, PowerModulus(0.4), ops.PowerLawKernel(beta=0.8), 1.0)


def test_kernel_ball_mass_monte_carlo_power():
    # importance density matches the integrand exactly: zero variance
    space = continuum(1, 0)
    spec = QuadratureSpec(method=MONTE_CARLO, mc_samples=2000, seed=3)
    a = ops.kernel_ball_mass(space, RAMP, ops.PowerLawKernel(beta=0.5), 1.0, spec)
    assert a.value == pytest.approx(4.0, rel=1e-12)
    assert a.error_bound < 1e-10


def test_kernel_tail_mass_monte_carlo():
    space = continuum(2, 1)
    kernel = ops.PowerLawKernel(beta=0.5)
    exact = ops.kernel_tail_mass(space, kernel, 1.2)
    spec = QuadratureSpec(method=MONTE_CARLO, mc_samples=200_000, seed=5)
    mc = ops.kernel_tail_mass(space, kernel, 1.2, spec)
    assert abs(mc.value - exact.value) <= 4 * mc.error_bound


def test_kernel_tail_mass_cutoff_cases():
    space = continuum(1, 0)
    k = ops.PowerLawKernel(beta=0.5, cutoff=4.0)
    # 2 (h^-b - c^-b)/b with h=1: 2 (1 - 1/2) / 0.5 = 2
    assert ops.kernel_tail_mass(space, k, 1.0).value == pytest.approx(2.0)
    assert ops.kernel_tail_mass(space, k, 5.0).value == 0.0


def test_table_kernel_tail_mass_manual():
    # kernel: constant 1 on (0,1], linear down to 0 at 3; on the line (scale 2)
    # T(1) = 2 * int_1^3 (3 - t)/2 dt = 2
    space = continuum(1, 0)
    k = ops.TableKernel([(1.0, 1.0), (3.0, 0.0)])
    got = ops.kernel_tail_mass(space, k, 1.0)
    assert got.value == pytest.approx(2.0, rel=1e-10)
    assert ops.kernel_tail_mass(space, k, 3.0).value == 0.0


def test_lattice_kernel_masses_brute_force():
    space = lattice(2, 1)
    kernel = ops.PowerLawKernel(beta=0.7, cutoff=30.0)
    h = 2.5
    a = ops.kernel_ball_mass(space, RAMP, kernel, h)
    t = ops.kernel_tail_mass(space, kernel, h)
    # brute force over a window comfortably past the cutoff
    brute_a = brute_t = 0.0
    for i in range(0, 32):
        for j in range(-31, 32):
            rho = max(abs(i), abs(j))
            if rho == 0:
                continue
            val = float(kernel.value(float(rho), 2))
            if rho < h:
                brute_a += rho * val
            else:
                brute_t += val
    assert a.value == pytest.approx(brute_a, rel=1e-12)
    assert t.value == pytest.approx(brute_t, rel=1e-12)


def test_lattice_pure_power_tail_is_exact():
    # T(1.5) = sum_{k >= 2} 2 k^-1.5 on Z; the shells past K weigh between
    # 2 * int_K^inf t^-1.5 = 4/sqrt(K) and 4/sqrt(K - 1)
    space = lattice(1, 0)
    t = ops.kernel_tail_mass(space, ops.PowerLawKernel(beta=0.5), 1.5)
    assert t.error_bound < 1e-15
    k1 = 4_000_000
    ks = np.arange(2, k1, dtype=np.float64)
    rest = t.value - math.fsum(2.0 * ks ** (-1.5))
    assert 4 / math.sqrt(k1) - 1e-12 <= rest <= 4 / math.sqrt(k1 - 1) + 1e-12


@pytest.mark.parametrize("s", [1.05, 1.3, 2.0, 3.5, 4.9, 10.0])
@pytest.mark.parametrize("a", [1, 2, 3, 7.5, 17, 1000, 1e6])
def test_hurwitz_zeta_matches_mpmath(s, a):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.zeta(s, a))
    got, err = ops._hurwitz_zeta(s, a)
    assert got == pytest.approx(ref, rel=1e-14)
    assert err <= 1e-18 * ref


def test_hurwitz_zeta_rejects_divergent_arguments():
    for s, a in ((1.0, 2.0), (0.5, 2.0), (2.0, 0.0)):
        with pytest.raises(ValueError):
            ops._hurwitz_zeta(s, a)


@pytest.mark.parametrize("space", LATTICES, ids=lambda s: f"Z{s.d}_{s.m}")
def test_lattice_shell_tail_matches_brute_force(space):
    # the shells k0..K of the uncut tail are the difference of two tails;
    # a cut kernel's finite shell sum is the whole box beyond k0
    k0, k1 = 2, 12
    pts = _lattice.window_points(space, k1)
    rho = np.max(np.abs(pts), axis=1).astype(np.float64)
    ring = rho[rho >= k0]
    uncut = ops.PowerLawKernel(beta=0.7)
    part = (ops._lattice_shell_tail(space, uncut, k0).value
            - ops._lattice_shell_tail(space, uncut, k1 + 1).value)
    assert part == pytest.approx(math.fsum(ring ** -(space.d + 0.7)), rel=1e-12)
    for kernel in (ops.PowerLawKernel(beta=0.7, cutoff=k1 + 0.5), TABLE_KERNEL):
        got = ops._lattice_shell_tail(space, kernel, k0)
        assert got.value == pytest.approx(math.fsum(kernel.value(ring, space.d)), rel=1e-12)
        assert got.error_bound == 0.0


@given(beta=st.floats(0.2, 2.0), h=st.floats(0.3, 4.0))
@settings(max_examples=80, deadline=None)
def test_tail_mass_scaling_law(beta, h):
    """T(2h) = 2^-beta T(h) for the pure power kernel (continuum)."""
    space = continuum(2, 0)
    k = ops.PowerLawKernel(beta=beta)
    t1 = ops.kernel_tail_mass(space, k, h).value
    t2 = ops.kernel_tail_mass(space, k, 2 * h).value
    assert math.isclose(t2, 2.0 ** (-beta) * t1, rel_tol=1e-11)


# ----------------------------------------------------------------------
# hypersingular operators

# Uncut power-law kernel on lattices, values of the earlier truncated sum
# (window radius 1000 plus a K^-beta remainder bound): (space, modulus, h),
# then hypersingular_full value and error bound, kernel_tail_mass value and
# error bound.  The exact shell tail must land inside each old bound.
TRUNCATED_SUMS = [
    ((1, 0), RAMP, 2.5,
     -9.392174623994602, 0.9486832980505138, 2.437651915384429, 0.24),
    ((1, 0), TableModulus([(0, 0), (1, 0.75), (2, 1)]), 1.5,
     -4.211004805105757, 0.33203915431767983, 3.1214883518625522, 0.30983866769659335),
    ((2, 0), RAMP, 1.5,
     -26.589747235010904, 3.7947331922020546, 12.485953407450209, 2.065591117977289),
    ((2, 1), PowerModulus(0.8), 2.5,
     -21.434347399724654, 6.303666730569039, 6.663028496102048, 2.099255181971093),
]


@pytest.mark.parametrize("dm, omega, h, val, val_err, tail, tail_err", TRUNCATED_SUMS,
                         ids=["Z1_0-power", "Z1_0-table", "Z2_0-power", "Z2_1-power"])
def test_lattice_exact_tail_within_truncation_bound(dm, omega, h, val, val_err, tail, tail_err):
    space = lattice(*dm)
    kernel = ops.PowerLawKernel(beta=0.5 * ops._first_piece_exponent(omega))
    got = ops.hypersingular_full(make_f_e_omega(space, omega, h), space, omega, kernel)
    assert abs(got.value - val) <= val_err
    t = ops.kernel_tail_mass(space, kernel, h)
    # the truncated shell sum only ever dropped positive terms
    assert tail <= t.value <= tail + tail_err


def test_lattice_hypersingular_reports_attain_equality():
    # the uncut power-law kernel's tail is summed exactly on every lattice
    for space in LATTICES:
        for omega in (RAMP, PowerModulus(0.6), TableModulus([(0, 0), (1, 0.75), (2, 1)])):
            for h in (1.5, 2.5):
                rep = ops.theorem_report("hypersingular", space, omega, h)
                assert rep.verdict == ops.VERDICT_EQUALITY, (space, omega, h, rep.gap)
                assert rep.error_bound < 1e-10


TABLE_KERNEL = ops.TableKernel([(0.5, 2.0), (1.5, 1.0), (3.0, 0.25)])


@pytest.mark.parametrize("omega", [RAMP, TableModulus([(0, 0), (1, 0.75), (2, 1)])],
                         ids=["power", "table"])
@pytest.mark.parametrize(
    "space, h",
    [(continuum(1, 0), 1.0), (continuum(2, 1), 1.25), (lattice(1, 0), 2.5), (lattice(2, 0), 1.5)],
    ids=["R1_0", "R2_1", "Z1_0", "Z2_0"],
)
def test_theorem_report_hypersingular_table_kernel(space, h, omega):
    rep = ops.theorem_report("hypersingular", space, omega, h, kernel=TABLE_KERNEL)
    assert rep.verdict == ops.VERDICT_EQUALITY, rep.gap
    assert rep.lhs > 0


def test_hypersingular_full_frozen_value():
    # two-level witness at the origin: -(A + omega(h) T) = -8 for the d=1 setup
    space = continuum(1, 0)
    kernel = ops.PowerLawKernel(beta=0.5)
    f = make_f_e_omega(space, RAMP, 1.0)
    got = ops.hypersingular_full(f, space, RAMP, kernel)
    assert got.value == pytest.approx(-8.0, rel=1e-12)
    assert got.error_bound == 0.0


def test_hypersingular_full_requires_certificate():
    space = continuum(1, 0)
    kernel = ops.PowerLawKernel(beta=0.5)
    f = make_f_e_omega(space, RAMP, 1.0).without_certificates()
    with pytest.raises(ValueError, match="smoothness"):
        ops.hypersingular_full(f, space, RAMP, kernel)
    with pytest.raises(ValueError, match="diverges"):
        ops.hypersingular_full(
            make_f_e_omega(space, PowerModulus(0.4), 1.0), space, PowerModulus(0.4),
            ops.PowerLawKernel(beta=0.6),
        )


@pytest.mark.parametrize("space, beta", [(lattice(1, 0), 0.5), (lattice(2, 1), 1.5)])
def test_hypersingular_full_on_a_lattice_needs_no_certificate(space, beta):
    # a lattice sum has no singularity: neither the smoothness certificate
    # nor beta below the modulus exponent enters it
    omega, kernel = PowerModulus(0.5), ops.PowerLawKernel(beta=beta)
    f = make_f_e_omega(space, omega, 2.5)
    want = ops.hypersingular_full(f, space, omega, kernel)
    assert ops.hypersingular_full(f.without_certificates(), space, omega, kernel) == want


def test_hypersingular_truncated_lattice_brute_force():
    space = lattice(1, 0)
    kernel = ops.PowerLawKernel(beta=0.5, cutoff=25.0)
    f = make_f_eh(space, RAMP, 2.5)
    got = ops.hypersingular_full(f, space, RAMP, kernel)
    f0 = float(f(np.array([0.0])))
    brute = sum(
        (f0 - float(f(np.array([float(u)])))) * float(kernel.value(abs(u), 1))
        for u in range(-25, 26)
        if abs(u) >= 1
    )
    assert got.value == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("space", [lattice(2, 1), lattice(3, 0), lattice(3, 2)],
                         ids=["Z2_1", "Z3_0", "Z3_2"])
def test_hypersingular_lattice_body_and_tail_off_origin(space):
    # a cut kernel reaching past the body box R = ceil(S): box plus shells
    # against the whole kernel box summed point by point
    kernel = ops.PowerLawKernel(beta=0.6, cutoff=9.0)
    origin = space.origin().astype(np.float64)
    pts = _lattice.window_points(space, 9).astype(np.float64)
    rho = np.max(np.abs(pts), axis=1)
    pts, rho = pts[rho >= 1], rho[rho >= 1]
    for f in (make_f_eh(space, RAMP, 1.5), make_f_e_omega(space, RAMP, 2.5)):
        got = ops.hypersingular_full(f, space, RAMP, kernel)
        brute = math.fsum((f(origin) - f(pts)) * kernel.value(rho, space.d))
        assert got.value == pytest.approx(brute, rel=1e-12)
        assert got.error_bound == 0.0


def test_hypersingular_full_refuses_a_non_radial_continuum_function(cone_function):
    # certified, but with no radial pieces: the continuum path is radial only
    space = continuum(1, 0)
    f = cone_function(space, RAMP, (1.0, ((0.5,),), [1.0]))
    assert f.certified_holder_bound == 1.0 and f.radial_pieces is None
    with pytest.raises(ValueError, match="radial"):
        ops.hypersingular_full(f, space, RAMP, ops.PowerLawKernel(beta=0.5))


def test_lattice_sum_needs_a_known_constant_tail():
    space = lattice(2, 0)
    f = make_f_omega(space, RAMP)  # unbounded: no radius beyond which it is constant
    with pytest.raises(ValueError, match="constant beyond"):
        ops.hypersingular_full(f, space, RAMP, ops.PowerLawKernel(beta=0.5))
    # a cut kernel needs no such radius, but its whole box must fit the budget
    got = ops.hypersingular_full(f, space, RAMP, ops.PowerLawKernel(beta=0.5, cutoff=4.0))
    assert got.value < 0
    with pytest.raises(ValueError, match="budget"):
        ops.hypersingular_full(f, lattice(3, 0), RAMP, ops.PowerLawKernel(beta=0.5, cutoff=1e6))


def test_window_points_checks_budget_before_allocating():
    # 2001^3 ~ 8e9 points: refused on the count alone
    with pytest.raises(ValueError, match="budget"):
        _lattice.window_points(lattice(3, 0), 1000)
    with pytest.raises(ValueError, match="budget"):
        lattice(2, 0).enumerate_ball(10**5)


# Bits of the radial reductions, Monte Carlo weights, singular-integral
# paths and ball averages, recorded once as float.hex: a rewrite of the
# metric, the sphere constant or the shared integral paths has to leave
# every one of them unchanged.
_TABLE = TableModulus([(0, 0), ("1/2", "2/5"), (2, 1)])
_POW = PowerModulus(0.8)
_TK = ops.TableKernel([(0.5, 2.0), (1.5, 1.0), (3.0, 0.25)])
_MC = QuadratureSpec(method=MONTE_CARLO, mc_samples=4000, seed=2)
_P21, _P31 = continuum(2, 1), continuum(3, 1)
_Z21, _Z20 = lattice(2, 1), lattice(2, 0)


_PIN_CASES = {
    "full_power_origin": lambda: ops.hypersingular_full(
        make_f_e_omega(_P31, _TABLE, 1.2), _P31, _TABLE, ops.PowerLawKernel(0.5)),
    "full_table_origin": lambda: ops.hypersingular_full(
        make_f_e_omega(_P21, _POW, 1.1), _P21, _POW, _TK),
    "ball_mass_power_mc": lambda: ops.kernel_ball_mass(
        _P31, _TABLE, ops.PowerLawKernel(0.5), 1.3, _MC),
    "ball_mass_power_closed": lambda: ops.kernel_ball_mass(
        _P31, _TABLE, ops.PowerLawKernel(0.5), 1.3),
    "ball_mass_table": lambda: ops.kernel_ball_mass(_P21, _POW, _TK, 1.3),
    "ball_mass_lattice": lambda: ops.kernel_ball_mass(
        lattice(3, 1), _POW, ops.PowerLawKernel(0.5), 3.5),
    "tail_mass_power_mc": lambda: ops.kernel_tail_mass(_P31, ops.PowerLawKernel(0.5), 1.3, _MC),
    "tail_mass_power_closed": lambda: ops.kernel_tail_mass(
        _P31, ops.PowerLawKernel(0.5, cutoff=4.0), 1.3),
    "tail_mass_table": lambda: ops.kernel_tail_mass(_P21, _TK, 1.3),
    "modulus_integral_closed": lambda: ball_integral_of_modulus(_P31, _POW, 1.3),
    "modulus_integral_radial": lambda: ball_integral_of_modulus(_P31, _TABLE, 1.3),
    "modulus_integral_mc": lambda: ball_integral_of_modulus(_P31, _TABLE, 1.3, _MC),
    "modulus_integral_lattice": lambda: ball_integral_of_modulus(lattice(3, 1), _POW, 3.5),
    "ball_integral_pieces": lambda: ball_integral_at(
        make_f_e_omega(_P31, _TABLE, 1.2), _P31, 1.5, np.zeros(3)),
    "mixed_nagy_rhs": lambda: ops.mixed_nagy_rhs(3, 1, _TABLE, 1.3, 1.5, 0.4),
    "l1_radial": lambda: l1_norm(make_f_eh(_P31, _TABLE, 1.2), _P31, 1.2),
    "full_lattice_cut": lambda: ops.hypersingular_full(
        make_f_omega(_Z20, _POW), _Z20, _POW, ops.PowerLawKernel(0.5, cutoff=6.0)),
    "steklov_lattice": lambda: ops.steklov_average(
        make_f_eh(_Z21, _POW, 2.5), _Z21, 2.5)(np.array([1.0, -1.0])),
    "steklov_mc": lambda: ops.steklov_average(
        make_f_e_omega(_P21, _POW, 1.1), _P21, 0.9, _MC)(np.array([0.3, -0.2])),
    "steklov_box_mass": lambda: ops.steklov_average(
        make_f_eh(_P21, _TABLE, 1.2), _P21, 0.9)(np.array([0.2, 0.1])),
}

_PINNED = {
    "full_power_origin": ('-0x1.14df39821ae35p+5', '0x0.0p+0'),
    "full_table_origin": ('-0x1.c96c12d3db8aap+3', '0x1.d858764b3aff2p-33'),
    "ball_mass_power_mc": ('0x1.4481a8b686a5bp+4', '0x1.30610968ffa30p-5'),
    "ball_mass_power_closed": ('0x1.44feffec9687dp+4', '0x0.0p+0'),
    "ball_mass_table": ('0x1.2432bc340b0c7p+2', '0x1.0d6a1a6e13f02p-33'),
    "ball_mass_lattice": ('0x1.0005f43e5b2a8p+5', '0x0.0p+0'),
    "tail_mass_power_mc": ('0x1.50bd40f08468fp+4', '0x1.8cac643681d4cp-3'),
    "tail_mass_power_closed": ('0x1.21949f80dacc6p+3', '0x0.0p+0'),
    "tail_mass_table": ('0x1.2356b2dbd1942p+3', '0x1.1111111111111p-56'),
    "modulus_integral_closed": ('0x1.11dcc4754999ep+3', '0x0.0p+0'),
    "modulus_integral_radial": ('0x1.4a3c21187e7c1p+2', '0x1.999999999999ap-55'),
    "modulus_integral_mc": ('0x1.4b9830127b827p+2', '0x1.f1300fe93551dp-7'),
    "modulus_integral_lattice": ('0x1.97a350c3fc13bp+8', '0x0.0p+0'),
    "ball_integral_pieces": ('0x1.de26d4801f752p+1',),
    "mixed_nagy_rhs": ('0x1.3eaf852d09cd5p+0',),
    "l1_radial": ('0x1.b57928e0c9d9ap-1',),
    "full_lattice_cut": ('-0x1.88a0422c611e4p+4', '0x0.0p+0'),
    "steklov_lattice": ('0x1.519de640b8c6fp-2',),
    "steklov_mc": ('0x1.2d155089130a5p-2',),
    "steklov_box_mass": ('0x1.9768a22786f92p-3',),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_radial_and_sampled_values_pinned(name):
    got = _PIN_CASES[name]()
    if hasattr(got, "value"):
        got = (float(got.value).hex(), float(got.error_bound).hex())
    else:
        got = (float(got).hex(),)
    assert got == _PINNED[name]


# ----------------------------------------------------------------------
# mixed differences


def _mixed_difference(g, space, h, x):
    """The alternating-corner difference of ``g`` over the box ``x + B_h``,
    divided by its volume: forward steps on the half-line coordinates,
    centered steps on the rest."""
    axes = [((0.0, -1.0), (h, 1.0)) if i < space.m else ((-h, -1.0), (h, 1.0))
            for i in range(space.d)]
    corners = list(itertools.product(*axes))
    steps = np.array([[step for step, _ in c] for c in corners])
    signs = np.array([math.prod(sign for _, sign in c) for c in corners])
    return float(np.dot(signs, g(x[None, :] + steps))) / space.ball_measure(h)


def test_mixed_difference_is_ball_average_of_bump():
    # the mixed extremal differentiates back to the bump's average, every m
    for d, m in [(d, m) for d in (1, 2, 3) for m in range(d + 1)]:
        space = continuum(d, m)
        for omega in (RAMP, PowerModulus(0.5), _TABLE):
            g = make_G_eh(space, omega, 1.0)
            f = make_f_eh(space, omega, 1.0)
            s = ops.steklov_average(f, space, 1.0)
            for x in ([0.0, 0.0, 0.0], [0.3, -0.4, 0.1], [1.5, 0.2, -0.6]):
                x = np.array(x[:d])
                x[:m] = np.abs(x[:m])
                got = _mixed_difference(g, space, 1.0, x)
                want = s(x)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12), (d, m, omega, x)


def test_mixed_nagy_rhs_equality_at_iterated_bump():
    om = PowerModulus(1.0)
    g = make_G_eh(continuum(1, 0), om, 1.0)
    rhs = ops.mixed_nagy_rhs(1, 0, om, 1.0, 1.0, g.certified_sup_norm)
    assert rhs == pytest.approx(om(1.0), rel=1e-12)  # lhs = sup of the bump
    G = make_G_eh(continuum(1, 1), om, 1.0)
    rhs_half = ops.mixed_nagy_rhs(1, 1, om, 1.0, 1.0, G.certified_sup_norm)
    assert rhs_half == pytest.approx(om(1.0), rel=1e-12)


def test_mixed_multiplicative_constants():
    assert ops.mixed_multiplicative_constant(1, 0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert ops.mixed_multiplicative_constant(1, 1, 1.0) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError):
        ops.mixed_multiplicative_constant(1, 2, 1.0)
    with pytest.raises(ValueError):
        ops.mixed_multiplicative_constant(1, 0, 1.5)


@pytest.mark.parametrize("d, m, alpha", [(1, 2, 1.0), (0, 0, 1.0), (1.0, 0, 1.0), (1, 0, 1.5),
                                         (1, 0, 0.0)])
def test_mixed_bounds_read_the_space_and_modulus_rules(d, m, alpha):
    # a d/m or alpha outside the hypotheses is a refused request, worded by
    # Space and PowerModulus
    for call in (lambda: ops.mixed_multiplicative_constant(d, m, alpha),
                 lambda: ops.optimal_h(d, m, alpha, 1.0, 1.0),
                 lambda: ops.mixed_multiplicative_rhs(d, m, alpha, 1.0, 1.0)):
        with pytest.raises(RequestError):
            call()


def test_optimal_h_minimizes_additive_bound():
    om = PowerModulus(0.6)
    sup, hold = 0.8, 1.7
    h_star = ops.optimal_h(2, 1, 0.6, sup, hold)
    best = ops.mixed_nagy_rhs(2, 1, om, h_star, hold, sup)
    for h in (0.5 * h_star, 0.9 * h_star, 1.1 * h_star, 2.0 * h_star):
        assert best <= ops.mixed_nagy_rhs(2, 1, om, h, hold, sup) + 1e-12
    # and the minimized additive bound is the multiplicative bound
    assert best == pytest.approx(ops.mixed_multiplicative_rhs(2, 1, 0.6, sup, hold), rel=1e-12)
    with pytest.raises(ValueError):
        ops.optimal_h(1, 0, 1.0, 1.0, 0.0)


# ----------------------------------------------------------------------
# best-approximation curve


def test_stechkin_frozen_values():
    space = continuum(1, 0)
    pts = ops.stechkin_curve(space, RAMP, [0.5, 1.0, 2.0])
    assert [p.e_n for p in pts] == pytest.approx([0.5, 0.25, 0.125], rel=1e-10)
    assert [p.h for p in pts] == pytest.approx([1.0, 0.5, 0.25], rel=1e-10)


def test_stechkin_validation():
    with pytest.raises(ValueError):
        ops.stechkin_curve(lattice(1, 0), RAMP, [1.0])
    with pytest.raises(ValueError):
        ops.stechkin_curve(continuum(1, 0), RAMP, [0.0])
    with pytest.raises(ValueError):
        ops.solve_h_for_measure(continuum(1, 0), -1.0)


# ----------------------------------------------------------------------
# verdicts and reports


def test_classify_verdict_edges():
    assert ops.classify_verdict(1.0, 1.0, 1e-8) == ops.VERDICT_EQUALITY
    assert ops.classify_verdict(1.0, 2.0, 1e-8) == ops.VERDICT_HOLDS
    assert ops.classify_verdict(2.0, 1.0, 1e-8) == ops.VERDICT_VIOLATED
    # relative scaling: a 1e-9 gap at magnitude 1e3 is equality at tol 1e-8
    assert ops.classify_verdict(1e3, 1e3 + 1e-6, 1e-8) == ops.VERDICT_EQUALITY
    # an error bound widens the band below zero by four bounds, and only there
    assert ops.classify_verdict(1.0, 0.997, 1e-8, 1e-3) == ops.VERDICT_EQUALITY
    assert ops.classify_verdict(1.0, 0.995, 1e-8, 1e-3) == ops.VERDICT_VIOLATED
    assert ops.classify_verdict(1.0, 1.005, 1e-8, 1e-3) == ops.VERDICT_HOLDS
    # the band edge itself is equality (scale 2, tol 0: gap -1 against 4 * 0.25)
    assert ops.classify_verdict(2.0, 1.0, 0.0, 0.25) == ops.VERDICT_EQUALITY
    assert ops.classify_verdict(2.0, 1.0, 0.0, 0.2499) == ops.VERDICT_VIOLATED


@pytest.mark.parametrize("lhs, rhs", [
    (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf), (-math.inf, 1.0), (math.inf, math.inf),
])
def test_classify_verdict_refuses_a_side_that_is_not_finite(lhs, rhs):
    """NaN passes no comparison and an infinite side bounds nothing: each is
    a violation, at any tolerance and error bound."""
    for tol, error_bound in [(0.0, 0.0), (1e-8, 0.0), (1e-8, 1e3)]:
        assert ops.classify_verdict(lhs, rhs, tol, error_bound) == ops.VERDICT_VIOLATED


def test_classify_verdict_decides_fractions_exactly():
    # a gap of 1e-30 is lost in a float conversion, which would read both as equality
    eps = Fraction(1, 10**30)
    assert float(1 + eps) == 1.0
    assert ops.classify_verdict(Fraction(1), 1 + eps, 0.0) == ops.VERDICT_HOLDS
    assert ops.classify_verdict(1 + eps, Fraction(1), 0.0) == ops.VERDICT_VIOLATED
    assert ops.classify_verdict(1 + eps, 1 + eps, 0.0) == ops.VERDICT_EQUALITY


def test_report_row_schema():
    rep = ops.theorem_report("nagy", continuum(1, 0), RAMP, 1.0)
    row = rep.to_row()
    assert list(row.keys()) == [
        "theorem_id", "d", "m", "alpha_or_modulus", "h",
        "lhs", "rhs_term1", "rhs_term2", "gap", "verdict",
    ]
    assert rep.rhs == rep.rhs_term1 + rep.rhs_term2
    assert rep.gap == rep.rhs - rep.lhs


def test_modulus_label():
    assert ops.modulus_label(PowerModulus(0.5)) == "0.5"
    lbl = ops.modulus_label(TableModulus([(0, 0), (1, 1)]))
    assert lbl.startswith("table[") and "1:1" in lbl


@pytest.mark.parametrize(
    "tid", ["lemma1", "nagy", "nagy_l1", "sobolev", "charge", "mixed_additive",
            "mixed_multiplicative"]
)
def test_theorem_report_equality_continuum(tid):
    rep = ops.theorem_report(tid, continuum(1, 0), RAMP, 1.0)
    assert rep.verdict == ops.VERDICT_EQUALITY, (tid, rep.gap)


def test_theorem_report_hypersingular_equality():
    rep = ops.theorem_report("hypersingular", continuum(1, 0), RAMP, 1.0)
    assert rep.verdict == ops.VERDICT_EQUALITY
    assert rep.lhs == pytest.approx(8.0, rel=1e-12)
    assert "discontinuous" in rep.notes


def test_theorem_report_table_modulus():
    om = TableModulus([(0, 0), (0.5, 0.5), (1, 0.75), (2, 1)])
    rep = ops.theorem_report("nagy", continuum(2, 1), om, 1.25)
    assert rep.verdict == ops.VERDICT_EQUALITY


def test_theorem_report_lattice():
    rep = ops.theorem_report("nagy", lattice(2, 1), RAMP, 1.5)
    assert rep.verdict == ops.VERDICT_EQUALITY
    assert rep.lhs == pytest.approx(1.5)


def test_theorem_report_m2_holds_branch():
    # one corner-sign extremal for every 0 <= m <= d: both mixed bounds attain
    # equality, m >= 2 included
    for d, m in [(d, m) for d in (1, 2, 3) for m in range(d + 1)]:
        space = continuum(d, m)
        for h in (0.7, 1.3):
            for omega in (RAMP, PowerModulus(0.5), _TABLE):
                for tid in ("mixed_additive", "mixed_multiplicative"):
                    if tid == "mixed_multiplicative" and omega is _TABLE:
                        continue
                    rep = ops.theorem_report(tid, space, omega, h)
                    assert rep.verdict == ops.VERDICT_EQUALITY, (tid, d, m, omega, h)
                    assert rep.rhs == pytest.approx(float(omega(h)), rel=1e-12)


def test_mixed_reports_skip_the_split_point(monkeypatch):
    # the corner-sign certificate needs no bisection for the half-line
    calls = []
    original = extremals.split_point_a

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(extremals, "split_point_a", counted)
    got = {}
    for tid in ("mixed_additive", "mixed_multiplicative"):
        calls.clear()
        ops.theorem_report(tid, continuum(2, 1), RAMP, 1.0)
        got[tid] = len(calls)
    assert got == {"mixed_additive": 0, "mixed_multiplicative": 0}


def test_mixed_report_beyond_float_range_names_the_power_integral():
    with pytest.raises(QuadratureError, match="power integral"):
        ops.theorem_report("mixed_additive", continuum(1, 0), PowerModulus(1.0), 1e300)


def test_theorem_report_guards():
    with pytest.raises(ValueError):
        ops.theorem_report("fermat", continuum(1, 0), RAMP, 1.0)
    with pytest.raises(ValueError):
        ops.theorem_report("mixed_additive", lattice(1, 0), RAMP, 1.5)
    with pytest.raises(ValueError):
        ops.theorem_report(
            "mixed_multiplicative", continuum(1, 0), TableModulus([(0, 0), (1, 1)]), 1.0
        )


# Every term of every applicable report, as float.hex, recorded before the
# reports shared one I(h) estimate: passing the estimate down instead of
# recomputing it must leave each bit, and each Monte Carlo draw, unchanged.
_MC_REPORT = QuadratureSpec(method=MONTE_CARLO, mc_samples=30000, seed=5)
_ADDITIVE = ("lemma1", "nagy", "nagy_l1", "sobolev", "charge", "hypersingular")
_REPORT_CASES = {
    "R2_0_power_mc": (continuum(2, 0), PowerModulus(0.7), 1.2, _MC_REPORT, ops.THEOREM_IDS),
    "R3_1_table_mc": (continuum(3, 1), _TABLE, 1.2, _MC_REPORT, _ADDITIVE + ("mixed_additive",)),
    "R3_1_table_radial": (continuum(3, 1), _TABLE, 1.2, None, _ADDITIVE + ("mixed_additive",)),
    "Z2_1_table": (lattice(2, 1), _TABLE, 2.5, None, _ADDITIVE),
}

_REPORT_PINNED = {
    "R2_0_power_mc": {
        "lemma1": (
            '0x1.aee2fd2f5de42p-1', '0x1.aea84e97ddd8ap-1',
            '0x0.0p+0', '0x1.573af37ab3030p-10', 'EqualityAttained'),
        "nagy": (
            '0x1.22d937b32c2d3p+0', '0x1.aea84e97ddd8ap-1',
            '0x1.2e14419cf5034p-2', '0x0.0p+0', 'EqualityAttained'),
        "nagy_l1": (
            '0x1.22d937b32c2d3p+0', '0x1.aea84e97ddd8ap-1',
            '0x1.2e14419cf5034p-2', '0x0.0p+0', 'EqualityAttained'),
        "sobolev": (
            '0x1.22d937b32c2d3p+0', '0x1.aea84e97ddd8ap-1',
            '0x1.2e14419cf5034p-2', '0x0.0p+0', 'EqualityAttained'),
        "charge": (
            '0x1.22d937b32c2d3p+0', '0x1.aea84e97ddd8ap-1',
            '0x1.2e14419cf5034p-2', '0x0.0p+0', 'EqualityAttained'),
        "hypersingular": (
            '0x1.85cfe878c1909p+5', '0x1.85cfe878c190cp+4',
            '0x1.84e9d214bb853p+4', '0x1.4d6a5be77969cp-4', 'EqualityAttained'),
        "mixed_additive": (
            '0x1.22d937b32c2d3p+0', '0x1.aea84e97ddd8ap-1',
            '0x1.2d9ee46df4ec8p-2', '0x1.573af37ab3030p-10', 'EqualityAttained'),
        "mixed_multiplicative": (
            '0x1.22d937b32c2d3p+0', '0x1.22d937b32c2d3p+0',
            '0x0.0p+0', '0x0.0p+0', 'EqualityAttained'),
    },
    "R3_1_table_mc": {
        "lemma1": (
            '0x1.1cde3ef500612p-1', '0x1.1cdcdac93c187p-1',
            '0x0.0p+0', '0x1.3979b77f220ddp-11', 'EqualityAttained'),
        "nagy": (
            '0x1.5c28f5c28f5c2p-1', '0x1.1cdcdac93c187p-1',
            '0x1.fa60d7ca9a1d8p-4', '0x0.0p+0', 'EqualityAttained'),
        "nagy_l1": (
            '0x1.5c28f5c28f5c2p-1', '0x1.1cdcdac93c187p-1',
            '0x1.fa60d7ca9a1d8p-4', '0x0.0p+0', 'EqualityAttained'),
        "sobolev": (
            '0x1.5c28f5c28f5c2p-1', '0x1.1cdcdac93c187p-1',
            '0x1.fa60d7ca9a1d8p-4', '0x0.0p+0', 'EqualityAttained'),
        "charge": (
            '0x1.5c28f5c28f5c2p-1', '0x1.1cdcdac93c187p-1',
            '0x1.fa60d7ca9a1d8p-4', '0x0.0p+0', 'EqualityAttained'),
        "hypersingular": (
            '0x1.14df39821ae35p+5', '0x1.3b66a4d6ee08cp+4',
            '0x1.dba375965631fp+3', '0x1.f927c308d4ab6p-5', 'EqualityAttained'),
        "mixed_additive": (
            '0x1.5c28f5c28f5c2p-1', '0x1.1cdcdac93c187p-1',
            '0x1.fa55b66c77d78p-4', '0x1.3979b77f220ddp-11', 'EqualityAttained'),
    },
    "R3_1_table_radial": {
        "lemma1": (
            '0x1.1cde3ef500612p-1', '0x1.1cde3ef500612p-1',
            '0x0.0p+0', '0x1.da12f684bda15p-58', 'EqualityAttained'),
        "nagy": (
            '0x1.5c28f5c28f5c2p-1', '0x1.1cde3ef500612p-1',
            '0x1.fa55b66c77d80p-4', '0x0.0p+0', 'EqualityAttained'),
        "nagy_l1": (
            '0x1.5c28f5c28f5c2p-1', '0x1.1cde3ef500612p-1',
            '0x1.fa55b66c77d80p-4', '0x0.0p+0', 'EqualityAttained'),
        "sobolev": (
            '0x1.5c28f5c28f5c2p-1', '0x1.1cde3ef500612p-1',
            '0x1.fa55b66c77d80p-4', '0x0.0p+0', 'EqualityAttained'),
        "charge": (
            '0x1.5c28f5c28f5c2p-1', '0x1.1cde3ef500612p-1',
            '0x1.fa55b66c77d80p-4', '0x0.0p+0', 'EqualityAttained'),
        "hypersingular": (
            '0x1.14df39821ae35p+5', '0x1.3b60059a3523cp+4',
            '0x1.dcbcdad40145bp+3', '0x0.0p+0', 'EqualityAttained'),
        "mixed_additive": (
            '0x1.5c28f5c28f5c2p-1', '0x1.1cde3ef500612p-1',
            '0x1.fa55b66c77d80p-4', '0x1.da12f684bda15p-58', 'EqualityAttained'),
    },
    "Z2_1_table": {
        "lemma1": (
            '0x1.999999999999ap-1', '0x1.999999999999ap-1',
            '0x0.0p+0', '0x0.0p+0', 'EqualityAttained'),
        "nagy": (
            '0x1.0000000000000p+0', '0x1.999999999999ap-1',
            '0x1.9999999999998p-3', '0x0.0p+0', 'EqualityAttained'),
        "nagy_l1": (
            '0x1.0000000000000p+0', '0x1.999999999999ap-1',
            '0x1.9999999999998p-3', '0x0.0p+0', 'EqualityAttained'),
        "sobolev": (
            '0x1.0000000000000p+0', '0x1.999999999999ap-1',
            '0x1.9999999999998p-3', '0x0.0p+0', 'EqualityAttained'),
        "charge": (
            '0x1.0000000000000p+0', '0x1.999999999999ap-1',
            '0x1.9999999999998p-3', '0x0.0p+0', 'EqualityAttained'),
        "hypersingular": (
            '0x1.394fc76efa20ep+3', '0x1.25d2c8cd3c8d0p+2',
            '0x1.4cccc610b7b48p+2', '0x1.bdb0cad6d6430p-71', 'EqualityAttained'),
    },
    # the radius is the closed form (target / mu(B_1))^(1/d): sqrt(1/2), 1/2
    # and sqrt(1/12) correctly rounded, where bisection stopped ~3e-13 off
    "stechkin_mc": [
        ('0x1.6a09e667f3bcdp-1', '0x1.296709420c4ccp-1'),
        ('0x1.0000000000000p-1', '0x1.d2acad65c6c85p-2'),
        ('0x1.279a74590331cp-2', '0x1.3db407e1dd568p-2'),
    ],
}


def _report_bits(space, omega, h, spec, tids):
    out = {}
    for tid in tids:
        rep = ops.theorem_report(tid, space, omega, h, spec=spec)
        bits = (rep.lhs, rep.rhs_term1, rep.rhs_term2, rep.error_bound)
        out[tid] = tuple(float(b).hex() for b in bits) + (rep.verdict,)
    return out


@pytest.mark.parametrize("name", sorted(_REPORT_CASES) + ["stechkin_mc"])
def test_theorem_report_terms_pinned(name):
    if name == "stechkin_mc":
        pts = ops.stechkin_curve(continuum(2, 0), PowerModulus(0.7), [0.5, 1.0, 3.0], _MC_REPORT)
        got = [(p.h.hex(), p.e_n.hex()) for p in pts]
    else:
        got = _report_bits(*_REPORT_CASES[name])
    assert got == _REPORT_PINNED[name]


@pytest.mark.parametrize("space, omega, h, spec", [
    (continuum(2, 0), PowerModulus(0.7), 1.2, QuadratureSpec(MONTE_CARLO, 2000, seed=5)),
    (continuum(3, 1), _TABLE, 1.2, None),
    (lattice(2, 1), _TABLE, 2.5, None),
], ids=["R2_0_mc", "R3_1_radial", "Z2_1"])
def test_theorem_report_computes_modulus_integral_once(monkeypatch, space, omega, h, spec):
    # the witness and both right-hand terms must share one I(h) estimate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ball_integral_of_modulus(*args, **kwargs)

    monkeypatch.setattr(ops, "ball_integral_of_modulus", counted)
    monkeypatch.setattr(extremals, "ball_integral_of_modulus", counted)
    got = {}
    for tid in ops.THEOREM_IDS:
        if space.is_lattice and tid.startswith("mixed"):
            continue
        if tid == "mixed_multiplicative" and not isinstance(omega, PowerModulus):
            continue
        calls.clear()
        ops.theorem_report(tid, space, omega, h, spec=spec)
        got[tid] = len(calls)
    want = {tid: 0 if tid in ("hypersingular", "mixed_multiplicative") else 1 for tid in got}
    assert got == want
    if not space.is_lattice:
        calls.clear()
        ops.stechkin_curve(space, omega, [0.5, 2.0], spec)
        assert len(calls) == 2
