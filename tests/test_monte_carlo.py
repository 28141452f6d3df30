"""The Monte Carlo estimates run in blocks of ``calculus._MC_BLOCK`` samples.

Each estimate must keep the bits of the one-shot formulas it replaced: all
samples drawn in one call, the weights computed in one pass and reduced
whole.  Those formulas are copied here as the reference.  The blocked path
must also hold no array of the sample's size but the weights, which it
reduces in place.
"""

import math
import tracemalloc

import numpy as np
import pytest

from sharp_ineq import oracle
from sharp_ineq.calculus import (
    _MC_BLOCK,
    MONTE_CARLO,
    QuadratureSpec,
    _mc_blocks,
    ball_integral_of_modulus,
)
from sharp_ineq.extremals import make_f_eh, split_point_a
from sharp_ineq.modulus import PowerModulus, TableModulus
from sharp_ineq.space import continuum, lattice

SAMPLES = (2, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1, 200_000)
SEEDS = (0, 1, 12345)
CONTINUA = [continuum(d, m) for d in (1, 2, 3) for m in range(d + 1)]


def _space_id(space):
    return f"{space.kind}-{space.d}-{space.m}"


def _one_shot_ball(space, h, n, seed):
    """The ball sample as one generator fills it: the half-line columns,
    then the line columns, each in one ``uniform`` call."""
    rng = np.random.default_rng(seed)
    if space.is_lattice:
        pts = space.enumerate_ball(h)
        return pts[rng.integers(0, pts.shape[0], size=n)]
    out = np.empty((n, space.d))
    out[:, : space.m] = rng.uniform(0.0, h, size=(n, space.m))
    out[:, space.m :] = rng.uniform(-h, h, size=(n, space.d - space.m))
    return out


def _mean_and_stderr(w, scale=1.0):
    mean = float(w.mean())
    stderr = float(w.std(ddof=1) / math.sqrt(len(w)))
    return scale * mean, scale * stderr


def _one_shot_check(name, seed, n):
    """``(monte_carlo, stderr)`` of ``mc_cross_check(name, seed, n)``."""
    rng = np.random.default_rng(seed + 17)
    if name == "ball_integral":
        space, h = continuum(2, 1), 1.3
        w = PowerModulus(0.7)(space.norm(_one_shot_ball(space, h, n, seed)))
        return _mean_and_stderr(w, float(space.ball_measure(h)))
    if name == "kernel_ball_mass":
        omega = TableModulus([(0, 0), (0.5, 0.5), (2, 1)])
        beta, upper = 0.6, 1.5
        eta = 1.0 - beta  # the table's first piece is linear
        t = upper * np.random.default_rng(seed).uniform(0.0, 1.0, n) ** (1.0 / eta)
        dens = eta * t ** (eta - 1.0) / upper**eta
        return _mean_and_stderr(2.0 * np.asarray(omega(t)) * t ** (-beta - 1.0) / dens)
    if name == "kernel_tail_mass":
        beta, h = 0.5, 1.2
        q = beta / 2.0
        t = h * np.random.default_rng(seed).uniform(0.0, 1.0, n) ** (-1.0 / q)
        dens = q * h**q * t ** (-q - 1.0)
        return _mean_and_stderr(4.0 * np.where(t <= math.inf, t ** (-beta - 1.0), 0.0) / dens)
    if name == "l1_feh":
        f = make_f_eh(continuum(2, 0), PowerModulus(0.5), 1.0)
        return _mean_and_stderr(f(rng.uniform(-1.0, 1.0, (n, 2))), 4.0)
    if name == "split_objective":
        omega = PowerModulus(1.0)
        split = split_point_a(omega, 1.0, 2)
        f = make_f_eh(continuum(2, 0), omega, 1.0)
        pts = np.column_stack([rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)])
        return _mean_and_stderr(np.where(pts[:, 0] < split.a, f(pts), 0.0), 2.0)
    assert name == "steklov_point"
    space = continuum(2, 0)
    f = make_f_eh(space, PowerModulus(1.0), 1.0)
    x = np.array([0.3, -0.2])
    return _mean_and_stderr(f.evaluator(x[None, :] + _one_shot_ball(space, 1.0, n, seed)), 4.0)


def _hex(*values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("n", SAMPLES)
@pytest.mark.parametrize("name", oracle.MC_CHECKS)
def test_cross_checks_keep_the_one_shot_bits(name, n):
    for seed in SEEDS:
        res = oracle.mc_cross_check(name, seed, n)
        assert _hex(res["monte_carlo"], res["stderr"]) == _hex(*_one_shot_check(name, seed, n))


@pytest.mark.parametrize("n", SAMPLES)
@pytest.mark.parametrize("space", CONTINUA, ids=_space_id)
def test_monte_carlo_ball_integral_keeps_the_one_shot_bits(space, n):
    for omega in (PowerModulus(0.7), TableModulus([(0, 0), (1, 0.5), (2, 0.8)])):
        est = ball_integral_of_modulus(space, omega, 1.7, QuadratureSpec(MONTE_CARLO, n, seed=3))
        w = omega(space.norm(_one_shot_ball(space, 1.7, n, 3)))
        want = _mean_and_stderr(w, float(space.ball_measure(1.7)))
        assert _hex(est.value, est.error_bound) == _hex(*want)


@pytest.mark.parametrize("space", CONTINUA + [lattice(1, 0), lattice(2, 1), lattice(3, 0)],
                         ids=_space_id)
def test_ball_sampler_blocks_are_the_one_shot_sample(space):
    n, h = 3 * _MC_BLOCK + 5, 2.5
    want = _one_shot_ball(space, h, n, seed=11)
    assert np.array_equal(space.sample_ball(h, n, seed=11), want)
    draw = space.ball_sampler(h, n, seed=11)
    cuts = [0, 1, 7, _MC_BLOCK, 2 * _MC_BLOCK - 3]
    got = [draw(k) for k in cuts]
    got.append(draw(n - sum(cuts)))
    assert np.array_equal(np.concatenate(got), want)
    with pytest.raises(ValueError, match="cannot draw 1 of the 0 sample points left"):
        draw(1)


def _weights():
    rng = np.random.default_rng(7)
    cases = [(f"normal-{n}", rng.normal(0.3, 2.0, n)) for n in (2, 3, 8191, 8193, 200_000)]
    return cases + [
        ("offset", 1e8 + rng.uniform(-1e-3, 1e-3, 1000)),
        ("nan", np.array([1.0, math.nan, 2.0])),
        ("inf", np.array([1.0, math.inf, 2.0])),
    ]


@pytest.mark.parametrize("w", [pytest.param(w, id=label) for label, w in _weights()])
def test_mc_blocks_reduction_keeps_mean_and_std_bits(w):
    n = len(w)
    blocks = iter(np.split(w, range(_MC_BLOCK, n, _MC_BLOCK)))
    with np.errstate(invalid="ignore"):  # inf - inf, on both sides
        est = _mc_blocks(n, lambda k: next(blocks), np.copy)
        want = _mean_and_stderr(w)
    assert est.method == MONTE_CARLO
    assert _hex(est.value, est.error_bound) == _hex(*want)


def test_mc_blocks_constant_weights_have_zero_stderr():
    n = _MC_BLOCK + 1
    est = _mc_blocks(n, np.empty, lambda pts: np.full(len(pts), 0.25))
    assert (est.value, est.error_bound) == (0.25, 0.0)
    assert oracle._check_pair("constant", 0.25, est.value, est.error_bound)["sigmas"] == 0.0


def test_ball_sampler_refuses_a_line_range_beyond_the_floats():
    # uniform(-h, h) refuses a range 2h that overflows; the in-place scaling
    # must refuse it too rather than return inf or NaN
    with pytest.raises(OverflowError, match="high - low range exceeds valid bounds"):
        continuum(2, 0).ball_sampler(1e308, 10, 1)(10)
    with pytest.raises(OverflowError, match="high - low range exceeds valid bounds"):
        continuum(2, 1).ball_sampler(1e308, 10, 1)(10)
    # a half-line range of 1e308 is finite, as it is for uniform
    pts = continuum(2, 2).ball_sampler(1e308, 10, 1)(10)
    assert np.array_equal(pts, np.random.default_rng(1).uniform(0.0, 1e308, (10, 2)))


@pytest.mark.parametrize("name", oracle.MC_CHECKS)
def test_cross_check_memory_is_the_weights(name):
    # the n weights are the only array of the sample's size: reduced in
    # place, a check peaks at 1.84 to 1.97 MiB (3.06 MiB with the temporary
    # of np.std, 6.1 to 7.8 MiB with the whole (n, d) sample)
    n = 200_000
    oracle.mc_cross_check(name, samples=2)  # caches and lazy imports
    tracemalloc.start()
    try:
        oracle.mc_cross_check(name, samples=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 2**20


@pytest.mark.parametrize("name", ["l1_feh", "split_objective", "steklov_point"])
def test_cross_checks_past_half_the_point_budget(name):
    # the checks hold one block of points, so the sample budget does not
    # refuse 2^21 + 1 planar samples; the bits stay those of one draw
    n = 2**21 + 1
    res = oracle.mc_cross_check(name, 5, n)
    assert _hex(res["monte_carlo"], res["stderr"]) == _hex(*_one_shot_check(name, 5, n))
