import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharp_ineq import _quad
from sharp_ineq._quad import (
    QuadratureError,
    adaptive_simpson,
    bisect_increasing,
    piecewise_power_integral,
)


def test_simpson_polynomial_exact():
    val, err = adaptive_simpson(lambda t: t**3 - 2 * t, 0.0, 2.0)
    assert math.isclose(val, 0.0, abs_tol=1e-12)
    assert err <= 1e-10


def test_simpson_smooth():
    val, err = adaptive_simpson(math.exp, 0.0, 1.0)
    assert math.isclose(val, math.e - 1.0, rel_tol=1e-11)


def test_simpson_with_kink():
    # |t - 1/3| over [0,1]; kink declared so panels split there
    f = lambda t: abs(t - 1.0 / 3.0)
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    val, err = adaptive_simpson(f, 0.0, 1.0, kinks=[1.0 / 3.0])
    assert math.isclose(val, exact, rel_tol=1e-12)


def test_simpson_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(_quad, "DEFAULT_MAX_EVALS", 50)
    monkeypatch.setattr(_quad, "DEFAULT_ABS_TOL", 1e-14)
    monkeypatch.setattr(_quad, "DEFAULT_REL_TOL", 1e-14)
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda t: math.sin(1.0 / (t + 1e-9)), 0.0, 1.0)


def test_simpson_degenerate_interval():
    val, err = adaptive_simpson(math.exp, 1.0, 1.0)
    assert val == 0.0


def test_bisect_increasing_basic():
    root = bisect_increasing(lambda x: x**3, 8.0, 0.5, 4.0)
    assert math.isclose(root, 2.0, rel_tol=1e-11)


def test_bisect_failure():
    with pytest.raises(QuadratureError):
        bisect_increasing(lambda x: 1.0, 2.0, 0.1, 1.0)
    # the bracket is never widened: a root outside it is refused
    with pytest.raises(QuadratureError, match="straddle"):
        bisect_increasing(lambda x: x * x, 400.0, 0.5, 1.0)
    with pytest.raises(QuadratureError, match="straddle"):
        bisect_increasing(lambda x: x * x, 0.01, 0.5, 1.0)


def test_piecewise_power_basic():
    # f(t) = t on [0,1], constant 1 afterwards; integral of f over [0, 2]
    pieces = [(0.0, 1.0, 1.0, 1.0, 0.0), (1.0, math.inf, 0.0, 1.0, 1.0)]
    assert math.isclose(piecewise_power_integral(pieces, 0.0, 2.0), 1.5, rel_tol=1e-15)
    # weighted by t: int_0^1 t^2 + int_1^2 t = 1/3 + 3/2
    assert math.isclose(
        piecewise_power_integral(pieces, 0.0, 2.0, weight_exponent=1.0),
        1.0 / 3.0 + 1.5,
        rel_tol=1e-15,
    )


def test_piecewise_power_manual_weighted():
    # f(t) = 2 t^0.5 on [0, 4]; int f(t) t^{-0.25} dt = 2 * 4^{1.25}/1.25
    pieces = [(0.0, 4.0, 2.0, 0.5, 0.0)]
    want = 2.0 * 4.0**1.25 / 1.25
    assert math.isclose(piecewise_power_integral(pieces, 0.0, 4.0, -0.25), want, rel_tol=1e-14)


def test_piecewise_power_divergences():
    const_tail = [(0.0, math.inf, 0.0, 1.0, 1.0)]
    with pytest.raises(QuadratureError):
        # constant * t^{-1} integrated down to 0 is a log divergence
        piecewise_power_integral(const_tail, 0.0, 1.0, weight_exponent=-1.0)
    with pytest.raises(QuadratureError):
        # constant to infinity
        piecewise_power_integral(const_tail, 1.0, math.inf, weight_exponent=0.0)
    # but a decaying weight makes the tail finite: int_1^inf t^-2 = 1
    assert math.isclose(
        piecewise_power_integral(const_tail, 1.0, math.inf, weight_exponent=-2.0), 1.0, rel_tol=1e-15
    )


def test_piecewise_power_window_clipping():
    pieces = [(0.0, 10.0, 1.0, 1.0, 0.0)]
    # clip to [2, 3]: int t dt = (9 - 4)/2
    assert math.isclose(piecewise_power_integral(pieces, 2.0, 3.0), 2.5, rel_tol=1e-15)
    assert piecewise_power_integral(pieces, 5.0, 5.0) == 0.0


@given(
    p=st.floats(min_value=0.1, max_value=3.0),
    k=st.floats(min_value=-0.5, max_value=2.0),
    hi=st.floats(min_value=0.5, max_value=10.0),
)
@settings(max_examples=100, deadline=None)
def test_piecewise_power_matches_simpson(p, k, hi):
    pieces = [(0.0, math.inf, 1.3, p, 0.0)]
    closed = piecewise_power_integral(pieces, 0.0, hi, weight_exponent=k)
    # compare on [eps, hi] to dodge the (integrable) singular head
    eps = 1e-6 * hi
    head = 1.3 * eps ** (p + k + 1) / (p + k + 1)
    with mock.patch.object(_quad, "DEFAULT_ABS_TOL", 1e-12), \
            mock.patch.object(_quad, "DEFAULT_REL_TOL", 1e-12):
        num, _ = adaptive_simpson(lambda t: 1.3 * t**p * t**k, eps, hi)
    assert math.isclose(closed, head + num, rel_tol=1e-7, abs_tol=1e-9)
