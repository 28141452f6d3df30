import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharp_ineq.modulus import (
    PowerModulus,
    TableModulus,
    from_config,
    validate,
)


def test_power_modulus_basic():
    om = PowerModulus(0.5)
    assert om(4.0) == 2.0
    assert om(0.0) == 0.0
    np.testing.assert_allclose(om(np.array([1.0, 9.0])), [1.0, 3.0])
    with pytest.raises(ValueError):
        PowerModulus(0.0)
    with pytest.raises(ValueError):
        PowerModulus(1.2)  # concavity requires alpha <= 1


def test_power_antiderivative_and_inverse():
    om = PowerModulus(0.5)
    assert math.isclose(om.antiderivative(4.0), 4.0**1.5 / 1.5, rel_tol=1e-15)
    assert math.isclose(om.inverse(2.0), 4.0, rel_tol=1e-15)
    assert om.inverse(0.0) == 0.0


def test_table_modulus_evaluation():
    om = TableModulus([(0, 0), (1, Fraction(1, 2)), (3, 1)])
    assert om(0.0) == 0.0
    assert om(0.5) == 0.25
    assert om(2.0) == 0.75
    assert om(3.0) == 1.0
    assert om(100.0) == 1.0  # constant beyond the last node
    assert om.max_value == 1.0
    assert om.is_bounded()
    assert not PowerModulus(1.0).is_bounded()


def test_table_modulus_rejects_non_concave():
    with pytest.raises(ValueError):
        TableModulus([(0, 0), (1, Fraction(1, 4)), (2, 1)])  # slopes increase
    with pytest.raises(ValueError):
        TableModulus([(0, 0), (1, 1), (1, 2)])  # radii not strictly increasing
    with pytest.raises(ValueError):
        TableModulus([(1, 1), (2, 2)])  # must start at the origin
    with pytest.raises(ValueError):
        TableModulus([(0, 0), (1, -1)])  # decreasing


def test_table_antiderivative_matches_trapezoid():
    om = TableModulus([(0, 0), (1, Fraction(1, 2)), (3, 1)])
    # int_0^2 = int_0^1 (t/2) + int_1^2 (1/2 + (t-1)/4) = 1/4 + 5/8
    assert math.isclose(om.antiderivative(2.0), 0.25 + 0.625, rel_tol=1e-14)
    grid = np.linspace(0.0, 5.0, 11)
    for t in grid:
        brute = np.trapezoid(om(np.linspace(0, t, 20001)), np.linspace(0, t, 20001)) if t else 0.0
        assert math.isclose(om.antiderivative(float(t)), float(brute), abs_tol=5e-7)


def test_table_inverse():
    om = TableModulus([(0, 0), (1, Fraction(1, 2)), (3, 1)])
    assert om.inverse(0.25) == 0.5
    assert om.inverse(0.75) == 2.0
    assert om.inverse(1.0) == 3.0
    assert om.inverse(1.5) == math.inf


def test_eval_fraction_exactness():
    om = TableModulus([(0, 0), (1, Fraction(2, 3)), (2, 1)])
    assert om.eval_fraction(Fraction(1, 2)) == Fraction(1, 3)
    assert om.eval_fraction(Fraction(3, 2)) == Fraction(2, 3) + Fraction(1, 6)
    assert om.eval_fraction(Fraction(7)) == Fraction(1)
    assert PowerModulus(1.0).eval_fraction(Fraction(5, 7)) == Fraction(5, 7)
    with pytest.raises(ValueError):
        PowerModulus(0.5).eval_fraction(Fraction(2))


def test_pieces_reconstruct_the_modulus():
    for om in (
        PowerModulus(0.7),
        TableModulus([(0, 0), (Fraction(1, 2), Fraction(1, 2)), (2, 1)]),
    ):
        pieces = om.pieces(0.0, 5.0)
        # pieces tile [0, 5] and evaluate back to omega
        assert pieces[0][0] == 0.0 and pieces[-1][1] == 5.0
        for s0, s1, sigma, p, tau in pieces:
            for t in np.linspace(s0, s1, 7):
                if t == 0:
                    continue
                assert math.isclose(sigma * t**p + tau, float(om(t)), rel_tol=1e-12), (om, t)


def test_pieces_handle_infinite_upper_end():
    om = TableModulus([(0, 0), (1, 1)])
    pieces = om.pieces(0.0, math.inf)
    assert pieces[-1][1] == math.inf
    s0, s1, sigma, p, tau = pieces[-1]
    assert sigma == 0.0 and tau == 1.0  # constant tail


def test_validate_flags_bad_grids():
    om = PowerModulus(0.5)
    ok = validate(om, np.linspace(0, 3, 40))
    assert ok.ok and not ok.violations


class _Nodes:
    """A bare piecewise-linear gauge, built without ``TableModulus``'s checks."""

    def __init__(self, ts, ws):
        self.ts, self.ws = ts, ws

    def __call__(self, t):
        out = np.interp(np.asarray(t, dtype=np.float64), self.ts, self.ws)
        return out if out.ndim else float(out)


@pytest.mark.parametrize(
    "omega, messages",
    [
        (_Nodes([0, 1, 2], [0, 0.25, 1]), ["semi-additivity fails"]),  # convex: slopes rise
        (_Nodes([0, 1, 2, 3, 4], [0.1, -0.2, 0.3, 0.2, 5.0]),
         ["omega(0) != 0", "negative values", "not nondecreasing near t = 0.5",
          "semi-additivity fails"]),
    ],
    ids=["convex-table", "every-axiom"],
)
def test_validate_reports_each_violation(omega, messages):
    got = validate(omega, np.linspace(0, 4, 9))
    assert not got.ok
    assert len(got.violations) == len(messages)
    for text, want in zip(got.violations, messages):
        assert text.startswith(want), got.violations


def test_config_round_trip():
    for om in (
        PowerModulus(0.35),
        TableModulus([(0, 0), (1, Fraction(2, 3)), (2, 1)]),
    ):
        again = from_config(om.to_config())
        for t in (0.0, 0.4, 1.1, 2.7):
            assert math.isclose(float(again(t)), float(om(t)), rel_tol=1e-12)
    with pytest.raises(ValueError):
        from_config({"kind": "spline"})


@given(
    alpha=st.floats(min_value=0.1, max_value=1.0),
    s=st.floats(min_value=0.001, max_value=30.0),
    t=st.floats(min_value=0.001, max_value=30.0),
)
@settings(max_examples=120, deadline=None)
def test_power_semi_additivity(alpha, s, t):
    """omega(s + t) <= omega(s) + omega(t): concavity with omega(0) = 0."""
    om = PowerModulus(alpha)
    assert om(s + t) <= om(s) + om(t) + 1e-12 * om(s + t)


@st.composite
def concave_tables(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    gaps = draw(
        st.lists(st.fractions(min_value=Fraction(1, 4), max_value=3), min_size=n, max_size=n)
    )
    slopes = draw(
        st.lists(st.fractions(min_value=Fraction(1, 8), max_value=2), min_size=n, max_size=n)
    )
    slopes = sorted(slopes, reverse=True)
    pts = [(Fraction(0), Fraction(0))]
    t = w = Fraction(0)
    for g, sl in zip(gaps, slopes):
        t += g
        w += g * sl
        pts.append((t, w))
    return TableModulus(pts)


@given(om=concave_tables(), s=st.floats(0.01, 20.0), t=st.floats(0.01, 20.0))
@settings(max_examples=120, deadline=None)
def test_table_semi_additivity(om, s, t):
    assert om(s + t) <= om(s) + om(t) + 1e-12


@given(om=concave_tables())
@settings(max_examples=60, deadline=None)
def test_table_pieces_integral_consistency(om):
    """Summing sigma/(p+1) t^(p+1) + tau t over pieces equals the antiderivative."""
    hi = float(om.breakpoints()[-1]) + 1.0 if om.breakpoints() else 2.0
    total = 0.0
    for s0, s1, sigma, p, tau in om.pieces(0.0, hi):
        total += sigma / (p + 1) * (s1 ** (p + 1) - s0 ** (p + 1)) + tau * (s1 - s0)
    assert math.isclose(total, om.antiderivative(hi), rel_tol=1e-11, abs_tol=1e-12)
