import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharp_ineq import oracle
from sharp_ineq.cli import main
from sharp_ineq.modulus import (
    PowerModulus,
    TableModulus,
    from_config,
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
    plateau = TableModulus([(0, 0), (1, 1), (2, 1)])
    assert plateau.inverse(1.0) == 1.0
    assert plateau.inverse(0.5) == 0.5


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


# float.hex of TableModulus.antiderivative, recorded when the trapezoid
# cumulants were built eagerly in the constructor
ANTIDERIVATIVE_PINS = [
    ([(0, 0), (1, Fraction(1, 2)), (3, 1)],
     ["0x1.47ae147ae147cp-7", "0x1.0000000000000p-4", "0x1.0000000000000p-2",
      "0x1.4800000000000p+0", "0x1.7000000000000p+2"]),
    ([(0, 0), (0.75, 0.625), (1.5, 0.96875), (2.25, 1.125)],
     ["0x1.1111111111111p-6", "0x1.aaaaaaaaaaaaap-4", "0x1.9eaaaaaaaaaabp-2",
      "0x1.e600000000000p+0", "0x1.bd80000000000p+2"]),
    ([(0, 0), (Fraction(1, 3), Fraction(1, 3)), (Fraction(5, 7), Fraction(1, 2)),
      (2, Fraction(5, 7))],
     ["0x1.47ae147ae147cp-6", "0x1.e000000000000p-4", "0x1.74ae26501bdd2p-2",
      "0x1.5a1f58d0fac69p+0", "0x1.243eb1a1f58d1p+2"]),
]


@pytest.mark.parametrize("nodes, want", ANTIDERIVATIVE_PINS, ids=["half", "dyadic", "thirds-sevenths"])
def test_table_antiderivative_pinned_bits(nodes, want):
    om = TableModulus(nodes)
    got = [om.antiderivative(t).hex() for t in (0.2, 0.5, 1.0, 2.5, 7.0)]
    assert got == want


def _random_concave_nodes(rng):
    """Random concave table nodes: rational gaps and nonincreasing rational
    slopes (some equal, some 0), the odd node a float read as its decimal."""
    n = int(rng.integers(1, 6))
    gaps = [Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 13))) for _ in range(n)]
    slopes = sorted((Fraction(int(rng.integers(0, 30)), int(rng.integers(1, 17)))
                     for _ in range(n)), reverse=True)
    pts = [(Fraction(0), Fraction(0))]
    for g, s in zip(gaps, slopes):
        t, w = pts[-1]
        pts.append((t + g, w + g * s))
    if rng.random() < 0.2:
        pts.append((pts[-1][0] + Fraction("0.1"), pts[-1][1]))
        pts[-1] = (float(pts[-1][0]), pts[-1][1])
    return pts


def test_table_cumulants_are_the_rounded_fraction_sums():
    """``_cum`` is the float of each Fraction trapezoid sum, on 500 tables:
    random rational ones and the suites' dyadic ones."""
    rng = np.random.default_rng(24)
    tables = [TableModulus(_random_concave_nodes(rng)) for _ in range(250)]
    draws = oracle._Draws(rng)
    while len(tables) < 500:
        omega = oracle._random_modulus(draws)
        if isinstance(omega, TableModulus):
            tables.append(omega)
    for om in tables:
        pts = om._exact
        cum = [Fraction(0)]
        for (t0, w0), (t1, w1) in zip(pts, pts[1:]):
            cum.append(cum[-1] + (t1 - t0) * (w0 + w1) / 2)
        assert [c.hex() for c in om._cum] == [float(c).hex() for c in cum]


def _fraction_slope_check(points):
    """The table check as it read when written in Fractions: ``None`` when
    the table is accepted, else the ``ValueError`` message."""
    pts = [(Fraction(str(t)) if not isinstance(t, Fraction) else t,
            Fraction(str(w)) if not isinstance(w, Fraction) else w)
           for t, w in points]
    for (t0, _), (t1, _) in zip(pts, pts[1:]):
        if not t1 > t0:
            return "table nodes need strictly increasing t"
    for (_, w0), (_, w1) in zip(pts, pts[1:]):
        if w1 < w0:
            return "table values must be nondecreasing"
    slopes = [(w1 - w0) / (t1 - t0) for (t0, w0), (t1, w1) in zip(pts, pts[1:])]
    for s0, s1 in zip(slopes, slopes[1:]):
        if s1 > s0:
            return (
                "table modulus must be concave (nonincreasing slopes); "
                "a convex jump breaks semi-additivity"
            )
    return None


def _seeded_table(rng, kind: int) -> list:
    """A table from (0, 0) of one of six kinds: 0 dyadic floats, 1 collinear,
    2 convex jump, 3 non-dyadic rationals (strings, Fractions, decimals),
    4 slopes perturbed by 1e-30 either way, 5 repeated or decreasing t or w."""
    n = int(rng.integers(2, 6))
    if kind == 1:
        c = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        ts = np.cumsum(rng.integers(1, 7, n)).tolist()
        den = int(rng.integers(1, 8))
        return [(0, 0)] + [(Fraction(t, den), c * Fraction(t, den)) for t in ts]
    if kind == 3:
        gaps = [Fraction(int(rng.integers(1, 12)), int(rng.choice([3, 7, 9, 10, 21])))
                for _ in range(n)]
        slopes = sorted((Fraction(int(rng.integers(0, 12)), int(rng.choice([3, 5, 7, 11])))
                         for _ in range(n)), reverse=True)
        if rng.random() < 0.3:
            i = int(rng.integers(0, n - 1))
            slopes[i], slopes[i + 1] = slopes[i + 1], slopes[i]
    else:
        gaps = rng.uniform(0.1, 1.5, n).tolist()
        slopes = np.sort(rng.uniform(0.0, 1.0, n))[::-1].tolist()
        if kind == 2:
            i = int(rng.integers(0, n - 1))
            slopes[i + 1] = slopes[i] + float(rng.uniform(1e-6, 0.5))
        gaps = [Fraction(g) for g in gaps]
        slopes = [Fraction(s) for s in slopes]
        if kind == 4:
            i = int(rng.integers(0, n - 1))
            slopes[i + 1] = slopes[i] + Fraction(int(rng.choice([-1, 1])), 10**30)
    pts = [(Fraction(0), Fraction(0))]
    for g, s in zip(gaps, slopes):
        pts.append((pts[-1][0] + g, pts[-1][1] + g * s))
    if kind == 5:
        i = int(rng.integers(1, n))
        t, w = pts[i]
        if rng.random() < 0.5:
            pts[i + 1] = (t - Fraction(int(rng.integers(0, 2)), 7), pts[i + 1][1])
        else:
            pts[i + 1] = (pts[i + 1][0], w - Fraction(int(rng.integers(1, 3)), 9))
    form = int(rng.integers(0, 3))  # the input types the constructor takes
    if form == 1:
        return [(str(t), str(w)) for t, w in pts]
    if form == 2 and all(t.denominator & (t.denominator - 1) == 0 for t, _ in pts):
        return [(float(t), w) for t, w in pts]
    return pts


def test_table_check_agrees_with_fraction_slopes():
    rng = np.random.default_rng(2024)
    seen = {}
    for i in range(500):
        pts = _seeded_table(rng, i % 6)
        want = _fraction_slope_check(pts)
        try:
            om = TableModulus(pts)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, pts
        if got is None:  # the float nodes are float() of the exact ones
            assert [t.hex() for t in om._t] == [float(t).hex() for t, _ in om._exact]
            assert [w.hex() for w in om._w] == [float(w).hex() for _, w in om._exact]
        seen[(i % 6, want)] = seen.get((i % 6, want), 0) + 1
    assert seen[(1, None)] > 50  # collinear nodes are accepted
    messages = {msg for _, msg in seen}
    assert len(messages) == 4  # accepted, and each of the three messages
    assert {msg for kind, msg in seen if kind == 4} == messages - {
        "table nodes need strictly increasing t", "table values must be nondecreasing"
    }


# ----------------------------------------------------------------------
# scalar reads against the array reads they replace


def _searchsorted_antiderivative(om, T, W, t):
    """``TableModulus.antiderivative`` as it read on numpy node arrays."""
    tf = float(t)
    if tf <= 0:
        return 0.0
    idx = int(np.searchsorted(T, tf, side="right")) - 1
    if idx >= len(T) - 1:
        return om._cum[-1] + (tf - float(T[-1])) * float(W[-1])
    t0, w0 = float(T[idx]), float(W[idx])
    t1, w1 = float(T[idx + 1]), float(W[idx + 1])
    frac = (tf - t0) / (t1 - t0)
    w_at = w0 + frac * (w1 - w0)
    return om._cum[idx] + (tf - t0) * (w0 + w_at) / 2.0


def _searchsorted_inverse(T, W, y):
    """``TableModulus.inverse`` as it read on numpy node arrays."""
    if y <= 0:
        return 0.0
    if y > float(W[-1]):
        return float("inf")
    idx = int(np.searchsorted(W, y, side="left"))
    t0, w0 = float(T[idx - 1]), float(W[idx - 1])
    t1, w1 = float(T[idx]), float(W[idx])
    return t0 + (y - w0) * (t1 - t0) / (w1 - w0)


def _searchsorted_pieces(T, W, lo, hi):
    """``TableModulus.pieces`` as it read on numpy node arrays."""
    if hi <= lo:
        return []
    out = []
    cuts = [float(lo)] + [float(t) for t in T if lo < float(t) < hi] + [float(hi)]
    for s0, s1 in zip(cuts, cuts[1:]):
        idx = int(np.searchsorted(T, 0.5 * (s0 + s1), side="right")) - 1
        if idx >= len(T) - 1:
            out.append((s0, s1, 0.0, 1.0, float(W[-1])))
        else:
            t0, w0 = float(T[idx]), float(W[idx])
            t1, w1 = float(T[idx + 1]), float(W[idx + 1])
            slope = (w1 - w0) / (t1 - t0)
            out.append((s0, s1, slope, 1.0, w0 - slope * t0))
    return out


# distinct nodes 1 and 1 + 10**-20 that round to one float
NEAR_TIE = [(0, 0), (1, Fraction(1, 2)),
            (1 + Fraction(1, 10**20), Fraction(1, 2) + Fraction(1, 4 * 10**20)), (3, 1)]


def _config_tables(cfg):
    if isinstance(cfg, dict):
        if cfg.get("kind") == "table":
            yield from_config(cfg)
        cfg = list(cfg.values())
    if isinstance(cfg, list):
        for item in cfg:
            yield from _config_tables(item)


def _scalar_read_tables():
    """1000 suite tables, the shipped config tables, a plateau and NEAR_TIE."""
    draws = oracle._Draws(np.random.default_rng(29))
    tables = []
    while len(tables) < 1000:
        omega = oracle._random_modulus(draws)
        if isinstance(omega, TableModulus):
            tables.append(omega)
    configs = Path(__file__).resolve().parents[1] / "configs"
    shipped = [om for path in sorted(configs.glob("*.json"))
               for om in _config_tables(json.loads(path.read_text()))]
    assert shipped
    return tables + shipped + [TableModulus([(0, 0), (1, 1), (2, 1)]), TableModulus(NEAR_TIE)]


def _probe_points(om):
    """0, -1, every node and node value, the midpoints between them, points
    past the last node, the infinities and NaN."""
    mids = [0.5 * (a + b) for xs in (om._t, om._w) for a, b in zip(xs, xs[1:])]
    return [0.0, -0.0, -1.0, *om._t, *om._w, *mids, om._t[-1] + 1.0, 2.0 * om._t[-1],
            om._w[-1] + 1.0, math.inf, -math.inf, math.nan]


def _bits(values):
    """The float64 bit patterns of ``values``: NaN equals NaN, -0.0 differs from 0.0."""
    return np.array(list(values), dtype=np.float64).view(np.uint64).tolist()


def _piece_bits(decompositions):
    """The bits of each decomposition's piece count and pieces, in a row."""
    return _bits(x for pieces in decompositions
                 for x in (len(pieces), *(x for piece in pieces for x in piece)))


def test_near_tie_table_is_accepted_and_verified(capsys, tmp_path):
    om = TableModulus(NEAR_TIE)
    assert om._t[1] == om._t[2] == 1.0 and om._exact[1] != om._exact[2]
    cfg = {"space": {"kind": "continuum", "d": 1, "m": 0}, "h_values": [1.5],
           "modulus": {"kind": "table", "points": [[str(t), str(w)] for t, w in NEAR_TIE]}}
    path = tmp_path / "near_tie.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path)]) == 0
    assert "Violated" not in capsys.readouterr().out


def test_table_scalar_reads_match_the_array_reads():
    """A float argument reads the float node tuples by ``bisect``: its value
    is ``np.interp``'s on the array, and ``antiderivative``, ``inverse`` and
    ``pieces`` are the ``np.searchsorted`` formulas they replace, bit for
    bit.  The one change: ``inverse(nan)`` is NaN, where ``searchsorted``
    put NaN past the last node and the index ran off the table."""
    for om in _scalar_read_tables():
        pts = _probe_points(om)
        T, W = np.array(om._t), np.array(om._w)
        want = _bits(np.interp(np.array(pts), T, W))
        assert _bits(om(p) for p in pts) == want, om
        assert _bits(om(np.float64(p)) for p in pts) == want, om
        assert _bits(om(np.array(pts))) == want, om
        assert {type(om(p)) for p in pts} == {type(om(np.float64(p))) for p in pts} == {float}
        assert (_bits(om.antiderivative(p) for p in pts)
                == _bits(_searchsorted_antiderivative(om, T, W, p) for p in pts)), om
        assert (_bits(om.inverse(p) for p in pts[:-1])
                == _bits(_searchsorted_inverse(T, W, p) for p in pts[:-1])), om
        assert math.isnan(om.inverse(math.nan))
        with pytest.raises(IndexError):
            _searchsorted_inverse(T, W, math.nan)
        spans = [(0.0, p) for p in pts] + [(p, math.inf) for p in pts[::3]]
        assert (_piece_bits([om.pieces(lo, hi) for lo, hi in spans])
                == _piece_bits([_searchsorted_pieces(T, W, lo, hi) for lo, hi in spans])), om


def test_power_scalars_match_the_array_bits():
    """A scalar power modulus goes through ``np.power`` like an array, not
    Python's ``**``, which differs from it in the last bit on some points."""
    rng = np.random.default_rng(5)
    xs = np.concatenate([[0.0, 1.0, 2.0, 1e-300, 1e300], rng.uniform(0.0, 10.0, 200)])
    for alpha in rng.uniform(0.3, 1.0, 20).tolist():
        om = PowerModulus(alpha)
        assert _bits(om(x) for x in xs.tolist()) == _bits(om(xs))
        assert _bits(om(x) for x in xs) == _bits(om(xs))
