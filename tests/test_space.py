import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharp_ineq._kernels import cone_eval
from sharp_ineq.modulus import PowerModulus, TableModulus
from sharp_ineq.space import (
    RequestError,
    Space,
    config_number,
    continuum,
    lattice,
    strict_int_below,
)


def test_strict_int_below():
    assert strict_int_below(1.5) == 1
    assert strict_int_below(2.0) == 1
    assert strict_int_below(0.3) == 0
    assert strict_int_below(Fraction(3, 2)) == 1
    assert strict_int_below(Fraction(2)) == 1
    assert strict_int_below(Fraction(7, 3)) == 2
    with pytest.raises(ValueError):
        strict_int_below(0.0)


def test_continuum_ball_measure_closed_form():
    # mu(B_h) = 2^(d-m) h^d
    assert continuum(1, 0).ball_measure(1.0) == 2.0
    assert continuum(1, 1).ball_measure(1.0) == 1.0
    assert continuum(2, 1).ball_measure(1.5) == 2 * 1.5**2
    assert continuum(3, 2).ball_measure(0.5) == 2 * 0.5**3


def test_lattice_ball_measure_counts():
    # (K+1)^m (2K+1)^(d-m) with K the largest integer strictly below h
    assert lattice(1, 0).ball_measure(Fraction(3, 2)) == 3
    assert lattice(2, 0).ball_measure(Fraction(3, 2)) == 9
    assert lattice(2, 1).ball_measure(Fraction(3, 2)) == 6
    assert lattice(2, 1).ball_measure(2.5) == 15
    # integer h: the ball is open, so h = 2 counts radius <= 1
    assert lattice(1, 0).ball_measure(2) == 3


def test_lattice_enumeration_matches_measure():
    for d, m in [(1, 0), (2, 0), (2, 1), (3, 2)]:
        sp = lattice(d, m)
        for h in (1.5, 2.0, 2.5):
            pts = sp.enumerate_ball(h)
            assert pts.shape[0] == int(sp.ball_measure(h))
            assert pts.shape[1] == d
            # all inside the open ball, half-line coords nonnegative
            assert np.max(np.abs(pts)) < h
            if m:
                assert pts[:, :m].min() >= 0


def test_radius_validation():
    lattice(1, 0).require_valid_radius(1.5)
    with pytest.raises(ValueError):
        lattice(1, 0).require_valid_radius(1.0)  # lattice balls need h > 1
    with pytest.raises(ValueError):
        continuum(1, 0).require_valid_radius(0.0)
    with pytest.raises(ValueError):
        continuum(1, 0).require_valid_radius(-2.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            lattice(1, 0).require_valid_radius(bad)


def test_space_constructor_validation():
    with pytest.raises(ValueError):
        Space("continuum", 0, 0)
    with pytest.raises(ValueError):
        Space("continuum", 2, 3)
    with pytest.raises(ValueError):
        Space("voronoi", 2, 1)


def test_sample_ball_deterministic_and_inside():
    sp = continuum(2, 1)
    a = sp.sample_ball(1.5, 1000, seed=42)
    b = sp.sample_ball(1.5, 1000, seed=42)
    assert np.array_equal(a, b)
    assert a.shape == (1000, 2)
    assert a[:, 0].min() >= 0.0 and a[:, 0].max() <= 1.5
    assert np.abs(a[:, 1]).max() <= 1.5
    c = sp.sample_ball(1.5, 1000, seed=7)
    assert not np.array_equal(a, c)


def test_config_round_trip():
    for sp in (continuum(3, 2), lattice(2, 0)):
        assert Space.from_config(sp.to_config()) == sp
    with pytest.raises(ValueError):
        Space.from_config({"kind": "continuum", "d": 2})


def test_config_number_is_the_one_reading():
    # a float reads as the decimal it prints, so exact mode keeps 2.1 as 21/10
    assert config_number(2.1, "h", exact=True) == Fraction(21, 10)
    assert config_number("3/2", "h", exact=True) == Fraction(3, 2)
    assert config_number("3/2", "h") == 1.5
    assert config_number(3, "h", exact=True) == 3 and type(config_number(3, "h")) is float
    # numpy scalars of library callers read as the numbers they print
    assert config_number(np.float64(0.25), "x") == 0.25
    assert config_number(np.int64(3), "x", exact=True) == 3
    assert config_number(np.float32(0.1), "x", exact=True) == Fraction(1, 10)
    # in float mode every finite double reads as itself
    bits = np.random.default_rng(3).integers(0, 2**64, 4000, dtype=np.uint64).view(np.float64)
    for x in bits[np.isfinite(bits)].tolist():
        assert config_number(x, "x") == x
    for bad in (True, np.bool_(True), math.nan, math.inf, 10**400, "1e999", "-1e999", "1/0",
                "x", "nan", None, [1]):
        with pytest.raises(RequestError, match="bad h "):
            config_number(bad, "h")


def test_table_modulus_takes_numpy_nodes():
    nodes = [(np.int64(0), np.float64(0)), (np.float64(0.5), np.float32(0.25)), (2, "1/2")]
    om = TableModulus(nodes)
    assert om._exact == [(0, 0), (Fraction(1, 2), Fraction(1, 4)), (2, Fraction(1, 2))]
    with pytest.raises(RequestError, match="table node"):
        TableModulus([(0, 0), (np.bool_(True), 1)])


@given(
    d=st.integers(min_value=1, max_value=4),
    h=st.floats(min_value=0.05, max_value=50.0),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_continuum_measure_homogeneity(d, h, scale):
    """mu(B_{s h}) = s^d mu(B_h) on every continuum space."""
    for m in range(d + 1):
        sp = continuum(d, m)
        lhs = sp.ball_measure(scale * h)
        rhs = scale**d * sp.ball_measure(h)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


@given(h=st.floats(min_value=1.01, max_value=12.0), d=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_lattice_count_formula(h, d):
    sp = lattice(d, d and 1)
    k = strict_int_below(h)
    expected = (k + 1) ** sp.m * (2 * k + 1) ** (sp.d - sp.m)
    assert sp.ball_measure(h) == expected


@pytest.mark.parametrize("d,m", [(d, m) for d in (1, 2, 3) for m in range(d + 1)])
def test_metric_quantities_agree(d, m):
    """Ball measure, enumeration, shell counts, sphere constant, sphere
    sampling, the norm and the exact lattice distance of one space tell the
    same story."""
    lat, cont = lattice(d, m), continuum(d, m)
    coef = lat.shell_count_coefficients()
    for h in (1.5, 2.5, 4):
        k_max = strict_int_below(h)
        shells = 1 + sum(np.polynomial.polynomial.polyval(k, coef) for k in range(1, k_max + 1))
        assert lat.ball_measure(h) == len(lat.enumerate_ball(h)) == shells
    assert cont.sphere_constant == d * cont.ball_measure(1)

    rng = np.random.default_rng(10 * d + m)
    radii = rng.uniform(0.0, 5.0, 500)
    pts = cont.sample_sphere(radii, rng)
    assert np.array_equal(cont.norm(pts), radii)
    if m:
        assert pts[:, :m].min() >= 0.0

    ix = rng.integers(-6, 7, size=(50, d))
    iy = rng.integers(-6, 7, size=(50, d))
    exact = [lat.lattice_distance(tuple(a), tuple(b)) for a, b in zip(ix.tolist(), iy.tolist())]
    assert all(type(r) is int for r in exact)
    assert np.array_equal(np.array(exact, dtype=np.float64), lat.norm(ix - iy))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


SPECIALS = (-0.0, 0.0, math.inf, -math.inf, math.nan, -1.5, 1.5, 2.0)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_norm_fold_matches_the_reduction_bit_for_bit(d):
    """``Space.norm`` folds ``np.maximum`` over the columns; its bits are
    those of ``np.max(np.abs(u), axis=-1)`` on every arrangement of signed
    zeros, infinities and NaN, and on every shape the package passes."""
    rows = np.array(list(itertools.product(SPECIALS, repeat=d)))  # (8^d, d)
    half = len(rows) // 2
    noise = np.random.default_rng(d).normal(size=(30, 5, d))
    sp = continuum(d, 0)
    for u in (rows, rows[: 2 * half].reshape(half, 2, d), noise, rows[:0], rows[3]):
        want = np.max(np.abs(u), axis=-1)
        got = sp.norm(u)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))
    ints = np.random.default_rng(d).integers(-6, 7, size=(40, d))
    assert np.array_equal(_bits(lattice(d, 0).norm(ints)), _bits(np.max(np.abs(ints), axis=-1)))
    for row in rows:
        got = sp.norm(row)
        assert type(got) is np.float64
        assert _bits(got) == _bits(np.max(np.abs(row)))
    assert json.dumps(sp.norm([0.5] * d)) == "0.5"


@pytest.mark.parametrize("omega", [PowerModulus(0.5), PowerModulus(1.0),
                                   TableModulus([(0, 0), (1, 0.75), (3, 1)])],
                         ids=["power-0.5", "power-1", "table"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cone_eval_fold_matches_the_reduction_bit_for_bit(omega, k):
    """``cone_eval``'s max over its cones is the same fold; far points clip
    at 0, and a cone whose height meets ``lam * omega`` gives exact zeros."""
    rng = np.random.default_rng(k)
    for sp in (continuum(2, 1), lattice(2, 0)):
        centers = rng.integers(-3, 4, size=(k, 2)).astype(np.float64)
        heights = rng.uniform(0.5, 1.2, size=k)  # below lam * sup omega: far points clip
        heights[0] = 1.25 * float(omega(1.0))  # exact zero at rho = 1 with lam = 1.25
        grid = np.arange(-8.0, 8.5, 0.5)
        points = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        dist = np.max(np.abs(points[:, None, :] - centers[None, :, :]), axis=-1)
        want = np.maximum((heights[None, :] - 1.25 * omega(dist)).max(axis=1), 0.0)
        got = cone_eval(points, centers, heights, 1.25, omega, sp)
        assert np.array_equal(_bits(got), _bits(want))
        assert (want == 0.0).any() and (want > 0.0).any()


# sups of |f| over the window points of each trial: the points axis of a
# trials-by-points array, a function's sup norm rather than the metric
FUNCTION_SUPS = {
    "oracle.py: lhs = np.abs(vals[:, plan.base_idx] - ball / mu).max(axis=1)",
    "oracle.py: lhs = np.abs(vals).max(axis=1)",
    "oracle.py: term2 = np.abs(ball).max(axis=1) / mu",
}


def test_metric_lives_in_space():
    """No module but ``space.py`` writes the sup metric or its measure by
    hand: no ``2.0 ** (d - m)``, no ``np.max(np.abs(...), axis=...)`` and no
    ``np.abs(...).max(axis=...)``.  The one sup-norm reduction is
    ``Space.norm``'s fold of ``np.maximum`` over the ``d`` columns.

    A textual scan: it cannot see single-point sup norms such as
    ``np.max(np.abs(x))`` or tuple distances such as
    ``max(abs(c) for c in pt)``; those are kept out by review.
    """
    src = Path(__file__).resolve().parents[1] / "src" / "sharp_ineq"
    patterns = [
        re.compile(r"2\.0\s*\*\*\s*\(\s*d\s*-\s*m\s*\)"),
        re.compile(r"np\.max\(\s*np\.abs\(.*axis\s*="),
        re.compile(r"np\.abs\(.*\)\.max\(\s*axis\s*="),
    ]
    hits = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name != "space.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if any(p.search(line) for p in patterns)
        and f"{path.name}: {line.strip()}" not in FUNCTION_SUPS
    ]
    assert hits == []


def test_config_numbers_are_read_in_space():
    """``space.config_number`` is the one reader of a config number: no
    other module parses one by ``Fraction(str(...))``, ``float(cfg...)`` or
    ``float(node...)``, or keeps a ``_number`` helper of its own.  A textual
    scan, like ``test_metric_lives_in_space``."""
    src = Path(__file__).resolve().parents[1] / "src" / "sharp_ineq"
    patterns = [
        re.compile(r"Fraction\(\s*str\("),
        re.compile(r"\bfloat\(\s*(cfg|node)\b"),
        re.compile(r"\b_number\b"),
    ]
    hits = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name != "space.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if any(p.search(line) for p in patterns)
    ]
    assert hits == []


def test_radial_quadrature_lives_in_calculus():
    """Only ``_quad.py`` and ``calculus.py`` call ``adaptive_simpson``: every
    other radial integral goes through ``calculus.radial_integral``.  No
    module reads a kernel's node array ``._t``; ``TableKernel.breakpoints``
    exposes it.  A textual scan, like ``test_metric_lives_in_space``."""
    src = Path(__file__).resolve().parents[1] / "src" / "sharp_ineq"
    hits = []
    for path in sorted(src.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if "adaptive_simpson(" in line and path.name not in ("_quad.py", "calculus.py"):
                hits.append(f"{path.name}:{lineno}: {line.strip()}")
            if re.search(r"kernel\w*\._t\b", line):
                hits.append(f"{path.name}:{lineno}: {line.strip()}")
    assert hits == []
