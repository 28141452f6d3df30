"""Window/ball index plans for lattice sweeps.

A *plan* fixes the geometry of a sliding-ball computation on the lattice: a
window of base points, the set of ball (or annulus) offsets, and the padded
bounding box that contains every ``base + offset``.  Function values are then
evaluated once on the padded box and every sweep becomes a flat gather:
plain ball sums by ``ball_row_sums``, weighted ones by ``_kernels.ball_sums``.

Dimension-agnostic by construction: coordinates are linearized with C-order
strides, so the same plan code serves d = 1, 2, 3, ...

``sweep_plan`` memoizes the plans of the lattice sweeps, whose callers
redraw the function but keep hitting the same few geometries.

Every box and shell range is checked against ``POINT_BUDGET`` before it is
allocated, so an input too large to sweep fails with ``ValueError`` instead of
exhausting memory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .space import Space


# About 4.2 M points: 100 MB for one int64 copy of a d = 3 box.
POINT_BUDGET = 1 << 22
# About 3.4e10 steps of an exact replay (a pair of its smoothness sweep, or a
# term of its ball sums): tens of seconds.  nagy on lattice(4, 0) at h = 5/2
# takes 1.8e10.
WORK_BUDGET = 1 << 35


def _count(n: int) -> str:
    """``n`` in digits below 10^12, else as ``about 2.00e+308``.  ``math.log10``
    reads an int of any size, where ``float(n)`` would overflow."""
    if n < 10**12:
        return str(n)
    exp = math.log10(n)
    e = math.floor(exp)
    lead = f"{10 ** (exp - e):.2f}"
    if lead == "10.00":
        lead, e = "1.00", e + 1
    return f"about {lead}e+{e}"


def require_budget(n: int) -> None:
    """Raise ``ValueError`` when a sweep of ``n`` points exceeds ``POINT_BUDGET``."""
    if n > POINT_BUDGET:
        raise ValueError(
            f"a lattice sweep of {_count(n)} points exceeds the budget of {POINT_BUDGET}"
        )


def require_work_budget(steps: int) -> None:
    """Raise ``ValueError`` when an exact replay of ``steps`` steps exceeds
    ``WORK_BUDGET``: its box may fit ``POINT_BUDGET`` while its sweeps,
    quadratic in the box, would run for hours."""
    if steps > WORK_BUDGET:
        raise ValueError(
            f"an exact replay of {_count(steps)} steps exceeds the work budget of {WORK_BUDGET}"
        )


def _box(lo: list, hi: list) -> np.ndarray:
    """All integer points of the box ``prod_i [lo_i, hi_i]`` in C order
    (last coordinate fastest), shape (N, d), int64.  The corners are Python
    ints, so the shape is exact and the budget is checked before any int64
    array is built: an int64 shape would wrap past 2^63."""
    shape = tuple(b - a + 1 for a, b in zip(lo, hi))
    require_budget(math.prod(shape))
    return np.indices(shape, dtype=np.int64).reshape(len(shape), -1).T + np.array(lo)


def _window_lo(space: Space, r: int) -> list:
    return [0] * space.m + [-r] * (space.d - space.m)


def window_shape(space: Space, r: int) -> list:
    """The shape of the window of radius ``r``, in Python ints of any size."""
    return [r + 1] * space.m + [2 * r + 1] * (space.d - space.m)


def window_axes(space: Space, r: int) -> list:
    """The coordinate ranges of the window of radius ``r``, one per axis:
    ``window_points(space, r)`` is their product in C order."""
    return [range(lo, r + 1) for lo in _window_lo(space, r)]


def window_points(space: Space, radius: int) -> np.ndarray:
    """All lattice points of ``{0..r}^m x {-r..r}^(d-m)``, r = ``radius``:
    the sup-norm window of the space, in C order (shape (N, d))."""
    r = int(radius)
    return _box(_window_lo(space, r), [r] * space.d)


@dataclass(frozen=True)
class GatherPlan:
    offsets: np.ndarray          # (K, d) ball/annulus offsets
    offset_rho: np.ndarray       # (K,) float64 rho(u, 0) of each offset
    padded_points: np.ndarray    # (P, d) every point the sweep touches
    padded_float: np.ndarray     # (P, d) the same points as float64
    base_idx: np.ndarray         # (N,) flat indices of the window points
    lin_offsets: np.ndarray      # (K,) linearized offsets


def make_plan(space: Space, window_radius: int, offsets: np.ndarray) -> GatherPlan:
    """Build the padded-box index plan for ``{x + u : x in window, u in offsets}``."""
    offsets = np.asarray(offsets, dtype=np.int64).reshape(-1, space.d)
    d = space.d
    r = int(window_radius)
    pad_lo = [a + min(0, b) for a, b in zip(_window_lo(space, r), offsets.min(axis=0).tolist())]
    pad_hi = [r + max(0, b) for b in offsets.max(axis=0).tolist()]
    padded_points = _box(pad_lo, pad_hi)

    strides = np.ones(d, dtype=np.int64)
    for i in range(d - 2, -1, -1):
        strides[i] = strides[i + 1] * (pad_hi[i + 1] - pad_lo[i + 1] + 1)

    base_idx = (window_points(space, r) - pad_lo) @ strides
    lin_offsets = offsets @ strides
    return GatherPlan(
        offsets=offsets,
        offset_rho=space.norm(offsets),
        padded_points=padded_points,
        padded_float=padded_points.astype(np.float64),
        base_idx=base_idx,
        lin_offsets=lin_offsets,
    )


@functools.lru_cache(maxsize=256)
def sweep_plan(space: Space, window_radius: int, k: int, punctured: bool = False) -> GatherPlan:
    """Cached plan for a window of radius ``window_radius`` swept by the
    closed ball ``space.closed_ball(k)``: the open ball
    ``space.enumerate_ball(h)`` of every h with ``strict_int_below(h) == k``,
    offsets in the same order.  With ``punctured`` the origin is dropped,
    leaving the annulus ``1 <= rho <= k`` of a singular kernel cut at k.

    The plan is shared between callers, so its arrays are read-only.
    """
    offsets = space.closed_ball(k)
    if punctured:
        offsets = offsets[space.norm(offsets) >= 1]
    plan = make_plan(space, window_radius, offsets)
    for field in fields(plan):
        getattr(plan, field.name).flags.writeable = False
    return plan


def evaluate_padded(plan: GatherPlan, evaluator) -> np.ndarray:
    """Evaluate a batch evaluator on the plan's padded points (float64 flat)."""
    vals = np.asarray(evaluator(plan.padded_float), dtype=np.float64)
    return np.ascontiguousarray(vals.ravel())


def ball_row_sums(plan: GatherPlan, values: np.ndarray) -> np.ndarray:
    """The sum of ``values`` over each window ball of the plan: ``(N,)`` for
    flat padded values ``(P,)``, ``(T, N)`` for ``T`` rows ``(T, P)``.

    The balls are one flat take, C-contiguous, so each sums as the
    contiguous row it is: a row of ``T`` rows gets the bits it gets alone.
    The strided ``values[:, gather]`` sums in another order.
    """
    take = plan.base_idx[:, None] + plan.lin_offsets
    if values.ndim == 2:
        take = (np.arange(len(values)) * values.shape[1])[:, None, None] + take
    return values.ravel()[take].sum(axis=-1)
