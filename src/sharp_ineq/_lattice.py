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


def require_budget(n: int) -> None:
    """Raise ``ValueError`` when a sweep of ``n`` points exceeds ``POINT_BUDGET``."""
    if n > POINT_BUDGET:
        raise ValueError(
            f"a lattice sweep of {n} points exceeds the budget of {POINT_BUDGET}"
        )


def _box(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """All integer points of the box ``prod_i [lo_i, hi_i]`` in C order
    (last coordinate fastest), shape (N, d), int64."""
    shape = tuple(int(n) for n in hi - lo + 1)
    require_budget(math.prod(shape))
    return np.indices(shape, dtype=np.int64).reshape(len(shape), -1).T + lo


def _window_lo(space: Space, r: int) -> np.ndarray:
    return np.array([0] * space.m + [-r] * (space.d - space.m), dtype=np.int64)


def window_points(space: Space, radius: int) -> np.ndarray:
    """All lattice points of ``{0..r}^m x {-r..r}^(d-m)``, r = ``radius``:
    the sup-norm window of the space, in C order (shape (N, d))."""
    r = int(radius)
    return _box(_window_lo(space, r), np.full(space.d, r, dtype=np.int64))


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
    win_lo = _window_lo(space, r)
    win_hi = np.full(d, r, dtype=np.int64)
    off_lo = offsets.min(axis=0)
    off_hi = offsets.max(axis=0)
    pad_lo = win_lo + np.minimum(0, off_lo)
    pad_hi = win_hi + np.maximum(0, off_hi)
    shape = (pad_hi - pad_lo + 1).astype(np.int64)

    strides = np.ones(d, dtype=np.int64)
    for i in range(d - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]

    base_idx = (window_points(space, r) - pad_lo) @ strides
    lin_offsets = offsets @ strides

    padded_points = _box(pad_lo, pad_hi)
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
