"""Weighted ball sums of the lattice sweeps, and the reference cone evaluator.

Data layout convention: lattice windows are flattened C-order arrays over a
padded bounding box (see ``_lattice``).  Callers precompute

* ``padded_flat`` -- function values on the padded box, flattened;
* ``base_idx``    -- flat indices of the interior window points;
* ``lin_offsets`` -- linearized index offsets of the ball/annulus points.

so each kernel is dimension-agnostic.  ``cone_eval`` evaluates cone
functions at any points, with any modulus: the randomized suites read their
cones from modulus tables instead (``oracle._Cones.on_lattice``), and the
tests check those against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from .space import _max_last_axis


def ball_sums(padded_flat, base_idx, lin_offsets, weights):
    """For each window point i, sum ``w_j * f(x_i + u_j)`` over ball offsets.

    Parameters
    ----------
    padded_flat : (P,) float64
        Flattened values on the padded box.
    base_idx : (N,) int64
        Flat index of each window point in the padded box.
    lin_offsets : (K,) int64
        Linearized offsets of the ball points.
    weights : (K,) float64
        Per-offset weights.
    """
    return padded_flat[base_idx[:, None] + lin_offsets[None, :]] @ weights


def cone_eval(points, centers, heights, lam, omega, space):
    """Cone function ``max_i (heights_i - lam * omega(rho(x, centers_i)))_+``
    on a batch of points (shape (N, d)), with ``rho`` the metric of
    ``space``; ``omega`` is any modulus."""
    dist = space.norm(points[:, None, :] - centers[None, :, :])
    vals = heights[None, :] - lam * omega(dist)
    return np.maximum(_max_last_axis(vals), 0.0)
