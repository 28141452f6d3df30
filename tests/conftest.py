import pytest

from sharp_ineq import _kernels, oracle
from sharp_ineq.calculus import FunctionModel


@pytest.fixture
def cone_function():
    """A builder of one randomized cone function as a ``FunctionModel``:
    ``build(space, omega, draw)`` with ``draw = (lam, centers, radii)`` as
    ``oracle._draw_cones`` gives it.  The heights and the support radius are
    ``oracle._Cones``'s, the values ``_kernels.cone_eval``'s at any points,
    and the certificates are the cones': smoothness ``lam``, sup the largest
    height."""

    def build(space, omega, draw) -> FunctionModel:
        cones = oracle._Cones(space, [omega], [draw], 0)
        lam = draw[0]
        return FunctionModel(
            name=f"cones[k={cones.count[0]}]",
            evaluator=lambda pts: _kernels.cone_eval(
                pts, cones.centers[0], cones.heights[0], lam, omega, space
            ),
            certified_holder_bound=lam,
            certified_sup_norm=float(cones.heights.max()),
            support_radius=cones.support[0],
        )

    return build
