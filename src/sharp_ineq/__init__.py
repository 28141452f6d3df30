"""Sharp constants, extremal functions, and operators for smoothness
inequalities on half-line/line product spaces and their lattices.

The package computes both sides of a family of sharp bounds — averaged
deviation, sup-norm, upper-gradient, charge, hypersingular, and mixed
difference inequalities — at their extremal witnesses, verifies equality
exactly on lattices (rational arithmetic) and to quadrature tolerance on
the continuum, and traces the best-approximation curve of the identity by
bounded averaging operators.
"""

from ._quad import QuadratureError, adaptive_simpson, bisect_increasing, piecewise_power_integral
from .calculus import (
    CLOSED_FORM,
    LATTICE_EXACT,
    MONTE_CARLO,
    RADIAL1D,
    CertificationError,
    Estimate,
    FunctionModel,
    QuadratureSpec,
    ball_integral_at,
    ball_integral_of_modulus,
    constant_model,
    default_spec,
    l1_norm,
    seminorm_local,
    sup_norm,
)
from .extremals import (
    SplitPoint,
    ball_deficiency,
    bump_box_integral,
    make_G_eh,
    make_f_e_omega,
    make_f_eh,
    make_f_omega,
    sobolev_extremal_pair,
    split_point_a,
)
from .modulus import (
    Modulus,
    PowerModulus,
    TableModulus,
    from_config as modulus_from_config,
)
from .operators import (
    EQUALITY_TOLS,
    THEOREM_IDS,
    VERDICT_EQUALITY,
    VERDICT_HOLDS,
    VERDICT_VIOLATED,
    InequalityReport,
    PowerLawKernel,
    StechkinPoint,
    TableKernel,
    charge_seminorm,
    classify_verdict,
    hypersingular_full,
    kernel_ball_mass,
    kernel_from_config,
    kernel_tail_mass,
    mixed_multiplicative_constant,
    mixed_multiplicative_rhs,
    mixed_nagy_rhs,
    modulus_label,
    nagy_l1_rhs,
    nagy_rhs,
    optimal_h,
    ostrowski_bound,
    sobolev_rhs,
    solve_h_for_measure,
    stechkin_curve,
    steklov_average,
    theorem_report,
)
from .oracle import (
    EXACT_THEOREMS,
    MC_CHECKS,
    ExactFunction,
    SuiteReport,
    exact_f_eh,
    exact_f_omega,
    exact_holder_constant,
    exact_verify,
    mc_cross_check,
    random_suite,
)
from .space import RequestError, Space, continuum, lattice, strict_int_below

__version__ = "0.1.0"
