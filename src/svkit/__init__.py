"""svkit: spectral-volume solvers for 1-D variable-coefficient advection.

Two spectral-volume variants (Gauss-partition LSV and sign-adaptive Radau
RSV) of arbitrary order, an upwind discontinuous Galerkin reference scheme,
RK4 time stepping, superconvergence error functionals, and a study harness
that reproduces convergence tables on the periodic domain [0, 2*pi].
"""

from .cases import CaseSpec, manufactured_case
from .dg import DGOperator
from .exceptions import (
    BelowRoundoffError,
    InvalidConfigError,
    NonConvergenceError,
    NonFiniteError,
    SingularMatrixError,
    SvkitError,
    UnknownCaseError,
)
from .mesh import (
    DOMAIN_LENGTH,
    FluxCoefficient,
    Mesh1D,
    Partition,
    Scheme,
    build_mesh,
    build_partition,
)
from .metrics import (
    ErrorReport,
    convergence_orders,
    error_report,
)
from .poly import (
    InterpKind,
    PiecewisePoly,
    broken_norm,
    interpolate,
    total_mass,
    triple_norm,
)
from .quadrature import RuleKind, make_rule
from .study import StudyConfig, StudyResult, emit_table, run_single, run_study
from .sv import SchemeConfig, SVOperator
from .timestep import integrate_to, rk4_step

__version__ = "0.1.0"

__all__ = [
    "BelowRoundoffError",
    "CaseSpec",
    "DGOperator",
    "DOMAIN_LENGTH",
    "ErrorReport",
    "FluxCoefficient",
    "InterpKind",
    "InvalidConfigError",
    "Mesh1D",
    "NonConvergenceError",
    "NonFiniteError",
    "Partition",
    "PiecewisePoly",
    "RuleKind",
    "Scheme",
    "SchemeConfig",
    "SingularMatrixError",
    "StudyConfig",
    "StudyResult",
    "SVOperator",
    "SvkitError",
    "UnknownCaseError",
    "broken_norm",
    "build_mesh",
    "build_partition",
    "convergence_orders",
    "emit_table",
    "error_report",
    "integrate_to",
    "interpolate",
    "make_rule",
    "manufactured_case",
    "rk4_step",
    "run_single",
    "run_study",
    "total_mass",
    "triple_norm",
]
