"""Finite-difference solvers for fourth-order Monge-Ampere boundary value
problems on intervals, disks, and ellipses.

Set ABREU_BVP_THREADS to control the BLAS thread count; the default pins
the linear algebra backends to one thread, which is faster at these problem
sizes and keeps runs reproducible.
"""

import os as _os

_threads = _os.environ.get("ABREU_BVP_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, _threads)

from .exceptions import (ConfigError, ContinuationError, ConvexityLossError,
                         DomainError, EllipticityError, ExpressionError,
                         GridResolutionError, NewtonDivergenceError,
                         SingularSystemError, SolverError, WFloorError)
from .mesh import (DomainSpec, Grid, MatrixField, ScalarField,
                   boundary_normal_derivative, build_grid, cofactor,
                   cofactor_divergence, det_field, extend_to_boundary,
                   gauss_curvature, hessian, integrate_boundary,
                   integrate_interior, is_positive_definite)
from .gfamily import GSpec, g_eval, invert_w, verify_assumptions
from .lin_ma import assemble_operator, linearized_residual, solve_linearized
from .ma_dirichlet import MAOptions, ma_residual, solve_ma
from .problem import Problem
from .continuation import (ContinuationOptions, Solution, phi_map,
                           solve_second_bvp)
from .functionals import (ConcavityProbe, GradientCheck, PropernessResult,
                          concavity_probe, el_residual, eval_F, eval_L,
                          gradient_check, properness_probe)
from .oned_oracle import (NonexistenceCertificate, OneDProblem,
                          existence_threshold_1d, solve_exact_1d)
from .estimates import (DiagnosticsReport, ReportEntry,
                        boundary_cofactor_check, gradient_lower_bound_check,
                        max_principle_check, standard_diagnostics,
                        wd_bound_check)
from .expressions import Expression, parse_expression
from .config import RunConfig, parse_config

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ContinuationError", "ConvexityLossError", "DomainError",
    "EllipticityError", "ExpressionError", "GridResolutionError",
    "NewtonDivergenceError", "SingularSystemError", "SolverError",
    "WFloorError",
    "DomainSpec", "Grid", "MatrixField", "ScalarField",
    "boundary_normal_derivative", "build_grid", "cofactor",
    "cofactor_divergence", "det_field", "extend_to_boundary",
    "gauss_curvature", "hessian", "integrate_boundary", "integrate_interior",
    "is_positive_definite",
    "GSpec", "g_eval", "invert_w", "verify_assumptions",
    "assemble_operator", "linearized_residual", "solve_linearized",
    "MAOptions", "ma_residual", "solve_ma",
    "Problem",
    "ContinuationOptions", "Solution", "phi_map", "solve_second_bvp",
    "ConcavityProbe", "GradientCheck", "PropernessResult",
    "concavity_probe", "el_residual", "eval_F", "eval_L", "gradient_check",
    "properness_probe",
    "NonexistenceCertificate", "OneDProblem", "existence_threshold_1d",
    "solve_exact_1d",
    "DiagnosticsReport", "ReportEntry", "boundary_cofactor_check",
    "gradient_lower_bound_check", "max_principle_check",
    "standard_diagnostics", "wd_bound_check",
    "Expression", "parse_expression",
    "RunConfig", "parse_config",
    "__version__",
]
