"""Two-scale elliptic homogenization toolkit.

Builds the classical homogenization objects for locally periodic diffusion
matrices a(x, x/eps) on the unit torus and measures the operator-norm
convergence of the resolvent approximations they define.  Each object has
one form, the one the sweep computes with: arrays for the cell solutions,
flux deviations and skew potentials, a rolled node array for Zhikov's
shift, CSR matrices for the Steklov average and the smoothed correctors,
and LinearOperators for the composed corrector operators.
"""

from .assemble import assemble_diffusion, assemble_fine, assemble_homogenized, resolvent_op
from .cell import CellSolutions, build_cell_table, load_cell_table, save_cell_table
from .coefficients import CoefficientField, ValidationReport, builtin_family, validate_coefficient
from .config import ExperimentConfig, load_config
from .correctors import (CorrectorCoeffs, assemble_L, assemble_M, corrector_coeffs,
                         corrector_matrix, corrector_op, drift_matrix_field,
                         error_operators, full_corrector)
from .effective import HomogenizedField, effective_matrix, flux_corrector, vector_potential
from .errors import ConfigError, SolveError
from .grids import TorusGrid
from .operators import (DiscreteOperator, h1_gram_op, matrix_op, operator_norm,
                        transpose_defect)
from .smoothing import SmoothingSpec, shift, steklov_op
from .sweep import ConvergenceReport, emit_report, fit_rate, run_sweep

__all__ = [
    "CellSolutions", "CoefficientField", "ConfigError",
    "ConvergenceReport", "CorrectorCoeffs", "DiscreteOperator",
    "ExperimentConfig", "HomogenizedField", "SmoothingSpec", "SolveError",
    "TorusGrid", "ValidationReport",
    "assemble_diffusion", "assemble_fine", "assemble_homogenized",
    "assemble_L", "assemble_M", "build_cell_table", "builtin_family",
    "corrector_coeffs", "corrector_matrix", "corrector_op",
    "drift_matrix_field", "effective_matrix", "emit_report", "error_operators",
    "fit_rate", "flux_corrector", "full_corrector", "h1_gram_op",
    "load_cell_table", "load_config", "matrix_op", "operator_norm", "resolvent_op",
    "run_sweep", "save_cell_table", "shift", "steklov_op", "transpose_defect",
    "validate_coefficient", "vector_potential",
]
