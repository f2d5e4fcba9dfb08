"""Two-scale elliptic homogenization toolkit.

Builds the classical homogenization objects for locally periodic diffusion
matrices a(x, x/eps) on the unit torus (cell solutions, effective matrix,
flux deviations and their skew potentials, smoothed correctors, the
composed and double-averaged corrector operators) and measures the
operator-norm convergence of the resolvent approximations they define.
"""

from .assemble import assemble_diffusion, assemble_fine, assemble_homogenized, resolvent_op
from .cell import CellField, CellSolutions, build_cell_table, load_cell_table, save_cell_table
from .coefficients import CoefficientField, ValidationReport, builtin_family, validate_coefficient
from .config import ExperimentConfig, load_config
from .correctors import (CorrectorCoeffs, assemble_L, assemble_M, corrector_K,
                         corrector_Ktilde, corrector_coeffs, corrector_op,
                         drift_matrix_field, error_operators, full_corrector)
from .effective import (FluxCorrector, HomogenizedField, effective_matrix,
                        flux_corrector, vector_potential)
from .errors import ConfigError, SolveError
from .grids import GridFunction, TorusGrid, norms
from .operators import (DiscreteOperator, h1_gram_op, matrix_op, operator_norm,
                        transpose_defect)
from .smoothing import SmoothingSpec, shift, steklov, steklov_op
from .sweep import ConvergenceReport, emit_report, fit_rate, run_sweep

__all__ = [
    "CellField", "CellSolutions", "CoefficientField", "ConfigError",
    "ConvergenceReport", "CorrectorCoeffs", "DiscreteOperator",
    "ExperimentConfig", "FluxCorrector", "GridFunction", "HomogenizedField",
    "SmoothingSpec", "SolveError", "TorusGrid", "ValidationReport",
    "assemble_diffusion", "assemble_fine", "assemble_homogenized",
    "assemble_L", "assemble_M", "build_cell_table", "builtin_family",
    "corrector_K", "corrector_Ktilde", "corrector_coeffs", "corrector_op",
    "drift_matrix_field", "effective_matrix", "emit_report", "error_operators",
    "fit_rate", "flux_corrector", "full_corrector", "h1_gram_op",
    "load_cell_table", "load_config", "matrix_op", "norms", "operator_norm", "resolvent_op",
    "run_sweep", "save_cell_table", "shift", "steklov", "steklov_op",
    "transpose_defect",
    "validate_coefficient", "vector_potential",
]
