"""Fold-point finder for sublinear-plus-superlinear Dirichlet systems."""

from .errors import (ConeError, ConvergenceError, FoldFinderError,
                     GridMismatchError, NoFoldError, SigmaError,
                     SingularBorderError)
from .mesh import (Grid, apply_laplacian, build_grid, inner_product, norm,
                   principal_laplacian_eigenvalue,
                   principal_laplacian_eigenvector)
from .linalg import (LinearOperator, factor_bordered, smallest_eigenpair,
                     solve_counter)
from .model import (HypothesisReport, ModelSpec, abc_model, coupled_model,
                    eval_G, eval_g, eval_g_jacobian, make_model,
                    validate_hypotheses, zero_model)
from .energy import (State, hessian_operator, make_state, phi, phi_grad,
                     rayleigh_ext, rayleigh_nl)
from .spectrum import StabilityResult, stability_index, stability_tolerance
from .nehari import SolveReport, newton_solve, solve_stable
from .cw import CwCandidate, cw_ascend, cw_value, upper_bound_lambda
from .fold import (Branch, BranchRecord, FoldDetection, FoldPoint,
                   continue_branch, detect_fold, find_fold_continuation,
                   find_fold_direct, fold_from_candidate, moore_spence_solve)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
