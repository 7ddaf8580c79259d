"""Grid-free sparse spike and non-uniform spline recovery from Chebyshev
moments, with total-variation regularization solved through a conic dual."""

from .chebyshev import (ChebPoly, ConstantDualError, arccos_distance,
                        endpoint_weight, eval_phi, eval_poly, unit_level_roots)
from .measures import (DiscreteMeasure, edge_distance, min_separation,
                       moments, separation_ok, tv_norm)
from .splines import (NonUniformSpline, boundary_vector,
                      distributional_derivative, integrate_from_spikes,
                      moments_via_transfer, projection_vector,
                      transfer_matrices)
from .observation import (Observation, assemble_y_from_projection,
                          lambda_algorithm, lambda_rice, rice_tail_bound,
                          scaled_sigma, simulate, theta_of_polynomial)
from .sdp import SdpProblem, SdpSolution, SdpStatus, solve as solve_sdp
from .blasso import (DualSolution, PrimalSolution, assemble_dual_sdp,
                     fit_weights, solve_blasso, verify_first_order)
from .certificates import (Certificate, SymmetrizedSupport, build_certificate,
                           symmetrize_support, verify_certificate)
from .diagnostics import (RecoveryConstants, RecoveryReport, global_control,
                          local_control, localization_radius,
                          prediction_margin, spline_jump_report)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
