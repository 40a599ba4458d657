"""Certificates of polynomial nonnegativity via perturbed sums of squares.

The package certifies nonnegativity on boxes and on basic closed
semialgebraic sets by computing, for a chosen perturbation family, the
minimal weight at which the perturbed polynomial becomes a sum of squares
(or a member of the truncated preordering), together with explicit square
decompositions.  A primal-dual interior-point solver with sparse
constraint data is embedded; no external SDP solver is required.
"""

from .errors import (ConvergenceFailureError, DegreeTooLowError,
                     DimensionMismatchError, IncompleteMomentsError,
                     NoSamplesAcceptedError, NotFoundWithinRMaxError,
                     NotPsdError, ParseError, SolverFailureError,
                     TooManyGeneratorsError, VariableOutOfRangeError)
from .moments import MomentVector, moment_matrix, psd_check
from .parsing import parse, unparse
from .polynomials import (MonomialBasis, Multidegree, Polynomial, grlex_key,
                          multidegrees_upto, scale_box, theta_big, theta_small)
from .preorder import (PreorderCertificate, PreorderTerm, SemialgebraicSystem,
                       build_preorder_sdp, epsilon_star_preorder, load_system,
                       membership, verify_preorder_obj)
from .probe import ProbeReport, run_probe
from .rng import SplitMix64
from .sdp import SdpProblem, SdpSolution, SolveStatus, solve
from .sos import (ApproximationResult, GramCertificate, THETA_BIG, THETA_SMALL,
                  approximate_on_box, epsilon_star, extract_certificate, is_sos,
                  minimal_r, perturbation_polynomial, verify_certificate,
                  verify_certificate_obj)

__version__ = "0.1.0"
