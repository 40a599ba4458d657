"""Exception types shared across the package.

`NotFoundWithinRMaxError` also carries the degree sweep's verdict, which
the command line turns into its exit code.
"""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed polynomial text. Carries the character position of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VariableOutOfRangeError(ParseError):
    """Variable index outside 1..n_vars."""


class DimensionMismatchError(ValueError):
    """Operands declare different numbers of variables."""


class DegreeTooLowError(ValueError):
    """Requested relaxation degree 2r cannot accommodate the input degree."""


class TooManyGeneratorsError(ValueError):
    """Generator count exceeds the 2^s block budget."""


class NotPsdError(ValueError):
    """A matrix required to be positive semidefinite has a significantly
    negative eigenvalue."""


class IncompleteMomentsError(ValueError):
    """Moment vector does not cover every multidegree up to its order."""


class ConvergenceFailureError(RuntimeError):
    """Dense eigendecomposition did not converge."""


class SolverFailureError(RuntimeError):
    """The SDP solver did not reach an optimal solution; solution is the
    SdpSolution that says how it ended."""

    def __init__(self, message: str, solution):
        super().__init__(message)
        self.solution = solution


class NotFoundWithinRMaxError(RuntimeError):
    """The degree sweep exhausted r_max. Carries the trajectory: one
    {r, min_eps, status} entry per degree, with min_eps None for a degree
    that has no minimal weight (status "degree-too-low", "infeasible" or
    "solver-failed").  A degree whose minimal weight eps covers but whose
    feasibility re-solve gave no decomposition keeps its min_eps, with
    status "weight-ok-decomposition-failed"; every other degree with a
    minimal weight has status "ok".

    status is the sweep's verdict, with the degrees it rests on: None, and
    no degrees, for a definite "no"; "decomposition-failed" or
    "solver-failed" when eps was covered, or may have been, at degrees
    that failed to decompose or whose weight solve failed."""

    def __init__(self, message: str, trajectory, status=None, degrees=()):
        super().__init__(message)
        self.trajectory = list(trajectory)
        self.status = status
        self.degrees = list(degrees)


class NoSamplesAcceptedError(RuntimeError):
    """Every random sample failed the nonnegativity grid filter."""
