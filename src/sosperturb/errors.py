"""Exception types shared across the package."""

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


class HypothesisUnmetError(ValueError):
    """A verifier's hypothesis (as opposed to its conclusion) failed."""


class ConvergenceFailureError(RuntimeError):
    """Dense eigendecomposition did not converge."""


class SolverFailureError(RuntimeError):
    """The SDP solver did not reach an optimal solution."""

    def __init__(self, message: str, solution=None):
        super().__init__(message)
        self.solution = solution


class NotFoundWithinRMaxError(RuntimeError):
    """The degree sweep exhausted r_max. Carries the trajectory: one
    {r, min_eps, status} entry per degree, with min_eps None for a degree
    that has no minimal weight (status "degree-too-low", "infeasible" or
    "solver-failed").  A degree whose minimal weight eps covers but whose
    feasibility re-solve gave no decomposition keeps its min_eps, with
    status "weight-ok-decomposition-failed"; every other degree with a
    minimal weight has status "ok"."""

    def __init__(self, message: str, trajectory):
        super().__init__(message)
        self.trajectory = list(trajectory)


class NoSamplesAcceptedError(RuntimeError):
    """Every random sample failed the nonnegativity grid filter."""
