"""Moment vectors, moment matrices, and boundedness verifiers.

A moment vector assigns a value y_alpha to every multidegree with
|alpha| <= 2r; it represents a linear form on polynomials of degree <= 2r.
The induced moment matrix M[alpha, beta] = y_{alpha+beta} over the degree-r
monomial basis is PSD exactly when the form is nonnegative on squares.

The verifiers below check consequences of PSD-ness that bound all moments
once the marginal even moments are bounded:

  * one-variable chain bound:  y_{2k} <= max(y_0, y_{2r})  for k = 0..r;
  * product bound: if every marginal even moment y over x_i^{2k} is <= tau,
    then |y_alpha| <= tau for all |alpha| <= 2r (any number of variables);
  * Cauchy-Schwarz: y_{alpha+beta}^2 <= y_{2 alpha} * y_{2 beta}.

They are verifiers over given vectors, not provers: a hypothesis failure is
reported distinctly (exception) from a conclusion failure (False), because
for genuinely PSD input a conclusion failure indicates a numerical bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import HypothesisUnmetError, IncompleteMomentsError, NotPsdError
from .polynomials import (Multidegree, MonomialBasis, grlex_key,
                          multidegrees_upto)
from .sdp import min_eigenvalue

DEFAULT_LEMMA_TOL = 1e-7


@dataclass
class MomentVector:
    """Values y_alpha for every |alpha| <= order (order = 2r)."""

    n_vars: int
    order: int
    values: Dict[Multidegree, float]

    def __post_init__(self):
        expected = multidegrees_upto(self.n_vars, self.order)
        missing = [a for a in expected if a not in self.values]
        if missing:
            raise IncompleteMomentsError(
                f"moment vector missing {len(missing)} entries up to order "
                f"{self.order}, first {missing[0]}")
        self.values = {a: float(self.values[a]) for a in expected}

    def __getitem__(self, alpha: Multidegree) -> float:
        return self.values[tuple(alpha)]

    def to_obj(self) -> dict:
        return {
            "order": self.order,
            "nvars": self.n_vars,
            "values": [
                {"exponents": list(a), "value": v}
                for a, v in sorted(self.values.items(), key=lambda it: grlex_key(it[0]))
            ],
        }

    @staticmethod
    def from_obj(obj: dict) -> "MomentVector":
        values = {tuple(e["exponents"]): float(e["value"]) for e in obj["values"]}
        return MomentVector(int(obj["nvars"]), int(obj["order"]), values)


def moment_matrix(y: MomentVector, r: int) -> np.ndarray:
    """M[alpha, beta] = y_{alpha+beta} over the degree-r basis, in its
    graded-lex order.

    Entries that share alpha+beta are the identical float, so the matrix is
    Hankel-consistent by construction.
    """
    if y.order < 2 * r:
        raise IncompleteMomentsError(
            f"moment vector of order {y.order} cannot fill a degree-{r} matrix")
    basis = MonomialBasis.build(y.n_vars, r)
    n = len(basis)
    mat = np.empty((n, n))
    for i, a in enumerate(basis.entries):
        for j in range(i, n):
            b = basis.entries[j]
            v = y[tuple(x + z for x, z in zip(a, b))]
            mat[i, j] = v
            mat[j, i] = v
    return mat


def psd_check(M: np.ndarray, tol: float = DEFAULT_LEMMA_TOL) -> bool:
    return min_eigenvalue(M) >= -tol


def check_lemma1(y: MomentVector, r: int, tol: float = DEFAULT_LEMMA_TOL) -> bool:
    """One-variable even-moment chain bound y_{2k} <= max(y_0, y_{2r})."""
    if y.n_vars != 1:
        raise ValueError("the chain bound is a one-variable statement")
    if not psd_check(moment_matrix(y, r), tol):
        raise NotPsdError("moment matrix is not PSD; hypothesis unmet")
    cap = max(y[(0,)], y[(2 * r,)])
    return all(y[(2 * k,)] <= cap + tol for k in range(r + 1))


def check_lemma3(
    y: MomentVector, r: int, tau: float, tol: float = DEFAULT_LEMMA_TOL
) -> bool:
    """All-moment bound |y_alpha| <= tau from bounded marginal even moments.

    The two-variable case of the same statement is exercised by calling this
    with n_vars = 2; it needs no separate code path.
    """
    if not psd_check(moment_matrix(y, r), tol):
        raise NotPsdError("moment matrix is not PSD; hypothesis unmet")
    for i in range(y.n_vars):
        for k in range(r + 1):
            alpha = tuple(2 * k if j == i else 0 for j in range(y.n_vars))
            if y[alpha] > tau + tol:
                raise HypothesisUnmetError(
                    f"marginal moment at {alpha} is {y[alpha]:.6g} > tau={tau}")
    return all(abs(v) <= tau + tol
               for a, v in y.values.items() if sum(a) <= 2 * r)


def cauchy_schwarz_check(
    y: MomentVector, r: int, tol: float = DEFAULT_LEMMA_TOL
) -> Tuple[bool, Optional[Tuple[Multidegree, Multidegree]]]:
    """y_{a+b}^2 <= y_{2a} y_{2b} for all |a|, |b| <= r.

    Returns (True, None) or (False, (a, b)) with the first violating pair.
    """
    if not psd_check(moment_matrix(y, r), tol):
        raise NotPsdError("moment matrix is not PSD; hypothesis unmet")
    degs: List[Multidegree] = multidegrees_upto(y.n_vars, r)
    for a in degs:
        for b in degs:
            lhs = y[tuple(x + z for x, z in zip(a, b))] ** 2
            rhs = y[tuple(2 * x for x in a)] * y[tuple(2 * z for z in b)]
            if lhs > rhs + tol:
                return False, (a, b)
    return True, None
