"""Moment vectors, moment matrices and their PSD check.

A moment vector assigns a value y_alpha to every multidegree with
|alpha| <= 2r; it represents a linear form on polynomials of degree <= 2r.
The induced moment matrix M[alpha, beta] = y_{alpha+beta} over the degree-r
monomial basis is PSD exactly when the form is nonnegative on squares.
`moment_matrix` and `psd_check` are the float check of that condition;
the verifiers of the paper's moment bounds (the chain bound, the product
bound and Cauchy-Schwarz) are test references in
`tests/reference_programs.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .errors import IncompleteMomentsError
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
