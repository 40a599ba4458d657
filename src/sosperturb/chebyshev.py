"""Tensor Chebyshev basis on the box and its exact change to monomials.

T_alpha(x) = T_alpha1(x_1) * ... * T_alphan(x_n), with T_k the Chebyshev
polynomial of the first kind.  The T_gamma with |gamma| <= d span the same
space as the monomials of total degree <= d, and the change of basis is
exact in integers in both directions:

    T_k   = sum_j t_kj x^j                  (t_kj integers)
    x^k   = 2^-k sum_j c_kj T_j             (c_kj = C(k, (k-j)/2), doubled
                                             for j > 0; j = k mod 2)

Products stay in the basis through T_a * T_b = (T_{a+b} + T_{|a-b|}) / 2
in each coordinate, which halves exactly in floating point.  On [-1, 1]^n
every T_gamma is bounded by 1, so coefficient-matching programs stated in
this basis avoid the Hankel-type conditioning of monomial moments.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List

import numpy as np

from .polynomials import MonomialBasis, Multidegree, Polynomial

ChebyshevSeries = Dict[Multidegree, float]


def _t_in_monomials(k: int) -> List[int]:
    """Integer monomial coefficients of T_k, lowest degree first."""
    prev, cur = [1], [0, 1]
    if k == 0:
        return prev
    for _ in range(k - 1):
        nxt = [0] + [2 * c for c in cur]
        for j, c in enumerate(prev):
            nxt[j] -= c
        prev, cur = cur, nxt
    return cur


def _monomial_in_t(k: int) -> Dict[int, int]:
    """Integer numerators c_kj with x^k = 2^-k sum_j c_kj T_j."""
    return {k - 2 * i: math.comb(k, i) * (2 if k - 2 * i > 0 else 1)
            for i in range(k // 2 + 1)}


def monomial_to_chebyshev(beta: Multidegree) -> ChebyshevSeries:
    """Chebyshev coefficients of x^beta, each a dyadic rational.

    The integer numerator is formed exactly and rounded once to a double;
    the power-of-two denominator is applied exactly.
    """
    out: ChebyshevSeries = {}
    rows = [sorted(_monomial_in_t(b).items()) for b in beta]
    shift = -sum(beta)
    for combo in itertools.product(*rows):
        gamma = tuple(j for j, _ in combo)
        out[gamma] = math.ldexp(float(math.prod(c for _, c in combo)), shift)
    return out


def to_chebyshev(poly: Polynomial) -> ChebyshevSeries:
    """Chebyshev coefficients of a polynomial in monomials.

    Every monomial converts exactly; the contributions to each T_gamma are
    summed with fsum, and nothing is dropped for being small.
    """
    parts: Dict[Multidegree, List[float]] = {}
    for beta, c in poly.sorted_terms():
        for gamma, w in monomial_to_chebyshev(beta).items():
            parts.setdefault(gamma, []).append(c * w)
    out = {g: math.fsum(v) for g, v in parts.items()}
    return {g: c for g, c in out.items() if c != 0.0}


def times_t(alpha: Multidegree, series: ChebyshevSeries) -> ChebyshevSeries:
    """T_alpha * series, expanded coordinate-wise by the product rule."""
    out: ChebyshevSeries = {}
    for delta, c in series.items():
        options = []
        for a, d in zip(alpha, delta):
            if a == 0 or d == 0:
                options.append(((a + d, 1.0),))
            else:
                options.append(((a + d, 0.5), (abs(a - d), 0.5)))
        for combo in itertools.product(*options):
            gamma = tuple(k for k, _ in combo)
            out[gamma] = out.get(gamma, 0.0) + c * math.prod(w for _, w in combo)
    return out


def monomial_matrix(basis: MonomialBasis) -> np.ndarray:
    """P with row i holding the monomial coefficients of T_(entry i).

    Both index sets are the basis entries, so z_T = P z for the vectors of
    Chebyshev and monomial basis functions, and a Gram matrix Q over the
    T_alpha is the Gram matrix P^T Q P over the monomials.
    """
    n = len(basis)
    tables = [_t_in_monomials(k) for k in range(basis.max_degree + 1)]
    P = np.zeros((n, n))
    for i, alpha in enumerate(basis.entries):
        for combo in itertools.product(
                *[[(j, c) for j, c in enumerate(tables[a]) if c] for a in alpha]):
            beta = tuple(j for j, _ in combo)
            P[i, basis.index_of(beta)] = float(math.prod(c for _, c in combo))
    return P


def moments_to_monomials(
    values: Dict[Multidegree, float], betas: List[Multidegree]
) -> Dict[Multidegree, float]:
    """L(x^beta) = sum_gamma C_beta,gamma L(T_gamma) for each beta.

    `values` maps gamma to L(T_gamma) and must cover every gamma of total
    degree <= max |beta|.
    """
    return {
        beta: math.fsum(w * values[gamma]
                        for gamma, w in monomial_to_chebyshev(beta).items())
        for beta in betas
    }
