"""Reference SDP assemblies that only the tests use.

`build_gram_system` is the squares-side program as one Gram block with one
equality per monomial, without the forced-zero pruning and sign-symmetry
split of `sos._ReducedGram`; it enumerates its own pairs, so it shares no
assembly code with the routine it checks.  `build_moment_system` is the
moment-side program in standard form, the moment matrix as its PSD block
with Hankel ties as equalities, an oracle solved independently of the
squares side.  `dense_entries` turns dense coefficient matrices into the
per-block arrays `SdpProblem.from_rows` takes.  `atomic_moments` is the
moment vector of a finite atomic measure, a PSD input for the moment
verifiers.

The moment verifiers check consequences of PSD-ness that bound all
moments once the marginal even moments are bounded:

  * one-variable chain bound (`check_lemma1`): y_{2k} <= max(y_0, y_{2r})
    for k = 0..r;
  * product bound (`check_lemma3`): if every marginal even moment y over
    x_i^{2k} is <= tau, then |y_alpha| <= tau for all |alpha| <= 2r (any
    number of variables);
  * Cauchy-Schwarz (`cauchy_schwarz_check`): y_{alpha+beta}^2 <=
    y_{2 alpha} * y_{2 beta}.

They are verifiers over given vectors, not provers: a hypothesis failure is
reported distinctly (exception) from a conclusion failure (False), because
for genuinely PSD input a conclusion failure indicates a numerical bug.
"""

from typing import List, Optional, Tuple

import numpy as np

from sosperturb.errors import NotPsdError
from sosperturb.moments import (DEFAULT_LEMMA_TOL, MomentVector, moment_matrix,
                                psd_check)
from sosperturb.polynomials import (MonomialBasis, Multidegree, Polynomial,
                                    multidegrees_upto)
from sosperturb.sdp import SdpProblem
from sosperturb.sos import _check_degrees


def dense_entries(rows):
    """Per-block arrays (row, i, j, v) for `SdpProblem.from_rows`: rows[r][b]
    is the symmetric coefficient matrix of constraint r in block b, kept as
    the nonzeros of its upper triangle."""
    entries = []
    for b in range(len(rows[0])):
        parts = []
        for r, row in enumerate(rows):
            mat = np.asarray(row[b], dtype=float)
            assert np.array_equal(mat, mat.T)
            i, j = np.nonzero(np.triu(mat))
            parts.append((np.full(i.size, r), i, j, mat[i, j]))
        entries.append(tuple(np.concatenate(column) for column in zip(*parts)))
    return entries


def build_gram_system(f: Polynomial, p: Polynomial, r: int) -> SdpProblem:
    """Squares-side SDP for f + eps*p at basis degree r.

    Block 0 is the Gram matrix over the degree-r basis, block 1 the 1x1 eps
    block; one equality per monomial of degree <= 2r, ordered graded lex.
    """
    _check_degrees(f, p, r)
    basis = MonomialBasis.build(f.n_vars, r)
    pairs = {}
    for i, a in enumerate(basis.entries):
        for j, b in enumerate(basis.entries[i:], i):
            pairs.setdefault(tuple(x + y for x, y in zip(a, b)), []).append((i, j))
    gram, eps = ([], [], [], []), ([], [], [], [])
    gammas = multidegrees_upto(f.n_vars, 2 * r)
    for row, gamma in enumerate(gammas):
        for i, j in pairs[gamma]:
            for column, x in zip(gram, (row, i, j, 1.0)):
                column.append(x)
        if p.coeff(gamma) != 0.0:
            for column, x in zip(eps, (row, 0, 0, -p.coeff(gamma))):
                column.append(x)
    return SdpProblem.from_rows(
        [len(basis), 1], [gram, eps], [f.coeff(g) for g in gammas],
        objective_blocks={1: np.array([[1.0]])})


def build_moment_system(f: Polynomial, p: Polynomial, r: int) -> SdpProblem:
    """Moment-side SDP: minimize L(f) with L(p) <= 1 and PSD moment matrix.

    Block 0 is the moment matrix X = M_r(y); the first pair (i, j), i <= j,
    of each gamma holds y_gamma, and every other pair of gamma is tied to it
    by the equality X_ij - X_rep(gamma) = 0.  The last row is L(p) + s = 1
    with the slack s a 1x1 block.  Its optimal value must be the negative of
    the squares-side value.
    """
    _check_degrees(f, p, r)
    basis = MonomialBasis.build(f.n_vars, r)
    n = len(basis)

    # a COO entry at (i, j) sits at (j, i) too: weight 1/2 off the diagonal
    # puts coefficient 1 on X_ij
    def weight(i, j):
        return 1.0 if i == j else 0.5

    rep = {}
    moment = ([], [], [], [])
    row = 0
    for i in range(n):
        for j in range(i, n):
            gamma = tuple(x + y for x, y in zip(basis.entries[i], basis.entries[j]))
            if gamma not in rep:
                rep[gamma] = (i, j)
                continue
            ri, rj = rep[gamma]
            for column, x in zip(moment, (row, i, j, weight(i, j))):
                column.append(x)
            for column, x in zip(moment, (row, ri, rj, -weight(ri, rj))):
                column.append(x)
            row += 1
    for gamma, c in p.terms.items():
        ri, rj = rep[gamma]
        for column, x in zip(moment, (row, ri, rj, c * weight(ri, rj))):
            column.append(x)
    slack = ([row], [0], [0], [1.0])
    rhs = np.zeros(row + 1)
    rhs[row] = 1.0

    objective = np.zeros((n, n))
    for gamma, c in f.terms.items():
        ri, rj = rep[gamma]
        objective[ri, rj] = objective[rj, ri] = c * weight(ri, rj)
    return SdpProblem.from_rows([n, 1], [moment, slack], rhs, {0: objective})


def atomic_moments(n_vars, order, atoms) -> MomentVector:
    """Moments of a finite atomic measure sum_j w_j * delta(point_j), atoms
    the pairs (point_j, w_j), up to the given order."""
    atoms = [(tuple(pt), float(w)) for pt, w in atoms]
    values = {}
    for alpha in multidegrees_upto(n_vars, order):
        total = 0.0
        for pt, w in atoms:
            term = w
            for x, e in zip(pt, alpha):
                if e:
                    term *= x ** e
            total += term
        values[alpha] = total
    return MomentVector(n_vars, order, values)


class HypothesisUnmetError(ValueError):
    """A verifier's hypothesis (as opposed to its conclusion) failed."""


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
