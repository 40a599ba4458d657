"""Reference SDP assemblies that only the tests use.

`build_gram_system` is the squares-side program as one Gram block with one
equality per monomial, without the forced-zero pruning and sign-symmetry
split of `sos._ReducedGram`; it enumerates its own pairs, so it shares no
assembly code with the routine it checks.  `build_moment_system` is the
moment-side program with the moment values as free variables, an oracle
solved independently of the squares side.
"""

import numpy as np

from sosperturb.polynomials import MonomialBasis, Polynomial, multidegrees_upto
from sosperturb.sdp import ConstraintRow, SdpProblem
from sosperturb.sos import _check_degrees


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
    rows = []
    for gamma in multidegrees_upto(f.n_vars, 2 * r):
        i, j = zip(*pairs[gamma])
        blocks = {0: (i, j, [1.0] * len(i))}
        p_coeff = p.coeff(gamma)
        if p_coeff != 0.0:
            blocks[1] = ([0], [0], [-p_coeff])
        rows.append(ConstraintRow(blocks, None, f.coeff(gamma)))
    return SdpProblem.from_rows(
        [len(basis), 1], 0, rows, objective_blocks={1: np.array([[1.0]])})


def build_moment_system(f: Polynomial, p: Polynomial, r: int) -> SdpProblem:
    """Moment-side SDP: minimize L(f) with L(p) <= 1 and PSD moment matrix.

    The moment values y_gamma are free scalars tied to the entries of the
    PSD moment-matrix block; the slack of L(p) <= 1 is a 1x1 block.  Its
    optimal value must be the negative of the squares-side value.
    """
    _check_degrees(f, p, r)
    basis = MonomialBasis.build(f.n_vars, r)
    gammas = multidegrees_upto(f.n_vars, 2 * r)
    gamma_index = {g: i for i, g in enumerate(gammas)}
    n = len(basis)
    k = len(gammas)

    rows = []
    for i in range(n):
        for j in range(i, n):
            gamma = tuple(x + y for x, y in zip(basis.entries[i], basis.entries[j]))
            free = np.zeros(k)
            free[gamma_index[gamma]] = -1.0
            entry = ([i], [j], [1.0 if i == j else 0.5])
            rows.append(ConstraintRow({0: entry}, free, 0.0))
    free = np.zeros(k)
    for gamma, c in p.terms.items():
        free[gamma_index[gamma]] = c
    rows.append(ConstraintRow({1: ([0], [0], [1.0])}, free, 1.0))

    objective_free = np.zeros(k)
    for gamma, c in f.terms.items():
        objective_free[gamma_index[gamma]] = c
    return SdpProblem.from_rows([n, 1], k, rows, {}, objective_free)
