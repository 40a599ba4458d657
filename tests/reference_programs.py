"""Reference SDP assemblies that only the tests use.

`build_gram_system` is the squares-side program as one Gram block with one
equality per monomial, without the forced-zero pruning and sign-symmetry
split of `sos._ReducedGram`; it enumerates its own pairs, so it shares no
assembly code with the routine it checks.  `build_moment_system` is the
moment-side program with the moment values as free variables, an oracle
solved independently of the squares side.  `dense_entries` turns dense
coefficient matrices into the per-block arrays `SdpProblem.from_rows` takes.
"""

import numpy as np

from sosperturb.polynomials import MonomialBasis, Polynomial, multidegrees_upto
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

    The moment values y_gamma are free scalars tied to the entries of the
    PSD moment-matrix block; the slack of L(p) <= 1 is a 1x1 block.  Its
    optimal value must be the negative of the squares-side value.
    """
    _check_degrees(f, p, r)
    basis = MonomialBasis.build(f.n_vars, r)
    gammas = multidegrees_upto(f.n_vars, 2 * r)
    gamma_index = {g: i for i, g in enumerate(gammas)}
    n = len(basis)

    # one row per entry (i, j), i <= j, of the moment matrix, then L(p) <= 1
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    m = len(pairs) + 1
    free = np.zeros((m, len(gammas)))
    for row, (i, j) in enumerate(pairs):
        gamma = tuple(x + y for x, y in zip(basis.entries[i], basis.entries[j]))
        free[row, gamma_index[gamma]] = -1.0
    for gamma, c in p.terms.items():
        free[m - 1, gamma_index[gamma]] = c
    moment = (np.arange(len(pairs)), [i for i, _ in pairs], [j for _, j in pairs],
              [1.0 if i == j else 0.5 for i, j in pairs])
    slack = ([m - 1], [0], [0], [1.0])
    rhs = np.zeros(m)
    rhs[m - 1] = 1.0

    objective_free = np.zeros(len(gammas))
    for gamma, c in f.terms.items():
        objective_free[gamma_index[gamma]] = c
    return SdpProblem.from_rows([n, 1], [moment, slack], rhs, {}, free, objective_free)
