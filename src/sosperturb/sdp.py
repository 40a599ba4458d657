"""Primal-dual interior-point solver for small block SDPs with sparse data.

Problem form (minimization convention):

    minimize    sum_b <C_b, X_b>
    subject to  sum_b <A_(i,b), X_b>  =  b_i,   i = 1..m
                X_b positive semidefinite

and its dual

    maximize    b . y
    subject to  sum_i y_i A_(i,b)  +  S_b  =  C_b,   S_b PSD.

The iteration is Mehrotra-style predictor-corrector path following with
Nesterov-Todd scaling.  Per block the scaling matrix is

    W = L (L^T S L)^{-1/2} L^T,      X = L L^T (Cholesky),

which satisfies W S W = X, and the linearized complementarity equation is

    dX + W dS W = Rc,    Rc = sigma*mu*S^{-1} - X - symm(dXa dSa S^{-1})

with (dXa, dSa) the affine direction.  Eliminating dX and dS leaves the
Schur system in dy alone

    M dy = h,        M_ij = sum_b <A_i, W A_j W>

solved by Jacobi-scaled dense Cholesky of M and a few steps of iterative
refinement.  In double the factor is numpy's LAPACK Cholesky and solves go
through its inverse; in longdouble, which LAPACK does not cover, a column
loop factors and substitutes.  The solver needs numpy alone.

The iterates live in one flat vector in which blocks of equal size sit
next to each other, so each size group is a (k, n, n) view.  Cholesky
factors, inverse factors, the SVD of the scaling, the step-length
eigenvalues and every blockwise product run once per size group through
numpy's stacked routines (one LAPACK call per matrix, no Python loop over
blocks), as in the block-diagonal handling of SDPA and SDPT3.  Sums over
blocks (mu and the objectives) keep one partial sum per block, added in
the caller's block order.

Constraint data stays sparse.  Each block's constraints are COO triples
(row, i, j, value), as the assembly emits them, mirrored once per solve
into triples over the flat layout, so A(X) and A^T(y) are one sparse
product each: a gather, one product per triple and an ordered scatter-add
(`_SparseMap`).  The Schur complement exploits the sparsity on both
sides, after Fujisawa, Kojima and Nakata (Math. Prog. 79, 1997): per
block, and only over the constraints that block touches, A_j W is a
sparse product, T_j = W A_j W comes from one dense matrix product for
many j at once, and M_ij = sum over the triples (p, q, v) of A_i of
v * T_j[p, q].  Every sparse product adds its terms one by one in the
order of a CSR product with sorted indices, starting from zero, as
scipy.sparse's kernels do (the tests check this bit for bit): near the
edge of what the iteration resolves (scripts/knife_edge.py) the order of
these sums decides whether a program reaches Optimal.

A solve ends through one exit per status.  Every numerical failure of an
iteration (a numpy routine that raises LinAlgError, a singular scaling, a
Schur matrix that factors at no ridge, a step below 1e-10, or a
backtracking that never gets back inside the cone) raises LinAlgError
with its cause; `solve` catches it in one place, logs
`numerical trouble at iteration k: <cause>` at debug level and ends
NumericalTrouble.

Everything is deterministic: fixed initialization (identity scaled by
1 + max|b_i|), no randomization, and the same inputs take the same branch
sequence.  Infeasibility is reported heuristically when the dual objective
diverges; no Farkas certificate is produced.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceFailureError

log = logging.getLogger(__name__)

_SYMMETRY_TOL = 1e-12
# a dual objective above this reads as a certificate of primal infeasibility
INFEASIBILITY_THRESHOLD = 1e8
# largest PSD block `solve` accepts
MAX_BLOCK_SIZE = 400
# a solve is Optimal once the relative gap is at most GAP_TOLERANCE and the
# scaled primal and dual residuals at most FEAS_TOLERANCE; it stops as
# IterationLimit after MAX_ITERATIONS.  `solve` reads all three at call
# time.
GAP_TOLERANCE = 1e-8
FEAS_TOLERANCE = 1e-8
MAX_ITERATIONS = 200


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    NUMERICAL_TROUBLE = "NumericalTrouble"
    PRIMAL_LIKELY_INFEASIBLE = "PrimalLikelyInfeasible"
    ITERATION_LIMIT = "IterationLimit"


# COO storage of one block's constraints: the triple (row, i, j, v), i <= j,
# puts v at (i, j) and (j, i) of the coefficient matrix of constraint `row`
COO_DTYPE = np.dtype([("row", np.int32), ("i", np.int32), ("j", np.int32),
                      ("v", np.float64)])

# the constraints of one block as parallel sequences (row, i, j, v): each
# entry puts v at (i, j) and (j, i) of the coefficient matrix of constraint
# `row`, and repeated positions add up
Entries = Tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[float]]


def _checked_symmetric(mat, tol: float, size: Optional[int] = None) -> np.ndarray:
    """mat as floats, symmetrized; a ValueError unless it is size x size
    (when a size is given) and symmetric within tol * (1 + max |mat|)."""
    mat = np.asarray(mat, dtype=float)
    if size is not None and mat.shape != (size, size):
        raise ValueError(f"coefficient matrix shape {mat.shape} != ({size},{size})")
    if np.max(np.abs(mat - mat.T), initial=0.0) > tol * (1 + np.max(np.abs(mat), initial=0.0)):
        raise ValueError("matrix is not symmetric")
    return _sym(mat)


def _canonical_entries(row, i, j, v, nb: int):
    """Entries with i <= j, sorted by (row, i, j), repeats summed, zeros
    dropped."""
    if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= nb):
        raise ValueError(f"entry index out of range for block size {nb}")
    key = (row * nb + np.minimum(i, j)) * nb + np.maximum(i, j)
    key, inverse = np.unique(key, return_inverse=True)
    v = np.bincount(inverse, weights=v, minlength=key.size)
    keep = v != 0.0
    key, v = key[keep], v[keep]
    return key // (nb * nb), key // nb % nb, key % nb, v


class SdpProblem:
    """Immutable standard-form problem; build via from_rows.

    A holds one COO_DTYPE array per block, sorted by (row, i, j).
    """

    def __init__(self, block_sizes, A, b, C):
        self.block_sizes: Tuple[int, ...] = tuple(block_sizes)
        self.A = A          # list over blocks of COO_DTYPE arrays, sorted by row
        self.b = b          # (m,)
        self.C = C          # list of (nb, nb)
        # zero-width (m, 0) placeholder: its only reader is the benchmark
        # tracer (bench/tracing.py:58 adds problem.F.nbytes), and it goes
        # with the benchmark's refresh (ROADMAP direction 4)
        self.F = np.zeros((b.shape[0], 0))

    @property
    def n_constraints(self) -> int:
        return self.b.shape[0]

    @staticmethod
    def from_rows(
        block_sizes: Sequence[int],
        entries: Sequence[Entries],
        rhs: Sequence[float],
        objective_blocks: Dict[int, np.ndarray],
    ) -> "SdpProblem":
        """Validate the constraints sum_b <A_(i,b), X_b> = rhs[i] and store
        them as COO triples.

        entries[b] holds block b's parallel arrays (row, i, j, v), rows
        numbered 0..m-1 with m = len(rhs) >= 1.  Each block's triples are
        kept with i <= j, sorted by (row, i, j), repeats summed and zeros
        dropped, the form `_Constraints` relies on.
        """
        block_sizes = tuple(int(s) for s in block_sizes)
        if any(s < 1 for s in block_sizes):
            raise ValueError("block sizes must be positive")
        if len(entries) != len(block_sizes):
            raise ValueError(f"{len(entries)} entry sets for {len(block_sizes)} blocks")
        b = np.asarray(rhs, dtype=float).reshape(-1)
        m = b.size
        if m == 0:
            raise ValueError("at least one constraint row is required")

        A = []
        for (row, i, j, v), nb in zip(entries, block_sizes):
            row = np.asarray(row, dtype=np.int64).reshape(-1)
            if row.size and (row.min() < 0 or row.max() >= m):
                raise ValueError(f"row index out of range for {m} constraints")
            i, j = (np.asarray(x, dtype=np.int64).reshape(row.size) for x in (i, j))
            v = np.asarray(v, dtype=float).reshape(row.size)
            row, i, j, v = _canonical_entries(row, i, j, v, nb)
            coo = np.empty(row.size, dtype=COO_DTYPE)
            coo["row"], coo["i"], coo["j"], coo["v"] = row, i, j, v
            A.append(coo)

        C = []
        for bi, nb in enumerate(block_sizes):
            mat = objective_blocks.get(bi)
            C.append(np.zeros((nb, nb)) if mat is None
                     else _checked_symmetric(mat, _SYMMETRY_TOL, nb))
        return SdpProblem(block_sizes, A, b, C)


@dataclass
class SdpSolution:
    status: SolveStatus
    primal_blocks: List[np.ndarray]
    dual_vector: np.ndarray
    primal_objective: float
    dual_objective: float
    gap: float                      # relative gap |pobj - dobj| / (1 + max |obj|)
    iterations: int
    # (primal objective, dual objective) at the start of each iteration
    trace: List[Tuple[float, float]] = field(default_factory=list)


def _t(mat: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack (ndarray.mT needs numpy 2.0)."""
    return mat.swapaxes(-1, -2)


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + _t(mat))


# elements of the largest temporary of one Schur chunk (16 MB in double)
_SCHUR_CHUNK = 1 << 21


class _Layout:
    """One flat vector holds every block, grouped by size.

    Blocks of equal size sit next to each other, so each size group is a
    (k, n, n) view of the flat vector and one stacked numpy call per group
    does the work of k per-block calls.  Groups come in order of first
    appearance, blocks within a group in the caller's order.
    """

    def __init__(self, sizes: Sequence[int]):
        members: Dict[int, List[int]] = {}
        for bi, n in enumerate(sizes):
            members.setdefault(n, []).append(bi)
        self.sizes = tuple(sizes)
        self.groups: List[Tuple[int, int, int]] = []     # (n, k, start)
        self.offset = np.zeros(len(sizes), dtype=np.intp)
        start = 0
        for n, blocks in members.items():
            self.groups.append((n, len(blocks), start))
            for bi in blocks:
                self.offset[bi] = start
                start += n * n
        self.size = start
        # position of each caller block in the flat order
        self._rank = np.argsort(np.argsort(self.offset))
        # flat index of the transposed entry, and the identity
        self._transpose = np.concatenate([
            s + np.arange(k * n * n).reshape(k, n, n).transpose(0, 2, 1).ravel()
            for n, k, s in self.groups])
        self.eye = self.flatten([np.eye(n) for n in sizes])

    def views(self, flat: np.ndarray) -> List[np.ndarray]:
        return [flat[s:s + k * n * n].reshape(k, n, n) for n, k, s in self.groups]

    def join(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        return np.concatenate([p.reshape(-1) for p in parts])

    def flatten(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        flat = np.empty(self.size, dtype=np.result_type(*blocks))
        for off, n, mat in zip(self.offset, self.sizes, blocks):
            flat[off:off + n * n] = np.asarray(mat).ravel()
        return flat

    def blocks(self, flat: np.ndarray) -> List[np.ndarray]:
        """The blocks in the caller's order, each owning its data."""
        return [flat[off:off + n * n].reshape(n, n).copy()
                for off, n in zip(self.offset, self.sizes)]

    def sym(self, flat: np.ndarray) -> np.ndarray:
        return 0.5 * (flat + flat[self._transpose])

    def product(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Blockwise a_b @ b_b @ c_b."""
        return self.join([x @ y @ z for x, y, z in
                          zip(self.views(a), self.views(b), self.views(c))])

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """sum_b <a_b, b_b>: one partial sum per block, added in the caller's
        block order."""
        partial = np.concatenate([
            (x.reshape(len(x), 1, -1) @ z.reshape(len(z), -1, 1)).ravel()
            for x, z in zip(self.views(a), self.views(b))])
        return sum(partial[self._rank].tolist())


def _accumulate(index: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """out[k] = the sum of terms[index == k], added one by one in array
    order starting from zero, in the dtype of terms."""
    if terms.dtype == np.float64:
        # the same loop, several times faster; bincount takes double only
        return np.bincount(index, terms, size)
    out = np.zeros(size, dtype=terms.dtype)
    np.add.at(out, index, terms)
    return out


class _SparseMap:
    """y = A x for the sparse (n_rows, n_cols) matrix with triples (row,
    col, value), no position repeated, and x of shape (n_cols,) or
    (n_cols, w).

    y[r] adds v * x[c] over the triples of row r in column order, starting
    from zero, in the dtype of x: the summation order of a CSR product with
    sorted column indices, as in scipy.sparse's kernels, in double and
    longdouble alike.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 n_rows: int):
        order = np.lexsort((cols, rows))
        self.rows, self.cols, self.vals = rows[order], cols[order], vals[order]
        self.n_rows = n_rows
        self._vals_as = {}
        self._index = {}

    def __call__(self, x: np.ndarray) -> np.ndarray:
        vals = self._vals_as.get(x.dtype)
        if vals is None:
            # one exact cast per dtype: a product of mixed dtypes is slow
            vals = self._vals_as[x.dtype] = self.vals.astype(x.dtype)
        if x.ndim == 1:
            return _accumulate(self.rows, vals * x.take(self.cols), self.n_rows)
        w = x.shape[1]
        terms = x.take(self.cols, axis=0)
        terms *= vals[:, None]
        index = self._index.get(w)
        if index is None:
            index = self._index[w] = (self.rows[:, None] * w + np.arange(w)).ravel()
        return _accumulate(index, terms.ravel(), self.n_rows * w).reshape(self.n_rows, w)


class _Constraints:
    """The constraint map over the flat layout, built once per solve.

    The stored triples hold each off-diagonal entry once; here they are
    mirrored, so that row i of the map is A_i laid out like the flat state
    and no map needs a symmetry weight.  A(X), A^T(y) and the two sparse
    products of the Schur complement are `_SparseMap` products: one
    gather, one product per entry and one ordered scatter-add, in the
    dtype of the dense operand, double or longdouble alike.
    """

    def __init__(self, problem: SdpProblem, layout: _Layout):
        m = problem.n_constraints
        self.m = m
        rows, cols, vals = [], [], []
        self.blocks = []
        for coo, n, off in zip(problem.A, layout.sizes, layout.offset):
            mirror = coo["i"] != coo["j"]
            row = np.concatenate([coo["row"], coo["row"][mirror]]).astype(np.intp)
            p = np.concatenate([coo["i"], coo["j"][mirror]]).astype(np.intp)
            q = np.concatenate([coo["j"], coo["i"][mirror]]).astype(np.intp)
            v = np.concatenate([coo["v"], coo["v"][mirror]])
            rows.append(row)
            cols.append(off + p * n + q)
            vals.append(v)
            # A_i W A_j has a term in this block only when A_i and A_j both
            # have entries in it: the block works on the constraints it
            # touches, renumbered 0..k-1, and adds its Schur terms to
            # M[touched, touched] through flat indices into M.  Over a chunk
            # of columns j0 <= j < j1, P stacks A_j by rows p*c + (j - j0),
            # so that P W holds A_j W in the layout (p, j, s).  Each
            # temporary of a chunk (P W, T and the gather of T over the
            # triples of S_b) has at most _SCHUR_CHUNK elements, unless the
            # chunk is a single column.
            touched, local = np.unique(row, return_inverse=True)
            per_column = np.bincount(local).max(initial=0)
            width = max(1, _SCHUR_CHUNK // max(n * n, v.size, n * per_column))
            chunks = []
            for j0 in range(0, touched.size, width):
                j1 = min(touched.size, j0 + width)
                sel = (local >= j0) & (local < j1)
                chunks.append(((touched[:, None] * m + touched[j0:j1]).ravel(), _SparseMap(
                    p[sel] * (j1 - j0) + local[sel] - j0, q[sel], v[sel], n * (j1 - j0))))
            self.blocks.append((off, n, _SparseMap(local, p * n + q, v, touched.size), chunks))
        rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
        self._S = _SparseMap(rows, cols, vals, m)
        self._St = _SparseMap(cols, rows, vals, layout.size)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A(X): <A_i, X> for every constraint i."""
        return self._S(x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A^T(y) = sum_i y_i A_i, flat."""
        return self._St(y)

    def schur(self, W: np.ndarray) -> np.ndarray:
        """M_ij = sum_b <A_i, W_b A_j W_b>, in the dtype of the flat W,
        added up block by block."""
        M = np.zeros(self.m * self.m, dtype=W.dtype)
        for off, n, Sb, chunks in self.blocks:
            Wb = W[off:off + n * n].reshape(n, n)
            for target, P in chunks:
                c = P.n_rows // n
                # T[p, j, s] = (W A_j W)[p, s]: one product over the whole
                # chunk.  np.dot sums each entry in order from zero, like
                # matmul, but keeps a longdouble sum in a register: about
                # 1.7 times faster there, with the same bits
                T = np.dot(Wb, P(Wb).reshape(n, c * n)).reshape(n, c, n)
                np.add.at(M, target, Sb(T.transpose(0, 2, 1).reshape(n * n, c)).ravel())
        return M.reshape(self.m, self.m)


def _chol_lower(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor in the array's own dtype; a LinAlgError, as
    from np.linalg.cholesky, when M is not numerically positive definite.

    Runs column by column with vector inner products so it works for
    longdouble, which LAPACK does not cover.
    """
    n = M.shape[0]
    L = np.zeros_like(M)
    for j in range(n):
        d = M[j, j] - np.dot(L[j, :j], L[j, :j])
        if d <= 0:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1:, j] = (M[j + 1:, j] - np.dot(L[j + 1:, :j], L[j, :j])) / L[j, j]
    return L


def _backsolve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 rhs by forward and back substitution in L's dtype."""
    y = np.array(rhs, dtype=L.dtype, copy=True)
    n = L.shape[0]
    for i in range(n):
        y[i] = (y[i] - np.dot(L[i, :i], y[:i])) / L[i, i]
    for i in range(n - 1, -1, -1):
        y[i] = (y[i] - np.dot(L[i + 1:, i], y[i + 1:])) / L[i, i]
    return y


def _factorize(M: np.ndarray):
    """rhs -> M^-1 rhs by Cholesky in M's dtype; a LinAlgError when M is
    not numerically positive definite.

    Double runs LAPACK through numpy and solves through the inverse
    factor, like the step lengths; longdouble, which LAPACK does not
    cover, substitutes with its own factor.
    """
    if M.dtype == np.longdouble:
        L = _chol_lower(M)
        return lambda rhs: _backsolve(L, rhs)
    Li = np.linalg.inv(np.linalg.cholesky(M))
    return lambda rhs: Li.T @ (Li @ rhs)


_RIDGES = (0.0, 1e-14, 1e-12, 1e-10, 1e-8)


def _schur_solver(M: np.ndarray):
    """(ridge, rhs -> (M + ridge D^2)^-1 rhs), D^2 the diagonal of M with 1
    where it is not positive, by Cholesky of D^-1 M D^-1 + ridge I at the
    first ridge of the ladder that factors; a LinAlgError when none does."""
    dg = np.diag(M).copy()
    dg[dg <= 0] = 1.0
    D = np.sqrt(dg)
    Msc = M / np.outer(D, D)
    for ridge in _RIDGES:
        try:
            factor = _factorize(Msc + ridge * np.eye(len(M), dtype=M.dtype))
        except np.linalg.LinAlgError:
            continue
        return ridge, lambda rhs: factor(rhs / D) / D
    raise np.linalg.LinAlgError("the Schur matrix factors at no ridge")


# an iterate that diverges overflows (X, S^-1) before the solve ends as
# NumericalTrouble; the status says so, numpy's RuntimeWarnings add nothing
@np.errstate(over="ignore", invalid="ignore")
def solve(problem: SdpProblem) -> SdpSolution:
    """Run the interior-point iteration on a standard-form problem."""
    if max(problem.block_sizes) > MAX_BLOCK_SIZE:
        raise ValueError(
            f"largest block {max(problem.block_sizes)} exceeds cap {MAX_BLOCK_SIZE}")

    b = problem.b
    m = problem.n_constraints
    sizes = problem.block_sizes
    layout = _Layout(sizes)
    op = _Constraints(problem, layout)
    C = layout.flatten(problem.C)
    nu = float(sum(sizes))

    b_scale = 1.0 + np.max(np.abs(b), initial=0.0)
    c_scale = 1.0 + np.max(np.abs(C), initial=0.0)

    eta = b_scale
    X = eta * layout.eye
    S = eta * layout.eye
    y = np.zeros(m)

    # extended-precision direction algebra for small systems; larger ones
    # stay in double where LAPACK-backed routines dominate the cost
    use_extended = m <= 96 and max(sizes) <= 28
    work_dtype = np.longdouble if use_extended else np.float64

    trace: List[Tuple[float, float]] = []
    status = SolveStatus.ITERATION_LIMIT
    iterations = 0
    # Cholesky factors of X and S per size group, carried over from the
    # backtracking check of the previous iteration
    factors = None

    def objectives() -> Tuple[float, float]:
        return layout.dot(C, X), float(b @ y)

    def rel_gap(pobj: float, dobj: float) -> float:
        return abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))

    def cholesky(flat: np.ndarray) -> List[np.ndarray]:
        return [np.linalg.cholesky(V) for V in layout.views(flat)]

    def max_step(Li: List[np.ndarray], D: np.ndarray) -> float:
        """Largest t with M + t*D still positive definite in every block,
        M = L L^T, given Li = L^-1: the least eigenvalue of Li D Li^T
        bounds t."""
        lam = min(float(np.linalg.eigvalsh(_sym(Lg @ Dg @ _t(Lg)))[:, 0].min())
                  for Lg, Dg in zip(Li, layout.views(D)))
        if lam >= -1e-14:
            return np.inf
        return -1.0 / lam

    def advance(rp: np.ndarray, Rd: np.ndarray) -> Tuple:
        """The next iterate (X, y, S) and the Cholesky factors of X and S,
        from the residuals rp and Rd; a LinAlgError, naming its cause, on
        every numerical failure."""
        # Nesterov-Todd scaling per block, via the SVD of Ls^T Lx: with
        # Ls^T Lx = U Sig V^T one has W = Lx V Sig^{-1} V^T Lx^T, computed
        # without squaring the conditioning of either factor.
        Lx, Ls = factors if factors is not None else (cholesky(X), cholesky(S))
        # inverse factors, once per iteration, for step lengths and S^-1
        Lxi = [np.linalg.inv(Lg) for Lg in Lx]
        Lsi = [np.linalg.inv(Lg) for Lg in Ls]
        W = []
        for Lxg, Lsg in zip(Lx, Ls):
            _, sig, Vt = np.linalg.svd(_t(Lsg) @ Lxg)
            if np.any(sig[:, -1] <= 0):
                raise np.linalg.LinAlgError("singular scaling")
            G = Lxg @ (_t(Vt) * (1.0 / np.sqrt(sig))[:, None, :])
            W.append(_sym(G @ _t(G)))

        # Schur complement M_ij = sum_b <A_i, W A_j W>.  Small systems run
        # the whole direction algebra in extended precision: the Schur
        # conditioning grows with the inverse barrier parameter and plain
        # double stops short of tight tolerances on ill-conditioned bases.
        W_w = layout.join(W).astype(work_dtype)
        Mmat = op.schur(W_w)
        _, m_solve = _schur_solver(Mmat)

        def solve_kkt(h: np.ndarray) -> np.ndarray:
            """M dy = h, with up to three steps of iterative refinement."""
            dy = m_solve(h)
            for _ in range(3):
                r = h - np.dot(Mmat, dy)
                if np.max(np.abs(r), initial=0.0) <= 1e-15 * (1.0 + np.max(np.abs(h), initial=0.0)):
                    break
                dy = dy + m_solve(r)
            return dy

        # W Rd W is shared by the predictor and the corrector
        rp_w = rp.astype(work_dtype)
        Rd_w = Rd.astype(work_dtype)
        WRdW = layout.sym(layout.product(W_w, Rd_w, W_w))

        def direction(Rc: np.ndarray) -> Tuple:
            Rc_w = Rc.astype(work_dtype)
            # two products, not A(WRdW - Rc): near the edge of what the
            # iteration resolves (scripts/knife_edge.py) the rounding of
            # these sums, like the blockwise order of mu and the Schur
            # sums, decides whether a program reaches Optimal
            dy = solve_kkt(rp_w - op.apply(Rc_w) + op.apply(WRdW))
            dS_w = layout.sym(Rd_w - op.adjoint(dy))
            dX_w = layout.sym(Rc_w - layout.product(W_w, dS_w, W_w))
            return (np.asarray(dX_w, dtype=float), np.asarray(dS_w, dtype=float),
                    np.asarray(dy, dtype=float))

        mu = layout.dot(X, S) / nu

        # predictor (affine scaling)
        dXa, dSa, _ = direction(-X)
        ap_aff = min(1.0, max_step(Lxi, dXa))
        ad_aff = min(1.0, max_step(Lsi, dSa))
        mu_aff = layout.dot(X + ap_aff * dXa, S + ad_aff * dSa) / nu
        sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)

        Sinv = layout.join([_t(Lg) @ Lg for Lg in Lsi])

        # corrector with Mehrotra second-order term
        Rc = sigma * mu * Sinv - X - layout.sym(layout.product(dXa, dSa, Sinv))
        dX, dS, dy = direction(Rc)
        ap_raw = max_step(Lxi, dX)
        ad_raw = max_step(Lsi, dS)

        # corrector rejection: when the second-order term shortens the
        # step badly, fall back to a centered first-order direction
        if min(ap_raw, ad_raw) < 0.2 * min(ap_aff, ad_aff):
            sigma = max(sigma, 0.5)
            dX, dS, dy = direction(sigma * mu * Sinv - X)
            ap_raw = max_step(Lxi, dX)
            ad_raw = max_step(Lsi, dS)

        # adaptive fraction to boundary: conservative when the affine step
        # is short, aggressive when a full step is available
        frac = 0.9 + 0.09 * min(1.0, min(ap_aff, ad_aff))
        ap = min(1.0, frac * ap_raw)
        ad = min(1.0, frac * ad_raw)
        log.debug("    sigma=%.3e mu=%.3e ap=%.3e ad=%.3e", sigma, mu, ap, ad)
        if max(ap, ad) < 1e-10:
            raise np.linalg.LinAlgError(f"step length {max(ap, ad):.3e} below 1e-10")

        # backtrack if rounding pushed an iterate off the PD cone; the
        # factors of the accepted iterate serve the next iteration
        for _ in range(60):
            Xn = layout.sym(X + ap * dX)
            Sn = layout.sym(S + ad * dS)
            try:
                return Xn, y + ad * dy, Sn, (cholesky(Xn), cholesky(Sn))
            except np.linalg.LinAlgError:
                ap *= 0.5
                ad *= 0.5
        raise np.linalg.LinAlgError("60 backtracking halvings never got back inside the cone")

    for iterations in range(1, MAX_ITERATIONS + 1):
        rp = b - op.apply(X)
        Rd = C - op.adjoint(y) - S

        pobj, dobj = objectives()
        trace.append((pobj, dobj))

        prim_res = np.max(np.abs(rp)) / b_scale
        dual_res = np.max(np.abs(Rd), initial=0.0) / c_scale
        gap = rel_gap(pobj, dobj)

        log.debug("iter %d pobj=%.9g dobj=%.9g prim=%.2e dual=%.2e",
                  iterations, pobj, dobj, prim_res, dual_res)

        if (gap <= GAP_TOLERANCE
                and prim_res <= FEAS_TOLERANCE
                and dual_res <= FEAS_TOLERANCE):
            status = SolveStatus.OPTIMAL
            break
        if dobj > INFEASIBILITY_THRESHOLD:
            status = SolveStatus.PRIMAL_LIKELY_INFEASIBLE
            break
        try:
            X, y, S, factors = advance(rp, Rd)
        except np.linalg.LinAlgError as exc:
            # a step-length eigvalsh also fails once S^-1 overflows
            log.debug("numerical trouble at iteration %d: %s", iterations, exc)
            status = SolveStatus.NUMERICAL_TROUBLE
            break

    pobj, dobj = objectives()
    return SdpSolution(
        status=status,
        primal_blocks=layout.blocks(X),
        dual_vector=y,
        primal_objective=pobj,
        dual_objective=dobj,
        gap=rel_gap(pobj, dobj),
        iterations=iterations,
        trace=trace,
    )


# -- dense symmetric eigen helpers -------------------------------------------


def eigendecompose(mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending with orthonormal eigenvector columns."""
    try:
        return np.linalg.eigh(_checked_symmetric(mat, 1e-10))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc


def min_eigenvalue(mat: np.ndarray) -> float:
    return float(eigendecompose(mat)[0][0])
