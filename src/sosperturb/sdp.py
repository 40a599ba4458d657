"""Primal-dual interior-point solver for small block SDPs with sparse data.

Problem form (minimization convention):

    minimize    sum_b <C_b, X_b>  +  d . u
    subject to  sum_b <A_(i,b), X_b>  +  F[i,:] . u  =  b_i,   i = 1..m
                X_b positive semidefinite,   u free

and its dual

    maximize    b . y
    subject to  sum_i y_i A_(i,b)  +  S_b  =  C_b,   S_b PSD
                F^T y  =  d.

The iteration is Mehrotra-style predictor-corrector path following with
Nesterov-Todd scaling.  Per block the scaling matrix is

    W = L (L^T S L)^{-1/2} L^T,      X = L L^T (Cholesky),

which satisfies W S W = X, and the linearized complementarity equation is

    dX + W dS W = Rc,    Rc = sigma*mu*S^{-1} - X - symm(dXa dSa S^{-1})

with (dXa, dSa) the affine direction.  Eliminating dX and dS leaves the
Schur system in (dy, du)

    [ M   F ] [dy]   [h1]           M_ij = sum_b <A_i, W A_j W>
    [ F^T 0 ] [du] = [rf]

solved by dense Cholesky of M plus a small solve on the free block, so free
scalar variables never pass through a PSD reformulation.

Constraint data stays sparse.  Each block's constraints are COO triples
(row, i, j, value), and A(X) and A^T(y) are sparse products over them.
The Schur complement exploits the sparsity on both sides, after Fujisawa,
Kojima and Nakata (Math. Prog. 79, 1997): A_j W is a sparse product,
T_j = W A_j W comes from one dense matrix product for many j at once, and
M_ij = sum over the triples (p, q, v) of A_i of v * T_j[p, q].

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
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import csr_matrix

from .errors import ConvergenceFailureError

log = logging.getLogger(__name__)

_SYMMETRY_TOL = 1e-12


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    NUMERICAL_TROUBLE = "NumericalTrouble"
    PRIMAL_LIKELY_INFEASIBLE = "PrimalLikelyInfeasible"
    ITERATION_LIMIT = "IterationLimit"


@dataclass(frozen=True)
class SolverSettings:
    gap_tolerance: float = 1e-8
    feas_tolerance: float = 1e-8
    max_iterations: int = 200
    infeasibility_threshold: float = 1e8
    max_block_size: int = 400
    collect_trace: bool = False

    def __post_init__(self):
        if self.gap_tolerance <= 0 or self.feas_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.infeasibility_threshold <= 0:
            raise ValueError("infeasibility_threshold must be positive")


# COO storage of one block's constraints: the triple (row, i, j, v), i <= j,
# puts v at (i, j) and (j, i) of the coefficient matrix of constraint `row`
COO_DTYPE = np.dtype([("row", np.int32), ("i", np.int32), ("j", np.int32),
                      ("v", np.float64)])

Entries = Tuple[Sequence[int], Sequence[int], Sequence[float]]


def _checked_symmetric(mat, nb: int) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (nb, nb):
        raise ValueError(f"coefficient matrix shape {mat.shape} != ({nb},{nb})")
    if np.max(np.abs(mat - mat.T), initial=0.0) > _SYMMETRY_TOL * (1 + np.max(np.abs(mat), initial=0.0)):
        raise ValueError("coefficient matrix is not symmetric")
    return 0.5 * (mat + mat.T)


@dataclass
class ConstraintRow:
    """One linear equality: sum_b <A_b, X_b> + free . u = rhs.

    blocks maps a block index to the entries (i, j, v) of A_b, three
    parallel sequences: each entry puts v at (i, j) and at (j, i), so A_b
    is symmetric by construction, and repeated positions add up.
    """

    blocks: Dict[int, Entries]
    free: Optional[np.ndarray]
    rhs: float

    @staticmethod
    def dense(blocks: Dict[int, np.ndarray], free: Optional[np.ndarray],
              rhs: float) -> "ConstraintRow":
        """Row from symmetric (nb, nb) matrices, kept as the nonzero entries
        of their upper triangles."""
        entries = {}
        for bi, mat in blocks.items():
            mat = _checked_symmetric(mat, len(mat))
            i, j = np.nonzero(np.triu(mat))
            entries[bi] = (i, j, mat[i, j])
        return ConstraintRow(entries, free, rhs)


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
    """Immutable standard-form problem; build via from_rows."""

    def __init__(self, block_sizes, n_free, A, F, b, C, d):
        self.block_sizes: Tuple[int, ...] = tuple(block_sizes)
        self.n_free = int(n_free)
        self.A = A          # list over blocks of COO_DTYPE arrays, sorted by row
        self.F = F          # (m, n_free)
        self.b = b          # (m,)
        self.C = C          # list of (nb, nb)
        self.d = d          # (n_free,)

    @property
    def n_constraints(self) -> int:
        return self.b.shape[0]

    @staticmethod
    def from_rows(
        block_sizes: Sequence[int],
        n_free: int,
        rows: Sequence[ConstraintRow],
        objective_blocks: Dict[int, np.ndarray],
        objective_free: Optional[np.ndarray] = None,
    ) -> "SdpProblem":
        """Validate, deduplicate and pack constraint rows as COO triples.

        Exact duplicate rows (identical coefficients and right-hand side)
        are removed; at least one row must remain.
        """
        block_sizes = tuple(int(s) for s in block_sizes)
        if any(s < 1 for s in block_sizes):
            raise ValueError("block sizes must be positive")
        if not rows:
            raise ValueError("at least one constraint row is required")

        parts: List[List[List[np.ndarray]]] = [[[], [], [], []] for _ in block_sizes]
        F = np.zeros((len(rows), n_free))
        b = np.zeros(len(rows))
        for r, row in enumerate(rows):
            for bi, (i, j, v) in row.blocks.items():
                if not 0 <= bi < len(block_sizes):
                    raise ValueError(f"block index {bi} out of range")
                i = np.asarray(i, dtype=np.int64).reshape(-1)
                fields = parts[bi]
                fields[0].append(np.full(i.size, r, dtype=np.int64))
                fields[1].append(i)
                fields[2].append(np.asarray(j, dtype=np.int64).reshape(i.size))
                fields[3].append(np.asarray(v, dtype=float).reshape(i.size))
            if row.free is not None:
                F[r] = np.asarray(row.free, dtype=float).reshape(n_free)
            b[r] = float(row.rhs)

        entries = []
        for fields, nb in zip(parts, block_sizes):
            arrays = [np.concatenate(f) if f else np.zeros(0, dtype=dt)
                      for f, dt in zip(fields, (np.int64, np.int64, np.int64, float))]
            entries.append(_canonical_entries(*arrays, nb))

        # exact duplicates: same entries in every block, free part and rhs
        bounds = [np.searchsorted(e[0], np.arange(len(rows) + 1)) for e in entries]
        kept: List[int] = []
        seen = set()
        for r in range(len(rows)):
            key = (
                tuple(e[k][lo[r]:lo[r + 1]].tobytes()
                      for e, lo in zip(entries, bounds) for k in (1, 2, 3)),
                F[r].tobytes(),
                float(b[r]).hex(),
            )
            if key not in seen:
                seen.add(key)
                kept.append(r)
        renumber = np.full(len(rows), -1, dtype=np.int64)
        renumber[kept] = np.arange(len(kept))

        A = []
        for row, lo, hi, v in entries:
            keep = renumber[row] >= 0
            coo = np.empty(int(keep.sum()), dtype=COO_DTYPE)
            coo["row"], coo["i"], coo["j"], coo["v"] = (
                renumber[row[keep]], lo[keep], hi[keep], v[keep])
            A.append(coo)

        C = []
        for bi, nb in enumerate(block_sizes):
            mat = objective_blocks.get(bi)
            C.append(_checked_symmetric(mat, nb) if mat is not None else np.zeros((nb, nb)))
        d = np.zeros(n_free)
        if objective_free is not None:
            d = np.asarray(objective_free, dtype=float).reshape(n_free)
        return SdpProblem(block_sizes, n_free, A, F[kept], b[kept], C, d)


@dataclass
class SdpSolution:
    status: SolveStatus
    primal_blocks: List[np.ndarray]
    free_values: np.ndarray
    dual_vector: np.ndarray
    primal_objective: float
    dual_objective: float
    gap: float                      # relative gap |pobj - dobj| / (1 + max |obj|)
    iterations: int
    trace: Optional[List[Tuple[float, float]]] = field(default=None)


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


# elements of the largest temporary of one Schur chunk (16 MB in double)
_SCHUR_CHUNK = 1 << 21


class _BlockOperator:
    """Sparse maps of one block's constraint triples, built once per solve.

    The stored triples hold each off-diagonal entry once; here they are
    mirrored into S, the (m, n*n) matrix whose row i is vec(A_i), so no map
    needs a symmetry weight.  Every product is a scipy.sparse product, which
    runs in the dtype of its dense operand, double or longdouble alike.
    """

    def __init__(self, coo: np.ndarray, m: int, n: int):
        off = coo["i"] != coo["j"]
        row = np.concatenate([coo["row"], coo["row"][off]]).astype(np.intp)
        p = np.concatenate([coo["i"], coo["j"][off]]).astype(np.intp)
        q = np.concatenate([coo["j"], coo["i"][off]]).astype(np.intp)
        v = np.concatenate([coo["v"], coo["v"][off]])
        self.n = n
        self.S = csr_matrix((v, (row, p * n + q)), shape=(m, n * n))
        # Schur chunks over columns j0 <= j < j1: P stacks A_j by rows
        # p*c + (j - j0), so that P @ W holds A_j W in the layout (p, j, s)
        width = max(1, _SCHUR_CHUNK // (n * n))
        self.chunks = []
        for j0 in range(0, m, width):
            j1 = min(m, j0 + width)
            sel = (row >= j0) & (row < j1)
            P = csr_matrix((v[sel], (p[sel] * (j1 - j0) + row[sel] - j0, q[sel])),
                           shape=(n * (j1 - j0), n))
            self.chunks.append((j0, j1, P))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """A(X): <A_i, X> for every constraint i."""
        return self.S @ X.ravel()

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A^T(y) = sum_i y_i A_i."""
        return (self.S.T @ y).reshape(self.n, self.n)

    def add_schur(self, M: np.ndarray, W: np.ndarray) -> None:
        """M_ij += <A_i, W A_j W>."""
        n = self.n
        for j0, j1, P in self.chunks:
            if P.nnz == 0:
                continue
            c = j1 - j0
            # T[p, j, s] = (W A_j W)[p, s]: one product over the whole chunk
            T = (W @ (P @ W).reshape(n, c * n)).reshape(n, c, n)
            M[:, j0:j1] += self.S @ T.transpose(0, 2, 1).reshape(n * n, c)


def _apply_A(ops: List[_BlockOperator], X: List[np.ndarray]) -> np.ndarray:
    out = None
    for op, Xb in zip(ops, X):
        v = op.apply(Xb)
        out = v if out is None else out + v
    return out


def _apply_At(ops: List[_BlockOperator], y: np.ndarray) -> List[np.ndarray]:
    return [op.adjoint(y) for op in ops]


def _chol_lower(M: np.ndarray):
    """Lower Cholesky factor in the array's own dtype, or None.

    Runs column by column with vector inner products so it works for
    longdouble, which LAPACK does not cover.
    """
    n = M.shape[0]
    L = np.zeros_like(M)
    for j in range(n):
        d = M[j, j] - L[j, :j] @ L[j, :j]
        if d <= 0:
            return None
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1:, j] = (M[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def _factorize(M: np.ndarray):
    if M.dtype == np.longdouble:
        return _chol_lower(M)
    try:
        return cho_factor(M, lower=True)
    except np.linalg.LinAlgError:
        return None


def _backsolve(factor, rhs):
    if isinstance(factor, np.ndarray):
        L = factor
        y = np.array(rhs, dtype=L.dtype, copy=True)
        n = L.shape[0]
        for i in range(n):
            y[i] = (y[i] - L[i, :i] @ y[:i]) / L[i, i]
        for i in range(n - 1, -1, -1):
            y[i] = (y[i] - L[i + 1:, i] @ y[i + 1:]) / L[i, i]
        return y
    return cho_solve(factor, rhs)


def _max_step(chol_inverse: np.ndarray, direction: np.ndarray) -> float:
    """Largest t with M + t*D still positive definite, M = L L^T, given
    Li = L^-1: the least eigenvalue of Li D Li^T bounds t."""
    B = chol_inverse @ direction @ chol_inverse.T
    lam = float(np.linalg.eigvalsh(_sym(B))[0])
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def solve(problem: SdpProblem, settings: SolverSettings = SolverSettings()) -> SdpSolution:
    """Run the interior-point iteration on a standard-form problem."""
    if max(problem.block_sizes) > settings.max_block_size:
        raise ValueError(
            f"largest block {max(problem.block_sizes)} exceeds cap {settings.max_block_size}")

    F, b, C, d = problem.F, problem.b, problem.C, problem.d
    m = problem.n_constraints
    k = problem.n_free
    sizes = problem.block_sizes
    ops = [_BlockOperator(Ab, m, nb) for Ab, nb in zip(problem.A, sizes)]
    nu = float(sum(sizes))

    b_scale = 1.0 + np.max(np.abs(b), initial=0.0)
    c_scale = 1.0 + max(np.max(np.abs(Cb), initial=0.0) for Cb in C)
    d_scale = 1.0 + np.max(np.abs(d), initial=0.0)

    eta = b_scale
    X = [eta * np.eye(nb) for nb in sizes]
    S = [eta * np.eye(nb) for nb in sizes]
    y = np.zeros(m)
    u = np.zeros(k)

    # extended-precision direction algebra for small systems; larger ones
    # stay in double where LAPACK-backed routines dominate the cost
    use_extended = m <= 96 and max(sizes) <= 28
    work_dtype = np.longdouble if use_extended else np.float64

    trace: Optional[List[Tuple[float, float]]] = [] if settings.collect_trace else None
    status = SolveStatus.ITERATION_LIMIT
    iterations = 0

    def objectives() -> Tuple[float, float]:
        pobj = sum(float(np.tensordot(Cb, Xb)) for Cb, Xb in zip(C, X)) + float(d @ u)
        dobj = float(b @ y)
        return pobj, dobj

    def rel_gap(pobj: float, dobj: float) -> float:
        return abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))

    for iterations in range(1, settings.max_iterations + 1):
        rp = b - _apply_A(ops, X) - F @ u
        Aty = _apply_At(ops, y)
        Rd = [Cb - At - Sb for Cb, At, Sb in zip(C, Aty, S)]
        rf = d - F.T @ y

        pobj, dobj = objectives()
        if trace is not None:
            trace.append((pobj, dobj))

        prim_res = np.max(np.abs(rp)) / b_scale
        dual_res = max(np.max(np.abs(Rb), initial=0.0) for Rb in Rd) / c_scale
        free_res = np.max(np.abs(rf), initial=0.0) / d_scale
        gap = rel_gap(pobj, dobj)

        log.debug("iter %d pobj=%.9g dobj=%.9g prim=%.2e dual=%.2e free=%.2e",
                  iterations, pobj, dobj, prim_res, dual_res, free_res)

        if (gap <= settings.gap_tolerance
                and prim_res <= settings.feas_tolerance
                and dual_res <= settings.feas_tolerance
                and free_res <= settings.feas_tolerance):
            status = SolveStatus.OPTIMAL
            break
        if dobj > settings.infeasibility_threshold:
            status = SolveStatus.PRIMAL_LIKELY_INFEASIBLE
            break

        # Nesterov-Todd scaling per block, via the SVD of Ls^T Lx: with
        # Ls^T Lx = U Sig V^T one has W = Lx V Sig^{-1} V^T Lx^T, computed
        # without squaring the conditioning of either factor.
        try:
            Lx = [np.linalg.cholesky(Xb) for Xb in X]
            Ls = [np.linalg.cholesky(Sb) for Sb in S]
        except np.linalg.LinAlgError:
            status = SolveStatus.NUMERICAL_TROUBLE
            break
        # inverse factors, once per iteration, for step lengths and S^-1
        Lxi = [np.linalg.inv(Lb) for Lb in Lx]
        Lsi = [np.linalg.inv(Lb) for Lb in Ls]
        W = []
        ok = True
        for Lxb, Lsb in zip(Lx, Ls):
            try:
                _, sig, Vt = np.linalg.svd(Lsb.T @ Lxb)
            except np.linalg.LinAlgError:
                ok = False
                break
            if sig[-1] <= 0:
                ok = False
                break
            G = Lxb @ (Vt.T * (1.0 / np.sqrt(sig)))
            W.append(_sym(G @ G.T))
        if not ok:
            status = SolveStatus.NUMERICAL_TROUBLE
            break

        # Schur complement M_ij = sum_b <A_i, W A_j W>.  Small systems run
        # the whole direction algebra in extended precision: the Schur
        # conditioning grows with the inverse barrier parameter and plain
        # double stops short of tight tolerances on ill-conditioned bases.
        W_w = [Wb.astype(work_dtype) for Wb in W]
        Mmat = np.zeros((m, m), dtype=work_dtype)
        for op, Wb in zip(ops, W_w):
            op.add_schur(Mmat, Wb)

        # Jacobi-scaled Cholesky with a ridge escalation fallback
        dg = np.diag(Mmat).copy()
        dg[dg <= 0] = 1.0
        D = np.sqrt(dg)
        Msc = Mmat / np.outer(D, D)
        factor = None
        for ridge in (0.0, 1e-14, 1e-12, 1e-10, 1e-8):
            factor = _factorize(Msc + ridge * np.eye(m, dtype=work_dtype))
            if factor is not None:
                break
        if factor is None:
            status = SolveStatus.NUMERICAL_TROUBLE
            break

        def m_solve(rhs):
            scale = D if rhs.ndim == 1 else D[:, None]
            return _backsolve(factor, rhs / scale) / scale

        F_w = F.astype(work_dtype)

        def solve_kkt(h1, h2) -> Tuple[np.ndarray, np.ndarray]:
            def once(r1, r2):
                if k == 0:
                    return m_solve(r1), np.zeros(0, dtype=work_dtype)
                Z = m_solve(F_w)
                G = F_w.T @ Z
                try:
                    du = np.linalg.solve(
                        G.astype(float), np.asarray(Z.T @ r1 - r2, dtype=float))
                except np.linalg.LinAlgError:
                    raise _KktFailure()
                dy = m_solve(r1 - F_w @ du)
                return dy, du.astype(work_dtype)

            dy, du = once(h1, h2)
            for _ in range(3):
                r1 = h1 - Mmat @ dy - (F_w @ du if k else 0.0)
                r2 = (h2 - F_w.T @ dy) if k else np.zeros(0, dtype=work_dtype)
                if np.max(np.abs(r1), initial=0.0) <= 1e-15 * (1.0 + np.max(np.abs(h1), initial=0.0)):
                    break
                ddy, ddu = once(r1, r2)
                dy = dy + ddy
                du = du + ddu
            return dy, du

        def direction(Rc: List[np.ndarray]) -> Tuple:
            h1 = rp.astype(work_dtype)
            Rc_w = [Rcb.astype(work_dtype) for Rcb in Rc]
            Rd_w = [Rdb.astype(work_dtype) for Rdb in Rd]
            for op, Rcb, Rdb, Wb in zip(ops, Rc_w, Rd_w, W_w):
                h1 -= op.apply(Rcb)
                h1 += op.apply(_sym(Wb @ Rdb @ Wb))
            dy, du = solve_kkt(h1, rf.astype(work_dtype))
            dS_w = [
                _sym(Rdb - Atdy)
                for Rdb, Atdy in zip(Rd_w, _apply_At(ops, dy))
            ]
            dX_w = [
                _sym(Rcb - Wb @ dSb @ Wb)
                for Rcb, dSb, Wb in zip(Rc_w, dS_w, W_w)
            ]
            dX = [np.asarray(Db, dtype=float) for Db in dX_w]
            dS = [np.asarray(Db, dtype=float) for Db in dS_w]
            return dX, dS, np.asarray(dy, dtype=float), np.asarray(du, dtype=float)

        mu = sum(float(np.tensordot(Xb, Sb)) for Xb, Sb in zip(X, S)) / nu

        try:
            # predictor (affine scaling)
            dXa, dSa, _, _ = direction([-Xb for Xb in X])
            ap_aff = min(1.0, min(_max_step(Li, D) for Li, D in zip(Lxi, dXa)))
            ad_aff = min(1.0, min(_max_step(Li, D) for Li, D in zip(Lsi, dSa)))
            mu_aff = sum(
                float(np.tensordot(Xb + ap_aff * dXb, Sb + ad_aff * dSb))
                for Xb, dXb, Sb, dSb in zip(X, dXa, S, dSa)) / nu
            sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)

            Sinv = [Li.T @ Li for Li in Lsi]

            # corrector with Mehrotra second-order term
            Rc = [
                sigma * mu * Sib - Xb - _sym(dXb @ dSb @ Sib)
                for Xb, Sib, dXb, dSb in zip(X, Sinv, dXa, dSa)
            ]
            dX, dS, dy, du = direction(Rc)
            ap_raw = min(_max_step(Li, D) for Li, D in zip(Lxi, dX))
            ad_raw = min(_max_step(Li, D) for Li, D in zip(Lsi, dS))

            # corrector rejection: when the second-order term shortens the
            # step badly, fall back to a centered first-order direction
            if min(ap_raw, ad_raw) < 0.2 * min(ap_aff, ad_aff):
                sigma = max(sigma, 0.5)
                Rc = [sigma * mu * Sib - Xb for Xb, Sib in zip(X, Sinv)]
                dX, dS, dy, du = direction(Rc)
                ap_raw = min(_max_step(Li, D) for Li, D in zip(Lxi, dX))
                ad_raw = min(_max_step(Li, D) for Li, D in zip(Lsi, dS))
        except _KktFailure:
            status = SolveStatus.NUMERICAL_TROUBLE
            break

        # adaptive fraction to boundary: conservative when the affine step
        # is short, aggressive when a full step is available
        frac = 0.9 + 0.09 * min(1.0, min(ap_aff, ad_aff))
        ap = min(1.0, frac * ap_raw)
        ad = min(1.0, frac * ad_raw)
        log.debug("    sigma=%.3e mu=%.3e ap=%.3e ad=%.3e", sigma, mu, ap, ad)
        if max(ap, ad) < 1e-10:
            status = SolveStatus.NUMERICAL_TROUBLE
            break

        # backtrack if rounding pushed an iterate off the PD cone
        for _ in range(60):
            Xn = [_sym(Xb + ap * dXb) for Xb, dXb in zip(X, dX)]
            Sn = [_sym(Sb + ad * dSb) for Sb, dSb in zip(S, dS)]
            try:
                for Mb in (*Xn, *Sn):
                    np.linalg.cholesky(Mb)
                break
            except np.linalg.LinAlgError:
                ap *= 0.5
                ad *= 0.5
        else:
            status = SolveStatus.NUMERICAL_TROUBLE
            break

        X = Xn
        u = u + ap * du
        y = y + ad * dy
        S = Sn

    pobj, dobj = objectives()
    return SdpSolution(
        status=status,
        primal_blocks=X,
        free_values=u,
        dual_vector=y,
        primal_objective=pobj,
        dual_objective=dobj,
        gap=rel_gap(pobj, dobj),
        iterations=iterations,
        trace=trace,
    )


class _KktFailure(Exception):
    pass


# -- dense symmetric eigen helpers -------------------------------------------


def _check_symmetric(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    scale = 1.0 + np.max(np.abs(mat), initial=0.0)
    if np.max(np.abs(mat - mat.T), initial=0.0) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    return _sym(mat)

def min_eigenvalue(mat: np.ndarray) -> float:
    mat = _check_symmetric(mat)
    try:
        return float(np.linalg.eigvalsh(mat)[0])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc


def eigendecompose(mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending with orthonormal eigenvector columns."""
    mat = _check_symmetric(mat)
    try:
        w, Q = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    return w, Q
