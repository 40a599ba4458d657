import logging
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.sparse import csr_matrix

from sosperturb import sdp
from sosperturb.parsing import parse
from sosperturb.polynomials import Polynomial, theta_big
from sosperturb.sdp import (GAP_TOLERANCE, MAX_BLOCK_SIZE, SdpProblem,
                            SolveStatus, _Constraints, _factorize, _Layout,
                            _schur_solver, eigendecompose, min_eigenvalue,
                            solve)
from sosperturb.sos import _ReducedGram

from reference_programs import build_gram_system, build_moment_system, dense_entries

CHOI_LAM = parse("x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2 + x4^4 - 4*x1*x2*x3*x4", 4)


def scalar_problem(rhs=3.0):
    return SdpProblem.from_rows(
        [1], [([0], [0], [0], [1.0])], [rhs], {0: np.array([[1.0]])})


def completion_problem():
    # min trace(X) over 2x2 PSD X with X_12 = 1
    return SdpProblem.from_rows([2], [([0], [0], [1], [0.5])], [1.0], {0: np.eye(2)})


def random_feasible_rows(seed, sizes=(3, 2), m=4):
    """Rows of a problem with a known strictly feasible primal-dual pair:
    (mats, rhs, objective), with mats[i][b] the dense coefficient matrix of
    row i in block b."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(m):
        row = []
        for nb in sizes:
            raw = rng.standard_normal((nb, nb))
            row.append(0.5 * (raw + raw.T))
        mats.append(row)
    X0 = []
    S0 = []
    for nb in sizes:
        raw = rng.standard_normal((nb, nb))
        X0.append(raw @ raw.T + 0.1 * np.eye(nb))
        raw = rng.standard_normal((nb, nb))
        S0.append(raw @ raw.T + 0.1 * np.eye(nb))
    y0 = rng.standard_normal(m)
    rhs = np.array([
        sum(float(np.tensordot(mats[i][b], X0[b])) for b in range(len(sizes)))
        for i in range(m)])
    objective = {
        b: sum(y0[i] * mats[i][b] for i in range(m)) + S0[b]
        for b in range(len(sizes))
    }
    return mats, rhs, objective


def random_feasible_problem(seed, sizes=(3, 2), m=4):
    """Problem with a known strictly feasible primal-dual pair, so the
    solver must report Optimal."""
    mats, rhs, objective = random_feasible_rows(seed, sizes, m)
    return SdpProblem.from_rows(sizes, dense_entries(mats), rhs, objective)


class TestSolve:
    def test_scalar_equality(self):
        sol = solve(scalar_problem())
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.primal_objective == pytest.approx(3.0, abs=1e-7)
        assert sol.primal_blocks[0][0, 0] == pytest.approx(3.0, abs=1e-7)

    def test_psd_completion_matches_scalar_oracle(self):
        # min x + y s.t. xy >= 1, x,y >= 0 reduces to min_x x + 1/x
        oracle = minimize_scalar(lambda x: x + 1.0 / x, bounds=(0.01, 100),
                                 method="bounded")
        sol = solve(completion_problem())
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.primal_objective == pytest.approx(oracle.fun, abs=1e-6)
        assert sol.primal_blocks[0] == pytest.approx(np.ones((2, 2)), abs=1e-5)

    def test_constant_negative_target_infeasible(self):
        f = parse("-1", 1)
        problem = build_gram_system(f, Polynomial.zero(1), 0)
        sol = solve(problem)
        assert sol.status is SolveStatus.PRIMAL_LIKELY_INFEASIBLE

    @pytest.mark.parametrize("seed", range(8))
    def test_random_feasible_always_optimal(self, seed):
        mats, rhs, _ = random_feasible_rows(seed)
        sol = solve(random_feasible_problem(seed))
        assert sol.status is SolveStatus.OPTIMAL
        residual = rhs - np.array([
            sum(float(np.tensordot(Ab, Xb)) for Ab, Xb in zip(row, sol.primal_blocks))
            for row in mats])
        assert np.max(np.abs(residual)) <= 1e-8 * (1 + np.max(np.abs(rhs)))
        for block in sol.primal_blocks:
            assert min_eigenvalue(block) >= -1e-8

    def test_gap_within_tolerance_when_optimal(self):
        sol = solve(completion_problem())
        assert sol.gap <= GAP_TOLERANCE

    def test_determinism(self):
        problem = random_feasible_problem(11)
        a = solve(problem)
        b = solve(problem)
        assert a.status is b.status
        assert a.primal_objective == b.primal_objective
        assert a.dual_objective == b.dual_objective
        assert a.iterations == b.iterations

    def test_block_size_cap(self):
        size = MAX_BLOCK_SIZE + 1
        problem = SdpProblem.from_rows(
            [size], [([0], [0], [0], [1.0])], [1.0], {0: np.eye(size)})
        with pytest.raises(ValueError, match="exceeds cap"):
            solve(problem)

    def test_step_length_eigensolver_failure_is_numerical_trouble(self, monkeypatch):
        # eigvalsh can fail to converge once S^-1 overflows; the solve must
        # end NumericalTrouble instead of letting LinAlgError escape
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        sol = solve(completion_problem())
        assert sol.status is SolveStatus.NUMERICAL_TROUBLE

    def test_diverging_iterate_raises_no_warning(self):
        # min -X_11 subject to X_22 = 1 is unbounded: X overflows within
        # twenty iterations and the solve ends NumericalTrouble, with no
        # numpy RuntimeWarning on the way
        problem = SdpProblem.from_rows(
            [2], [([0], [1], [1], [1.0])], [1.0], {0: np.diag([-1.0, 0.0])})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(problem)
        assert sol.status is SolveStatus.NUMERICAL_TROUBLE

    def test_weak_duality_at_every_iterate(self):
        fixtures = [
            scalar_problem(),
            completion_problem(),
            build_gram_system(parse("1 - x1^2", 1), theta_big(1, 3), 3),
            build_moment_system(parse("1 - x1^2", 1), Polynomial.monomial(1, (4,)), 2),
            random_feasible_problem(3),
        ]
        for problem in fixtures:
            sol = solve(problem)
            assert len(sol.trace) == sol.iterations
            for pobj, dobj in sol.trace:
                assert pobj >= dobj - 1e-7


class TestNumericalTrouble:
    """Every numerical failure inside an iteration ends the solve
    NumericalTrouble through one handler, whose debug line names the
    cause.  Each test forces one failure by a patch on a problem that
    otherwise ends Optimal."""

    SIZES = (3, 2)

    def solve_with_causes(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="sosperturb.sdp"):
            sol = solve(random_feasible_problem(5, self.SIZES))
        assert sol.status is SolveStatus.NUMERICAL_TROUBLE
        return [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("numerical trouble")]

    def test_singular_scaling(self, monkeypatch, caplog):
        svd = np.linalg.svd

        def zero_singular_value(a, *args, **kwargs):
            U, sig, Vt = svd(a, *args, **kwargs)
            sig[..., -1] = 0.0
            return U, sig, Vt

        monkeypatch.setattr(np.linalg, "svd", zero_singular_value)
        assert self.solve_with_causes(caplog) == [
            "numerical trouble at iteration 1: singular scaling"]

    def test_schur_matrix_factors_at_no_ridge(self, monkeypatch, caplog):
        def not_positive_definite(M):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(sdp, "_factorize", not_positive_definite)
        assert self.solve_with_causes(caplog) == [
            "numerical trouble at iteration 1: the Schur matrix factors at no ridge"]

    def test_step_below_the_floor(self, monkeypatch, caplog):
        eigvalsh = np.linalg.eigvalsh

        def far_outside(a, *args, **kwargs):
            w = eigvalsh(a, *args, **kwargs)
            w[..., 0] = -1e12
            return w

        # every step length is at most 1e12**-1, times the fraction to the
        # boundary 0.9 + 0.09 * 1e-12
        monkeypatch.setattr(np.linalg, "eigvalsh", far_outside)
        assert self.solve_with_causes(caplog) == [
            "numerical trouble at iteration 1: step length 9.000e-13 below 1e-10"]

    def test_backtracking_exhausted(self, monkeypatch, caplog):
        cholesky = np.linalg.cholesky
        # the factors of X and S for the first iteration, one per size group
        allowed = [2 * len(_Layout(self.SIZES).groups)]

        def first_factors_only(a):
            allowed[0] -= 1
            if allowed[0] < 0:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a)

        # the Schur matrix of this small problem factors in longdouble,
        # without np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", first_factors_only)
        assert self.solve_with_causes(caplog) == [
            "numerical trouble at iteration 1: "
            "60 backtracking halvings never got back inside the cone"]

    def test_failing_numpy_routine(self, monkeypatch, caplog):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        assert self.solve_with_causes(caplog) == [
            "numerical trouble at iteration 1: Eigenvalues did not converge"]

    def test_no_cause_logged_when_optimal(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="sosperturb.sdp"):
            assert solve(random_feasible_problem(5, self.SIZES)).status is SolveStatus.OPTIMAL
        assert not any(r.getMessage().startswith("numerical trouble")
                       for r in caplog.records)


def twice_x(rhs):
    """X = rhs[0] and X = rhs[1] over one 1x1 block, minimizing X."""
    return SdpProblem.from_rows(
        [1], [([0, 1], [0, 0], [0, 0], [1.0, 1.0])], rhs, {0: np.array([[1.0]])})


class TestProblemConstruction:
    def test_duplicate_row_still_optimal(self):
        # the copy makes the Schur matrix singular; the ridge ladder absorbs it
        problem = twice_x([3.0, 3.0])
        assert problem.n_constraints == 2
        sol = solve(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.primal_objective == pytest.approx(solve(scalar_problem()).primal_objective,
                                                     abs=1e-7)

    def test_contradictory_rows_kept(self):
        problem = twice_x([3.0, 4.0])
        assert problem.n_constraints == 2
        assert solve(problem).status is not SolveStatus.OPTIMAL

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SdpProblem.from_rows(
                [2], [([0], [0], [1], [1.0])], [1.0],
                {0: np.array([[0.0, 1.0], [0.0, 0.0]])})

    def test_objective_block_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"coefficient matrix shape \(1, 1\) != \(2,2\)"):
            SdpProblem.from_rows([2], [([0], [0], [0], [1.0])], [1.0], {0: np.eye(1)})

    def test_block_size_must_be_positive(self):
        with pytest.raises(ValueError, match="block sizes must be positive"):
            SdpProblem.from_rows([0], [([], [], [], [])], [1.0], {})

    def test_one_entry_set_per_block(self):
        with pytest.raises(ValueError, match="1 entry sets for 2 blocks"):
            SdpProblem.from_rows([1, 1], [([0], [0], [0], [1.0])], [1.0], {})

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            SdpProblem.from_rows([1], [([], [], [], [])], [], {})

    @pytest.mark.parametrize("i, j", [(0, 2), (-1, 0)])
    def test_entry_index_out_of_range_rejected(self, i, j):
        with pytest.raises(ValueError, match="entry index out of range"):
            SdpProblem.from_rows([2], [([0], [i], [j], [1.0])], [1.0], {})

    @pytest.mark.parametrize("row", [1, -1])
    def test_row_index_out_of_range_rejected(self, row):
        with pytest.raises(ValueError, match="row index out of range"):
            SdpProblem.from_rows([2], [([0, row], [0, 0], [0, 1], [1.0, 1.0])], [1.0], {})



def marked_double(problem):
    """The same program, preferring the double class."""
    return SdpProblem(problem.block_sizes, problem.A, problem.b, problem.C, extended=False)


def identity_rows(size, m):
    """min trace(X) over one size x size block with its first m upper
    entries, in row-major order, equal to those of the identity."""
    pairs = [(i, j) for i in range(size) for j in range(i, size)][:m]
    rows = list(range(m))
    i, j = zip(*pairs)
    return SdpProblem.from_rows([size], [(rows, i, j, [1.0] * m)],
                                [float(a == b) for a, b in pairs], {0: np.eye(size)})


class TestPrecisionClass:
    """`solve` runs a program under the size cap in the class it prefers,
    retries a failed double attempt in extended and runs everything above
    the cap in double."""

    def test_extended_by_default(self):
        problem = scalar_problem()
        assert problem.extended
        sol = solve(problem)
        assert sol.status is SolveStatus.OPTIMAL and sol.attempts == ("extended",)

    def test_double_when_preferred_and_optimal(self):
        sol = solve(marked_double(random_feasible_problem(5)))
        assert sol.status is SolveStatus.OPTIMAL and sol.attempts == ("double",)

    def test_iteration_limit_retried_in_extended(self):
        # theta_big r = 12 for 1 - x1^2 stalls in double and is Optimal in
        # extended; the retry returns the extended solve's own solution
        problem = _ReducedGram(parse("1 - x1^2", 1), theta_big(1, 12), 12).problem
        assert problem.extended
        direct = solve(problem)
        retried = solve(marked_double(problem))
        assert direct.status is SolveStatus.OPTIMAL and direct.attempts == ("extended",)
        assert retried.status is SolveStatus.OPTIMAL
        assert retried.attempts == ("double", "extended")
        assert retried.iterations == direct.iterations == 16
        assert retried.trace == direct.trace
        assert retried.dual_vector.tobytes() == direct.dual_vector.tobytes()
        for a, b in zip(retried.primal_blocks, direct.primal_blocks):
            assert a.tobytes() == b.tobytes()

    def test_numerical_trouble_retried_in_extended(self, monkeypatch):
        factorize = sdp._factorize

        def double_fails(M):
            if M.dtype == np.float64:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return factorize(M)

        monkeypatch.setattr(sdp, "_factorize", double_fails)
        sol = solve(marked_double(random_feasible_problem(5)))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.attempts == ("double", "extended")

    @pytest.mark.parametrize("size, m", [(29, 1), (14, 97)], ids=["block 29", "m 97"])
    @pytest.mark.parametrize("extended", [True, False])
    def test_above_the_cap_double_and_never_retried(self, size, m, extended, monkeypatch):
        problem = identity_rows(size, m)
        if not extended:
            problem = marked_double(problem)
        sol = solve(problem)
        assert sol.status is SolveStatus.OPTIMAL and sol.attempts == ("double",)
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 1)
        sol = solve(problem)
        assert sol.status is SolveStatus.ITERATION_LIMIT and sol.attempts == ("double",)


def same_bits(a, b):
    """Bitwise equality of the values.  A longdouble holds its 80 bits in
    16 bytes, and the 6 padding bytes carry whatever a buffer held, so
    there equal values with equal signs of zero stand for equal bits."""
    if a.dtype == np.longdouble:
        return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    return a.tobytes() == b.tobytes()


def scipy_products(problem, layout, chunk):
    """A(X), A^T(y) and the Schur matrix as scipy.sparse CSR products, the
    way the solver formed them when it ran on scipy: (apply, adjoint,
    schur)."""
    m = problem.n_constraints
    rows, cols, vals, blocks = [], [], [], []
    for coo, n, off in zip(problem.A, layout.sizes, layout.offset):
        mirror = coo["i"] != coo["j"]
        row = np.concatenate([coo["row"], coo["row"][mirror]])
        p = np.concatenate([coo["i"], coo["j"][mirror]])
        q = np.concatenate([coo["j"], coo["i"][mirror]])
        v = np.concatenate([coo["v"], coo["v"][mirror]])
        rows.append(row)
        cols.append(off + p * n + q)
        vals.append(v)
        width = max(1, chunk // (n * n))
        chunks = []
        for j0 in range(0, m, width):
            j1 = min(m, j0 + width)
            sel = (row >= j0) & (row < j1)
            if sel.any():
                chunks.append((j0, j1, csr_matrix(
                    (v[sel], (p[sel] * (j1 - j0) + row[sel] - j0, q[sel])),
                    shape=(n * (j1 - j0), n))))
        blocks.append((off, n, csr_matrix((v, (row, p * n + q)), shape=(m, n * n)), chunks))
    S = csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(m, layout.size))
    St = S.T.tocsr()

    def schur(W):
        M = np.zeros((m, m), dtype=W.dtype)
        for off, n, Sb, chunks in blocks:
            Wb = W[off:off + n * n].reshape(n, n)
            for j0, j1, P in chunks:
                c = j1 - j0
                T = (Wb @ (P @ Wb).reshape(n, c * n)).reshape(n, c, n)
                M[:, j0:j1] += Sb @ T.transpose(0, 2, 1).reshape(n * n, c)
        return M

    return (lambda x: S @ x), (lambda y: St @ y), schur


class TestSparseOperators:
    """A(X), A^T(y) and the Schur matrix of the flat operator against dense
    einsum references built from the test's own rows.  The sizes interleave,
    so the size grouping of the flat layout reorders the blocks."""

    SIZES = (4, 3, 4, 1, 3)

    def fixture(self, seed):
        mats, rhs, objective = random_feasible_rows(seed, self.SIZES, m=6)
        problem = SdpProblem.from_rows(self.SIZES, dense_entries(mats), rhs, objective)
        dense = [np.array([row[b] for row in mats]) for b in range(len(self.SIZES))]
        layout = _Layout(self.SIZES)
        op = _Constraints(problem, layout)
        rng = np.random.default_rng(100 + seed)
        sym = []
        for nb in self.SIZES:
            raw = rng.standard_normal((nb, nb))
            sym.append(raw @ raw.T + np.eye(nb))
        return problem, dense, layout, op, sym, rng.standard_normal(6)

    def test_layout_groups_equal_sizes(self):
        layout = _Layout(self.SIZES)
        # (size, count, flat start): both 4x4 blocks, then both 3x3, then 1x1
        assert layout.groups == [(4, 2, 0), (3, 2, 32), (1, 1, 50)]
        assert list(layout.offset) == [0, 32, 16, 50, 41]
        blocks = [np.arange(n * n, dtype=float).reshape(n, n) + 100 * b
                  for b, n in enumerate(self.SIZES)]
        flat = layout.flatten(blocks)
        views = layout.views(flat)
        assert np.array_equal(views[0][1], blocks[2])
        assert np.array_equal(views[1][1], blocks[4])
        assert np.array_equal(layout.sym(flat), layout.flatten([0.5 * (B + B.T) for B in blocks]))
        for got, B in zip(layout.blocks(flat), blocks):
            assert np.array_equal(got, B)
        assert layout.dot(flat, layout.eye) == sum(float(np.trace(B)) for B in blocks)

    @pytest.mark.parametrize("seed", range(3))
    def test_apply_and_adjoint_match_dense(self, seed):
        problem, dense, layout, op, X, y = self.fixture(seed)
        assert problem.n_constraints == 6
        expected = sum(np.einsum("ijk,jk->i", Ab, Xb) for Ab, Xb in zip(dense, X))
        assert np.allclose(op.apply(layout.flatten(X)), expected, rtol=1e-13, atol=1e-13)
        for got, Ab in zip(layout.blocks(op.adjoint(y)), dense):
            assert np.allclose(got, np.einsum("i,ijk->jk", y, Ab), rtol=1e-13, atol=1e-13)
            assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("chunk", [1 << 21, 16])
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_schur_matches_dense(self, monkeypatch, chunk, dtype):
        import sosperturb.sdp as sdp
        monkeypatch.setattr(sdp, "_SCHUR_CHUNK", chunk)
        problem, dense, layout, _, W, _ = self.fixture(4)
        m = problem.n_constraints
        op = _Constraints(problem, layout)
        if chunk == 16:
            assert len(op.blocks[0][3]) == m
        M = op.schur(layout.flatten(W).astype(dtype))
        assert M.dtype == dtype
        expected = sum(
            np.einsum("ipq,pr,jrs,sq->ij", Ab, Wb, Ab, Wb) for Ab, Wb in zip(dense, W))
        assert np.allclose(np.asarray(M, dtype=float), expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("chunk", [1 << 21, 16])
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_bitwise_equal_to_csr_products(self, monkeypatch, chunk, dtype, split):
        # the numpy products add in the order of scipy's CSR kernels, so
        # they carry the same bits in double and in longdouble; in the split
        # Choi-Lam program each block touches only some of the constraints
        import sosperturb.sdp as sdp
        monkeypatch.setattr(sdp, "_SCHUR_CHUNK", chunk)
        problem, _, layout, _, W, y = self.fixture(6)
        if split:
            problem = _ReducedGram(CHOI_LAM, theta_big(4, 4), 4).problem
            layout = _Layout(problem.block_sizes)
            rng = np.random.default_rng(6)
            W = [B @ B.T + np.eye(n) for n in problem.block_sizes
                 for B in [rng.standard_normal((n, n))]]
            y = rng.standard_normal(problem.n_constraints)
        op = _Constraints(problem, layout)
        apply, adjoint, schur = scipy_products(problem, layout, chunk)
        # dividing in the working dtype fills the extended mantissa
        W = layout.flatten(W).astype(dtype) / 3
        y = y.astype(dtype) / 3
        for got, want in ((op.apply(W), apply(W)), (op.adjoint(y), adjoint(y)),
                          (op.schur(W), schur(W))):
            assert got.dtype == want.dtype == dtype
            assert same_bits(got, want)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="longdouble is double on this platform")
    def test_longdouble_operands_stay_extended(self):
        # 1 + 2^-56 rounds to 1 in double and is exact in longdouble
        problem, dense, layout, op, _, _ = self.fixture(5)
        tiny = np.longdouble(2) ** -56
        eye = layout.eye.astype(np.longdouble)
        diff = (op.apply((1 + tiny) * eye) - op.apply(eye)) / tiny
        expected = sum(np.einsum("ijj->i", Ab) for Ab in dense)
        assert np.allclose(np.asarray(diff, dtype=float), expected,
                           rtol=0.05, atol=0.05 * np.max(np.abs(expected)))
        ones = np.ones(problem.n_constraints, dtype=np.longdouble)
        shifted = layout.blocks((op.adjoint((1 + tiny) * ones) - op.adjoint(ones)) / tiny)
        for got, Ab in zip(shifted, dense):
            expected = Ab.sum(axis=0)
            assert np.allclose(np.asarray(got, dtype=float), expected,
                               rtol=0.05, atol=0.05 * np.max(np.abs(expected)))


class TestSchurFactor:
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_semidefinite_matrix_factors_at_a_ridge(self, dtype):
        # a constraint that touches no block leaves a zero row and column
        # in the Schur matrix: positive semidefinite, not definite
        rng = np.random.default_rng(3)
        B = rng.standard_normal((5, 5))
        M = np.zeros((6, 6))
        keep = [0, 1, 2, 4, 5]
        M[np.ix_(keep, keep)] = B @ B.T + np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        M = M.astype(dtype)
        with pytest.raises(np.linalg.LinAlgError):
            _factorize(M)
        ridge, solve_m = _schur_solver(M)
        assert ridge > 0.0
        D = np.sqrt(np.where(np.diag(M) > 0, np.diag(M), 1.0)).astype(float)
        ridged = np.asarray(M, dtype=float) + ridge * np.diag(D ** 2)
        rhs = rng.standard_normal(6)
        want = np.linalg.solve(ridged, rhs)
        got = np.asarray(solve_m(rhs.astype(dtype)), dtype=float)
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_indefinite_matrix_not_factored(self, dtype):
        with pytest.raises(np.linalg.LinAlgError):
            _factorize(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=dtype))
        with pytest.raises(np.linalg.LinAlgError, match="factors at no ridge"):
            _schur_solver(np.diag([1.0, -1.0]).astype(dtype))


class TestFlatLayoutSolve:
    SIZES = TestSparseOperators.SIZES

    def test_primal_blocks_in_caller_order(self):
        mats, rhs, _ = random_feasible_rows(7, self.SIZES, m=6)
        sol = solve(random_feasible_problem(7, self.SIZES, m=6))
        assert sol.status is SolveStatus.OPTIMAL
        assert [B.shape for B in sol.primal_blocks] == [(n, n) for n in self.SIZES]
        residual = rhs - np.array([
            sum(float(np.tensordot(Ab, Xb)) for Ab, Xb in zip(row, sol.primal_blocks))
            for row in mats])
        assert np.max(np.abs(residual)) <= 1e-8 * (1 + np.max(np.abs(rhs)))

    def test_primal_blocks_own_their_data(self):
        sol = solve(random_feasible_problem(7, self.SIZES, m=6))
        blocks = sol.primal_blocks
        for i, B in enumerate(blocks):
            assert B.flags.owndata and B.base is None
            assert not any(np.shares_memory(B, other) for other in blocks[i + 1:])
        before = [B.copy() for B in blocks]
        blocks[0][:] = 0.0
        assert all(np.array_equal(B, A) for B, A in zip(blocks[1:], before[1:]))

    def test_repeat_solves_bitwise_equal(self):
        problem = random_feasible_problem(8, self.SIZES, m=6)
        a = solve(problem)
        b = solve(problem)
        assert a.status is b.status and a.iterations == b.iterations
        for Xa, Xb in zip(a.primal_blocks, b.primal_blocks):
            assert Xa.tobytes() == Xb.tobytes()
        assert a.dual_vector.tobytes() == b.dual_vector.tobytes()
        assert (a.primal_objective, a.dual_objective) == (b.primal_objective, b.dual_objective)
        assert a.trace == b.trace


class TestEigen:
    def test_identity(self):
        assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0)
        w, _ = eigendecompose(np.eye(3))
        assert w == pytest.approx([1.0, 1.0, 1.0])

    def test_diagonal(self):
        w, _ = eigendecompose(np.diag([-1.0, 2.0]))
        assert w == pytest.approx([-1.0, 2.0])

    def test_two_by_two_characteristic_roots(self):
        # det([[2-t, 1], [1, 2-t]]) = t^2 - 4t + 3, roots via the quadratic
        # formula
        roots = sorted(np.roots([1.0, -4.0, 3.0]).real)
        w, _ = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert w == pytest.approx(roots)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((6, 6))
        mat = 0.5 * (raw + raw.T)
        w, Q = eigendecompose(mat)
        err = np.max(np.abs(Q @ np.diag(w) @ Q.T - mat))
        assert err <= 1e-9 * np.max(np.abs(mat))
        assert list(w) == sorted(w)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))
