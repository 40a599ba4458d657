import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from sosperturb import preorder, sdp, sos
from sosperturb.errors import (DegreeTooLowError, DimensionMismatchError,
                               NotFoundWithinRMaxError, NotPsdError,
                               SolverFailureError)
from sosperturb.moments import moment_matrix, psd_check
from sosperturb.parsing import parse
from sosperturb.polynomials import MonomialBasis, Polynomial, theta_big, theta_small
from sosperturb.sdp import SolveStatus, solve
from sosperturb.symmetry import act
from sosperturb.sos import (DEFAULT_CLIP_TOL, THETA_BIG, THETA_SMALL,
                            GramCertificate, _forced_zeros, _gram_form,
                            _ReducedGram, _residual,
                            approximate_on_box, epsilon_star,
                            extract_certificate, is_sos, minimal_r,
                            verify_certificate, verify_certificate_obj)

from reference_programs import build_gram_system, build_moment_system, check_lemma3

ONE_MINUS_SQ = parse("1 - x1^2", 1)
MOTZKIN = parse("1 + x1^2*x2^2*(x1^2 + x2^2 - 3)", 2)
CHOI_LAM = parse("x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2 + x4^4 - 4*x1*x2*x3*x4", 4)
SIGNED_CHOI_LAM = parse("x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2 + x4^4 + 4*x1*x2*x3*x4", 4)
CHOI_LAM_SEXTIC = parse("x1^4*x2^2 + x2^4*x3^2 + x3^4*x1^2 - 3*x1^2*x2^2*x3^2", 3)
# invariant under (x1, x2) -> (x2, -x1), which maps x1*x2 to minus itself
ROTATION_QUARTIC = parse("1 + (x1^2 + x2^2)^2 + x1*x2*(x1^2 - x2^2)", 2)


def gram_off_by_half(real):
    """A solve whose zero-objective (feasibility) solutions carry every
    Gram block plus 0.5 * I, so the certificate misses its target."""
    def solve_off(problem):
        sol = real(problem)
        if any(c.any() for c in problem.C):
            return sol
        return dataclasses.replace(sol, primal_blocks=[
            x + 0.5 * np.eye(len(x)) for x in sol.primal_blocks])
    return solve_off


def monomial_weight(r):
    """Minimal w making 1 - x^2 + w*x^(2r) nonnegative on the line.

    The stationary point x* of the perturbed polynomial satisfies
    2*r*w*x^(2r-2) = 2, and nonnegativity at x* works out to
    w >= (r-1)^(r-1) / r^r.
    """
    return (r - 1) ** (r - 1) / r ** r


def quartic_theta_weight_by_bisection():
    """Minimal w with (1+w) - x^2 + w*x^4 >= 0 on the line, found by
    bisection on w with a nonnegativity check per candidate (sign of the
    discriminant in t = x^2 plus a fine grid as a sanity net)."""

    def nonneg(w):
        disc = 1.0 - 4.0 * w * (1.0 + w)
        grid = np.linspace(-50.0, 50.0, 20001)
        values = (1.0 + w) - grid ** 2 + w * grid ** 4
        return disc <= 0.0 and values.min() >= -1e-12

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if nonneg(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestBuildGramSystem:
    def test_univariate_structure(self):
        problem = build_gram_system(ONE_MINUS_SQ, Polynomial.monomial(1, (4,)), 2)
        assert problem.block_sizes[0] == 3
        assert problem.n_constraints == 5

    def test_motzkin_structure(self):
        problem = build_gram_system(MOTZKIN, Polynomial.monomial(2, (6, 0)), 3)
        assert problem.block_sizes[0] == 10
        assert problem.n_constraints == 28

    def test_zero_target_feasible_at_zero(self):
        problem = build_gram_system(Polynomial.zero(1), theta_big(1, 2), 2)
        sol = solve(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.primal_objective == pytest.approx(0.0, abs=1e-7)

    def test_degree_guard(self):
        with pytest.raises(DegreeTooLowError):
            build_gram_system(MOTZKIN, Polynomial.zero(2), 2)

    def test_nvars_guard(self):
        with pytest.raises(DimensionMismatchError):
            build_gram_system(ONE_MINUS_SQ, Polynomial.zero(2), 2)

    def test_quartic_constraint_data_below_one_megabyte(self):
        # 4-variable quartic at r = 4: the 70 monomials of degree <= 4 fall
        # into 8 sign-symmetry cosets, 85 of the 495 monomial constraints
        # keep entries, and the permutations of x1, x2, x3 sum them into 32
        # orbits; as one block with dense (m, n, n) rows the program held
        # 19 MB
        problem = _ReducedGram(CHOI_LAM, theta_big(4, 4), 4).problem
        assert problem.n_constraints == 32
        assert problem.block_sizes == (16, 6, 6, 6, 6, 10, 10, 10, 1)
        assert sum(a.nbytes for a in problem.A) < 2 ** 20

    @pytest.mark.parametrize("f, r", [(CHOI_LAM, 4), (SIGNED_CHOI_LAM, 4),
                                      (CHOI_LAM_SEXTIC, 6), (ROTATION_QUARTIC, 3)],
                             ids=["choi-lam", "signed choi-lam", "sextic", "rotation"])
    def test_split_program_matches_full_program(self, f, r):
        # the split program sums the orbits of its signed permutations; the
        # full one has one block and one equality per monomial
        p = theta_big(f.n_vars, r)
        full = build_gram_system(f, p, r)
        sol = solve(full)
        assert sol.status is SolveStatus.OPTIMAL
        reduced = _ReducedGram(f, p, r)
        assert reduced.problem.n_constraints < full.n_constraints
        res = epsilon_star(f, r, p)
        assert res.min_eps == pytest.approx(sol.dual_objective, abs=1e-7)
        assert res.certificate.residual_linf <= 1e-6
        moments = res.dual_moments.values
        for g in reduced.group.generators:
            for gamma, value in moments.items():
                image, sign = act(g, gamma)
                assert moments[image] == sign * value

    def test_quartic_sum_of_quartics_in_eight_variables(self):
        # 1 + x1^4 + ... + x8^4 has 2^8 * 8! signed permutations; its 45
        # even monomials of degree <= 4 fall into four orbits
        f = Polynomial(8, {(0,) * 8: 1.0, **{tuple(4 * (i == j) for i in range(8)): 1.0
                                             for j in range(8)}})
        start = time.perf_counter()
        reduced = _ReducedGram(f, theta_big(8, 2), 2)
        assert time.perf_counter() - start < 1.0
        assert [{tuple(sorted(g)) for g, _ in row} for row in reduced.rows] == [
            {(0,) * 8}, {(0,) * 7 + (2,)}, {(0,) * 7 + (4,)}, {(0,) * 6 + (2, 2)}]
        assert reduced.problem.n_constraints == 4
        assert sum(len(row) for row in reduced.rows) == 1 + 8 + 8 + 28

    def test_preorder_program_keeps_one_equality_per_gamma(self, monkeypatch):
        # the Motzkin polynomial, theta_small and the box are all invariant
        # under the swap of x1 and x2; a preordering still gets the program
        # of its sign flips alone
        p = theta_small(2, 4)
        assert sos.stabilizer([MOTZKIN, p]) is not None
        box = [parse("1 - x1^2", 2), parse("1 - x2^2", 2)]
        built = _ReducedGram(MOTZKIN, p, 4, None, box)
        monkeypatch.setattr(sos, "stabilizer", lambda polys: None)
        plain = _ReducedGram(MOTZKIN, p, 4, None, box)
        assert all(len(row) == 1 for row in built.rows)
        assert built.problem.block_sizes == plain.problem.block_sizes
        for x, y in zip([*built.problem.A, built.problem.b, *built.problem.C],
                        [*plain.problem.A, plain.problem.b, *plain.problem.C]):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def kept(reduced):
    """Basis indices of each product that stay in the program."""
    return [sorted(i for _, idx in parts for i in idx) for parts in reduced.parts]


class TestForcedZeros:
    """The pruning rule on hand-built rows (product, i, j, coefficient)."""

    def test_same_sign_diagonals_forced(self):
        assert _forced_zeros([[(0, 1, 1, 1.0), (1, 2, 2, 0.5)]]) == {(0, 1), (1, 2)}
        assert _forced_zeros([[(0, 1, 1, -1.0), (0, 2, 2, -0.25)]]) == {(0, 1), (0, 2)}

    def test_mixed_signs_not_forced(self):
        assert _forced_zeros([[(0, 1, 1, 1.0), (0, 2, 2, -1.0)]]) == set()

    def test_off_diagonal_entry_not_forced(self):
        assert _forced_zeros([[(0, 1, 1, 1.0), (0, 1, 2, 1.0)]]) == set()

    def test_fixed_point_across_rows(self):
        # the off-diagonal entry of the first row goes once the second row
        # forces position 2
        rows = [[(0, 0, 2, 1.0), (0, 1, 1, 1.0)], [(0, 2, 2, 1.0)]]
        assert _forced_zeros(rows) == {(0, 1), (0, 2)}

    def test_nonzero_rhs_not_forced(self):
        # x^4 is matched by Q[x^2, x^2] alone, but f has a coefficient there
        reduced = _ReducedGram(parse("1 + x1^4", 1), Polynomial.constant(1, 1.0), 2)
        assert kept(reduced) == [[0, 1, 2]]

    def test_eps_entry_not_forced(self):
        p = Polynomial.monomial(1, (4,))
        assert kept(_ReducedGram(Polynomial.constant(1, 1.0), p, 2)) == [[0, 1, 2]]
        # the feasibility program has no eps entry: only its rhs counts
        assert kept(_ReducedGram(Polynomial.constant(1, 1.0), p, 2, eps=0.0)) == [[0]]
        assert kept(_ReducedGram(Polynomial.constant(1, 1.0), p, 2, eps=0.5)) == [[0, 1, 2]]

    def test_x1_chain_is_infeasible(self):
        # the row of x^4 forces the basis element x^2, the row of x^2 then
        # forces x, and the row of x has nothing left to match x1 with
        reduced = _ReducedGram(parse("x1", 1), Polynomial.constant(1, 1.0), 2)
        assert kept(reduced) == [[0]]
        assert reduced.infeasible_gamma == (1,)
        assert reduced.problem is None
        with pytest.raises(SolverFailureError) as err:
            epsilon_star(parse("x1", 1), 2, Polynomial.constant(1, 1.0))
        assert err.value.solution.status is SolveStatus.PRIMAL_LIKELY_INFEASIBLE
        assert err.value.solution.iterations == 0


class TestEpsilonStar:
    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_monomial_perturbation_closed_form(self, r):
        res = epsilon_star(ONE_MINUS_SQ, r, Polynomial.monomial(1, (2 * r,)))
        assert res.min_eps == pytest.approx(monomial_weight(r), abs=1e-6)
        assert res.eps_star == -res.min_eps
        assert res.gap <= 1e-6

    def test_no_matchable_coefficients(self):
        # zero target and zero perturbation: pruning leaves no equality
        with pytest.raises(SolverFailureError,
                           match="no matchable coefficients remain at r=1") as err:
            epsilon_star(Polynomial.zero(1), 1, Polynomial.zero(1))
        assert err.value.solution.status is SolveStatus.PRIMAL_LIKELY_INFEASIBLE
        assert err.value.solution.iterations == 0

    def test_quartic_theta_weight_matches_bisection_oracle(self):
        oracle = quartic_theta_weight_by_bisection()
        assert oracle == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-9)
        res = epsilon_star(ONE_MINUS_SQ, 2, theta_big(1, 2))
        assert 0.0 < res.min_eps < 0.25
        assert res.min_eps == pytest.approx(oracle, abs=1e-6)

    def test_sos_input_gives_zero(self):
        f = parse("(1 + x1)^2", 1)
        res = epsilon_star(f, 1, theta_big(1, 1))
        assert abs(res.eps_star) <= 1e-7

    def test_certificate_is_sound(self):
        res = epsilon_star(ONE_MINUS_SQ, 3, Polynomial.monomial(1, (6,)))
        target = ONE_MINUS_SQ + Polynomial.monomial(1, (6,)).scale(res.min_eps)
        assert verify_certificate(target, res.certificate.squares) <= 1e-6

    def test_dual_moments_match_half_mass_pair(self):
        # at the quartic threshold the optimal functional is the symmetric
        # mixture of point masses at +/- sqrt(2) scaled to 1/4 total mass
        res = epsilon_star(ONE_MINUS_SQ, 2, Polynomial.monomial(1, (4,)))
        y = res.dual_moments
        # dual components resolve to roughly the square root of the gap
        assert y[(0,)] == pytest.approx(0.25, abs=1e-3)
        assert y[(1,)] == pytest.approx(0.0, abs=1e-3)
        assert y[(2,)] == pytest.approx(0.5, abs=1e-3)
        assert y[(4,)] == pytest.approx(1.0, abs=1e-3)
        assert psd_check(moment_matrix(y, 2), tol=1e-6)

    def test_dual_moments_bounded_for_box_perturbation(self):
        res = epsilon_star(ONE_MINUS_SQ, 4, theta_big(1, 4))
        assert check_lemma3(res.dual_moments, 4, tau=1.0 + 1e-6, tol=1e-6)

    def test_independent_moment_side_agrees(self):
        p = Polynomial.monomial(1, (4,))
        gram_res = epsilon_star(ONE_MINUS_SQ, 2, p)
        sol = solve(build_moment_system(ONE_MINUS_SQ, p, 2))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.primal_objective == pytest.approx(-gram_res.min_eps, abs=1e-6)

    @pytest.mark.parametrize("f, r", [
        *(pytest.param(ONE_MINUS_SQ, r, id=f"one_minus_sq-{r}") for r in range(2, 8)),
        *(pytest.param(MOTZKIN, r, id=f"motzkin-{r}") for r in range(3, 7)),
    ])
    def test_independent_moment_side_agrees_with_theta_big(self, f, r):
        p = theta_big(f.n_vars, r)
        gram_res = epsilon_star(f, r, p)
        sol = solve(build_moment_system(f, p, r))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.primal_objective == pytest.approx(-gram_res.min_eps, abs=1e-6)

    def test_duality_gap_raises(self, monkeypatch):
        # an Optimal status does not stand in for agreement of the two sides
        def shifted(problem):
            sol = solve(problem)
            return dataclasses.replace(sol, dual_objective=sol.dual_objective + 1e-3)

        monkeypatch.setattr(sos, "solve", shifted)
        with pytest.raises(SolverFailureError, match="optima disagree by 1.000e-03"):
            epsilon_star(ONE_MINUS_SQ, 2, theta_big(1, 2))

    def test_degree_guard(self):
        with pytest.raises(DegreeTooLowError):
            epsilon_star(MOTZKIN, 2, Polynomial.zero(2))


class TestIsSos:
    def test_motzkin_is_not(self):
        ok, cert = is_sos(MOTZKIN)
        assert not ok and cert is None

    def test_boundary_quartic_is(self):
        ok, cert = is_sos(parse("1 - x1^2 + 1/4*x1^4", 1))
        assert ok
        assert cert.residual_linf <= 1e-6

    def test_perfect_square_is(self):
        ok, cert = is_sos(parse("x1^2 + 2*x1*x2 + x2^2", 2))
        assert ok
        assert len(cert.squares) == 1

    def test_odd_degree_immediately_no(self):
        assert is_sos(parse("x1^3 + 1", 1)) == (False, None)

    def test_zero_is(self):
        ok, cert = is_sos(Polynomial.zero(2))
        assert ok and cert.squares == []

    def test_zero_certificate_from_the_one_constructor(self):
        # the 1x1 zero Gram matrix has no block to extract, and no square
        # and no target term leave the residual nothing to sum
        _, cert = is_sos(Polynomial.zero(2))
        assert cert.to_obj() == {"basis": [[0, 0]], "gram": [0.0], "squares": [],
                                 "residual_linf": 0.0}
        assert extract_certificate(np.zeros((1, 1)), cert.basis) == []
        assert verify_certificate(Polynomial.zero(2), []) == 0.0

    def test_negative_constant_is_not(self):
        ok, _ = is_sos(parse("-1", 1))
        assert not ok

    def test_positive_constant_is(self):
        ok, cert = is_sos(parse("2", 1))
        assert ok and cert.residual_linf <= 1e-8

    def test_threshold_dichotomy(self):
        p = Polynomial.monomial(1, (4,))
        res = epsilon_star(ONE_MINUS_SQ, 2, p)
        above, _ = is_sos(ONE_MINUS_SQ + p.scale(res.min_eps * 1.01))
        below, _ = is_sos(ONE_MINUS_SQ + p.scale(res.min_eps * 0.9))
        assert above and not below

    def test_feasibility_form_has_no_eps_block(self, monkeypatch):
        problems = []

        def recording(problem):
            problems.append(problem)
            return solve(problem)

        monkeypatch.setattr(sos, "solve", recording)
        ok, _ = is_sos(parse("(x1^2 - x2^2)^2 + (x1*x2 - 1)^2", 2))
        assert ok
        assert [p.block_sizes for p in problems] == [(4, 2)]
        assert all(not c.any() for c in problems[0].C)

    def test_pruned_infeasible_is_not(self, monkeypatch):
        # forced-zero pruning leaves no entry for the coefficient of x1,
        # so the answer is "no" without a solve
        calls = []
        monkeypatch.setattr(sos, "solve", lambda problem: calls.append(problem))
        assert is_sos(parse("x1^2*x2^2 + x1", 2)) == (False, None)
        assert calls == []

    def test_indefinite_gram_is_not(self, monkeypatch):
        def negated(problem):
            sol = solve(problem)
            return dataclasses.replace(sol, primal_blocks=[-x for x in sol.primal_blocks])

        monkeypatch.setattr(sos, "solve", negated)
        assert is_sos(parse("1 + x1^2", 1)) == (False, None)

    def test_certificate_that_misses_is_not(self, monkeypatch):
        monkeypatch.setattr(sos, "solve", gram_off_by_half(solve))
        assert is_sos(parse("1 + x1^2", 1)) == (False, None)

    def test_undecided_solve_raises(self, monkeypatch):
        # an iteration cap of 2 ends the solve undecided, which is not "no"
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        with pytest.raises(SolverFailureError) as info:
            is_sos(parse("1 - x1^2 + 1/4*x1^4", 1))
        assert info.value.solution.status is SolveStatus.ITERATION_LIMIT


class TestExtraction:
    def test_identity_gram(self):
        basis = MonomialBasis.build(1, 1)
        squares = extract_certificate(np.eye(2), basis)
        assert sorted((h.terms for h in squares), key=str) == sorted(
            [{(0,): 1.0}, {(1,): 1.0}], key=str)

    def test_no_positive_eigenvalue_gives_no_squares(self):
        # -1e-12 is within the clip tolerance, so not an error, and no
        # direction is kept
        assert extract_certificate(np.array([[-1e-12]]), MonomialBasis.build(1, 0)) == []

    def test_rank_one_gram(self):
        basis = MonomialBasis.build(1, 1)
        squares = extract_certificate(np.ones((2, 2)), basis)
        assert len(squares) == 1
        h = squares[0]
        # sqrt(2) * (1, 1)/sqrt(2) puts coefficient 1 on both monomials
        assert h.coeff((0,)) == pytest.approx(1.0)
        assert h.coeff((1,)) == pytest.approx(1.0)
        assert verify_certificate(parse("(1 + x1)^2", 1), squares) <= 1e-12

    def test_boundary_quartic_closed_form(self):
        # 1 - x^2 + x^4/4 is exactly (1 - x^2/2)^2
        f = parse("1 - x1^2 + 1/4*x1^4", 1)
        ok, cert = is_sos(f)
        assert ok
        assert verify_certificate(f, cert.squares) <= 1e-7
        direct = parse("(1 - 1/2*x1^2)^2", 1)
        assert verify_certificate(direct, cert.squares) <= 1e-6

    def test_rejects_indefinite(self):
        basis = MonomialBasis.build(1, 1)
        with pytest.raises(NotPsdError):
            extract_certificate(np.diag([1.0, -1.0]), basis)
        with pytest.raises(NotPsdError):
            GramCertificate.from_gram(basis, np.diag([1.0, -1.0]), parse("1 - x1^2", 1))

    def test_square_count_bounded_by_basis(self):
        res = epsilon_star(MOTZKIN, 3, Polynomial.monomial(2, (6, 0)))
        assert len(res.certificate.squares) <= 10

    @pytest.mark.parametrize("f, r, n_blocks", [(CHOI_LAM, 4, 8), (MOTZKIN, 5, 4)])
    def test_each_square_lies_in_one_block(self, f, r, n_blocks):
        # a dense eigh of the 70 x 70 quartic Gram put all 70 monomials
        # into every square
        cert = epsilon_star(f, r, theta_big(f.n_vars, r)).certificate
        count, labels = connected_components(cert.gram != 0.0, directed=False)
        assert count == n_blocks
        label = dict(zip(cert.basis.entries, labels))
        for h in cert.squares:
            assert len({label[a] for a in h.terms}) == 1
        assert cert.residual_linf <= 1e-6

    def test_squares_ordered_across_blocks(self):
        # blocks {1, x^2} with eigenvalues 3 and 1, and {x} with 3: the tie
        # goes to the first block; clipping is against the largest of all
        basis = MonomialBasis.build(1, 2)
        gram = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 2.0]])
        squares = extract_certificate(gram, basis)
        assert [sorted(h.terms) for h in squares] == [[(0,), (2,)], [(1,)], [(0,), (2,)]]
        assert [sum(c * c for c in h.terms.values()) for h in squares] == pytest.approx(
            [3.0, 3.0, 1.0])
        tiny = np.diag([1.0, 0.5 * DEFAULT_CLIP_TOL, 0.0])
        assert [h.terms for h in extract_certificate(tiny, basis)] == [{(0,): 1.0}]
        with pytest.raises(NotPsdError):
            extract_certificate(np.diag([1.0, -1.0, 1.0]), basis)


class TestVerify:
    def test_exact_match(self):
        target = parse("1 + 2*x1 + x1^2", 1)
        assert verify_certificate(target, [parse("1 + x1", 1)]) == 0.0

    def test_mismatch_surfaces(self):
        assert verify_certificate(
            Polynomial.constant(1, 1.0), [parse("x1", 1)]) == 1.0

    def test_motzkin_certificate_residual(self):
        target = MOTZKIN + Polynomial.monomial(2, (6, 0)).scale(0.25)
        ok, cert = is_sos(target)
        assert ok
        assert verify_certificate(target, cert.squares) <= 1e-6

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatchError):
            verify_certificate(Polynomial.constant(1, 1.0),
                               [Polynomial.constant(2, 1.0)])

    def test_zero_skipping_gram_form_matches_dense_pairs(self):
        def dense_gram_form(product, exponents, gram):
            # every one of the n^2 pairs, zero or not
            n = product.n_vars
            exponents = np.asarray(exponents, dtype=np.int64).reshape(-1, n)
            shifts = np.array(list(product.terms), dtype=np.int64).reshape(-1, n)
            weights = np.array(list(product.terms.values()))
            pairs = exponents[:, None, :] + exponents[None, :, :]
            return (shifts[:, None, None, :] + pairs[None],
                    weights[:, None, None] * gram[None])

        rng = np.random.default_rng(7)
        basis = MonomialBasis.build(2, 2)
        blocks = [[0, 3, 5], [1], [2], [4]]   # parity cosets of 1, x1, x2, x1*x2
        gram = np.zeros((6, 6))
        for idx in blocks:
            a = rng.standard_normal((len(idx), len(idx)))
            gram[np.ix_(idx, idx)] = a @ a.T / 3.0
        one = Polynomial.constant(2, 1.0)
        cusp = parse("(1 - x1^2 - x2^2)^3", 2)
        target = parse("1 + 1/3*x1^2 - 2/7*x2^4 + 3/11*x1^2*x2^2", 2)
        terms = [(one, gram), (cusp, gram[::-1, ::-1].copy())]
        sparse = [_gram_form(g, basis.entries, q) for g, q in terms]
        dense = [dense_gram_form(g, basis.entries, q) for g, q in terms]
        assert [v.size for _, v in sparse] == [
            len(g.terms) * np.count_nonzero(q) for g, q in terms]
        assert _residual(target, sparse) == _residual(target, dense)
        assert _residual(target, sparse) > 0.0


class TestMinimalR:
    def test_unknown_perturbation_kind(self):
        with pytest.raises(ValueError, match="unknown perturbation kind 'theta-medium'"):
            minimal_r(ONE_MINUS_SQ, 0.5, "theta-medium", 4)

    def test_univariate_sweep(self):
        fam = lambda n, r: Polynomial.monomial(n, (2 * r,))
        res = minimal_r(ONE_MINUS_SQ, 0.15, fam, 8)
        assert res.r == 3
        steps = [t["min_eps"] for t in res.trajectory if t["min_eps"] is not None]
        assert steps[-2] > 0.15 > steps[-1]

    def test_motzkin_sweep(self):
        fam = lambda n, r: Polynomial.monomial(n, (2 * r, 0))
        res = minimal_r(MOTZKIN, 0.25, fam, 5)
        assert res.r == 3
        assert res.certificate.residual_linf <= 1e-6

    def test_already_sos_immediate(self):
        res = minimal_r(parse("(x1 + 1)^2", 1), 0.01, THETA_BIG, 5)
        assert res.r == 1
        assert len(res.trajectory) == 1

    def test_odd_degree_target(self):
        # 1 + x is nonnegative on the unit interval; the sweep still applies
        res = minimal_r(parse("1 + x1", 1), 0.5, THETA_BIG, 5)
        assert res.r == 1
        assert res.certificate.residual_linf <= 1e-6

    def test_certificate_covers_requested_weight(self):
        res = minimal_r(ONE_MINUS_SQ, 0.3, THETA_BIG, 6)
        target = ONE_MINUS_SQ + theta_big(1, res.r).scale(0.3)
        assert verify_certificate(target, res.certificate.squares) <= 1e-6

    def test_not_found_carries_trajectory(self):
        fam = lambda n, r: Polynomial.monomial(n, (2 * r,))
        with pytest.raises(NotFoundWithinRMaxError) as err:
            minimal_r(ONE_MINUS_SQ, 0.001, fam, 4)
        rs = [t["r"] for t in err.value.trajectory]
        assert rs == [1, 2, 3, 4]

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            minimal_r(ONE_MINUS_SQ, 0.0, THETA_BIG, 4)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError):
            minimal_r(ONE_MINUS_SQ, eps, THETA_BIG, 4)

    def test_theta_small_kind(self):
        res = minimal_r(ONE_MINUS_SQ, 0.25, THETA_SMALL, 8)
        assert res.min_eps <= 0.25 + 1e-7
        assert res.certificate.residual_linf <= 1e-6
        assert res.warnings == []
        assert "warnings" not in res.to_obj()

    def test_certificate_that_does_not_verify_warns(self, monkeypatch):
        # the re-solve at the covered degree returns its Gram blocks plus
        # 0.5 * I, which miss the target by 0.5 on the even monomials
        monkeypatch.setattr(sos, "solve", gram_off_by_half(sos.solve))
        fam = lambda n, r: Polynomial(n, {(0,): 2.0, (1,): 1.0, (2 * r,): 1.0})
        res = minimal_r(ONE_MINUS_SQ, 0.5, fam, 10)
        assert res.r == 2
        residual = res.certificate.residual_linf
        assert residual > 1e-6
        assert res.warnings == [
            f"reconstruction residual {residual:.3e} exceeds 1e-06: the monomial "
            "certificate does not re-verify at the default tolerance"]
        assert res.to_obj()["warnings"] == res.warnings


    def test_last_solve_is_the_feasibility_program(self, monkeypatch):
        # the certificate comes from the feasibility program for f + eps*p_r
        # at the covered degree, the program membership re-solves
        problems = []

        def recording(problem):
            problems.append(problem)
            return solve(problem)

        monkeypatch.setattr(sos, "solve", recording)
        res = minimal_r(ONE_MINUS_SQ, 0.3, THETA_BIG, 6)
        built = _ReducedGram(ONE_MINUS_SQ, theta_big(1, res.r), res.r, 0.3).problem
        resolved = problems[-1]
        assert built.block_sizes == resolved.block_sizes
        assert [a.tobytes() for a in built.A] == [a.tobytes() for a in resolved.A]
        assert built.b.tobytes() == resolved.b.tobytes()
        assert [c.tobytes() for c in built.C] == [c.tobytes() for c in resolved.C]


class TestApproximateOnBox:
    def test_unit_scale_matches_sweep(self):
        direct = minimal_r(ONE_MINUS_SQ, 0.3, THETA_BIG, 6)
        box = approximate_on_box(ONE_MINUS_SQ, 0.3, 1.0, 6)
        assert box.r == direct.r
        assert box.min_eps == direct.min_eps

    def test_scaled_weight_formula(self):
        # minimal weight for 4*(1 - x^2) + w*x^(2r) scales the unit-box value
        # by 4
        g = parse("4 - 4*x1^2", 1)
        for r in (2, 3):
            res = epsilon_star(g, r, Polynomial.monomial(1, (2 * r,)))
            assert res.min_eps == pytest.approx(4 * monomial_weight(r), abs=1e-5)

    def test_wide_box_certificate(self):
        f = parse("4 - x1^2", 1)
        res = approximate_on_box(f, 0.2, 2.0, 10)
        assert res.certificate.residual_linf <= 1e-6
        assert res.warnings == []
        # reconstruction certifies f + eps * (1 + (x/2)^(2r))
        perturbation = Polynomial(
            1, {(0,): 1.0, (2 * res.r,): 2.0 ** (-2 * res.r)})
        target = f + perturbation.scale(0.2)
        assert verify_certificate(target, res.certificate.squares) <= 1e-6
        for x in (-1.7, 0.3, 1.9):
            direct = sum(h.eval((x,)) ** 2 for h in res.certificate.squares)
            # coefficient residual amplified by at most x^(2r) pointwise
            assert direct == pytest.approx(target.eval((x,)), rel=1e-5, abs=1e-5)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            approximate_on_box(ONE_MINUS_SQ, 0.1, -1.0, 5)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_rejects_non_finite_scale(self, scale):
        with pytest.raises(ValueError):
            approximate_on_box(ONE_MINUS_SQ, 0.1, scale, 5)


class TestSerializedCertificates:
    def test_roundtrip_accepts(self):
        res = epsilon_star(ONE_MINUS_SQ, 2, Polynomial.monomial(1, (4,)))
        obj = res.to_obj()
        target = ONE_MINUS_SQ + Polynomial.monomial(1, (4,)).scale(res.min_eps)
        out = verify_certificate_obj(obj, target)
        assert out["residual_linf"] <= 1e-6

    def test_tampered_gram_rejected(self):
        res = epsilon_star(ONE_MINUS_SQ, 2, Polynomial.monomial(1, (4,)))
        obj = res.to_obj()
        obj["gram"] = list(obj["gram"])
        obj["gram"][0] += 1e-2
        target = ONE_MINUS_SQ + Polynomial.monomial(1, (4,)).scale(res.min_eps)
        out = verify_certificate_obj(obj, target)
        assert out["residual_linf"] > 1e-3

    def test_wrong_nvars_rejected(self):
        res = epsilon_star(ONE_MINUS_SQ, 2, Polynomial.monomial(1, (4,)))
        with pytest.raises(DimensionMismatchError):
            verify_certificate_obj(res.to_obj(), Polynomial.constant(2, 1.0))

    def test_dense_squares_still_accepted(self):
        # squares from one eigh of the whole Gram matrix, as certificates
        # were written before extraction went block by block
        res = epsilon_star(MOTZKIN, 4, theta_big(2, 4))
        basis, gram = res.certificate.basis, res.certificate.gram
        w, Q = np.linalg.eigh(gram)
        squares = [
            Polynomial(2, {a: math.sqrt(w[k]) * Q[i, k]
                           for i, a in enumerate(basis.entries) if Q[i, k] != 0.0})
            for k in range(len(w) - 1, -1, -1) if w[k] > DEFAULT_CLIP_TOL * w[-1]]
        assert max(len(h.terms) for h in squares) == len(basis)
        obj = {**res.to_obj(), "squares": [h.to_obj() for h in squares]}
        out = verify_certificate_obj(obj, MOTZKIN + theta_big(2, 4).scale(res.min_eps))
        assert out["residual_linf"] <= 1e-6

    def test_gram_written_as_the_triangle_decode_reads(self):
        gram = np.array([[1.0, 2.0, 4.0], [2.0, 3.0, 5.0], [4.0, 5.0, 6.0]])
        obj = GramCertificate(MonomialBasis.build(1, 2), gram, [], 0.0).to_obj()
        assert obj["gram"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert all(type(v) is float for v in obj["gram"])
        assert np.array_equal(sos.decode_gram_obj(obj, 1)[1], gram)

    @pytest.mark.parametrize("change, message", [
        ({"basis": [[1], [0]]}, "not the graded-lex basis"),
        ({"gram": [1.0, 0.0]}, "gram lower triangle has the wrong length"),
    ], ids=["basis-order", "triangle-length"])
    def test_malformed_gram_object_rejected(self, change, message):
        obj = {"basis": [[0], [1]], "gram": [1.0, 0.0, 1.0], "squares": [], **change}
        with pytest.raises(ValueError, match=message):
            sos.decode_gram_obj(obj, 1)


CUSP = preorder.SemialgebraicSystem([parse("(1 - x1^2)^3", 1)], True)
SWEEPS = {
    "minimal_r": lambda eps, r_max: minimal_r(ONE_MINUS_SQ, eps, THETA_SMALL, r_max),
    "membership": lambda eps, r_max: preorder.membership(
        ONE_MINUS_SQ, eps, THETA_SMALL, CUSP, r_max),
}


@pytest.mark.parametrize("sweep", SWEEPS.values(), ids=SWEEPS.keys())
class TestSweepVerdict:
    """The sweep's failure carries its own verdict: the status the CLI
    reports, with the degrees it rests on."""

    def test_definite_no(self, sweep):
        with pytest.raises(NotFoundWithinRMaxError) as err:
            sweep(1e-4, 3)
        assert err.value.status is None
        assert err.value.degrees == []
        assert [t["status"] for t in err.value.trajectory] == ["ok"] * 3

    def test_decomposition_failed(self, sweep, monkeypatch):
        real = sos.solve

        def failing(problem):
            sol = real(problem)
            if not any(c.any() for c in problem.C):  # the feasibility re-solve
                return dataclasses.replace(sol, status=SolveStatus.ITERATION_LIMIT)
            return sol

        monkeypatch.setattr(sos, "solve", failing)
        with pytest.raises(NotFoundWithinRMaxError) as err:
            sweep(0.5, 3)
        assert err.value.status == "decomposition-failed"
        assert err.value.degrees == [2, 3]

    def test_solver_failed(self, sweep, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        with pytest.raises(NotFoundWithinRMaxError) as err:
            sweep(0.5, 3)
        assert err.value.status == "solver-failed"
        assert err.value.degrees == [1, 2, 3]


class TestConvergenceTrend:
    # min_eps of 1 - x^2 with theta_big; split into even and odd
    # monomials, every degree up to 20 reaches Optimal (r = 12, 15 and 16
    # ended in IterationLimit as one Gram block)
    THETA_BIG_MIN_EPS = {
        9: 0.0333171722, 10: 0.0297559439, 11: 0.0268826575,
        12: 0.0245154982, 13: 0.0225315365, 14: 0.0208446850,
        15: 0.0193928433, 16: 0.0181300936, 17: 0.0170217499,
        18: 0.0160411212, 19: 0.0151673340, 20: 0.0143838281,
    }

    @pytest.mark.parametrize("r", sorted(THETA_BIG_MIN_EPS))
    def test_theta_big_reach(self, r):
        res = epsilon_star(ONE_MINUS_SQ, r, theta_big(1, r))
        assert res.min_eps == pytest.approx(self.THETA_BIG_MIN_EPS[r], abs=1e-7)

    def test_box_weights_shrink(self):
        values = []
        for r in range(2, 11):
            res = epsilon_star(ONE_MINUS_SQ, r, theta_big(1, r))
            assert res.eps_star <= 1e-8
            values.append(res.eps_star)
        assert abs(values[-1]) < abs(values[0])
        # not required by theory, but observed: the sequence is monotone
        for a, b in zip(values, values[1:]):
            assert abs(b) <= abs(a) + 1e-7
