import dataclasses
import math

import pytest

from sosperturb import preorder, sdp, sos
from sosperturb.errors import (DimensionMismatchError, NotFoundWithinRMaxError,
                               TooManyGeneratorsError)
from sosperturb.moments import moment_matrix, psd_check
from sosperturb.parsing import parse, unparse
from sosperturb.polynomials import Polynomial, theta_big, theta_small
from sosperturb.preorder import (SemialgebraicSystem,
                                 build_preorder_sdp, epsilon_star_preorder,
                                 load_system, membership, verify_preorder_obj)
from sosperturb.sdp import SolveStatus, min_eigenvalue, solve
from sosperturb.sos import THETA_BIG, THETA_SMALL, _ReducedGram, minimal_r

INTERVAL = SemialgebraicSystem([parse("x1", 1), parse("1 - x1", 1)], True)
CUSP = SemialgebraicSystem([parse("(1 - x1^2)^3", 1)], True)
SHIFTED_RAY = SemialgebraicSystem([parse("x1 - 2", 1)], True)
ONE_MINUS_SQ = parse("1 - x1^2", 1)


def dump_system(system: SemialgebraicSystem) -> str:
    """The text `load_system` reads back as the same system."""
    lines = [f"nvars {system.n_vars}",
             f"moment_problem {'asserted' if system.assert_moment_problem else 'unknown'}"]
    if system.note:
        lines.append(f"note {system.note}")
    lines.extend(unparse(g) for g in system.generators)
    return "\n".join(lines) + "\n"


class TestSystem:
    def test_generator_cap(self):
        gens = [parse("x1", 1)] * 11
        with pytest.raises(TooManyGeneratorsError):
            SemialgebraicSystem(gens)

    def test_no_generators_rejected(self):
        with pytest.raises(ValueError, match="at least one generator is required"):
            SemialgebraicSystem([])

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            SemialgebraicSystem([Polynomial.zero(1)])

    def test_mixed_nvars_rejected(self):
        with pytest.raises(DimensionMismatchError):
            SemialgebraicSystem([parse("x1", 1), parse("x2", 2)])

    def test_file_roundtrip(self):
        text = dump_system(CUSP)
        back = load_system(text)
        assert back.n_vars == 1
        assert back.assert_moment_problem
        assert back.generators[0].terms == CUSP.generators[0].terms

    def test_file_format(self):
        system = load_system(
            "# interval description\n"
            "nvars 1\n"
            "moment_problem asserted\n"
            "note unit interval is compact\n"
            "x1\n"
            "1 - x1\n")
        assert len(system.generators) == 2
        assert system.note == "unit interval is compact"

    def test_unknown_flag(self):
        system = load_system("nvars 1\nmoment_problem unknown\nx1\n")
        assert not system.assert_moment_problem

    def test_bad_header(self):
        with pytest.raises(ValueError):
            load_system("vars 1\nmoment_problem asserted\nx1\n")

    @pytest.mark.parametrize("text, message", [
        ("nvars 1\n# no generators\nmoment_problem asserted\n",
         "needs nvars, moment_problem and generators"),
        ("nvars 1\nmoment asserted\nx1\n", "second line must be"),
        ("nvars 1\nmoment_problem maybe\nx1\n",
         "moment_problem must be asserted or unknown, got 'maybe'"),
    ], ids=["short", "bad-second-line", "bad-flag"])
    def test_malformed_file(self, text, message):
        with pytest.raises(ValueError, match=message):
            load_system(text)


class TestEnumerateProducts:
    def test_interval_products(self):
        prods = sos._products(1, INTERVAL.generators, 2)
        assert [e for e, _ in prods] == [(0, 0), (1, 0), (0, 1), (1, 1)]
        expected = [
            {(0,): 1.0},
            {(1,): 1.0},
            {(0,): 1.0, (1,): -1.0},
            {(1,): 1.0, (2,): -1.0},
        ]
        assert [p.terms for _, p in prods] == expected

    def test_degree_filter(self):
        prods = sos._products(1, CUSP.generators, 4)
        assert [e for e, _ in prods] == [(0,)]

    def test_duplicate_products_kept(self):
        system = SemialgebraicSystem(
            [parse("x1", 2), parse("x2", 2), parse("x1*x2", 2)], True)
        prods = sos._products(2, system.generators, 2)
        assert [e for e, _ in prods] == [
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
        # (1,1,0) and (0,0,1) expand to the same polynomial but stay distinct
        assert prods[3][1].terms == prods[4][1].terms

    def test_same_order_as_the_assembly(self):
        system = SemialgebraicSystem(
            [parse("x1", 2), parse("x2", 2), parse("x1*x2", 2)], True)
        reduced = _ReducedGram(parse("1 - x1^2", 2), Polynomial.zero(2), 1,
                               0.0, system.generators)
        assert reduced.products == sos._products(2, system.generators, 2)


class TestBuildPreorderSdp:
    def test_generator_itself_feasible(self):
        problem = build_preorder_sdp(
            parse("x1", 1), 0.0, Polynomial.zero(1), INTERVAL, 1)
        assert solve(problem).status is SolveStatus.OPTIMAL

    def test_product_feasible(self):
        problem = build_preorder_sdp(
            parse("x1*(1 - x1)", 1), 0.0, Polynomial.zero(1), INTERVAL, 1)
        assert solve(problem).status is SolveStatus.OPTIMAL

    def test_cusp_obstruction_at_fixed_degree(self):
        problem = build_preorder_sdp(
            ONE_MINUS_SQ, 0.0, Polynomial.zero(1), CUSP, 3)
        assert solve(problem).status is SolveStatus.PRIMAL_LIKELY_INFEASIBLE

    def test_same_program_as_the_membership_resolve(self, monkeypatch):
        # at eps 0.1 membership re-solves at r = 3, where the cusp generator,
        # whose largest coefficient is 3, has a Gram block of its own
        problems = []

        def recording(problem):
            problems.append(problem)
            return solve(problem)

        monkeypatch.setattr(sos, "solve", recording)
        cert = membership(ONE_MINUS_SQ, 0.1, THETA_SMALL, CUSP, 12)
        assert cert.r == 3
        built = build_preorder_sdp(ONE_MINUS_SQ, 0.1, theta_small(1, 3), CUSP, 3)
        resolved = problems[-1]
        assert built.block_sizes == resolved.block_sizes
        assert [a.tobytes() for a in built.A] == [a.tobytes() for a in resolved.A]
        assert built.b.tobytes() == resolved.b.tobytes()
        assert [c.tobytes() for c in built.C] == [c.tobytes() for c in resolved.C]


class TestEpsilonStarPreorder:
    def test_sos_target_gives_zero(self):
        res = epsilon_star_preorder(
            parse("x1^2", 1), 2, theta_big(1, 2), INTERVAL)
        assert abs(res.eps_star) <= 1e-7

    def test_generator_target_gives_zero(self):
        res = epsilon_star_preorder(parse("x1", 1), 1, theta_big(1, 1), INTERVAL)
        assert abs(res.eps_star) <= 1e-7

    def test_shifted_ray_weight_by_hand(self):
        # -1 + w*(1 + x^2) = sigma_0 + c*(x - 2) with deg sigma_0 <= 2 and
        # c >= 0 works out, completing the square, to w >= 1/5
        res = epsilon_star_preorder(parse("-1", 1), 1, theta_big(1, 1), SHIFTED_RAY)
        assert res.min_eps == pytest.approx(0.2, abs=1e-6)
        assert res.gap <= 1e-6

    def test_cusp_weights_positive_and_decreasing(self):
        values = []
        for r in (3, 5, 7):
            res = epsilon_star_preorder(ONE_MINUS_SQ, r, theta_small(1, r), CUSP)
            assert res.min_eps > 0.0
            assert res.gap <= 1e-6
            values.append(res.min_eps)
        assert values[0] > values[1] > values[2]

    def test_cusp_reach_and_monomial_values(self):
        # r = 2..6 pinned from the monomial-coefficient assembly, which
        # stalled from r = 7 on
        monomial = [0.2360679773, 0.08756141357, 0.04014847813,
                    0.02280029534, 0.01465162874]
        values = []
        for r in range(2, 11):
            res = epsilon_star_preorder(ONE_MINUS_SQ, r, theta_small(1, r), CUSP)
            assert res.gap <= 1e-6
            values.append(res.min_eps)
        assert values[:5] == pytest.approx(monomial, abs=1e-7)
        assert all(a > b > 0.0 for a, b in zip(values, values[1:]))

    def test_two_variable_cusp_matches_monomial_values(self):
        # the tensor product rule in a program with two variables, against
        # values from the monomial-coefficient assembly
        system = SemialgebraicSystem([parse("(1 - x1^2 - x2^2)^3", 2)], True)
        f = parse("1 - x1^2 - x2^2", 2)
        for r, want in ((3, 0.08428229199), (4, 0.03544162317)):
            res = epsilon_star_preorder(f, r, theta_small(2, r), system)
            assert res.min_eps == pytest.approx(want, abs=1e-7)

    def test_two_variable_cusp_reaches_degree_seven(self):
        # as one Gram block per product these programs ended in
        # IterationLimit; split by sign symmetry they solve
        system = SemialgebraicSystem([parse("(1 - x1^2 - x2^2)^3", 2)], True)
        f = parse("1 - x1^2 - x2^2", 2)
        values = {}
        for r in (6, 7):
            res = epsilon_star_preorder(f, r, theta_small(2, r), system)
            assert res.gap <= 1e-6
            assert psd_check(moment_matrix(res.dual_moments, r))
            values[r] = res.min_eps
        assert values[6] == pytest.approx(0.0123633, abs=1e-6)
        assert 0.0 < values[7] < values[6]

    def test_cusp_moments_transformed_back(self):
        r = 7
        p = theta_small(1, r)
        res = epsilon_star_preorder(ONE_MINUS_SQ, r, p, CUSP)
        y = res.dual_moments

        def L(poly):
            return sum(c * y[a] for a, c in poly.terms.items())

        assert L(ONE_MINUS_SQ) == pytest.approx(res.eps_star, abs=1e-6)
        assert L(p) <= 1.0 + 1e-6
        assert psd_check(moment_matrix(y, r))
        g = CUSP.generators[0]
        m = r - 3
        localizing = [[L(g * Polynomial.monomial(1, (i + j,))) for j in range(m + 1)]
                      for i in range(m + 1)]
        assert min_eigenvalue(localizing) >= -1e-7


class TestMembership:
    def test_interval_generator(self):
        cert = membership(parse("x1", 1), 0.1, THETA_SMALL, INTERVAL, 5)
        assert cert.r == 1
        assert cert.residual_linf <= 1e-6

    def test_cusp_with_half_weight(self):
        cert = membership(ONE_MINUS_SQ, 0.5, THETA_SMALL, CUSP, 12)
        assert cert.r == 2
        # at this degree only the trivial product is admissible and the
        # minimal weight is the root of w^2 + 4w - 1
        assert cert.min_eps == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-6)
        assert cert.residual_linf <= 1e-6
        assert "described set" in cert.annotation

    def test_empty_intersection_with_unit_box(self):
        cert = membership(parse("-1", 1), 1.0, THETA_BIG, SHIFTED_RAY, 10)
        assert cert.r == 1
        assert cert.residual_linf <= 1e-6
        assert "[-1,1]" in cert.annotation

    def test_degree_discipline(self):
        cert = membership(ONE_MINUS_SQ, 0.5, THETA_SMALL, CUSP, 12)
        for term in cert.terms:
            sigma_deg = 2 * term.sigma.basis.max_degree
            assert sigma_deg + term.product.degree() <= 2 * cert.r

    def test_trivial_system_matches_plain_sweep(self):
        trivial = SemialgebraicSystem([Polynomial.constant(1, 1.0)], True)
        cert = membership(ONE_MINUS_SQ, 0.3, THETA_BIG, trivial, 8)
        plain = minimal_r(ONE_MINUS_SQ, 0.3, THETA_BIG, 8)
        assert cert.r == plain.r
        assert cert.min_eps == pytest.approx(plain.min_eps, abs=1e-6)

    def test_warning_without_assertion(self):
        system = SemialgebraicSystem([parse("x1", 1), parse("1 - x1", 1)], False)
        cert = membership(parse("x1", 1), 0.1, THETA_SMALL, system, 5)
        assert cert.warnings

    def test_not_found_within_cap(self):
        with pytest.raises(NotFoundWithinRMaxError) as err:
            membership(ONE_MINUS_SQ, 1e-4, THETA_SMALL, CUSP, 4)
        assert [t["r"] for t in err.value.trajectory] == [1, 2, 3, 4]

    def test_cusp_certificate_at_degree_seven(self):
        cert = membership(ONE_MINUS_SQ, 0.0102, THETA_SMALL, CUSP, 8)
        assert cert.r == 7
        assert cert.residual_linf <= 1e-6
        target = ONE_MINUS_SQ + theta_small(1, 7).scale(0.0102)
        assert verify_preorder_obj(cert.to_obj(), target)["residual_linf"] <= 1e-6

    def test_large_residual_is_flagged(self):
        # at r = 15 the monomial coefficients of T_alpha reach ~1e5, and the
        # certificate mapped back loses digits in proportion
        cert = membership(ONE_MINUS_SQ, 0.0019, THETA_SMALL, CUSP, 15)
        assert cert.r == 15
        flagged = any("residual" in w for w in cert.warnings)
        assert flagged == (cert.residual_linf > 1e-6)
        assert not membership(ONE_MINUS_SQ, 0.5, THETA_SMALL, CUSP, 12).warnings

    def test_moment_gap_small_on_solved_instances(self):
        cert = membership(ONE_MINUS_SQ, 0.5, THETA_SMALL, CUSP, 12)
        assert cert.gap <= 1e-6

    def test_target_and_generators_must_agree_on_nvars(self):
        with pytest.raises(DimensionMismatchError,
                           match="target has 2 variables, system has 1"):
            membership(parse("x1*x2", 2), 0.5, THETA_SMALL, CUSP, 3)

    def test_custom_perturbation_claims_nothing(self):
        cert = membership(ONE_MINUS_SQ, 0.5, lambda n, r: theta_small(n, r), CUSP, 12)
        assert cert.r == 2 and cert.residual_linf <= 1e-6
        assert cert.to_obj()["kind"] == "custom"
        assert cert.annotation == "custom perturbation: no nonnegativity claim attached"


class TestVerifyPreorderObj:
    def test_roundtrip(self):
        cert = membership(ONE_MINUS_SQ, 0.5, THETA_SMALL, CUSP, 12)
        target = ONE_MINUS_SQ + theta_small(1, cert.r).scale(0.5)
        out = verify_preorder_obj(cert.to_obj(), target)
        assert out["residual_linf"] <= 1e-6

    def test_tamper_detected(self):
        # at r = 3 the generator (1 - x^2)^3 carries a sigma of its own
        cert = membership(ONE_MINUS_SQ, 0.1, THETA_SMALL, CUSP, 12)
        assert cert.r == 3 and cert.terms[1].product.degree() == 6
        target = ONE_MINUS_SQ + theta_small(1, cert.r).scale(0.1)
        obj = cert.to_obj()
        obj["terms"][0]["sigma"]["gram"][0] += 1e-2
        out = verify_preorder_obj(obj, target)
        assert out["residual_gram"] > 1e-3
        assert out["residual_squares"] <= 1e-6
        obj = cert.to_obj()
        obj["terms"][1]["sigma"]["squares"][0][0]["coeff"] += 1e-2
        out = verify_preorder_obj(obj, target)
        assert out["residual_gram"] <= 1e-6
        assert out["residual_squares"] > 1e-3
        assert out["residual_linf"] > 1e-3

    def test_products_match_to_rounding(self):
        # the generators are stored in graded-lex order, not in the order
        # their terms were multiplied in, so g1*g2 comes out one rounding
        # apart, and that is no mismatch
        system = SemialgebraicSystem([parse("0.7*x1^2 - 0.7*x1 + 0.3", 1),
                                      parse("1/7*x1^2 - 0.3*x1 + 0.2", 1)])
        stored = [Polynomial.from_obj(g.to_obj(), 1) for g in system.generators]
        products = sos._products(1, system.generators, 4)
        assert products[3][1] != dict(sos._products(1, stored, 4))[(1, 1)]
        obj = {"r": 2, "generators": [g.to_obj() for g in system.generators],
               "terms": [{"e": list(e), "product": g.to_obj()} for e, g in products]}
        assert preorder._unmatched_products(obj, 1) == []
        obj["terms"][3]["product"][0]["coeff"] *= 1 + 1e-9
        assert preorder._unmatched_products(obj, 1) == [3]


TRIVIAL = SemialgebraicSystem([Polynomial.constant(1, 1.0)], True)


def both_sweeps(f, eps, kind, r_max):
    """Trajectories of minimal_r and of membership in the trivial system,
    both of which must find nothing."""
    out = []
    for sweep in (lambda: minimal_r(f, eps, kind, r_max),
                  lambda: membership(f, eps, kind, TRIVIAL, r_max)):
        with pytest.raises(NotFoundWithinRMaxError) as err:
            sweep()
        out.append(err.value.trajectory)
    return out


class TestSweepStatuses:
    """Every status of the one degree sweep behind minimal_r and membership."""

    def test_degree_too_low(self):
        plain, pre = both_sweeps(ONE_MINUS_SQ, 0.5,
                                 lambda n, r: Polynomial.monomial(n, (2 * r + 2,)), 3)
        assert plain == pre == [{"r": r, "min_eps": None, "status": "degree-too-low"}
                                for r in (1, 2, 3)]

    def test_infeasible(self):
        # -x^2 + eps*x is negative near 0 for every eps
        plain, pre = both_sweeps(parse("-x1^2", 1), 0.5,
                                 lambda n, r: Polynomial.monomial(n, (1,)), 2)
        assert plain == pre == [{"r": r, "min_eps": None, "status": "infeasible"}
                                for r in (1, 2)]

    def test_infeasible_by_pruning(self, monkeypatch):
        # x^(2r) forces x^r, down to x, which cannot match the coefficient
        # of x1: both programs are infeasible before any solve
        calls = []
        real = sos.solve

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sos, "solve", counted)
        plain, pre = both_sweeps(parse("x1", 1), 0.5,
                                 lambda n, r: Polynomial.constant(n, 1.0), 3)
        assert plain == pre == [{"r": r, "min_eps": None, "status": "infeasible"}
                                for r in (1, 2, 3)]
        assert calls == []

    def test_solver_failed(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        plain, pre = both_sweeps(ONE_MINUS_SQ, 0.5, THETA_BIG, 2)
        assert plain == pre == [{"r": r, "min_eps": None, "status": "solver-failed"}
                                for r in (1, 2)]
        # eps may be covered at a failed degree, so the failure claims no "no"
        with pytest.raises(NotFoundWithinRMaxError) as err:
            minimal_r(ONE_MINUS_SQ, 0.5, THETA_BIG, 2)
        assert "weight program failed at r = 1, 2" in str(err.value)
        assert "no degree" not in str(err.value)

    def test_weight_ok_decomposition_failed(self, monkeypatch):
        # both sweeps re-solve the feasibility program at a covered degree
        real = sos.solve

        def failing(problem):
            sol = real(problem)
            if not any(c.any() for c in problem.C):  # the feasibility re-solve
                return dataclasses.replace(sol, status=SolveStatus.ITERATION_LIMIT)
            return sol

        monkeypatch.setattr(sos, "solve", failing)
        for sweep in (lambda: minimal_r(ONE_MINUS_SQ, 0.5, THETA_SMALL, 3),
                      lambda: membership(ONE_MINUS_SQ, 0.5, THETA_SMALL, CUSP, 3)):
            with pytest.raises(NotFoundWithinRMaxError) as err:
                sweep()
            trajectory = err.value.trajectory
            assert [t["status"] for t in trajectory] == [
                "ok", "weight-ok-decomposition-failed", "weight-ok-decomposition-failed"]
            assert trajectory[0]["min_eps"] > 0.5
            assert trajectory[1]["min_eps"] == pytest.approx(
                math.sqrt(5.0) - 2.0, abs=1e-6)
            # eps is covered there, so the failure claims no definite "no"
            assert "covered at r = 2, 3" in str(err.value)
            assert "no degree" not in str(err.value)
