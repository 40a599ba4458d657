import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosperturb.errors import DimensionMismatchError
from sosperturb.parsing import parse, unparse
from sosperturb.polynomials import (MonomialBasis, Polynomial, grlex_key,
                                    multidegrees_upto, scale_box, theta_big,
                                    theta_small)


def poly_strategy(n_vars, max_degree=4, max_terms=6):
    exponent = st.lists(
        st.integers(min_value=0, max_value=max_degree),
        min_size=n_vars, max_size=n_vars,
    ).filter(lambda e: sum(e) <= max_degree).map(tuple)
    coeff = st.floats(min_value=-10, max_value=10,
                      allow_nan=False, allow_infinity=False)
    return st.dictionaries(exponent, coeff, max_size=max_terms).map(
        lambda terms: Polynomial(n_vars, terms))


class TestStructure:
    def test_zero_polynomial(self):
        z = Polynomial.zero(3)
        assert z.is_zero
        assert z.degree() == 0
        assert z.l1_norm() == 0.0

    def test_exact_zero_coefficients_removed(self):
        p = Polynomial(1, {(0,): 0.0, (1,): 2.0})
        assert (0,) not in p.terms

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            Polynomial(2, {(1,): 1.0})

    def test_add_requires_matching_vars(self):
        with pytest.raises(DimensionMismatchError):
            Polynomial.constant(1, 1.0) + Polynomial.constant(2, 1.0)


class TestInputChecks:
    def test_no_variables(self):
        with pytest.raises(ValueError, match="n_vars must be >= 1, got 0"):
            Polynomial(0, {})

    def test_negative_exponent_in_a_term(self):
        with pytest.raises(ValueError, match=re.escape("negative exponent in (-1,)")):
            Polynomial(1, {(-1,): 1.0})

    @pytest.mark.parametrize("index", [0, 3])
    def test_variable_index_out_of_range(self, index):
        with pytest.raises(ValueError, match=f"variable index {index} out of range 1..2"):
            Polynomial.variable(2, index)

    def test_negative_power(self):
        with pytest.raises(ValueError, match="negative exponent"):
            parse("1 + x1", 1).pow(-1)

    def test_theta_small_negative_degree(self):
        with pytest.raises(ValueError, match="r must be >= 0, got -1"):
            theta_small(1, -1)

    def test_basis_without_variables(self):
        with pytest.raises(ValueError, match="n_vars must be >= 1, got 0"):
            MonomialBasis.build(0, 1)

    def test_basis_negative_degree(self):
        with pytest.raises(ValueError, match="max_degree must be >= 0, got -1"):
            MonomialBasis.build(1, -1)


class TestArithmetic:
    def test_add_cancels(self):
        f = parse("1 - x1^2", 1)
        g = parse("x1^2", 1)
        assert (f + g).terms == {(0,): 1.0}

    def test_add_keeps_tiny_coefficient(self):
        f = parse("1 + x1", 1) + parse("0.000000000000001*x1^2", 1)
        assert f.terms == {(0,): 1.0, (1,): 1.0, (2,): 1e-15}

    def test_neg(self):
        assert (-parse("1 - x1^2", 1)).terms == {(0,): -1.0, (2,): 1.0}

    def test_mul(self):
        f = parse("x1", 1) * parse("1 - x1", 1)
        assert f.terms == {(1,): 1.0, (2,): -1.0}

    def test_motzkin_vanishes_at_corner(self):
        motz = parse("1 + x1^2*x2^2*(x1^2 + x2^2 - 3)", 2)
        assert motz.eval((1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)
        assert motz.eval((-1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    @given(poly_strategy(2), poly_strategy(2),
           st.tuples(st.floats(-1, 1), st.floats(-1, 1)))
    @settings(max_examples=80, deadline=None)
    def test_eval_is_ring_homomorphism(self, f, g, point):
        scale = 1.0 + abs(f.eval(point)) + abs(g.eval(point))
        assert (f + g).eval(point) == pytest.approx(
            f.eval(point) + g.eval(point), rel=1e-10, abs=1e-10 * scale)
        assert (f * g).eval(point) == pytest.approx(
            f.eval(point) * g.eval(point), rel=1e-10, abs=1e-10 * scale ** 2)


class TestEval:
    def test_array_of_points_equals_single_points(self):
        f = parse("1 + x1^2*x2^2*(x1^2 + x2^2 - 3) - 0.5*x2", 2)
        points = np.array([[0.0, 0.0], [1.0, -1.0], [0.3, 0.7], [-2.0, 0.25]])
        values = f.eval(points)
        assert values.shape == (4,)
        assert values.tolist() == [f.eval(x) for x in points]
        assert f.eval(points.reshape(2, 2, 2)).tolist() == values.reshape(2, 2).tolist()

    @pytest.mark.parametrize("shape", [(4, 3), (3,), (2, 1), ()])
    def test_wrong_last_axis_rejected(self, shape):
        with pytest.raises(DimensionMismatchError):
            parse("x1 + x2", 2).eval(np.zeros(shape))


class TestPerturbations:
    @pytest.mark.parametrize("n,r", [(1, 2), (2, 1), (3, 5)])
    def test_theta_big_shape(self, n, r):
        p = theta_big(n, r)
        assert len(p.terms) == n + 1
        assert p.degree() == 2 * r
        assert p.coeff((0,) * n) == 1.0

    def test_theta_big_examples(self):
        assert theta_big(1, 2).terms == {(0,): 1.0, (4,): 1.0}
        assert theta_big(2, 1).terms == {(0, 0): 1.0, (2, 0): 1.0, (0, 2): 1.0}
        assert len(theta_big(3, 5).terms) == 4

    @pytest.mark.parametrize("n,r", [(1, 1), (2, 2), (1, 0), (3, 7), (2, 80)])
    def test_theta_small_shape(self, n, r):
        p = theta_small(n, r)
        assert len(p.terms) == n * r + 1
        assert p.coeff((0,) * n) == float(n)
        if r >= 1:
            assert p.degree() == 2 * r

    def test_theta_small_coefficients(self):
        p = theta_small(2, 2)
        assert p.coeff((2, 0)) == 1.0
        assert p.coeff((4, 0)) == 0.5
        assert p.coeff((0, 4)) == 0.5

    def test_theta_small_trivial(self):
        assert theta_small(1, 0).terms == {(0,): 1.0}

    @pytest.mark.parametrize("bad", [(0, 1), (-1, 1)])
    def test_theta_rejects_bad_n(self, bad):
        n, r = bad
        with pytest.raises(ValueError):
            theta_big(n, r)
        with pytest.raises(ValueError):
            theta_small(n, r)

    def test_theta_big_rejects_r0(self):
        with pytest.raises(ValueError):
            theta_big(1, 0)


class TestScaleBox:
    def test_substitution(self):
        assert scale_box(parse("1 - x1^2", 1), 2.0).terms == {(0,): 1.0, (2,): -4.0}
        assert scale_box(parse("x1*x2", 2), 3.0).terms == {(1, 1): 9.0}

    def test_identity(self):
        f = parse("1 + 2*x1 - x1^3", 1)
        assert scale_box(f, 1.0).terms == f.terms

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_box(Polynomial.constant(1, 1.0), 0.0)

    @pytest.mark.parametrize("c, l", [(1.0, 1e200), (1e300, 1e10)])
    def test_overflow_rejected(self, c, l):
        # 1e200^2 overflows a double, and so does 1e300 * 1e10^2
        with pytest.raises(ValueError, match=re.escape(f"box scale {l!r} is out of range")):
            scale_box(Polynomial.monomial(1, (2,), c) + Polynomial.constant(1, 4.0), l)

    def test_roundtrip_keeps_tiny_coefficient(self):
        # falsifying case drawn once by test_roundtrip: 8.1e-12 * l^3 is
        # about 8.5e-15, below the arithmetic drop tolerance
        f = Polynomial.monomial(2, (0, 3), 8.077601302395623e-12)
        l = 0.1015625
        scaled = scale_box(f, l)
        assert scaled.coeff((0, 3)) == pytest.approx(8.077601302395623e-12 * l ** 3, rel=1e-15)
        back = scale_box(scaled, 1.0 / l)
        assert back.coeff((0, 3)) == pytest.approx(8.077601302395623e-12, rel=1e-12)

    @given(poly_strategy(2), st.floats(min_value=0.1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, f, l):
        back = scale_box(scale_box(f, l), 1.0 / l)
        for alpha, c in f.terms.items():
            assert back.coeff(alpha) == pytest.approx(c, rel=1e-12, abs=1e-13)


class TestBasis:
    def test_graded_lex_order(self):
        b = MonomialBasis.build(2, 2)
        assert list(b.entries) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_sizes(self):
        assert len(MonomialBasis.build(1, 4)) == 5
        assert len(MonomialBasis.build(3, 0)) == 1
        for n in range(1, 5):
            for r in range(0, 11):
                assert len(MonomialBasis.build(n, r)) == math.comb(n + r, n)

    def test_index_map_inverse(self):
        b = MonomialBasis.build(3, 3)
        for i, alpha in enumerate(b.entries):
            assert b.index_of(alpha) == i

    def test_key_is_total_order(self):
        degs = multidegrees_upto(3, 4)
        keys = [grlex_key(a) for a in degs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestNorms:
    def test_l1(self):
        assert parse("1 - x1^2", 1).l1_norm() == 2.0
        assert theta_big(2, 3).scale(0.5).l1_norm() == pytest.approx(1.5)

    def test_l1_tracks_perturbation_size(self):
        # weight eps on the box perturbation moves the coefficients by
        # (n + 1) * eps in the 1-norm, vanishing as eps -> 0
        for eps in (1.0, 0.1, 0.001):
            assert theta_big(2, 4).scale(eps).l1_norm() == pytest.approx(3 * eps)


class TestUnparse:
    @given(poly_strategy(3))
    @settings(max_examples=100, deadline=None)
    def test_parse_unparse_fixed_point(self, f):
        text = unparse(f)
        again = parse(text, 3)
        assert again.terms == f.terms
        assert unparse(again) == text
