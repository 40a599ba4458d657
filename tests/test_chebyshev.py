import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from sosperturb.chebyshev import (monomial_matrix, monomial_to_chebyshev,
                                  moments_to_monomials, times_t, to_chebyshev)
from sosperturb.parsing import parse
from sosperturb.polynomials import MonomialBasis, Polynomial, multidegrees_upto


def series_vector(series, degree):
    out = np.zeros(degree + 1)
    for (k,), c in series.items():
        out[k] = c
    return out


class TestOneVariable:
    @pytest.mark.parametrize("k", range(0, 13))
    def test_monomial_matches_numpy(self, k):
        want = npcheb.poly2cheb([0.0] * k + [1.0])
        got = series_vector(monomial_to_chebyshev((k,)), k)
        assert np.array_equal(got, want)

    def test_monomial_matrix_matches_numpy(self):
        basis = MonomialBasis.build(1, 9)
        P = monomial_matrix(basis)
        for k in range(10):
            unit = [0.0] * k + [1.0]
            assert np.array_equal(P[k, :k + 1], npcheb.cheb2poly(unit))

    def test_product_rule(self):
        a = {(3,): 1.0, (1,): -2.0}
        b = {(2,): 0.5, (0,): 4.0}
        got = sum(c * series_vector(times_t(alpha, b), 5) for alpha, c in a.items())
        want = npcheb.chebmul(series_vector(a, 3), series_vector(b, 2))
        assert np.allclose(got, want, atol=0.0, rtol=1e-15)

    def test_tiny_coefficients_survive(self):
        f = Polynomial(1, {(0,): 1.0, (4,): 1e-20})
        series = to_chebyshev(f)
        assert series[(4,)] == pytest.approx(1e-20 / 8, rel=1e-15)


class TestTensor:
    def test_roundtrip_through_monomial_matrix(self):
        f = parse("3 - x1*x2^2 + 0.25*x1^3*x2 - x2^4", 2)
        basis = MonomialBasis.build(2, 4)
        P = monomial_matrix(basis)
        series = to_chebyshev(f)
        c = np.array([series.get(a, 0.0) for a in basis.entries])
        back = P.T @ c
        want = np.array([f.coeff(a) for a in basis.entries])
        assert np.allclose(back, want, atol=1e-14)

    def test_times_t_is_coordinatewise(self):
        got = times_t((2, 1), {(1, 0): 1.0})
        # T2(x)T1(x) * T1(y) = (T3(x) + T1(x)) T1(y) / 2
        assert got == {(3, 1): 0.5, (1, 1): 0.5}

    def test_moments_of_a_point_mass(self):
        point = (0.3, -0.7)
        betas = multidegrees_upto(2, 4)
        on_t = {
            g: float(np.cos(g[0] * np.arccos(point[0]))
                     * np.cos(g[1] * np.arccos(point[1])))
            for g in betas
        }
        moments = moments_to_monomials(on_t, betas)
        for beta in betas:
            want = point[0] ** beta[0] * point[1] ** beta[1]
            assert moments[beta] == pytest.approx(want, abs=1e-14)
