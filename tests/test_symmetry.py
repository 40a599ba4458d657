import itertools

import numpy as np

from sosperturb.parsing import parse
from sosperturb.polynomials import MonomialBasis, theta_big, theta_small
from sosperturb.symmetry import ParitySpan, scatter


def brute_force_span(exponents, n):
    """Every GF(2) combination of the parity vectors, as tuples."""
    vectors = [tuple(a % 2 for a in alpha) for alpha in exponents]
    span = {(0,) * n}
    for v in vectors:
        span |= {tuple((x + y) % 2 for x, y in zip(s, v)) for s in span}
    return span


class TestParitySpan:
    def test_even_polynomials_span_nothing(self):
        span = ParitySpan([parse("1 - x1^2 - x2^2", 2), theta_small(2, 4)])
        assert span.contains((2, 4))
        assert not any(span.contains(g) for g in ((1, 0), (0, 1), (1, 1)))

    def test_matches_brute_force(self):
        f = parse("x1*x2*x3*x4 + x1^2*x3 + x2^3 + x4^2", 4)
        span = ParitySpan([f, theta_big(4, 2)])
        expected = brute_force_span(f.terms, 4)
        assert len(expected) == 8
        for gamma in itertools.product(range(2), repeat=4):
            assert span.contains(gamma) == (gamma in expected)

    def test_coset_is_canonical(self):
        span = ParitySpan([parse("x1*x2 + x3", 3)])
        basis = MonomialBasis.build(3, 3)
        for a in basis.entries:
            for b in basis.entries:
                same = span.contains(tuple(x + y for x, y in zip(a, b)))
                assert (span.coset(a) == span.coset(b)) == same

    def test_split_orders_by_first_index(self):
        span = ParitySpan([parse("1 - x1^2", 1)])
        basis = MonomialBasis.build(1, 4)
        assert span.split(basis.entries) == [[0, 2, 4], [1, 3]]

    def test_choi_lam_quartic_blocks(self):
        f = parse("x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2 + x4^4 - 4*x1*x2*x3*x4", 4)
        span = ParitySpan([f, theta_big(4, 4)])
        parts = span.split(MonomialBasis.build(4, 4).entries)
        assert sorted(len(p) for p in parts) == [6, 6, 6, 6, 10, 10, 10, 16]


def test_scatter_places_blocks():
    out = scatter(4, [([0, 2], np.array([[1.0, 2.0], [2.0, 3.0]])),
                      ([1, 3], np.array([[4.0, 5.0], [5.0, 6.0]]))])
    assert np.array_equal(out, [[1, 0, 2, 0], [0, 4, 0, 5],
                                [2, 0, 3, 0], [0, 5, 0, 6]])
