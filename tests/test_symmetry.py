import itertools
import time

import numpy as np
import pytest

from sosperturb import symmetry
from sosperturb.parsing import parse
from sosperturb.polynomials import MonomialBasis, multidegrees_upto, theta_big, theta_small
from sosperturb.symmetry import ParitySpan, _reduce_gf2, act, scatter, stabilizer

CHOI_LAM = parse("x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2 + x4^4 - 4*x1*x2*x3*x4", 4)
SEXTIC = parse("x1^4*x2^2 + x2^4*x3^2 + x3^4*x1^2 - 3*x1^2*x2^2*x3^2", 3)
MOTZKIN = parse("1 + x1^2*x2^2*(x1^2 + x2^2 - 3)", 2)
ROTATION = parse("1 + (x1^2 + x2^2)^2 + x1*x2*(x1^2 - x2^2)", 2)


def image(g, poly):
    out = {}
    for alpha, c in poly.terms.items():
        beta, sign = act(g, alpha)
        out[beta] = sign * c
    return out


def all_elements(polys):
    """Every signed permutation leaving the polynomials unchanged, by
    brute force."""
    n = polys[0].n_vars
    return [(perm, t) for perm in itertools.permutations(range(n)) for t in range(1 << n)
            if all(image((perm, t), q) == q.terms for q in polys)]


def coset_matrix(polys, entries, seed):
    """A random symmetric matrix over entries, zero outside the coset
    blocks of the polynomials' parity span."""
    span = ParitySpan(polys)
    cosets = np.array([span.coset(a) for a in entries])
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((len(entries), len(entries)))
    return (Q + Q.T) * (cosets[:, None] == cosets[None, :])


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


class TestStabilizer:
    @pytest.mark.parametrize("f, permutations", [(CHOI_LAM, 6), (SEXTIC, 3),
                                                 (MOTZKIN, 2), (ROTATION, 2)])
    def test_chain_generates_every_permutation(self, f, permutations):
        polys = [f, theta_big(f.n_vars, 3)]
        group = stabilizer(polys)
        for g in group.generators:
            assert image(g, f) == f.terms
        # the chain's order is the product of its level orbits
        order = 1
        for k, level in enumerate(group.levels):
            orbit = {k}
            for _ in range(f.n_vars):
                orbit |= {perm[i] for perm, _ in level for i in orbit}
            order *= len(orbit)
        assert order == permutations == len({perm for perm, _ in all_elements(polys)})

    def test_no_permutation_gives_none(self):
        assert stabilizer([parse("x1^2 + 2*x2^2", 2), theta_big(2, 2)]) is None
        assert stabilizer([parse("1 - x1^2", 1), theta_big(1, 2)]) is None
        # theta_big breaks the swap of x1 and x2 that x1^2 + x2^2 has
        assert stabilizer([parse("x1^2 + x2^2", 2), parse("x1^4", 2)]) is None

    def test_eight_variables_without_listing_the_group(self):
        f = parse("1 + " + " + ".join(f"x{i}^4" for i in range(1, 9)), 8)
        group = stabilizer([f, theta_big(8, 2)])
        assert len(group.generators) <= 28
        members, consistent = group.orbits([(2,) + (0,) * 7, *[
            tuple(2 * (i == j) for i in range(8)) for j in range(1, 8)]])[0]
        assert consistent and len(members) == 8

    def test_search_cut_short_keeps_no_level(self, monkeypatch):
        monkeypatch.setattr(symmetry, "_SEARCH_NODES", 0)
        assert stabilizer([CHOI_LAM, theta_big(4, 4)]) is None

    def test_signs_solve_over_gf2(self):
        rows = _reduce_gf2([], [(0b110, 1), (0b011, 0)])
        rows = _reduce_gf2(rows, [(0b101, 1), (0, 0)])
        t = sum(1 << q for q, _, b in rows if b)
        for v, b in ((0b110, 1), (0b011, 0), (0b101, 1)):
            assert bin(t & v).count("1") % 2 == b
        assert _reduce_gf2(rows, [(0b101, 0)]) is None
        assert _reduce_gf2([], [(0, 1)]) is None

    def test_sign_conflicts_prune_the_search(self):
        # every variable has the same signature, but the signs of the terms
        # x_i^2 x_j^2 form a graph with no automorphism other than the
        # identity, and no sign flip changes them
        plus = {(1, 2), (1, 3), (1, 4), (1, 6), (2, 6), (4, 5), (5, 6)}
        f = parse(" + ".join(f"x{i}^4" for i in range(1, 7)) + "".join(
            f" {'+' if (i, j) in plus else '-'} x{i}^2*x{j}^2"
            for i, j in itertools.combinations(range(1, 7), 2)), 6)
        start = time.perf_counter()
        assert stabilizer([f]) is None
        assert time.perf_counter() - start < 1.0


class TestOrbits:
    def test_rotation_orbits_and_signs(self):
        # (x1, x2) -> (x2, -x1) maps x1*x2 to -x1*x2 and x1^3*x2 to -x1*x2^3
        group = stabilizer([ROTATION, theta_big(2, 3)])
        gammas = [g for g in multidegrees_upto(2, 6) if sum(g) % 2 == 0]
        orbits = {members[0][0]: (members, consistent)
                  for members, consistent in group.orbits(gammas)}
        assert orbits[(1, 1)] == ([((1, 1), 1)], False)
        assert orbits[(3, 3)] == ([((3, 3), 1)], False)
        assert orbits[(3, 1)] == ([((3, 1), 1), ((1, 3), -1)], True)
        assert orbits[(4, 2)] == ([((4, 2), 1), ((2, 4), 1)], True)

    def test_orbits_partition_in_graded_lex_order(self):
        group = stabilizer([CHOI_LAM, theta_big(4, 4)])
        gammas = [g for g in multidegrees_upto(4, 8)
                  if ParitySpan([CHOI_LAM]).contains(g)]
        orbits = group.orbits(gammas)
        members = [g for orbit, _ in orbits for g, _ in orbit]
        assert sorted(members) == sorted(gammas)
        firsts = [orbit[0][0] for orbit, _ in orbits]
        assert firsts == [g for g in gammas if g in firsts]
        for orbit, _ in orbits:
            assert [g for g, _ in orbit] == [g for g in gammas if g in dict(orbit)]


class TestAverage:
    @pytest.mark.parametrize("f", [CHOI_LAM, SEXTIC, ROTATION], ids=["choi-lam", "sextic",
                                                                     "rotation"])
    def test_reynolds_operator(self, f):
        polys = [f, theta_big(f.n_vars, 2)]
        entries = MonomialBasis.build(f.n_vars, 2).entries
        index = {a: k for k, a in enumerate(entries)}
        Q = coset_matrix(polys, entries, 3)
        average = stabilizer(polys).average(entries, Q)
        expected = np.zeros_like(Q)
        elements = all_elements(polys)
        for g in elements:
            moved = [act(g, a) for a in entries]
            idx = [index[b] for b, _ in moved]
            signs = np.array([s for _, s in moved], dtype=float)
            expected += np.outer(signs, signs) * Q[np.ix_(idx, idx)]
        assert np.allclose(average, expected / len(elements), rtol=0, atol=1e-12)
        assert np.allclose(stabilizer(polys).average(entries, average), average,
                           rtol=0, atol=1e-12)


def test_scatter_places_blocks():
    out = scatter(4, [([0, 2], np.array([[1.0, 2.0], [2.0, 3.0]])),
                      ([1, 3], np.array([[4.0, 5.0], [5.0, 6.0]]))])
    assert np.array_equal(out, [[1, 0, 2, 0], [0, 4, 0, 5],
                                [2, 0, 3, 0], [0, 5, 0, 6]])
