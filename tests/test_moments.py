import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosperturb.errors import IncompleteMomentsError, NotPsdError
from sosperturb.moments import MomentVector, moment_matrix, psd_check
from sosperturb.polynomials import MonomialBasis, multidegrees_upto

from reference_programs import (HypothesisUnmetError, atomic_moments,
                                cauchy_schwarz_check, check_lemma1,
                                check_lemma3)


def univariate_vector(values):
    return MomentVector(1, len(values) - 1, {(k,): v for k, v in enumerate(values)})


class TestMomentMatrix:
    def test_dirac_at_half(self):
        y = atomic_moments(1, 4, [((0.5,), 1.0)])
        M = moment_matrix(y, 2)
        expected = np.array([
            [1.0, 0.5, 0.25],
            [0.5, 0.25, 0.125],
            [0.25, 0.125, 0.0625],
        ])
        assert M == pytest.approx(expected)
        assert psd_check(M)
        assert np.linalg.matrix_rank(M, tol=1e-12) == 1

    def test_indefinite_vector_detected(self):
        y = univariate_vector([1.0, 0.0, 2.0, 0.0, 1.0])
        assert not psd_check(moment_matrix(y, 2))

    def test_point_mass_of_ones(self):
        values = {a: 0.0 for a in multidegrees_upto(2, 4)}
        values[(0, 0)] = 1.0
        y = MomentVector(2, 4, values)
        assert psd_check(moment_matrix(y, 2))

    def test_hankel_entries_bitwise_identical(self):
        y = atomic_moments(2, 4, [((0.3, -0.7), 0.5), ((0.1, 0.9), 0.25)])
        M = moment_matrix(y, 2)
        basis = MonomialBasis.build(2, 2)
        for i, a in enumerate(basis.entries):
            for j, b in enumerate(basis.entries):
                gamma = tuple(x + z for x, z in zip(a, b))
                assert M[i, j] == y[gamma]

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteMomentsError):
            MomentVector(1, 2, {(0,): 1.0})
        y = univariate_vector([1.0, 0.0, 1.0])
        with pytest.raises(IncompleteMomentsError):
            moment_matrix(y, 2)


class TestChainBound:
    def test_dirac_at_half(self):
        y = atomic_moments(1, 4, [((0.5,), 1.0)])
        assert check_lemma1(y, 2)

    def test_dirac_at_two(self):
        y = atomic_moments(1, 4, [((2.0,), 1.0)])
        assert check_lemma1(y, 2)

    def test_symmetric_mixture_equality_case(self):
        y = atomic_moments(1, 6, [((1.0,), 0.5), ((-1.0,), 0.5)])
        assert check_lemma1(y, 3)
        assert all(y[(2 * k,)] == 1.0 for k in range(4))

    def test_requires_one_variable(self):
        y = atomic_moments(2, 2, [((0.5, 0.5), 1.0)])
        with pytest.raises(ValueError):
            check_lemma1(y, 1)

    def test_non_psd_reported(self):
        y = univariate_vector([1.0, 0.0, 2.0, 0.0, 1.0])
        with pytest.raises(NotPsdError):
            check_lemma1(y, 2)


class TestProductBound:
    def test_atomic_measure_in_box(self):
        y = atomic_moments(
            2, 4, [((0.9, -0.8), 0.5), ((-0.2, 0.4), 0.5)])
        assert check_lemma3(y, 2, tau=1.0)

    def test_atom_outside_box_fails_hypothesis(self):
        y = atomic_moments(3, 4, [((1.5, 0.0, 0.0), 1.0)])
        with pytest.raises(HypothesisUnmetError):
            check_lemma3(y, 2, tau=1.0)

    def test_two_variable_slice(self):
        y = atomic_moments(2, 6, [((0.7, -0.9), 0.8)])
        assert check_lemma3(y, 3, tau=1.0)


class TestCauchySchwarz:
    def test_measure_moments_pass(self):
        y = atomic_moments(
            2, 4, [((0.5, 0.5), 0.6), ((-0.3, 0.8), 0.4)])
        ok, pair = cauchy_schwarz_check(y, 2)
        assert ok and pair is None

    def test_rank_one_equality_case(self):
        y = atomic_moments(1, 4, [((0.5,), 1.0)])
        ok, _ = cauchy_schwarz_check(y, 2)
        assert ok

    def test_precondition_rejects_indefinite(self):
        y = univariate_vector([1.0, 0.0, 2.0, 0.0, 1.0])
        with pytest.raises(NotPsdError):
            cauchy_schwarz_check(y, 2)


atoms_strategy = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.lists(st.floats(-1, 1), min_size=n, max_size=n).map(tuple),
                st.floats(0.01, 0.5)),
            min_size=1, max_size=5),
        st.integers(2, 4)))


@given(atoms_strategy)
@settings(max_examples=60, deadline=None)
def test_atomic_measures_pass_all_verifiers(case):
    n, atoms, r = case
    total = sum(w for _, w in atoms)
    if total > 1.0:
        atoms = [(pt, w / total) for pt, w in atoms]
    y = atomic_moments(n, 2 * r, atoms)
    assert psd_check(moment_matrix(y, r), tol=1e-7)
    assert check_lemma3(y, r, tau=1.0, tol=1e-7)
    ok, _ = cauchy_schwarz_check(y, r, tol=1e-7)
    assert ok
    if n == 1:
        assert check_lemma1(y, r, tol=1e-7)


def test_serialization_roundtrip():
    y = atomic_moments(2, 4, [((0.25, -0.5), 1.0)])
    obj = y.to_obj()
    assert obj["order"] == 4 and obj["nvars"] == 2
    back = MomentVector.from_obj(obj)
    assert back.values == y.values
