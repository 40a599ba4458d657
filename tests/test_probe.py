import math

import numpy as np
import pytest

from sosperturb import probe
from sosperturb.errors import NoSamplesAcceptedError
from sosperturb.polynomials import Polynomial, multidegrees_upto
from sosperturb.probe import run_probe


def test_deterministic_given_seed():
    a = run_probe(1, 2, 1.0, 0.5, samples=6, seed=42, r_max=8)
    b = run_probe(1, 2, 1.0, 0.5, samples=6, seed=42, r_max=8)
    assert a.to_obj() == b.to_obj()


def test_mixed_acceptance():
    report = run_probe(1, 2, 1.0, 0.5, samples=6, seed=42, r_max=8)
    counts = report.counts()
    assert counts["accepted"] == 1
    assert counts["rejected"] == 5
    assert counts["certified"] == 1
    assert report.max_r == 1


def test_huge_weight_succeeds_at_first_degree():
    # with a weight beyond the coefficient mass, the first degree tried wins
    report = run_probe(1, 2, 1.0, 10.0, samples=5, seed=1, r_max=6)
    found = [row.found_r for row in report.rows if row.found_r is not None]
    assert found and all(r == 1 for r in found)


def test_all_rejected_raises():
    with pytest.raises(NoSamplesAcceptedError):
        run_probe(1, 1, 1.0, 0.5, samples=3, seed=2, r_max=4)


def test_sample_count_validated():
    with pytest.raises(ValueError):
        run_probe(1, 2, 1.0, 0.5, samples=0, seed=0)


@pytest.mark.parametrize("n", [0, -1])
def test_no_variables_rejected(n):
    # multidegrees_upto(0, d) would recurse without end
    with pytest.raises(ValueError, match="number of variables"):
        run_probe(n, 2, 1.0, 0.5, samples=2, seed=0)


def test_negative_degree_rejected():
    # a negative degree has no monomials: every sample would be the zero
    # polynomial, accepted and certified at r = 1
    with pytest.raises(ValueError, match="degree"):
        run_probe(1, -1, 1.0, 0.5, samples=2, seed=0)


def test_eps_validated():
    with pytest.raises(ValueError):
        run_probe(1, 2, 1.0, -0.5, samples=1, seed=0)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_non_finite_eps_rejected(eps):
    with pytest.raises(ValueError):
        run_probe(1, 2, 1.0, eps, samples=1, seed=0)


@pytest.mark.parametrize("bound", [math.nan, math.inf, 1e308])
def test_coefficient_bound_with_non_finite_range_rejected(bound):
    # at 1e308 the width 2N of [-N, N] overflows a double
    with pytest.raises(ValueError, match="coefficient bound"):
        run_probe(1, 2, bound, 0.5, samples=3, seed=0)


def test_nan_grid_minimum_rejected(monkeypatch):
    # a NaN grid minimum is no evidence of nonnegativity
    monkeypatch.setattr(probe, "_grid_minimum", lambda f, n: math.nan)
    with pytest.raises(NoSamplesAcceptedError):
        run_probe(1, 2, 1.0, 0.5, samples=3, seed=42, r_max=4)


def test_report_rows_cover_all_samples():
    report = run_probe(2, 2, 1.0, 1.0, samples=4, seed=1, r_max=6)
    assert len(report.rows) == 4
    assert [row.index for row in report.rows] == [0, 1, 2, 3]


@pytest.mark.parametrize("r_max, found_r", [(3, None), (4, 4)])
def test_shift_retry(r_max, found_r):
    # sample 2 of seed 1 (grid minimum 0.28) needs r = 5 as drawn; lifted by
    # its grid minimum it needs r = 4
    report = run_probe(1, 2, 1.0, 0.01, samples=4, seed=1, r_max=r_max)
    row = report.rows[2]
    assert row.status == "accepted"
    assert row.grid_min == pytest.approx(0.27958, abs=1e-5)
    assert row.shifted and row.found_r == found_r
    assert report.counts()["unresolved"] == (found_r is None)


def whole_grid_minimum(f, n):
    """The grid minimum over every point at once, as the probe took it
    before it evaluated the grid in slices."""
    axes = [np.linspace(-1.0, 1.0, probe.GRID_POINTS_PER_AXIS)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    return float(f.eval(np.stack([m.ravel() for m in mesh], axis=1)).min())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_minimum_in_slices_equals_the_whole_grid_minimum(n, monkeypatch):
    rng = np.random.default_rng(n)
    cases = [Polynomial(n, {alpha: rng.uniform(-bound, bound)
                            for alpha in multidegrees_upto(n, degree)})
             for degree, bound in ((2, 1.0), (4, 1.0), (5, 3.0), (3, 8e307))]
    # an infinite coefficient times the grid's zero coordinate gives NaN
    cases.append(Polynomial(n, {(0,) * n: 1.0, (2,) + (0,) * (n - 1): math.inf}))
    with np.errstate(over="ignore", invalid="ignore"):
        wants = [whole_grid_minimum(f, n) for f in cases]
    shapes = []
    evaluate = Polynomial.eval

    def recording(self, points):
        shapes.append(np.shape(points))
        return evaluate(self, points)

    monkeypatch.setattr(Polynomial, "eval", recording)
    with np.errstate(invalid="ignore"):
        gots = [probe._grid_minimum(f, n) for f in cases]
    # bit for bit, and NaN where the whole grid gives NaN
    assert np.array(gots).tobytes() == np.array(wants).tobytes()
    assert math.isnan(gots[-1]) and not any(map(math.isnan, gots[:-1]))
    # n = 1 is one call over the axis; otherwise one call per first coordinate
    per_call = 33 if n == 1 else 33 ** (n - 1)
    assert len(shapes) == len(cases) * (1 if n == 1 else 33)
    assert all(math.prod(shape[:-1]) <= per_call for shape in shapes)


@pytest.mark.parametrize("n", [2, 3])
def test_grid_minimum_in_tiny_chunks_equals_the_whole_grid_minimum(n, monkeypatch):
    rng = np.random.default_rng(10 + n)
    cases = [Polynomial(n, {alpha: rng.uniform(-1.0, 1.0)
                            for alpha in multidegrees_upto(n, degree)})
             for degree in (2, 4)]
    cases.append(Polynomial(n, {(0,) * n: 1.0, (2,) + (0,) * (n - 1): math.inf}))
    with np.errstate(over="ignore", invalid="ignore"):
        wants = [whole_grid_minimum(f, n) for f in cases]
    shapes = []
    evaluate = Polynomial.eval

    def recording(self, points):
        shapes.append(np.shape(points))
        return evaluate(self, points)

    # 7 divides no slice, so chunks straddle slices
    monkeypatch.setattr(probe, "GRID_CHUNK", 7)
    monkeypatch.setattr(Polynomial, "eval", recording)
    with np.errstate(invalid="ignore"):
        gots = [probe._grid_minimum(f, n) for f in cases]
    assert np.array(gots).tobytes() == np.array(wants).tobytes()
    assert math.isnan(gots[-1]) and not any(map(math.isnan, gots[:-1]))
    # every point once, at most 7 per call
    assert len(shapes) == len(cases) * math.ceil(33 ** n / 7)
    assert sum(shape[0] for shape in shapes) == len(cases) * 33 ** n
    assert all(shape[0] <= 7 for shape in shapes)
