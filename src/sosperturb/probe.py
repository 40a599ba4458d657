"""Empirical probe of the certification degree over random polynomials.

Samples polynomials with coefficients uniform in [-N, N] on all monomials
of degree <= d, keeps those nonnegative on a 33^n grid over the unit box (a
cheap necessary filter, not a certificate, evaluated by `Polynomial.eval`
in chunks of at most GRID_CHUNK points), and runs the degree sweep on
each.  The running maximum of the minimal degrees estimates how the
required perturbation degree scales with (n, d, N, eps); no reference
values exist for it, so the output is exploratory.

A sample that passes the grid but exhausts the sweep is retried once with
its grid minimum added (it may dip negative between grid points); such
shifts are counted and flagged per row, never silently absorbed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import List, Optional

import numpy as np

from .errors import NoSamplesAcceptedError, NotFoundWithinRMaxError
from .polynomials import Polynomial, multidegrees_upto
from .rng import SplitMix64
from .sos import THETA_BIG, minimal_r

GRID_POINTS_PER_AXIS = 33
# most grid points `_grid_minimum` evaluates at once (6 MB of coordinates
# at n = 6)
GRID_CHUNK = 1 << 17


@dataclass
class ProbeRow:
    index: int
    status: str                  # accepted | rejected
    grid_min: float
    shifted: bool = False
    found_r: Optional[int] = None
    min_eps: Optional[float] = None


@dataclass
class ProbeReport:
    n_vars: int
    degree: int
    coeff_bound: float
    eps: float
    samples: int
    seed: int
    r_max: int
    rows: List[ProbeRow] = field(default_factory=list)

    @property
    def max_r(self) -> Optional[int]:
        found = [row.found_r for row in self.rows if row.found_r is not None]
        return max(found) if found else None

    def counts(self) -> dict:
        return {
            "accepted": sum(1 for r in self.rows if r.status == "accepted"),
            "rejected": sum(1 for r in self.rows if r.status == "rejected"),
            "certified": sum(1 for r in self.rows if r.found_r is not None),
            "shifted": sum(1 for r in self.rows if r.shifted),
            "unresolved": sum(
                1 for r in self.rows
                if r.status == "accepted" and r.found_r is None),
        }

    def to_obj(self) -> dict:
        return {
            "nvars": self.n_vars,
            "degree": self.degree,
            "coeff_bound": self.coeff_bound,
            "eps": self.eps,
            "samples": self.samples,
            "seed": self.seed,
            "r_max": self.r_max,
            "rows": [asdict(row) for row in self.rows],
            "counts": self.counts(),
            "max_r": self.max_r,
        }


def _random_polynomial(rng: SplitMix64, n: int, d: int, bound: float) -> Polynomial:
    # draws happen in graded lex order so a seed pins the sample set
    terms = {}
    for alpha in multidegrees_upto(n, d):
        terms[alpha] = rng.uniform(-bound, bound)
    return Polynomial(n, terms)


# near the largest double a sum can overflow to +-inf, which compares like
# any minimum; numpy's overflow warning adds nothing
@np.errstate(over="ignore")
def _grid_minimum(f: Polynomial, n: int) -> float:
    """Least value of f on the grid, NaN when any value is NaN.

    The grid's flat index (row-major, the first axis slowest) is evaluated
    in chunks of one slice along the first axis (the whole axis at n = 1),
    capped at GRID_CHUNK points, so memory holds at most GRID_CHUNK points
    whatever n.  The minimum is np.min over the chunk minima."""
    axis = np.linspace(-1.0, 1.0, GRID_POINTS_PER_AXIS)
    total = GRID_POINTS_PER_AXIS ** n
    chunk = min(GRID_CHUNK, GRID_POINTS_PER_AXIS ** max(n - 1, 1))
    minima = []
    for start in range(0, total, chunk):
        index = np.arange(start, min(total, start + chunk))
        # one contiguous row per coordinate: eval reads points[..., i]
        coords = np.empty((n, index.size))
        for i in range(n - 1, -1, -1):
            index, digit = np.divmod(index, GRID_POINTS_PER_AXIS)
            axis.take(digit, out=coords[i])
        minima.append(f.eval(coords.T).min())
    return float(np.min(minima))


def run_probe(
    n: int,
    d: int,
    coeff_bound: float,
    eps: float,
    samples: int,
    seed: int,
    r_max: int = 10,
) -> ProbeReport:
    if n < 1:
        raise ValueError(f"number of variables must be >= 1, got {n}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    # samples are drawn as -N + 2N*u, so 2N must be finite too
    if not math.isfinite(2.0 * coeff_bound):
        raise ValueError(f"coefficient bound N must be finite, and so must 2N, got {coeff_bound}")
    rng = SplitMix64(seed)
    report = ProbeReport(n, d, coeff_bound, eps, samples, seed, r_max)

    for index in range(samples):
        f = _random_polynomial(rng, n, d, coeff_bound)
        grid_min = _grid_minimum(f, n)
        # not >=, so that a NaN minimum is rejected too
        if not grid_min >= 0.0:
            report.rows.append(ProbeRow(index, "rejected", grid_min))
            continue
        row = ProbeRow(index, "accepted", grid_min)
        for target in (f, f + Polynomial.constant(n, grid_min)):
            try:
                res = minimal_r(target, eps, THETA_BIG, r_max)
            except NotFoundWithinRMaxError:
                row.shifted = True
                continue
            row.found_r, row.min_eps = res.r, res.min_eps
            break
        report.rows.append(row)

    if not any(row.status == "accepted" for row in report.rows):
        raise NoSamplesAcceptedError(
            f"all {samples} samples were negative somewhere on the grid")
    return report
