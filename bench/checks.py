"""Correctness checks that use none of the program's own routines.

Polynomials here are dicts {exponent tuple: coefficient}; the perturbations
are rebuilt from the paper's formulas, certificates are evaluated at seeded
points with numpy, and moment matrices are assembled from the reported
moment values.  Every check returns a list of failure messages, empty when
the output is correct.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Poly = Dict[Tuple[int, ...], float]

# agreement of a certificate with f + eps*p at a point, relative to the
# size of the terms being summed
POINT_RTOL = 1e-6
# moment-side tolerances: L(p) <= 1, L(f) = -min_eps, PSD moment matrix
MOMENT_TOL = 1e-6
# a target nonnegative on its set may not need a negative weight below this
NONNEG_TOL = 1e-7


def theta_big(n: int, r: int) -> Poly:
    """1 + sum_j x_j^(2r)."""
    p: Poly = {(0,) * n: 1.0}
    for j in range(n):
        p[tuple(2 * r if i == j else 0 for i in range(n))] = 1.0
    return p


def theta_small(n: int, r: int) -> Poly:
    """sum_i sum_{k <= r} x_i^(2k) / k!."""
    p: Poly = {(0,) * n: float(n)}
    for i in range(n):
        for k in range(1, r + 1):
            p[tuple(2 * k if j == i else 0 for j in range(n))] = 1.0 / math.factorial(k)
    return p


def add(f: Poly, g: Poly, scale: float = 1.0) -> Poly:
    out = dict(f)
    for a, c in g.items():
        out[a] = out.get(a, 0.0) + scale * c
    return out


def rescale(f: Poly, factor: float) -> Poly:
    """x -> factor * x."""
    return {a: c * factor ** sum(a) for a, c in f.items()}


def from_obj(terms: Sequence[dict]) -> Poly:
    return {tuple(t["exponents"]): float(t["coeff"]) for t in terms}


def evaluate(f: Poly, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Values of f at the rows of X, and of f with |coefficients| at |X|."""
    if not f:
        return np.zeros(len(X)), np.zeros(len(X))
    exps = np.array(list(f.keys()), dtype=float)
    coeffs = np.array(list(f.values()))
    mons = np.prod(X[:, None, :] ** exps[None, :, :], axis=2)
    return mons @ coeffs, np.abs(mons) @ np.abs(coeffs)


def _sum_of_squares(squares: Sequence[Sequence[dict]], X: np.ndarray):
    value = np.zeros(len(X))
    size = np.zeros(len(X))
    for h in squares:
        v, a = evaluate(from_obj(h), X)
        value += v * v
        size += a * a
    return value, size


def certificate_at_points(cert: dict, target: Poly, X: np.ndarray,
                          generators: Optional[List[Poly]] = None) -> List[str]:
    """sum_i h_i(x)^2 (or sum_e (sum h^2) g^e) against target(x) at every row.

    The difference is taken relative to 1 + the absolute-value evaluation
    of both sides, the scale at which their float coefficients are exact.
    """
    if generators is None:
        lhs, size = _sum_of_squares(cert["squares"], X)
    else:
        lhs = np.zeros(len(X))
        size = np.zeros(len(X))
        for term in cert["terms"]:
            v, a = _sum_of_squares(term["sigma"]["squares"], X)
            gv = np.ones(len(X))
            for g, e in zip(generators, term["e"]):
                if e:
                    gv = gv * evaluate(g, X)[0]
            lhs += v * gv
            size += a * np.abs(gv)
    rhs, rhs_size = evaluate(target, X)
    err = np.abs(lhs - rhs) / (1.0 + size + rhs_size)
    worst = int(np.argmax(err))
    if err[worst] > POINT_RTOL:
        return [f"certificate differs from f + eps*p by {err[worst]:.2e} "
                f"(relative) at x = {X[worst].tolist()}"]
    return []


def _moments(obj: dict) -> Dict[Tuple[int, ...], float]:
    return {tuple(v["exponents"]): float(v["value"]) for v in obj["values"]}


def moment_checks(report: dict, f: Poly, p: Poly, r: int, n: int) -> List[str]:
    """The moment functional of a weight program: eps_star = -min_eps,
    L(f) = -min_eps, L(p) <= 1 and a PSD moment matrix of order r."""
    fails = []
    min_eps = float(report["min_eps"])
    if abs(float(report["eps_star"]) + min_eps) > MOMENT_TOL:
        fails.append(f"eps_star {report['eps_star']} is not -min_eps {min_eps}")
    y = _moments(report["dual_moments"])
    Lf = math.fsum(c * y.get(a, 0.0) for a, c in f.items())
    Lp = math.fsum(c * y.get(a, 0.0) for a, c in p.items())
    if abs(Lf + min_eps) > MOMENT_TOL:
        fails.append(f"L(f) = {Lf:.9g} is not -min_eps = {-min_eps:.9g}")
    if Lp > 1.0 + MOMENT_TOL:
        fails.append(f"L(p) = {Lp:.9g} exceeds 1")
    basis = [a for a in itertools.product(range(r + 1), repeat=n) if sum(a) <= r]
    M = np.array([[y.get(tuple(x + z for x, z in zip(a, b)), 0.0) for b in basis]
                  for a in basis])
    lam = float(np.linalg.eigvalsh(M)[0])
    if lam < -MOMENT_TOL * max(1.0, float(np.max(np.abs(M)))):
        fails.append(f"moment matrix has eigenvalue {lam:.3e}")
    return fails


def nonnegative_weight(min_eps: float) -> List[str]:
    if min_eps < -NONNEG_TOL:
        return [f"min_eps {min_eps:.3e} is negative for a nonnegative target"]
    return []


def smallest_degree(found_r: int, eps: float, weights: Dict[int, Optional[float]]) -> List[str]:
    """found_r is the least degree whose minimal weight (None: undecided)
    is covered by eps, per the weights measured in the same run."""
    covered = [r for r, w in sorted(weights.items())
               if w is not None and w <= eps + NONNEG_TOL]
    if not covered or covered[0] != found_r:
        return [f"sweep found r = {found_r}, but the weights {weights} "
                f"first cover eps = {eps} at {covered[:1]}"]
    return []


def verdict(report: dict, code: int, expected: bool) -> List[str]:
    """check-sos answered `expected`, with the matching exit code."""
    if report.get("sos") is not expected or code != (0 if expected else 1):
        return [f"check-sos said sos={report.get('sos')} (exit {code}), "
                f"expected {expected}"]
    return []


def self_test(report: dict, f: Poly, p: Poly, r: int, X: np.ndarray) -> List[str]:
    """The checks above must reject a tampered certificate, a shifted
    min_eps and a wrong check-sos verdict.  `report` is a correct
    epsilon-star report for f with perturbation p at degree r."""
    fails = []
    target = add(f, p, report["min_eps"])
    if certificate_at_points(report, target, X) or moment_checks(report, f, p, r, 1):
        fails.append("checks reject a correct epsilon-star report")
    tampered = dict(report, squares=[list(h) for h in report["squares"]])
    tampered["squares"][0] = [dict(t) for t in tampered["squares"][0]]
    tampered["squares"][0][0]["coeff"] += 1e-3
    if not certificate_at_points(tampered, target, X):
        fails.append("a tampered certificate passed the point check")
    shifted = dict(report, min_eps=report["min_eps"] + 1e-4)
    if not moment_checks(shifted, f, p, r, 1):
        fails.append("a shifted min_eps passed the moment checks")
    if not verdict({"sos": True}, 0, expected=False):
        fails.append("a wrong check-sos verdict passed")
    return fails
