"""Sparse multivariate polynomials over floating-point coefficients.

A multidegree is a plain tuple of nonnegative ints, one entry per variable;
a polynomial stores a dict mapping multidegrees to nonzero coefficients.
Everything downstream (monomial bases, Gram indexing, serialization) uses a
single canonical ordering, graded lexicographic: ascending total degree,
ties broken by descending lexicographic comparison of the exponent tuple,
so for two variables the order starts (0,0), (1,0), (0,1), (2,0), (1,1), ...

Coefficient hygiene: a polynomial never stores an exact zero, and nothing
else is dropped.  Arithmetic, parsing, the perturbation families and the
box rescaling `scale_box` keep every nonzero coefficient, however small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from .errors import DimensionMismatchError

Multidegree = Tuple[int, ...]


def grlex_key(alpha: Multidegree) -> tuple:
    """Sort key realizing the graded lexicographic order."""
    return (sum(alpha), tuple(-a for a in alpha))


def _compositions_desc(total: int, n: int) -> Iterator[Multidegree]:
    """All exponent tuples of length n summing to total, descending lex."""
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, n - 1):
            yield (first,) + rest


def multidegrees_upto(n_vars: int, max_total: int) -> List[Multidegree]:
    """All multidegrees with total <= max_total in graded lex order."""
    out: List[Multidegree] = []
    for t in range(max_total + 1):
        out.extend(_compositions_desc(t, n_vars))
    return out


@dataclass
class Polynomial:
    """Sparse polynomial: n_vars and a {multidegree: coefficient} map.

    Instances are treated as immutable; every operation returns a new object.
    """

    n_vars: int
    terms: Dict[Multidegree, float]

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {self.n_vars}")
        for alpha in self.terms:
            if len(alpha) != self.n_vars:
                raise DimensionMismatchError(
                    f"exponent tuple {alpha} does not have {self.n_vars} entries")
            if any(e < 0 for e in alpha):
                raise ValueError(f"negative exponent in {alpha}")
        # never store exact zeros
        self.terms = {a: float(c) for a, c in self.terms.items() if c != 0.0}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n_vars: int) -> "Polynomial":
        return Polynomial(n_vars, {})

    @staticmethod
    def constant(n_vars: int, value: float) -> "Polynomial":
        return Polynomial(n_vars, {(0,) * n_vars: value})

    @staticmethod
    def monomial(n_vars: int, alpha: Multidegree, coeff: float = 1.0) -> "Polynomial":
        return Polynomial(n_vars, {tuple(alpha): coeff})

    @staticmethod
    def variable(n_vars: int, index: int) -> "Polynomial":
        """The variable x_{index}, 1-based."""
        if not 1 <= index <= n_vars:
            raise ValueError(f"variable index {index} out of range 1..{n_vars}")
        alpha = tuple(1 if i == index - 1 else 0 for i in range(n_vars))
        return Polynomial(n_vars, {alpha: 1.0})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Max total degree; 0 for the zero polynomial (see is_zero)."""
        if not self.terms:
            return 0
        return max(sum(a) for a in self.terms)

    def coeff(self, alpha: Multidegree) -> float:
        return self.terms.get(tuple(alpha), 0.0)

    def sorted_terms(self) -> List[Tuple[Multidegree, float]]:
        return sorted(self.terms.items(), key=lambda it: grlex_key(it[0]))

    def l1_norm(self) -> float:
        return sum(abs(c) for c in self.terms.values())

    # -- arithmetic (exact zeros drop in the constructor) -------------------

    def _check_same_vars(self, other: "Polynomial") -> None:
        if self.n_vars != other.n_vars:
            raise DimensionMismatchError(
                f"operands have {self.n_vars} and {other.n_vars} variables")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_vars(other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            terms[a] = terms.get(a, 0.0) + c
        return Polynomial(self.n_vars, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1.0)

    def scale(self, c: float) -> "Polynomial":
        return Polynomial(self.n_vars, {a: v * c for a, v in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_vars(other)
        acc: Dict[Multidegree, float] = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                prod = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
                acc[prod] = acc.get(prod, 0.0) + c1 * c2
        return Polynomial(self.n_vars, acc)

    def pow(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative exponent")
        result = Polynomial.constant(self.n_vars, 1.0)
        for _ in range(k):
            result = result * self
        return result

    def eval(self, points) -> np.ndarray:
        """Values at points of shape (..., n_vars), one per point: the terms
        summed in graded-lex order, starting from zero."""
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != (self.n_vars,):
            raise DimensionMismatchError(
                f"points of shape {points.shape} do not have {self.n_vars} coordinates")
        values = np.zeros(points.shape[:-1])
        for alpha, c in self.sorted_terms():
            term = np.full(points.shape[:-1], c)
            for i, e in enumerate(alpha):
                if e:
                    term = term * points[..., i] ** e
            values += term
        return values

    # -- serialization ------------------------------------------------------

    def to_obj(self) -> List[dict]:
        """JSON-friendly form: graded-lex list of {exponents, coeff}."""
        return [{"exponents": list(a), "coeff": c} for a, c in self.sorted_terms()]

    @staticmethod
    def from_obj(obj: Iterable[dict], n_vars: int) -> "Polynomial":
        return Polynomial(n_vars, {tuple(t["exponents"]): float(t["coeff"]) for t in obj})


# -- perturbation families and related constructors -------------------------


def theta_big(n: int, r: int) -> Polynomial:
    """1 + sum_j x_j^(2r): the box perturbation, n+1 terms, degree 2r."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    terms: Dict[Multidegree, float] = {(0,) * n: 1.0}
    for j in range(n):
        alpha = tuple(2 * r if i == j else 0 for i in range(n))
        terms[alpha] = 1.0
    return Polynomial(n, terms)


def theta_small(n: int, r: int) -> Polynomial:
    """sum_i sum_{k<=r} x_i^(2k)/k!: the exponential-tail perturbation.

    Constant term n, degree 2r, n*r + 1 terms.  Coefficients 1/k! are exact
    float quotients of the integer factorial; past k = 170 the factorial
    exceeds the double range, the coefficient underflows to zero and the
    term disappears.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    terms: Dict[Multidegree, float] = {(0,) * n: float(n)}
    for i in range(n):
        for k in range(1, min(r, 170) + 1):
            alpha = tuple(2 * k if j == i else 0 for j in range(n))
            terms[alpha] = 1.0 / math.factorial(k)
    return Polynomial(n, terms)


def scale_box(f: Polynomial, l: float) -> Polynomial:
    """g(x) = f(l*x): coefficient at alpha is scaled by l^|alpha|.

    Certifying f on [-l, l]^n reduces to certifying g on the unit box.
    Rescaling cancels nothing, so every coefficient is kept however small;
    only one that underflows to exactly zero disappears.  A power l^|alpha|
    or a coefficient beyond the range of a double raises ValueError.
    """
    if l <= 0:
        raise ValueError(f"box scale must be positive, got {l}")
    try:
        g = Polynomial(f.n_vars, {a: c * l ** sum(a) for a, c in f.terms.items()})
    except OverflowError:
        g = None
    if g is None or not all(math.isfinite(c) for c in g.terms.values()):
        raise ValueError(f"box scale {l!r} is out of range: a coefficient of f(l*x) "
                         "overflows a double")
    return g


# -- monomial bases ----------------------------------------------------------


@dataclass(frozen=True)
class MonomialBasis:
    """All monomials of total degree <= max_degree in graded lex order."""

    n_vars: int
    max_degree: int
    entries: Tuple[Multidegree, ...]
    index: Dict[Multidegree, int] = field(compare=False, repr=False)

    @staticmethod
    def build(n_vars: int, max_degree: int) -> "MonomialBasis":
        if n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {n_vars}")
        if max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {max_degree}")
        entries = tuple(multidegrees_upto(n_vars, max_degree))
        index = {a: i for i, a in enumerate(entries)}
        return MonomialBasis(n_vars, max_degree, entries, index)

    def __len__(self) -> int:
        return len(self.entries)

    def index_of(self, alpha: Multidegree) -> int:
        return self.index[tuple(alpha)]

    def to_obj(self) -> List[List[int]]:
        return [list(a) for a in self.entries]
