"""Membership in truncated preorderings of semialgebraic descriptions.

A description is a finite list of generators g_1..g_s; the associated set is
where all generators are nonnegative.  The degree-2r truncated preordering
collects sums over e in {0,1}^s of sigma_e * g_1^e1 * ... * g_s^es with
sigma_e a sum of squares and deg(sigma_e g^e) <= 2r.  Note this is the
truncation by the degree of the individual products, which differs in
general from intersecting the full preordering with the degree-2r space.

Membership of f + eps*p is one block-diagonal SDP with a Gram block per
admissible exponent tuple e, sized to the degree budget left after g^e.
It is built by the one assembly of plain sums of squares,
`sos._ReducedGram`, which multiplies out each product once, scales it by
its generators' largest coefficients, applies its forced-zero pruning and
sign-symmetry split and, since there are generators, matches under
`sos.CHEBYSHEV`: Gram blocks are indexed by the tensor Chebyshev basis
T_alpha of the box (see `chebyshev`), and one constraint per T_gamma with
|gamma| <= 2r matches Chebyshev coefficients, linked through T_a * T_b =
(T_{a+b} + T_{|a-b|}) / 2 in each coordinate.
Matching monomial coefficients instead gives Hankel-type localizing blocks
whose conditioning grows exponentially with r and stalls the solver.

The weight-minimizing variant adds the same 1x1 eps block as the plain
squares engine; its dual vector, negated, is the optimal functional on the
T_gamma subject to the localizing PSD conditions, one per admissible e.
Results leave this module in grlex monomials through exact changes of
basis: a product's Gram matrix Q over the T_alpha becomes P^T Q P, with
row alpha of P the monomial coefficients of T_alpha, and moments become
L(x^beta) = sum_gamma C_beta,gamma L(T_gamma), with x^beta = sum_gamma
C_beta,gamma T_gamma and L(T_gamma) = 0 for every dropped T_gamma.
Certificates, their verification and the file formats are the monomial
ones of the plain engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import chebyshev
from .errors import DimensionMismatchError, TooManyGeneratorsError
from .parsing import parse
from .polynomials import MonomialBasis, Polynomial
from .sdp import SdpProblem
from .sos import (ApproximationResult, GramCertificate,
                  PerturbationKind, THETA_BIG, THETA_SMALL, _ReducedGram,
                  _gram_form, _products, _residual, _residual_warnings,
                  _squares_form, _sweep, _verify_terms, extract_certificate)

MAX_GENERATORS = 10
# a stored product may differ from g^e, multiplied out again from the
# stored generators, by rounding only, relative to the product of their l1
# norms: a generator is stored in graded-lex order, which need not be the
# order its terms were multiplied in
PRODUCT_TOL = 1e-12


@dataclass
class SemialgebraicSystem:
    """Finite generator list plus the user's moment-problem assertion.

    Whether every functional nonnegative on the preordering integrates
    against a measure on the set is not decidable here; the flag records
    the user's claim and `note` its provenance (e.g. compactness).
    """

    generators: List[Polynomial]
    assert_moment_problem: bool = False
    note: str = ""

    def __post_init__(self):
        if not self.generators:
            raise ValueError("at least one generator is required")
        if len(self.generators) > MAX_GENERATORS:
            raise TooManyGeneratorsError(
                f"{len(self.generators)} generators exceed the cap of {MAX_GENERATORS}")
        n = self.generators[0].n_vars
        for g in self.generators:
            if g.n_vars != n:
                raise DimensionMismatchError("generators disagree on n_vars")
            if g.is_zero:
                raise ValueError("the zero polynomial cannot be a generator")

    @property
    def n_vars(self) -> int:
        return self.generators[0].n_vars


def load_system(text: str) -> SemialgebraicSystem:
    """Parse the line-oriented description format.

    Header `nvars <n>`, then `moment_problem asserted|unknown`, an optional
    `note <text>` line, then one generator per line in the polynomial
    grammar.  Blank lines and lines starting with '#' are skipped.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 3:
        raise ValueError("system description needs nvars, moment_problem and generators")
    if not lines[0].startswith("nvars "):
        raise ValueError("first line must be 'nvars <n>'")
    n_vars = int(lines[0].split()[1])
    if not lines[1].startswith("moment_problem "):
        raise ValueError("second line must be 'moment_problem asserted|unknown'")
    flag = lines[1].split(None, 1)[1].strip()
    if flag not in ("asserted", "unknown"):
        raise ValueError(f"moment_problem must be asserted or unknown, got {flag!r}")
    note = ""
    rest = lines[2:]
    if rest and rest[0].startswith("note "):
        note = rest[0][5:].strip()
        rest = rest[1:]
    generators = [parse(ln, n_vars) for ln in rest]
    return SemialgebraicSystem(generators, flag == "asserted", note)


def build_preorder_sdp(
    f: Polynomial,
    eps: float,
    p: Polynomial,
    system: SemialgebraicSystem,
    r: int,
) -> SdpProblem:
    """Feasibility program: does f + eps*p decompose at degree 2r?

    Zero objective; the Gram blocks of every admissible product, in the
    tensor Chebyshev basis, each product scaled as in `sos._ReducedGram`:
    the program `membership` re-solves at a covered degree.  Raises the
    PrimalLikelyInfeasible SolverFailureError of `sos._ReducedGram.program`,
    without a solve, when forced-zero pruning already leaves the program
    infeasible.
    """
    return _ReducedGram(f, p, r, eps, system.generators).program()


def epsilon_star_preorder(
    f: Polynomial,
    r: int,
    p: Polynomial,
    system: SemialgebraicSystem,
) -> ApproximationResult:
    """Minimal weight eps putting f + eps*p in the degree-2r truncation.

    The one assembly lists and scales the products as for
    `build_preorder_sdp` and the re-solve of `membership`; the program
    matches Chebyshev coefficients.  Its dual is the moment-side problem:
    minimize L(f) over functionals with L(p) <= 1 whose localizing matrix
    for every admissible product is PSD; its value
    is reported as eps_star and cross-checked against the primal optimum.
    The dual vector holds -L(T_gamma); it is mapped exactly to the monomial
    moments L(x^beta) reported in dual_moments.  No certificate is attached
    here; membership() builds one for a concrete weight.
    """
    return _ReducedGram(f, p, r, None, system.generators).weight()


@dataclass
class PreorderTerm:
    exponents: Tuple[int, ...]
    product: Polynomial
    sigma: GramCertificate


@dataclass
class PreorderCertificate:
    """Explicit decomposition f + eps*p = sum_e sigma_e * g^e.

    generators are the system's g_1..g_s, which `verify_preorder_obj`
    multiplies out again to check every stored product g^e.
    residual_linf compares the reconstruction from the extracted squares
    of every sigma_e times its product with the target (`sos._residual`);
    nothing is taken from the solver on trust.
    """

    r: int
    eps_star: float
    min_eps: float
    gap: float
    kind: str
    annotation: str
    generators: List[Polynomial]
    terms: List[PreorderTerm]
    residual_linf: float
    warnings: List[str]

    def to_obj(self) -> dict:
        return {
            "r": self.r,
            "eps_star": self.eps_star,
            "min_eps": self.min_eps,
            "gap": self.gap,
            "kind": self.kind,
            "annotation": self.annotation,
            "generators": [g.to_obj() for g in self.generators],
            "terms": [
                {
                    "e": list(t.exponents),
                    "product": t.product.to_obj(),
                    "sigma": t.sigma.to_obj(),
                }
                for t in self.terms
            ],
            "residual_linf": self.residual_linf,
            "warnings": self.warnings,
        }


def _sigma_certificate(basis: MonomialBasis, gram_t: np.ndarray) -> GramCertificate:
    """Monomial certificate for a Gram block solved over the T_alpha.

    The Gram matrix maps by congruence to P^T Q P (see
    `chebyshev.monomial_matrix`).  The squares are extracted from Q itself,
    one connected block of its nonzero pattern at a time, whose spectrum
    the clipping of `extract_certificate` can judge without the growth of
    the monomial coefficients of T_alpha, and the Chebyshev coefficients c
    of each square map to the monomial coefficients P^T c.
    """
    P = chebyshev.monomial_matrix(basis)
    gram = P.T @ gram_t @ P
    squares = []
    for h in extract_certificate(gram_t, basis):
        coeffs = P.T @ np.array([h.coeff(a) for a in basis.entries])
        squares.append(Polynomial(basis.n_vars, dict(zip(basis.entries, coeffs))))
    # the squares against the Gram form they were extracted from
    one = Polynomial.constant(basis.n_vars, 1.0)
    exponents, values = _gram_form(one, basis.entries, gram)
    residual = _residual(Polynomial.zero(basis.n_vars),
                         [_squares_form(one, squares), (exponents, -values)])
    return GramCertificate(basis, gram, squares, residual)


def _kind_annotation(kind: PerturbationKind, n_vars: int) -> str:
    if kind == THETA_SMALL:
        return ("certifies nonnegativity of the target polynomial on the "
                "described set")
    if kind == THETA_BIG:
        return ("certifies nonnegativity of the target polynomial only on "
                f"the intersection of the described set with [-1,1]^{n_vars}")
    return "custom perturbation: no nonnegativity claim attached"


def membership(
    f: Polynomial,
    eps: float,
    kind: PerturbationKind,
    system: SemialgebraicSystem,
    r_max: int,
) -> PreorderCertificate:
    """Search the smallest degree at which f + eps*p_r decomposes.

    The degree sweep of `sos._sweep` over `epsilon_star_preorder`; at the
    first degree whose minimal weight is covered by eps, the sweep's
    decomposition step, which `sos.minimal_r` shares, re-solves the
    feasibility program for the requested weight (that of
    `build_preorder_sdp`), and per-product square decompositions are
    extracted from its Gram matrices.  A re-solve that does not end
    Optimal marks the degree "weight-ok-decomposition-failed" and the
    sweep goes on.
    """
    warnings: List[str] = []
    if not system.assert_moment_problem:
        warnings.append(
            "moment problem hypothesis not asserted: the degree sweep is a "
            "best effort and may miss memberships that hold at every degree")

    base, p, reduced, grams, _ = _sweep(
        f, eps, kind, r_max, lambda r, p: epsilon_star_preorder(f, r, p, system),
        system.generators)
    terms = [PreorderTerm(e, product, _sigma_certificate(basis, gram_t))
             for (e, product), basis, gram_t in zip(reduced.products, reduced.bases, grams)]
    residual = _residual(f + p.scale(eps),
                         [_squares_form(t.product, t.sigma.squares) for t in terms])
    warnings.extend(_residual_warnings(residual))
    return PreorderCertificate(
        r=base.r,
        eps_star=base.eps_star,
        min_eps=base.min_eps,
        gap=base.gap,
        kind=kind if isinstance(kind, str) else "custom",
        annotation=_kind_annotation(kind, f.n_vars),
        generators=system.generators,
        terms=terms,
        residual_linf=residual,
        warnings=warnings,
    )


def _unmatched_products(obj: dict, n_vars: int) -> List[int]:
    """Indices of the terms of a serialized decomposition whose e is none
    of the exponent tuples of `sos._products` for the stored generators at
    the stored r, or whose stored product is not that g^e (PRODUCT_TOL).

    A file that names no generators (such as one written before they were
    stored) cannot be checked, and more than MAX_GENERATORS are refused
    before any product is multiplied out: both raise ValueError.
    """
    if "generators" not in obj:
        raise ValueError("the preorder certificate names no generators, so its "
                         "products cannot be checked: membership undecided")
    if len(obj["generators"]) > MAX_GENERATORS:
        raise TooManyGeneratorsError(
            f"{len(obj['generators'])} generators exceed the cap of {MAX_GENERATORS}")
    generators = [Polynomial.from_obj(g, n_vars) for g in obj["generators"]]
    norms = [g.l1_norm() for g in generators]
    products = dict(_products(n_vars, generators, 2 * int(obj["r"])))
    unmatched = []
    for k, term in enumerate(obj["terms"]):
        e = tuple(term["e"])
        if e not in products:
            unmatched.append(k)
            continue
        deviation = Polynomial.from_obj(term["product"], n_vars) - products[e]
        bound = PRODUCT_TOL * math.prod(c for c, ei in zip(norms, e) if ei)
        if not max(map(abs, deviation.terms.values()), default=0.0) <= bound:
            unmatched.append(k)
    return unmatched


def verify_preorder_obj(obj: dict, target: Polynomial) -> dict:
    """Re-check a serialized decomposition without the solver: every term's
    Gram form and squares, times its stored product, through the residual
    of `sos._verify_terms`, and every stored product against the stored
    generators (`_unmatched_products`, the indices of the terms that fail,
    in the key "unmatched_products")."""
    unmatched = _unmatched_products(obj, target.n_vars)
    return {**_verify_terms(target, [
        (Polynomial.from_obj(term["product"], target.n_vars), term["sigma"])
        for term in obj["terms"]]), "unmatched_products": unmatched}
