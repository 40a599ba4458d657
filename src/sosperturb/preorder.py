"""Membership in truncated preorderings of semialgebraic descriptions.

A description is a finite list of generators g_1..g_s; the associated set is
where all generators are nonnegative.  The degree-2r truncated preordering
collects sums over e in {0,1}^s of sigma_e * g_1^e1 * ... * g_s^es with
sigma_e a sum of squares and deg(sigma_e g^e) <= 2r.  Note this is the
truncation by the degree of the individual products, which differs in
general from intersecting the full preordering with the degree-2r space.

Membership of f + eps*p is one block-diagonal SDP: a Gram block per
admissible exponent tuple e, sized to the degree budget left after g^e.
The program is stated in the tensor Chebyshev basis T_alpha of the box
(see `chebyshev`): Gram blocks are indexed by T_alpha, and there is one
matching constraint per Chebyshev coefficient T_gamma with |gamma| <= 2r,
linked through T_a * T_b = (T_{a+b} + T_{|a-b|}) / 2 in each coordinate.
Matching monomial coefficients instead gives Hankel-type localizing blocks
whose conditioning grows exponentially with r and stalls the solver.  Each
Gram matrix is further split into sign-symmetry blocks (see `symmetry`),
and the T_gamma constraints that the split leaves empty are dropped.

The weight-minimizing variant adds the same 1x1 eps block as the plain
squares engine; its dual vector, negated, is the optimal functional on the
T_gamma subject to the localizing PSD conditions, one per admissible e.
Results leave this module in grlex monomials through exact changes of
basis: the blocks of a product are put back into one Gram matrix Q over
the T_alpha, which becomes P^T Q P, with row alpha of P the monomial
coefficients of T_alpha, and moments become L(x^beta) = sum_gamma
C_beta,gamma L(T_gamma), with x^beta = sum_gamma C_beta,gamma T_gamma and
L(T_gamma) = 0 for every dropped T_gamma.  Certificates, their
verification and the file formats are the monomial ones of the plain
engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import chebyshev
from .errors import DimensionMismatchError, TooManyGeneratorsError
from .moments import MomentVector
from .parsing import parse, unparse
from .polynomials import (MonomialBasis, Multidegree, Polynomial,
                          multidegrees_upto)
from .sdp import ConstraintRow, SdpProblem, SolveStatus, SolverSettings, solve
from .sos import (DEFAULT_CLIP_TOL, DEFAULT_RESIDUAL_TOL, ApproximationResult,
                  GramCertificate, PerturbationKind, THETA_BIG, THETA_SMALL,
                  _check_degrees, _gram_form, _residual, _squares_form, _sweep,
                  _verify_terms, _weight_gap, extract_certificate)
from .symmetry import ParitySpan, scatter

MAX_GENERATORS = 10


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


def dump_system(system: SemialgebraicSystem) -> str:
    lines = [f"nvars {system.n_vars}",
             f"moment_problem {'asserted' if system.assert_moment_problem else 'unknown'}"]
    if system.note:
        lines.append(f"note {system.note}")
    lines.extend(unparse(g) for g in system.generators)
    return "\n".join(lines) + "\n"


def enumerate_products(
    system: SemialgebraicSystem, two_r: int
) -> List[Tuple[Tuple[int, ...], Polynomial]]:
    """Admissible exponent tuples e with deg(g^e) <= two_r and the expanded
    products, in little-endian counting order (e_1 is the fastest bit), so
    the trivial product e = 0 comes first.

    Distinct tuples with identical products are kept as separate entries.
    """
    if two_r < 0:
        raise ValueError("two_r must be >= 0")
    s = len(system.generators)
    degs = [g.degree() for g in system.generators]
    out: List[Tuple[Tuple[int, ...], Polynomial]] = []
    for code in range(1 << s):
        e = tuple((code >> i) & 1 for i in range(s))
        deg = sum(d for d, ei in zip(degs, e) if ei)
        if deg > two_r:
            continue
        product = Polynomial.constant(system.n_vars, 1.0)
        for g, ei in zip(system.generators, e):
            if ei:
                product = product * g
        out.append((e, product))
    return out


ProductBlock = Tuple[Tuple[int, ...], Polynomial, MonomialBasis,
                     List[Tuple[int, List[int]]]]


def _product_blocks(
    f: Polynomial,
    p: Polynomial,
    system: SemialgebraicSystem,
    r: int,
    eps: Optional[float],
) -> Tuple[List[ProductBlock], List[Multidegree], SdpProblem]:
    """Shared assembly of the preorder programs in the tensor Chebyshev basis.

    Each admissible product g^e gets a Gram matrix indexed by the T_alpha
    with |alpha| <= (2r - deg g^e) // 2, in the graded-lex order of the
    returned MonomialBasis, whose entries double as the Chebyshev indices.
    That matrix is split by sign symmetry (see `symmetry`, with the span of
    f, p and the generators) into one SDP block per coset, and each product
    is returned as (e, product, basis, parts), parts listing the SDP block
    index and the basis indices of every coset in order.  There is one
    equality per T_gamma with |gamma| <= 2r whose parity lies in the span,
    in graded-lex order; those gammas are returned as well.  The equalities
    match Chebyshev coefficients of sum_e (T^T Q_e T) g^e against the
    target.  Targets, perturbation and generator products are expanded in
    the basis directly (see `chebyshev`), never by monomial arithmetic.

    With eps None this is the weight program: a 1x1 eps block carrying -p,
    objective eps, right-hand side f.  With a number it is the feasibility
    program for f + eps*p, zero objective.
    """
    _check_degrees(f, p, r)
    if f.n_vars != system.n_vars:
        raise DimensionMismatchError(
            f"target has {f.n_vars} variables, system has {system.n_vars}")
    n_vars = f.n_vars
    span = ParitySpan([f, p, *system.generators])
    gammas = [g for g in multidegrees_upto(n_vars, 2 * r) if span.contains(g)]
    row_of = {g: i for i, g in enumerate(gammas)}
    row_entries: List[Dict[int, Tuple[list, list, list]]] = [{} for _ in gammas]
    generators = [chebyshev.to_chebyshev(g) for g in system.generators]

    blocks: List[ProductBlock] = []
    sizes: List[int] = []
    for e, product in enumerate_products(system, 2 * r):
        # leading forms never cancel in a product, so degrees add
        deg = sum(g.degree() for g, ei in zip(system.generators, e) if ei)
        basis = MonomialBasis.build(n_vars, (2 * r - deg) // 2)
        parts = [(len(sizes) + k, idx)
                 for k, idx in enumerate(span.split(basis.entries))]
        blocks.append((e, product, basis, parts))
        series = {(0,) * n_vars: 1.0}
        for g, ei in zip(generators, e):
            if ei:
                series = chebyshev.multiply(series, g)
        for bi, idx in parts:
            sizes.append(len(idx))
            alphas = [basis.entries[a] for a in idx]
            shifted = [chebyshev.times_t(alpha, series) for alpha in alphas]
            for i in range(len(idx)):
                for j in range(i, len(idx)):
                    for gamma, c in chebyshev.times_t(alphas[j], shifted[i]).items():
                        if c == 0.0:
                            continue
                        entries = row_entries[row_of[gamma]].get(bi)
                        if entries is None:
                            entries = row_entries[row_of[gamma]][bi] = ([], [], [])
                        entries[0].append(i)
                        entries[1].append(j)
                        entries[2].append(c)

    f_t, p_t = chebyshev.to_chebyshev(f), chebyshev.to_chebyshev(p)
    objective: Dict[int, np.ndarray] = {}
    rows = []
    if eps is None:
        eps_index = len(sizes)
        sizes.append(1)
        objective[eps_index] = np.array([[1.0]])
    for gamma, entries in zip(gammas, row_entries):
        if eps is None:
            c = p_t.get(gamma, 0.0)
            if c != 0.0:
                entries[eps_index] = ([0], [0], [-c])
            rhs = f_t.get(gamma, 0.0)
        else:
            rhs = f_t.get(gamma, 0.0) + eps * p_t.get(gamma, 0.0)
        rows.append(ConstraintRow(entries, None, rhs))
    return blocks, gammas, SdpProblem.from_rows(sizes, 0, rows, objective)


def build_preorder_sdp(
    f: Polynomial,
    eps: float,
    p: Polynomial,
    system: SemialgebraicSystem,
    r: int,
) -> SdpProblem:
    """Feasibility program: does f + eps*p decompose at degree 2r?

    Zero objective; one Gram block per admissible product, all in the
    tensor Chebyshev basis of `_product_blocks`.
    """
    return _product_blocks(f, p, system, r, eps)[2]


def epsilon_star_preorder(
    f: Polynomial,
    r: int,
    p: Polynomial,
    system: SemialgebraicSystem,
    settings: SolverSettings = SolverSettings(),
) -> ApproximationResult:
    """Minimal weight eps putting f + eps*p in the degree-2r truncation.

    The program matches Chebyshev coefficients (see `_product_blocks`) on
    generators scaled to unit max coefficient.  Its dual is the moment-side
    problem: minimize L(f) over functionals with L(p) <= 1 whose localizing
    matrix for every admissible product is PSD; its value is reported as
    eps_star and cross-checked against the primal optimum.  The dual vector
    holds -L(T_gamma); it is mapped exactly to the monomial moments
    L(x^beta) reported in dual_moments.  No certificate is attached here;
    membership() builds one for a concrete weight.
    """
    system_n, _ = _normalized_system(system)
    _, kept, problem = _product_blocks(f, p, system_n, r, None)
    sol = solve(problem, settings)
    gap = _weight_gap(sol, "preorder weight program", r)
    min_eps = sol.dual_objective
    # T_gamma outside the parity span carry no constraint: L(T_gamma) = 0
    gammas = multidegrees_upto(f.n_vars, 2 * r)
    on_t = dict.fromkeys(gammas, 0.0)
    on_t.update((g, -float(v)) for g, v in zip(kept, sol.dual_vector))
    moments = MomentVector(
        f.n_vars, 2 * r, chebyshev.moments_to_monomials(on_t, gammas))
    return ApproximationResult(
        r=r,
        eps_star=-min_eps,
        min_eps=min_eps,
        certificate=None,
        dual_moments=moments,
        gap=gap,
    )


def _normalized_system(
    system: SemialgebraicSystem,
) -> Tuple[SemialgebraicSystem, List[float]]:
    """Generators scaled to unit max coefficient, plus the norms taken out.

    The normalization factor moves into the matching sigma block and is
    divided back out of its Gram matrix after the solve; it keeps the
    constraint data O(1) regardless of how the generators were written.
    """
    gens = []
    norms = []
    for g in system.generators:
        norm = max(abs(c) for c in g.terms.values())
        gens.append(g.scale(1.0 / norm))
        norms.append(norm)
    return SemialgebraicSystem(
        gens, system.assert_moment_problem, system.note), norms


@dataclass
class PreorderTerm:
    exponents: Tuple[int, ...]
    product: Polynomial
    sigma: GramCertificate


@dataclass
class PreorderCertificate:
    """Explicit decomposition f + eps*p = sum_e sigma_e * g^e.

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


def _sigma_certificate(
    basis: MonomialBasis, gram_t: np.ndarray, clip_tol: float
) -> GramCertificate:
    """Monomial certificate for a Gram block solved over the T_alpha.

    The Gram matrix maps by congruence to P^T Q P (see
    `chebyshev.monomial_matrix`).  The squares are extracted from Q itself,
    whose spectrum clip_tol can judge without the growth of the monomial
    coefficients of T_alpha, and the Chebyshev coefficients c of each
    square map to the monomial coefficients P^T c.
    """
    P = chebyshev.monomial_matrix(basis)
    gram = P.T @ gram_t @ P
    squares = []
    for h in extract_certificate(gram_t, basis, clip_tol):
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
    settings: SolverSettings = SolverSettings(),
    clip_tol: float = DEFAULT_CLIP_TOL,
) -> PreorderCertificate:
    """Search the smallest degree at which f + eps*p_r decomposes.

    The degree sweep of `sos._sweep` over `epsilon_star_preorder`; at the
    first degree whose minimal weight is covered by eps, the feasibility
    program for the requested weight is re-solved and per-product square
    decompositions are extracted.  A re-solve that does not end Optimal
    marks the degree "weight-ok-decomposition-failed" and the sweep goes on.
    """
    warnings: List[str] = []
    if not system.assert_moment_problem:
        warnings.append(
            "moment problem hypothesis not asserted: the degree sweep is a "
            "best effort and may miss memberships that hold at every degree")
    system_n, norms = _normalized_system(system)

    def decompose(base: ApproximationResult, p: Polynomial) -> Optional[PreorderCertificate]:
        r = base.r
        blocks, _, problem = _product_blocks(f, p, system_n, r, eps)
        sol = solve(problem, settings)
        if sol.status is not SolveStatus.OPTIMAL:
            return None
        products = enumerate_products(system, 2 * r)
        terms = []
        for bi, (e, _normalized_product, basis, parts) in enumerate(blocks):
            gram_t = scatter(
                len(basis), ((idx, sol.primal_blocks[k]) for k, idx in parts))
            norm = math.prod(c for ei, c in zip(e, norms) if ei)
            sigma = _sigma_certificate(basis, gram_t / norm, clip_tol)
            terms.append(PreorderTerm(e, products[bi][1], sigma))
        residual = _residual(f + p.scale(eps),
                             [_squares_form(t.product, t.sigma.squares) for t in terms])
        if residual > DEFAULT_RESIDUAL_TOL:
            warnings.append(
                f"reconstruction residual {residual:.3e} exceeds "
                f"{DEFAULT_RESIDUAL_TOL:g}: the monomial certificate does not "
                "re-verify at the default tolerance")
        return PreorderCertificate(
            r=r,
            eps_star=base.eps_star,
            min_eps=base.min_eps,
            gap=base.gap,
            kind=kind if isinstance(kind, str) else "custom",
            annotation=_kind_annotation(kind, f.n_vars),
            terms=terms,
            residual_linf=residual,
            warnings=warnings,
        )

    return _sweep(
        f, eps, kind, r_max,
        lambda r, p: epsilon_star_preorder(f, r, p, system, settings), decompose)[0]


def verify_preorder_obj(obj: dict, target: Polynomial) -> dict:
    """Re-check a serialized decomposition without the solver: every term's
    Gram form and squares, times its stored product, through the residual
    of `sos._verify_terms`."""
    return _verify_terms(target, [
        (Polynomial.from_obj(term["product"], target.n_vars), term["sigma"])
        for term in obj["terms"]])
