"""Sum-of-squares membership, minimal perturbation weights, certificates.

For a target f and perturbation p of degree <= 2r, the squares-side program

    minimize eps   s.t.   f + eps*p  =  z^T Q z,   Q PSD,  eps >= 0

is assembled as one SDP: Gram blocks over the degree-r monomial basis, a
1x1 block for eps, and one equality per monomial of degree <= 2r.  The
weight and feasibility solves split the Gram matrix into sign-symmetry
blocks and drop the equalities the split leaves empty (see `symmetry`);
`build_gram_system` keeps the single block and every equality.  The
interior-point solver returns primal and dual solutions together; the dual
vector, negated, is exactly the optimal moment functional of the companion
moment-side program

    minimize L(f)   s.t.   L(p) <= 1,   moment matrix of L PSD,

whose value is the negative of the minimal weight.  Both numbers are
reported and their agreement (the duality gap) is checked, never assumed.
An explicit moment-side assembly is also provided so the two programs can
be solved independently in tests.

eps is modeled as a 1x1 PSD block rather than a sign-free scalar: the
moment side keeps L(p) <= 1 as an inequality (the zero form stays feasible,
so the moment value is never positive), and the exact dual of that program
constrains eps to be nonnegative.  A sign-free eps would instead pair with
the equality-constrained moment program and report negative weights for
strictly interior sums of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (DegreeTooLowError, DimensionMismatchError, NotPsdError,
                     NotFoundWithinRMaxError, SolverFailureError)
from .moments import MomentVector
from .polynomials import (MonomialBasis, Multidegree, Polynomial,
                          multidegrees_upto, scale_box, theta_big, theta_small)
from .sdp import (ConstraintRow, SdpProblem, SdpSolution, SolveStatus,
                  SolverSettings, eigendecompose, solve)
from .symmetry import ParitySpan, scatter


# min_eps at or below this counts as "already a sum of squares"
SOS_DECISION_TOL = 1e-7
# coefficient residual accepted for a certificate
DEFAULT_RESIDUAL_TOL = 1e-6
# eigenvalues below this fraction of the largest are clipped at extraction
DEFAULT_CLIP_TOL = 1e-9
# cross-side (squares vs moments) agreement required of any solve
DUALITY_GAP_TOL = 1e-6

PerturbationKind = Union[str, Callable[[int, int], Polynomial]]

THETA_BIG = "theta-big"
THETA_SMALL = "theta-small"


def perturbation_polynomial(kind: PerturbationKind, n_vars: int, r: int) -> Polynomial:
    if kind == THETA_BIG:
        return theta_big(n_vars, r)
    if kind == THETA_SMALL:
        return theta_small(n_vars, r)
    if callable(kind):
        return kind(n_vars, r)
    raise ValueError(f"unknown perturbation kind {kind!r}")


# -- certificates -------------------------------------------------------------


@dataclass
class GramCertificate:
    """PSD Gram matrix over a monomial basis plus the extracted squares.

    residual_linf is recomputed here from the stored squares against the
    target; solver-reported feasibility is never trusted.
    """

    basis: MonomialBasis
    gram: np.ndarray
    squares: List[Polynomial]
    residual_linf: float
    target: Polynomial = field(repr=False)

    @staticmethod
    def from_gram(
        basis: MonomialBasis,
        gram: np.ndarray,
        target: Polynomial,
        clip_tol: float = DEFAULT_CLIP_TOL,
    ) -> "GramCertificate":
        gram = np.asarray(gram, dtype=float)
        scale = 1.0 + np.max(np.abs(gram), initial=0.0)
        eigmin = float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[0])
        if eigmin < -1e-8 * scale:
            raise NotPsdError(f"gram matrix has eigenvalue {eigmin:.3e}")
        squares = extract_certificate(gram, basis, clip_tol)
        residual = verify_certificate(target, squares)
        return GramCertificate(basis, gram, squares, residual, target)

    def to_obj(self) -> dict:
        n = len(self.basis)
        lower = [float(self.gram[i, j]) for i in range(n) for j in range(i + 1)]
        return {
            "basis": self.basis.to_obj(),
            "gram": lower,
            "squares": [h.to_obj() for h in self.squares],
            "residual_linf": self.residual_linf,
        }


def gram_polynomial(basis: MonomialBasis, gram: np.ndarray) -> Polynomial:
    """Expand z^T Q z over the basis monomials z."""
    n = len(basis)
    terms: Dict[Multidegree, float] = {}
    for i, a in enumerate(basis.entries):
        for j in range(i, n):
            b = basis.entries[j]
            gamma = tuple(x + y for x, y in zip(a, b))
            c = gram[i, j] if i == j else 2.0 * gram[i, j]
            terms[gamma] = terms.get(gamma, 0.0) + float(c)
    return Polynomial(basis.n_vars, {a: c for a, c in terms.items() if c != 0.0})


def extract_certificate(
    gram: np.ndarray, basis: MonomialBasis, clip_tol: float = DEFAULT_CLIP_TOL
) -> List[Polynomial]:
    """Square roots of the Gram form: eigendecompose and keep the
    directions whose eigenvalue exceeds clip_tol times the largest."""
    gram = np.asarray(gram, dtype=float)
    scale = 1.0 + np.max(np.abs(gram), initial=0.0)
    w, Q = eigendecompose(gram)
    if w[0] < -clip_tol * scale:
        raise NotPsdError(f"gram matrix has eigenvalue {w[0]:.3e}")
    wmax = float(w[-1])
    if wmax <= 0.0:
        return []
    squares: List[Polynomial] = []
    for idx in range(len(w) - 1, -1, -1):
        lam = float(w[idx])
        if lam <= clip_tol * wmax:
            break
        root = math.sqrt(lam)
        terms = {
            alpha: root * float(Q[i, idx])
            for i, alpha in enumerate(basis.entries)
            if Q[i, idx] != 0.0
        }
        squares.append(Polynomial(basis.n_vars, terms))
    return squares


def _residual(target: Polynomial, exponents: np.ndarray, values: np.ndarray) -> float:
    """Max coefficient deviation of sum_k values[k] * x^exponents[k] from
    the target, with the values summed per exponent tuple.

    The one residual routine behind every certificate check: exponents
    holds one exponent tuple per entry of values, in any shape.
    """
    n = target.n_vars
    exponents = np.concatenate([
        np.asarray(exponents, dtype=np.int64).reshape(-1, n),
        np.array(list(target.terms), dtype=np.int64).reshape(-1, n)])
    values = np.concatenate([
        np.asarray(values, dtype=float).ravel(),
        -np.fromiter(target.terms.values(), dtype=float, count=len(target.terms))])
    if values.size == 0:
        return 0.0
    _, inverse = np.unique(exponents, axis=0, return_inverse=True)
    return float(np.max(np.abs(np.bincount(inverse.ravel(), weights=values))))


def _gram_residual(target: Polynomial, exponents: np.ndarray, gram: np.ndarray) -> float:
    """Residual of z^T Q z, z the monomials x^exponents[a]: entry Q[a, b]
    lands on the exponent exponents[a] + exponents[b]."""
    exponents = np.asarray(exponents, dtype=np.int64).reshape(-1, target.n_vars)
    return _residual(target, exponents[:, None, :] + exponents[None, :, :], gram)


def verify_certificate(target: Polynomial, squares: Sequence[Polynomial]) -> float:
    """Max coefficient deviation of sum(h_i^2) from the target.

    With C the coefficient matrix of the squares over their joint support
    z, sum(h_i^2) = z^T (C^T C) z, summed over index pairs by `_residual`.
    Independent of any solver output.
    """
    for h in squares:
        if h.n_vars != target.n_vars:
            raise DimensionMismatchError(
                f"square has {h.n_vars} variables, target has {target.n_vars}")
    support = list(dict.fromkeys(a for h in squares for a in h.terms))
    index = {a: k for k, a in enumerate(support)}
    coeffs = np.zeros((len(squares), len(support)))
    for row, h in enumerate(squares):
        for a, c in h.terms.items():
            coeffs[row, index[a]] = c
    return _gram_residual(target, np.array(support), coeffs.T @ coeffs)


# -- SDP assembly --------------------------------------------------------------


def build_gram_system(f: Polynomial, p: Polynomial, r: int) -> SdpProblem:
    """Squares-side SDP for f + eps*p at basis degree r.

    Block 0 is the Gram matrix over the degree-r basis, block 1 the 1x1 eps
    block; one equality per monomial of degree <= 2r, ordered graded lex.
    """
    if p.n_vars != f.n_vars:
        raise DimensionMismatchError(
            f"target has {f.n_vars} variables, perturbation has {p.n_vars}")
    if f.degree() > 2 * r:
        raise DegreeTooLowError(f"degree {f.degree()} target needs 2r >= {f.degree()}")
    if p.degree() > 2 * r:
        raise DegreeTooLowError(f"degree {p.degree()} perturbation needs 2r >= {p.degree()}")
    basis = MonomialBasis.build(f.n_vars, r)
    n = len(basis)
    pairs = _pair_map(basis)

    rows = []
    for gamma in multidegrees_upto(f.n_vars, 2 * r):
        i, j = zip(*pairs[gamma])
        blocks = {0: (i, j, [1.0] * len(i))}
        p_coeff = p.coeff(gamma)
        if p_coeff != 0.0:
            blocks[1] = ([0], [0], [-p_coeff])
        rows.append(ConstraintRow(blocks, None, f.coeff(gamma)))
    return SdpProblem.from_rows(
        [n, 1], 0, rows, objective_blocks={1: np.array([[1.0]])})


def _pair_map(basis: MonomialBasis) -> Dict[Multidegree, List[Tuple[int, int]]]:
    pairs: Dict[Multidegree, List[Tuple[int, int]]] = {}
    n = len(basis)
    for i in range(n):
        for j in range(i, n):
            gamma = tuple(x + y for x, y in zip(basis.entries[i], basis.entries[j]))
            pairs.setdefault(gamma, []).append((i, j))
    return pairs


def _forced_zero_rows(basis: MonomialBasis, f: Polynomial, p: Polynomial) -> set:
    """Basis rows every feasible Gram matrix must zero out.

    If a monomial gamma is absent from both f and p and, after earlier
    eliminations, only diagonal entries can contribute to its matching
    constraint, those diagonals are a sum of nonnegatives equal to zero and
    their rows vanish.  Iterating to a fixed point removes the degenerate
    directions that stall the interior-point iteration when a perturbation
    touches only a few monomials.
    """
    pairs = _pair_map(basis)
    zero_gammas = [g for g in pairs
                   if f.coeff(g) == 0.0 and p.coeff(g) == 0.0]
    forced: set = set()
    changed = True
    while changed:
        changed = False
        for gamma in zero_gammas:
            remaining = [(i, j) for i, j in pairs[gamma]
                         if i not in forced and j not in forced]
            if remaining and all(i == j for i, j in remaining):
                for i, _ in remaining:
                    forced.add(i)
                changed = True
    return forced


class _ReducedGram:
    """Gram system with forced-zero rows removed, split by sign symmetry.

    After forced-zero pruning the kept basis splits into the cosets of the
    parity span of f and p (see `symmetry`), one Gram block each, ordered
    by first basis index, followed by the 1x1 eps block.  A monomial
    constraint is dropped when its parity lies outside the span, or when
    nothing is left to match (no surviving entries and no coefficient).
    The kept monomials are recorded so the dual vector can be expanded
    back to the full monomial list, with zeros at dropped positions, and
    the Gram blocks back to one matrix over the full basis.
    """

    def __init__(self, f: Polynomial, p: Polynomial, r: int):
        full = MonomialBasis.build(f.n_vars, r)
        forced = _forced_zero_rows(full, f, p)
        keep = [i for i in range(len(full)) if i not in forced]
        span = ParitySpan([f, p])
        self.full_basis = full
        self.cosets = [[keep[k] for k in part]
                       for part in span.split([full.entries[i] for i in keep])]
        self.infeasible_gamma: Optional[Multidegree] = None

        # full basis index -> (block, position in the block)
        place = {i: (bi, pos) for bi, part in enumerate(self.cosets)
                 for pos, i in enumerate(part)}
        eps_block = len(self.cosets)
        pairs = _pair_map(full)
        rows = []
        kept_gammas = []
        for gamma in multidegrees_upto(f.n_vars, 2 * r):
            if not span.contains(gamma):
                continue
            entries: Dict[int, Tuple[list, list, list]] = {}
            for i, j in pairs[gamma]:
                if i in forced or j in forced:
                    continue
                bi, a = place[i]
                block = entries.setdefault(bi, ([], [], []))
                block[0].append(a)
                block[1].append(place[j][1])
                block[2].append(1.0)
            p_coeff = p.coeff(gamma)
            f_coeff = f.coeff(gamma)
            if not entries and p_coeff == 0.0:
                if f_coeff != 0.0:
                    self.infeasible_gamma = gamma
                continue
            if p_coeff != 0.0:
                entries[eps_block] = ([0], [0], [-p_coeff])
            rows.append(ConstraintRow(entries, None, f_coeff))
            kept_gammas.append(gamma)
        self.kept_gammas = kept_gammas
        sizes = [len(part) for part in self.cosets] + [1]
        self.problem = (
            SdpProblem.from_rows(sizes, 0, rows, {eps_block: np.array([[1.0]])})
            if rows and self.infeasible_gamma is None else None)

    def expand_gram(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Gram matrix over the full basis from the solved coset blocks;
        a trailing eps block is ignored."""
        return scatter(len(self.full_basis), zip(self.cosets, blocks))

    def expand_dual(self, dual: np.ndarray, order: int, n_vars: int) -> MomentVector:
        values = {g: 0.0 for g in multidegrees_upto(n_vars, order)}
        for gamma, v in zip(self.kept_gammas, dual):
            values[gamma] = -float(v)
        return MomentVector(n_vars, order, values)


def build_moment_system(f: Polynomial, p: Polynomial, r: int) -> SdpProblem:
    """Moment-side SDP: minimize L(f) with L(p) <= 1 and PSD moment matrix.

    The moment values y_gamma are free scalars tied to the entries of the
    PSD moment-matrix block; the slack of L(p) <= 1 is a 1x1 block.  Solved
    independently, its optimal value must be the negative of the squares-side
    value; tests rely on that cross-check.
    """
    if p.n_vars != f.n_vars:
        raise DimensionMismatchError(
            f"target has {f.n_vars} variables, perturbation has {p.n_vars}")
    if f.degree() > 2 * r or p.degree() > 2 * r:
        raise DegreeTooLowError("degree exceeds 2r")
    basis = MonomialBasis.build(f.n_vars, r)
    gammas = multidegrees_upto(f.n_vars, 2 * r)
    gamma_index = {g: i for i, g in enumerate(gammas)}
    n = len(basis)
    k = len(gammas)

    rows = []
    for i in range(n):
        for j in range(i, n):
            gamma = tuple(x + y for x, y in zip(basis.entries[i], basis.entries[j]))
            free = np.zeros(k)
            free[gamma_index[gamma]] = -1.0
            entry = ([i], [j], [1.0 if i == j else 0.5])
            rows.append(ConstraintRow({0: entry}, free, 0.0))
    free = np.zeros(k)
    for gamma, c in p.terms.items():
        free[gamma_index[gamma]] = c
    rows.append(ConstraintRow({1: ([0], [0], [1.0])}, free, 1.0))

    objective_free = np.zeros(k)
    for gamma, c in f.terms.items():
        objective_free[gamma_index[gamma]] = c
    return SdpProblem.from_rows([n, 1], k, rows, {}, objective_free)


# -- results -------------------------------------------------------------------


@dataclass
class ApproximationResult:
    """Outcome of one weight computation or degree sweep.

    eps_star is the moment-side optimum (never meaningfully positive);
    min_eps = -eps_star is the smallest weight making the perturbed target a
    sum of squares at this degree; gap is the cross-side disagreement.
    """

    r: int
    eps_star: float
    min_eps: float
    certificate: Optional[GramCertificate]
    dual_moments: MomentVector
    gap: float
    trajectory: Optional[List[dict]] = None

    def to_obj(self) -> dict:
        obj = {
            "r": self.r,
            "eps_star": self.eps_star,
            "min_eps": self.min_eps,
            "gap": self.gap,
        }
        if self.certificate is not None:
            obj.update(self.certificate.to_obj())
        if self.trajectory is not None:
            obj["trajectory"] = self.trajectory
        return obj


def _infeasible_failure(gamma: Optional[Multidegree], r: int) -> SolverFailureError:
    sol = SdpSolution(
        status=SolveStatus.PRIMAL_LIKELY_INFEASIBLE,
        primal_blocks=[], free_values=np.zeros(0), dual_vector=np.zeros(0),
        primal_objective=float("nan"), dual_objective=float("nan"),
        gap=float("nan"), iterations=0)
    what = (f"monomial {gamma} cannot be matched"
            if gamma is not None else "no matchable monomials remain")
    return SolverFailureError(f"{what} at r={r}: the program is infeasible", sol)


def epsilon_star(
    f: Polynomial,
    r: int,
    p: Polynomial,
    settings: SolverSettings = SolverSettings(),
    clip_tol: float = DEFAULT_CLIP_TOL,
) -> ApproximationResult:
    """Minimal weight eps making f + eps*p a sum of squares of degree 2r.

    One primal-dual solve yields both sides: the Gram block certifies
    f + min_eps * p, and the negated dual vector is the optimal moment
    functional, reported for downstream boundedness checks.  Basis rows
    forced to zero by the sparsity pattern are eliminated before the solve
    and reinstated as zeros afterwards; moment values whose matching
    constraint was trivially satisfied are reported as zero.
    """
    if p.n_vars != f.n_vars:
        raise DimensionMismatchError(
            f"target has {f.n_vars} variables, perturbation has {p.n_vars}")
    if f.degree() > 2 * r:
        raise DegreeTooLowError(f"degree {f.degree()} target needs 2r >= {f.degree()}")
    if p.degree() > 2 * r:
        raise DegreeTooLowError(f"degree {p.degree()} perturbation needs 2r >= {p.degree()}")
    reduced = _ReducedGram(f, p, r)
    if reduced.infeasible_gamma is not None or reduced.problem is None:
        raise _infeasible_failure(reduced.infeasible_gamma, r)
    sol = solve(reduced.problem, settings)
    if sol.status is not SolveStatus.OPTIMAL:
        raise SolverFailureError(
            f"solver returned {sol.status.value} for the weight program at r={r}",
            sol)
    min_eps = sol.dual_objective
    eps_star_value = -min_eps
    gap = abs(sol.primal_objective - sol.dual_objective)
    if gap > DUALITY_GAP_TOL:
        raise SolverFailureError(
            f"squares-side and moment-side optima disagree by {gap:.3e}", sol)
    target = f + p.scale(min_eps)
    gram = reduced.expand_gram(sol.primal_blocks)
    moments = reduced.expand_dual(sol.dual_vector, 2 * r, f.n_vars)
    certificate = GramCertificate.from_gram(
        reduced.full_basis, gram, target, clip_tol)
    return ApproximationResult(
        r=r,
        eps_star=eps_star_value,
        min_eps=min_eps,
        certificate=certificate,
        dual_moments=moments,
        gap=gap,
    )


def is_sos(
    f: Polynomial,
    settings: SolverSettings = SolverSettings(),
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    clip_tol: float = DEFAULT_CLIP_TOL,
) -> Tuple[bool, Optional[GramCertificate]]:
    """Decide sum-of-squares membership by a pure feasibility solve.

    Odd degree can never be a sum of squares and returns False immediately.
    True requires an optimal solver status and an independently recomputed
    certificate residual within residual_tol.  False means a definite
    "no": the program is infeasible, or the certificate fails to verify.
    A solve that ends undecided (numerical trouble, iteration limit)
    raises SolverFailureError.
    """
    if f.is_zero:
        basis = MonomialBasis.build(f.n_vars, 0)
        return True, GramCertificate(basis, np.zeros((1, 1)), [], 0.0, f)
    if f.degree() % 2 == 1:
        return False, None
    r = f.degree() // 2
    reduced = _ReducedGram(f, Polynomial.zero(f.n_vars), r)
    if reduced.infeasible_gamma is not None or reduced.problem is None:
        return False, None
    sol = solve(reduced.problem, settings)
    if sol.status is SolveStatus.PRIMAL_LIKELY_INFEASIBLE:
        return False, None
    if sol.status is not SolveStatus.OPTIMAL:
        raise SolverFailureError(
            f"feasibility solve ended with {sol.status.value}: membership undecided",
            sol)
    try:
        certificate = GramCertificate.from_gram(
            reduced.full_basis, reduced.expand_gram(sol.primal_blocks), f, clip_tol)
    except NotPsdError:
        return False, None
    if certificate.residual_linf > residual_tol:
        return False, None
    return True, certificate


def _even_square_form(p: Polynomial, r: int) -> Optional[Dict[Multidegree, float]]:
    """If p is a nonnegative combination of even monomials X^(2 delta) with
    |delta| <= r, return {delta: coefficient}; otherwise None.

    Such perturbations embed diagonally into a degree-r Gram matrix, which
    lets a certificate at the minimal weight be lifted to any larger weight
    without another solve.
    """
    out: Dict[Multidegree, float] = {}
    for alpha, c in p.terms.items():
        if c < 0.0 or any(e % 2 for e in alpha):
            return None
        half = tuple(e // 2 for e in alpha)
        if sum(half) > r:
            return None
        out[half] = c
    return out


def _lift_certificate(
    base: ApproximationResult,
    f: Polynomial,
    p: Polynomial,
    eps: float,
    settings: SolverSettings,
    clip_tol: float,
) -> GramCertificate:
    """Certificate for f + eps*p from the minimal-weight solve at the same r."""
    extra = max(0.0, eps - base.min_eps)
    target = f + p.scale(eps)
    diag = _even_square_form(p, base.r)
    basis = base.certificate.basis
    if diag is not None:
        gram = base.certificate.gram.copy()
        for half, c in diag.items():
            idx = basis.index_of(half)
            gram[idx, idx] += extra * c
        return GramCertificate.from_gram(basis, gram, target, clip_tol)
    try:
        ok, cert = is_sos(target, settings, clip_tol=clip_tol)
    except SolverFailureError:
        ok = False
    if ok:
        return cert
    # fall back to the minimal-weight gram; the residual stays honest
    return GramCertificate.from_gram(basis, base.certificate.gram, target, clip_tol)


def minimal_r(
    f: Polynomial,
    eps: float,
    kind: PerturbationKind,
    r_max: int,
    settings: SolverSettings = SolverSettings(),
    clip_tol: float = DEFAULT_CLIP_TOL,
) -> ApproximationResult:
    """Smallest r <= r_max at which eps covers the minimal weight.

    Scans r upward from ceil(deg f / 2) one step at a time, recording the
    minimal weight at every degree tried; the trajectory rides along on the
    result (and on the failure exception, so callers can inspect the trend).
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    r_start = max((f.degree() + 1) // 2, 0)
    if kind == THETA_BIG:
        r_start = max(r_start, 1)
    if r_max < r_start:
        raise ValueError(f"r_max={r_max} is below the starting degree {r_start}")

    trajectory: List[dict] = []
    for r in range(r_start, r_max + 1):
        p = perturbation_polynomial(kind, f.n_vars, r)
        if p.degree() > 2 * r:
            trajectory.append({"r": r, "min_eps": None, "status": "degree-too-low"})
            continue
        try:
            base = epsilon_star(f, r, p, settings, clip_tol)
        except SolverFailureError as exc:
            sol = exc.solution
            if sol is not None and sol.status is SolveStatus.PRIMAL_LIKELY_INFEASIBLE:
                trajectory.append({"r": r, "min_eps": None, "status": "infeasible"})
            else:
                # an undecided degree does not block the sweep; the next
                # degree is usually better conditioned
                trajectory.append({"r": r, "min_eps": None, "status": "solver-failed"})
            continue
        trajectory.append({"r": r, "min_eps": base.min_eps, "status": "ok"})
        if eps >= base.min_eps - SOS_DECISION_TOL:
            certificate = _lift_certificate(base, f, p, eps, settings, clip_tol)
            return ApproximationResult(
                r=r,
                eps_star=base.eps_star,
                min_eps=base.min_eps,
                certificate=certificate,
                dual_moments=base.dual_moments,
                gap=base.gap,
                trajectory=trajectory,
            )
    raise NotFoundWithinRMaxError(
        f"no degree r <= {r_max} admits weight eps={eps}", trajectory)


def approximate_on_box(
    f: Polynomial,
    eps: float,
    l: float,
    r_max: int,
    settings: SolverSettings = SolverSettings(),
    clip_tol: float = DEFAULT_CLIP_TOL,
) -> ApproximationResult:
    """Certify f on the box [-l, l]^n via the unit-box pipeline.

    Runs the degree sweep on x -> f(l*x), then transports the certificate
    back: the reported squares and Gram matrix certify
    f + eps*(1 + sum_j (x_j / l)^(2r)) for the original variables, and the
    moment functional is rescaled to match.
    """
    if l <= 0:
        raise ValueError(f"box scale must be positive, got {l}")
    g = scale_box(f, l)
    res = minimal_r(g, eps, THETA_BIG, r_max, settings, clip_tol)
    if l == 1.0:
        return res
    r = res.r
    basis = res.certificate.basis
    perturbation = scale_box(theta_big(f.n_vars, r), 1.0 / l)
    target = f + perturbation.scale(eps)
    scale_vec = np.array([l ** (-sum(a)) for a in basis.entries])
    gram = res.certificate.gram * np.outer(scale_vec, scale_vec)
    certificate = GramCertificate.from_gram(basis, gram, target, clip_tol)
    moments = MomentVector(
        f.n_vars, 2 * r,
        {a: v * l ** sum(a) for a, v in res.dual_moments.values.items()})
    return ApproximationResult(
        r=r,
        eps_star=res.eps_star,
        min_eps=res.min_eps,
        certificate=certificate,
        dual_moments=moments,
        gap=res.gap,
        trajectory=res.trajectory,
    )


# -- solver-free re-verification ------------------------------------------------


def decode_gram_obj(
    obj: dict, n_vars: int
) -> Tuple[MonomialBasis, np.ndarray, List[Polynomial]]:
    """Unpack a serialized {basis, gram, squares} object.

    The basis must be the graded-lex basis of its degree and the gram field
    the lower triangle in row-major order.
    """
    basis_entries = [tuple(int(e) for e in a) for a in obj["basis"]]
    if any(len(a) != n_vars for a in basis_entries):
        raise DimensionMismatchError(
            f"certificate basis does not have {n_vars} variables")
    max_deg = max((sum(a) for a in basis_entries), default=0)
    basis = MonomialBasis.build(n_vars, max_deg)
    if list(basis.entries) != basis_entries:
        raise ValueError("certificate basis is not the graded-lex basis")
    n = len(basis)
    lower = obj["gram"]
    if len(lower) != n * (n + 1) // 2:
        raise ValueError("gram lower triangle has the wrong length")
    gram = np.zeros((n, n))
    pos = 0
    for i in range(n):
        for j in range(i + 1):
            gram[i, j] = gram[j, i] = float(lower[pos])
            pos += 1
    squares = [Polynomial.from_obj(h, n_vars) for h in obj["squares"]]
    return basis, gram, squares


def coefficient_distance(a: Polynomial, b: Polynomial) -> float:
    if a.n_vars != b.n_vars:
        raise DimensionMismatchError(
            f"operands have {a.n_vars} and {b.n_vars} variables")
    return _residual(b, list(a.terms), list(a.terms.values()))


def verify_certificate_obj(obj: dict, target: Polynomial) -> dict:
    """Re-check a serialized certificate against a target polynomial.

    Recomputes both routes from the stored data only: the Gram form
    z^T Q z must match the target, and the stored squares must as well.
    Returns the two residuals and their max; raises DimensionMismatchError
    on an incompatible basis.
    """
    basis, gram, squares = decode_gram_obj(obj, target.n_vars)
    residual_gram = _gram_residual(target, np.array(basis.entries), gram)
    residual_squares = verify_certificate(target, squares)
    return {
        "residual_gram": residual_gram,
        "residual_squares": residual_squares,
        "residual_linf": max(residual_gram, residual_squares),
    }
