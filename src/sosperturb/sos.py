"""Sum-of-squares membership, minimal perturbation weights, certificates.

For a target f and perturbation p of degree <= 2r, the squares-side program

    minimize eps   s.t.   f + eps*p  =  z^T Q z,   Q PSD,  eps >= 0

is assembled as one SDP: Gram blocks over the degree-r monomial basis, a
1x1 block for eps, and one equality per monomial of degree <= 2r.  The
Gram matrix is split into sign-symmetry blocks and the equalities the
split leaves empty are dropped (see `symmetry`).  The interior-point
solver returns primal and dual solutions together; the dual vector,
negated, is exactly the optimal moment functional of the companion
moment-side program

    minimize L(f)   s.t.   L(p) <= 1,   moment matrix of L PSD,

whose value is the negative of the minimal weight.  Both numbers are
reported and their agreement (the duality gap) is checked, never assumed.

Plain sums of squares are the preordering with the one product 1, so the
degree sweep (`_sweep`), the check of a weight solve (`_weight_gap`) and
the certificate residual (`_residual`) here are also those of `preorder`.

eps is modeled as a 1x1 PSD block rather than a sign-free scalar: the
moment side keeps L(p) <= 1 as an inequality (the zero form stays feasible,
so the moment value is never positive), and the exact dual of that program
constrains eps to be nonnegative.  A sign-free eps would instead pair with
the equality-constrained moment program and report negative weights for
strictly interior sums of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import (Callable, Dict, List, Optional, Sequence, Tuple, TypeVar,
                    Union)

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
T = TypeVar("T")

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
        return GramCertificate(basis, gram, squares, residual)

    def to_obj(self) -> dict:
        n = len(self.basis)
        lower = [float(self.gram[i, j]) for i in range(n) for j in range(i + 1)]
        return {
            "basis": self.basis.to_obj(),
            "gram": lower,
            "squares": [h.to_obj() for h in self.squares],
            "residual_linf": self.residual_linf,
        }


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


# sum_k values[k] * x^exponents[k]: exponents of shape (..., n), values (...)
Form = Tuple[np.ndarray, np.ndarray]


def _residual(target: Polynomial, forms: Sequence[Form]) -> float:
    """Max coefficient deviation of the sum of the forms from the target,
    with the values summed per exponent tuple.

    The one residual routine behind every certificate check, plain or
    preorder, Gram route or squares route.
    """
    n = target.n_vars
    exponents = np.concatenate(
        [np.asarray(e, dtype=np.int64).reshape(-1, n) for e, _ in forms]
        + [np.array(list(target.terms), dtype=np.int64).reshape(-1, n)])
    values = np.concatenate(
        [np.asarray(v, dtype=float).ravel() for _, v in forms]
        + [-np.fromiter(target.terms.values(), dtype=float, count=len(target.terms))])
    if values.size == 0:
        return 0.0
    _, inverse = np.unique(exponents, axis=0, return_inverse=True)
    return float(np.max(np.abs(np.bincount(inverse.ravel(), weights=values))))


def _gram_form(product: Polynomial, exponents: Sequence[Multidegree],
               gram: np.ndarray) -> Form:
    """product * z^T Q z, z the monomials x^exponents[a]: Q[a, b] times the
    coefficient of x^k in the product lands on exponents[a] + exponents[b] + k.
    A plain certificate is the one-term case whose product is 1."""
    n = product.n_vars
    exponents = np.asarray(exponents, dtype=np.int64).reshape(-1, n)
    shifts = np.array(list(product.terms), dtype=np.int64).reshape(-1, n)
    weights = np.fromiter(product.terms.values(), dtype=float, count=len(product.terms))
    pairs = exponents[:, None, :] + exponents[None, :, :]
    return (shifts[:, None, None, :] + pairs[None],
            weights[:, None, None] * np.asarray(gram, dtype=float)[None])


def _squares_form(product: Polynomial, squares: Sequence[Polynomial]) -> Form:
    """product * sum(h_i^2): with C the coefficient matrix of the squares
    over their joint support z, sum(h_i^2) = z^T (C^T C) z."""
    for h in squares:
        if h.n_vars != product.n_vars:
            raise DimensionMismatchError(
                f"square has {h.n_vars} variables, target has {product.n_vars}")
    support = list(dict.fromkeys(a for h in squares for a in h.terms))
    index = {a: k for k, a in enumerate(support)}
    coeffs = np.zeros((len(squares), len(support)))
    for row, h in enumerate(squares):
        for a, c in h.terms.items():
            coeffs[row, index[a]] = c
    return _gram_form(product, support, coeffs.T @ coeffs)


def verify_certificate(target: Polynomial, squares: Sequence[Polynomial]) -> float:
    """Max coefficient deviation of sum(h_i^2) from the target.

    Independent of any solver output.
    """
    one = Polynomial.constant(target.n_vars, 1.0)
    return _residual(target, [_squares_form(one, squares)])


# -- SDP assembly --------------------------------------------------------------


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


def _check_degrees(f: Polynomial, p: Polynomial, r: int) -> None:
    if p.n_vars != f.n_vars:
        raise DimensionMismatchError(
            f"target has {f.n_vars} variables, perturbation has {p.n_vars}")
    for what, q in (("target", f), ("perturbation", p)):
        if q.degree() > 2 * r:
            raise DegreeTooLowError(f"degree {q.degree()} {what} needs 2r >= {q.degree()}")


def _weight_gap(sol: SdpSolution, program: str, r: int) -> float:
    """Duality gap of a weight solve, which must end Optimal with the
    squares-side and moment-side optima within DUALITY_GAP_TOL."""
    if sol.status is not SolveStatus.OPTIMAL:
        raise SolverFailureError(
            f"solver returned {sol.status.value} for the {program} at r={r}", sol)
    gap = abs(sol.primal_objective - sol.dual_objective)
    if gap > DUALITY_GAP_TOL:
        raise SolverFailureError(
            f"squares-side and moment-side optima disagree by {gap:.3e}", sol)
    return gap


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
    _check_degrees(f, p, r)
    reduced = _ReducedGram(f, p, r)
    if reduced.infeasible_gamma is not None or reduced.problem is None:
        raise _infeasible_failure(reduced.infeasible_gamma, r)
    sol = solve(reduced.problem, settings)
    gap = _weight_gap(sol, "weight program", r)
    min_eps = sol.dual_objective
    certificate = GramCertificate.from_gram(
        reduced.full_basis, reduced.expand_gram(sol.primal_blocks),
        f + p.scale(min_eps), clip_tol)
    return ApproximationResult(
        r=r,
        eps_star=-min_eps,
        min_eps=min_eps,
        certificate=certificate,
        dual_moments=reduced.expand_dual(sol.dual_vector, 2 * r, f.n_vars),
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
        return True, GramCertificate(basis, np.zeros((1, 1)), [], 0.0)
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


def _sweep(
    f: Polynomial,
    eps: float,
    kind: PerturbationKind,
    r_max: int,
    weight: Callable[[int, Polynomial], ApproximationResult],
    decompose: Callable[[ApproximationResult, Polynomial], Optional[T]],
) -> Tuple[T, List[dict]]:
    """The degree sweep behind `minimal_r` and `preorder.membership`.

    Scans r upward from ceil(deg f / 2) one step at a time and solves the
    weight program weight(r, p_r) at every degree, recording one
    trajectory entry per degree: its minimal weight, or why it has none.
    At the first degree whose minimal weight eps covers, decompose(base,
    p_r) builds the answer; when it returns None the degree is marked
    "weight-ok-decomposition-failed" and the sweep goes on.  Returns the
    answer and the trajectory; the failure exception carries the
    trajectory too, so callers can inspect the trend.
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
            base = weight(r, p)
        except SolverFailureError as exc:
            sol = exc.solution
            # an undecided degree does not block the sweep; the next
            # degree is usually better conditioned
            status = ("infeasible"
                      if sol is not None and sol.status is SolveStatus.PRIMAL_LIKELY_INFEASIBLE
                      else "solver-failed")
            trajectory.append({"r": r, "min_eps": None, "status": status})
            continue
        trajectory.append({"r": r, "min_eps": base.min_eps, "status": "ok"})
        if eps < base.min_eps - SOS_DECISION_TOL:
            continue
        found = decompose(base, p)
        if found is None:
            trajectory[-1]["status"] = "weight-ok-decomposition-failed"
            continue
        return found, trajectory
    raise NotFoundWithinRMaxError(
        f"no degree r <= {r_max} admits weight eps={eps}", trajectory)


def minimal_r(
    f: Polynomial,
    eps: float,
    kind: PerturbationKind,
    r_max: int,
    settings: SolverSettings = SolverSettings(),
    clip_tol: float = DEFAULT_CLIP_TOL,
) -> ApproximationResult:
    """Smallest r <= r_max at which eps covers the minimal weight.

    The degree sweep of `_sweep` over `epsilon_star`; the trajectory rides
    along on the result.  The certificate is lifted from the minimal
    weight to eps (see `_lift_certificate`).
    """
    def lift(base: ApproximationResult, p: Polynomial) -> ApproximationResult:
        return replace(base, certificate=_lift_certificate(
            base, f, p, eps, settings, clip_tol))

    res, trajectory = _sweep(
        f, eps, kind, r_max,
        lambda r, p: epsilon_star(f, r, p, settings, clip_tol), lift)
    return replace(res, trajectory=trajectory)


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
    return replace(res, certificate=certificate, dual_moments=moments)


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
    rows, cols = np.tril_indices(n)
    gram[rows, cols] = gram[cols, rows] = np.asarray(lower, dtype=float)
    squares = [Polynomial.from_obj(h, n_vars) for h in obj["squares"]]
    return basis, gram, squares


def _verify_terms(target: Polynomial, terms: Sequence[Tuple[Polynomial, dict]]) -> dict:
    """Re-check sum_t product_t * sigma_t against the target, sigma_t a
    serialized {basis, gram, squares} object, from the stored data only.

    Both routes, the Gram forms z^T Q z and the stored squares, each times
    its product, must match the target; returns the two residuals and
    their max.  Raises DimensionMismatchError on an incompatible basis.
    """
    gram_forms, square_forms = [], []
    for product, sigma in terms:
        basis, gram, squares = decode_gram_obj(sigma, target.n_vars)
        gram_forms.append(_gram_form(product, basis.entries, gram))
        square_forms.append(_squares_form(product, squares))
    residual_gram = _residual(target, gram_forms)
    residual_squares = _residual(target, square_forms)
    return {
        "residual_gram": residual_gram,
        "residual_squares": residual_squares,
        "residual_linf": max(residual_gram, residual_squares),
    }


def verify_certificate_obj(obj: dict, target: Polynomial) -> dict:
    """Re-check a serialized certificate against a target polynomial: the
    one-term case of `_verify_terms`, with product 1."""
    return _verify_terms(target, [(Polynomial.constant(target.n_vars, 1.0), obj)])
