"""Sum-of-squares membership, minimal perturbation weights, certificates.

For a target f and perturbation p of degree <= 2r, the squares-side program

    minimize eps   s.t.   f + eps*p  =  z^T Q z,   Q PSD,  eps >= 0

is assembled as one SDP: Gram blocks over the degree-r monomial basis, a
1x1 block for eps, and one equality per monomial of degree <= 2r.  The
interior-point solver returns primal and dual solutions together; the
dual vector, negated, is exactly the optimal moment functional of the
companion moment-side program

    minimize L(f)   s.t.   L(p) <= 1,   moment matrix of L PSD,

whose value is the negative of the minimal weight.  Both numbers are
reported and their agreement (the duality gap) is checked, never assumed.

Plain sums of squares are the preordering with the one product 1, so one
assembly, `_ReducedGram`, builds every weight and feasibility program here
and in `preorder`, from the products g^e that `_products` multiplies out
once, and is the only caller of `sdp.solve`.  It picks its matching rule
from the generators: with none it matches monomial coefficients
(`MONOMIAL`), with some tensor Chebyshev coefficients (`CHEBYSHEV`).  Both
get the same forced-zero pruning and sign-symmetry split (see
`symmetry`); plain programs also sum each orbit of their signed-permutation
symmetries into one equality.  Both get the same check of a weight solve
(`_ReducedGram.weight`), the degree sweep (`_sweep`) with its
decomposition step, which re-solves the feasibility program for
f + eps*p at the covered degree, and the certificate residual
(`_residual`).

eps is modeled as a 1x1 PSD block rather than a sign-free scalar: the
moment side keeps L(p) <= 1 as an inequality (the zero form stays feasible,
so the moment value is never positive), and the exact dual of that program
constrains eps to be nonnegative.  A sign-free eps would instead pair with
the equality-constrained moment program and report negative weights for
strictly interior sums of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import chebyshev
from .errors import (DegreeTooLowError, DimensionMismatchError, NotPsdError,
                     NotFoundWithinRMaxError, SolverFailureError)
from .moments import MomentVector
from .polynomials import (MonomialBasis, Multidegree, Polynomial,
                          multidegrees_upto, scale_box, theta_big, theta_small)
from .sdp import SdpProblem, SdpSolution, SolveStatus, eigendecompose, solve
from .symmetry import ParitySpan, scatter, stabilizer


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

    The Gram matrix is kept dense over the full basis; the squares come
    from `extract_certificate`, one connected block of its nonzero pattern
    at a time, so each square is supported on the monomials of one block.
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
    ) -> "GramCertificate":
        gram = np.asarray(gram, dtype=float)
        squares = extract_certificate(gram, basis)
        residual = verify_certificate(target, squares)
        return GramCertificate(basis, gram, squares, residual)

    def to_obj(self) -> dict:
        """The gram field is the lower triangle in row-major order, the
        layout `decode_gram_obj` reads."""
        rows, cols = np.tril_indices(len(self.basis))
        return {
            "basis": self.basis.to_obj(),
            "gram": self.gram[rows, cols].tolist(),
            "squares": [h.to_obj() for h in self.squares],
            "residual_linf": self.residual_linf,
        }


def _blocks(gram: np.ndarray) -> List[np.ndarray]:
    """Basis indices of each connected block of the nonzero pattern of
    gram, ordered by first index; a row with no nonzero entry is in none."""
    linked = gram != 0.0
    linked |= linked.T
    done = ~linked.any(axis=1)
    blocks = []
    for start in np.flatnonzero(~done):
        if done[start]:
            continue
        block = np.zeros(len(gram), dtype=bool)
        block[start] = True
        frontier = block
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~block
            block |= frontier
        done |= block
        blocks.append(np.flatnonzero(block))
    return blocks


def extract_certificate(gram: np.ndarray, basis: MonomialBasis) -> List[Polynomial]:
    """Square roots of the Gram form, one connected block of its nonzero
    pattern at a time.

    Each block is eigendecomposed on its own, so every square is supported
    on the monomials of one block.  The squares come in descending order of
    eigenvalue across all blocks, ties in block order, and keep the
    directions whose eigenvalue exceeds DEFAULT_CLIP_TOL times the largest
    eigenvalue of any block.  An eigenvalue below -DEFAULT_CLIP_TOL times
    (1 + max |gram|) in any block raises NotPsdError.  The blocks are read
    off the matrix, not taken from a solver, so the sign-symmetry split of
    a solved Gram matrix and any other zero pattern are used alike.
    """
    gram = np.asarray(gram, dtype=float)
    scale = 1.0 + np.max(np.abs(gram), initial=0.0)
    pieces = [(idx, *eigendecompose(gram[np.ix_(idx, idx)])) for idx in _blocks(gram)]
    if not pieces:
        return []
    wmin = min(float(w[0]) for _, w, _ in pieces)
    if wmin < -DEFAULT_CLIP_TOL * scale:
        raise NotPsdError(f"gram matrix has eigenvalue {wmin:.3e}")
    wmax = max(float(w[-1]) for _, w, _ in pieces)
    if wmax <= 0.0:
        return []
    # (eigenvalue, block, column); eigh ascends, so a tie inside a block
    # takes the later column first
    kept = sorted(((float(lam), b, k) for b, (_, w, _) in enumerate(pieces)
                   for k, lam in enumerate(w) if lam > DEFAULT_CLIP_TOL * wmax),
                  key=lambda t: (-t[0], t[1], -t[2]))
    squares: List[Polynomial] = []
    for lam, b, k in kept:
        idx, _, Q = pieces[b]
        root = math.sqrt(lam)
        terms = {
            basis.entries[i]: root * float(q)
            for i, q in zip(idx, Q[:, k])
            if q != 0.0
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
    A plain certificate is the one-term case whose product is 1.

    Only the nonzero entries of Q are listed, in row-major order.  An
    exact zero adds nothing to the per-exponent sums of `_residual`, and
    the order of the other values is kept, so the residual is the same,
    bit for bit, as over all n^2 pairs."""
    n = product.n_vars
    exponents = np.asarray(exponents, dtype=np.int64).reshape(-1, n)
    gram = np.asarray(gram, dtype=float)
    rows, cols = np.nonzero(gram)
    shifts = np.array(list(product.terms), dtype=np.int64).reshape(-1, n)
    weights = np.fromiter(product.terms.values(), dtype=float, count=len(product.terms))
    pairs = exponents[rows] + exponents[cols]
    return (shifts[:, None, :] + pairs[None],
            weights[:, None] * gram[rows, cols][None])


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


# coefficients of a polynomial in the basis functions of a matching rule
Series = Dict[Multidegree, float]


@dataclass(frozen=True)
class Matching:
    """The basis a program matches coefficients in: expand a polynomial in
    it, multiply basis function alpha by a series, and map the values of a
    functional on the basis functions of degree <= 2r to monomial moments."""

    expand: Callable[[Polynomial], Series]
    times: Callable[[Multidegree, Series], Series]
    moments: Callable[[Series, List[Multidegree]], Series]


MONOMIAL = Matching(
    expand=lambda poly: poly.terms,
    times=lambda alpha, series: {
        tuple(a + d for a, d in zip(alpha, delta)): c for delta, c in series.items()},
    moments=lambda values, betas: values,
)

# the tensor Chebyshev basis of the box; the functions are looked up at call
# time, so patches of `chebyshev` see them
CHEBYSHEV = Matching(
    expand=lambda poly: chebyshev.to_chebyshev(poly),
    times=lambda alpha, series: chebyshev.times_t(alpha, series),
    moments=lambda values, betas: chebyshev.moments_to_monomials(values, betas),
)


class _ReducedGram:
    """The one assembly of every weight and feasibility program.

    The products are the pairs (e, g^e) of `_products`, e in {0,1}^s with
    deg g^e <= 2r, each multiplied out once (plain SOS: the empty product
    1 of no generators).  The program matches g^e divided by its scale,
    the product of its generators' largest absolute coefficients, which
    keeps the constraint data O(1) however they were written.  Each
    product gets a Gram matrix Q_e over the basis functions of degree <=
    (2r - deg g^e) // 2, and one equality per basis function gamma of
    degree <= 2r matches the coefficient of gamma in sum_e (z^T Q_e z) g^e
    against the target, in tensor Chebyshev coefficients (`CHEBYSHEV`)
    when there are generators, else in monomial ones (`MONOMIAL`).  With
    eps None this is the weight program (a 1x1 eps block carrying -p,
    objective eps, right-hand side f), with a number the feasibility
    program for f + eps*p: zero objective, no eps block.

    Forced-zero pruning (`_forced_zeros`) removes Gram rows first.  Each
    product's kept basis then splits into the cosets of the parity span of
    f, p and the generators (see `symmetry`), one block each, ordered by
    first kept index, then the eps block.  Equalities outside the span
    drop.  Without generators, the signed permutations that leave f and p
    unchanged (`symmetry.stabilizer`, held in group) sum each orbit of
    equalities into one row: sum_gamma sigma_gamma (row gamma), sigma_gamma
    the sign that carries the orbit's first member in graded-lex order to
    gamma.  A one-member orbit is its equality unchanged, entries, their
    order and right-hand side alike; an orbit that some element maps to
    minus itself drops, as an odd gamma does.  A preordering keeps one
    equality per gamma.  A row left empty drops; an empty or dropped one
    with a nonzero right-hand side makes the program infeasible
    (infeasible_gamma set, problem None).  The kept rows go to the solver
    as each block's COO triples (row, i, j, v), row the position of the
    orbit in rows, each orbit a list of (gamma, sigma_gamma).  Gram blocks
    expand back with zeros at the dropped positions, and a summed program's
    Gram matrix is then averaged over the group (the Reynolds operator),
    which makes it match every coefficient; the dual value of gamma is
    sigma_gamma times its row's.  A Gram matrix, divided by its product's
    scale, multiplies the unscaled product.  `solve` and `weight` run the
    program; `weight` keeps its solution in `solution`.
    """

    def __init__(self, f: Polynomial, p: Polynomial, r: int,
                 eps: Optional[float] = None, generators: Sequence[Polynomial] = ()):
        _check_degrees(f, p, r)
        for g in generators:
            if g.n_vars != f.n_vars:
                raise DimensionMismatchError(
                    f"target has {f.n_vars} variables, system has {g.n_vars}")
        self.n_vars, self.r, self.solution = f.n_vars, r, None
        self.matching = matching = CHEBYSHEV if generators else MONOMIAL
        self.products = _products(f.n_vars, generators, 2 * r)
        norms = [max(abs(c) for c in g.terms.values()) for g in generators]
        self.scales = [math.prod(c for ei, c in zip(e, norms) if ei)
                       for e, _ in self.products]
        span = ParitySpan([f, p, *generators])
        gammas = [g for g in multidegrees_upto(f.n_vars, 2 * r) if span.contains(g)]
        # a preordering keeps one equality per gamma
        self.group = None if generators else stabilizer([f, p])
        orbits = (self.group.orbits(gammas) if self.group is not None
                  else [([(g, 1)], True) for g in gammas])
        f_s, p_s = matching.expand(f), matching.expand(p)
        rhs = {g: f_s.get(g, 0.0) if eps is None
               else f_s.get(g, 0.0) + eps * p_s.get(g, 0.0) for g in gammas}
        eps_s = p_s if eps is None else {}

        # entries (product, i, j, coefficient) of each equality, i <= j in
        # one coset; times gives each gamma once per (i, j)
        terms: Dict[Multidegree, List[Tuple[int, int, int, float]]] = {}
        self.bases: List[MonomialBasis] = []
        for k, (_, product) in enumerate(self.products):
            basis = MonomialBasis.build(f.n_vars, (2 * r - product.degree()) // 2)
            self.bases.append(basis)
            series = matching.expand(product.scale(1.0 / self.scales[k]))
            shifted = [matching.times(a, series) for a in basis.entries]
            for idx in span.split(basis.entries):
                for pos, i in enumerate(idx):
                    for j in idx[pos:]:
                        for gamma, c in matching.times(basis.entries[j], shifted[i]).items():
                            if c != 0.0:
                                terms.setdefault(gamma, []).append((k, i, j, c))
        forced = _forced_zeros([terms.get(g, []) for g in gammas
                                if rhs[g] == 0.0 and eps_s.get(g, 0.0) == 0.0])

        # parts[k]: (block, basis indices) per coset; place[k]: kept basis
        # index -> (block, position in the block)
        self.parts: List[List[Tuple[int, List[int]]]] = []
        place: List[Dict[int, Tuple[int, int]]] = []
        sizes: List[int] = []
        for k, basis in enumerate(self.bases):
            keep = [i for i in range(len(basis)) if (k, i) not in forced]
            self.parts.append([])
            place.append({})
            for part in span.split([basis.entries[i] for i in keep]):
                idx = [keep[a] for a in part]
                place[k].update((i, (len(sizes), pos)) for pos, i in enumerate(idx))
                self.parts[k].append((len(sizes), idx))
                sizes.append(len(idx))
        objective: Dict[int, np.ndarray] = {}
        if eps is None:
            objective[len(sizes)] = np.array([[1.0]])
            sizes.append(1)

        # entries[bi]: the lists (row, i, j, v) of block bi, where row is the
        # position of the equality's orbit in rows
        entries = [([], [], [], []) for _ in sizes]
        self.rows: List[List[Tuple[Multidegree, int]]] = []
        values: List[float] = []
        self.infeasible_gamma: Optional[Multidegree] = None
        for members, consistent in orbits:
            row = len(self.rows)
            kept = []
            for gamma, sign in members:
                kept += [(*place[k][i], place[k][j][1], sign * c)
                         for k, i, j, c in terms.get(gamma, ())
                         if i in place[k] and j in place[k]]
                if eps_s.get(gamma, 0.0) != 0.0:
                    kept.append((len(sizes) - 1, 0, 0, -sign * eps_s[gamma]))
            if kept and consistent:
                for bi, *entry in kept:
                    for column, x in zip(entries[bi], (row, *entry)):
                        column.append(x)
                self.rows.append(members)
                value = rhs[members[0][0]]
                for gamma, sign in members[1:]:
                    value += sign * rhs[gamma]
                values.append(value)
            elif any(rhs[gamma] != 0.0 for gamma, _ in members):
                self.infeasible_gamma = members[0][0]
        self.problem = (
            SdpProblem.from_rows(sizes, entries, values, objective)
            if self.rows and self.infeasible_gamma is None else None)

    def program(self) -> SdpProblem:
        """The SDP, or, when pruning leaves none, a SolverFailureError with
        the solution of `solve`."""
        if self.problem is None:
            what = (f"coefficient {self.infeasible_gamma} cannot be matched"
                    if self.infeasible_gamma is not None
                    else "no matchable coefficients remain")
            raise SolverFailureError(
                f"{what} at r={self.r}: the program is infeasible", self.solve())
        return self.problem

    def expand_gram(self, blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """One Gram matrix per product over its full basis, from the
        solved coset blocks, divided by the product's scale, and averaged
        over the group when orbits were summed; a trailing eps block is
        ignored."""
        grams = [scatter(len(basis), ((idx, blocks[bi]) for bi, idx in parts)) / scale
                 for basis, parts, scale in zip(self.bases, self.parts, self.scales)]
        if self.group is not None:
            grams = [self.group.average(self.bases[0].entries, grams[0])]
        return grams

    def solve(self) -> SdpSolution:
        """The solution of the program; when pruning left none, a
        PrimalLikelyInfeasible solution of zero iterations, with no solve."""
        if self.problem is None:
            return SdpSolution(
                status=SolveStatus.PRIMAL_LIKELY_INFEASIBLE,
                primal_blocks=[], dual_vector=np.zeros(0),
                primal_objective=float("nan"), dual_objective=float("nan"),
                gap=float("nan"), iterations=0)
        return solve(self.problem)

    def weight(self) -> ApproximationResult:
        """Solve the weight program (`program` raises when pruning left
        none): minimal weight, gap and moments, with no certificate.  The
        solve must end Optimal with the squares-side and moment-side optima
        within DUALITY_GAP_TOL.  The moments are -sigma_gamma times the
        dual of gamma's row on the kept gammas and zero on the dropped
        ones, mapped to monomials."""
        sol = self.solution = solve(self.program())
        if sol.status is not SolveStatus.OPTIMAL:
            raise SolverFailureError(
                f"solver returned {sol.status.value} for the weight program at r={self.r}",
                sol)
        gap = abs(sol.primal_objective - sol.dual_objective)
        if gap > DUALITY_GAP_TOL:
            raise SolverFailureError(
                f"squares-side and moment-side optima disagree by {gap:.3e}", sol)
        gammas = multidegrees_upto(self.n_vars, 2 * self.r)
        values = dict.fromkeys(gammas, 0.0)
        values.update((g, -sign * float(v)) for members, v in zip(self.rows, sol.dual_vector)
                      for g, sign in members)
        moments = MomentVector(self.n_vars, 2 * self.r, self.matching.moments(values, gammas))
        return ApproximationResult(
            r=self.r,
            eps_star=-sol.dual_objective,
            min_eps=sol.dual_objective,
            certificate=None,
            dual_moments=moments,
            gap=gap,
        )


def _products(n_vars: int, generators: Sequence[Polynomial],
              two_r: int) -> List[Tuple[Tuple[int, ...], Polynomial]]:
    """Exponent tuples e in {0,1}^s with deg(g^e) <= two_r, each with its
    product g^e multiplied out, e_1 the fastest bit, so the trivial product
    e = 0 comes first (no generators: () with the constant 1).  Distinct
    tuples with identical products are kept as separate entries.  The
    certificate and the assembly both take g^e from here."""
    if two_r < 0:
        raise ValueError("two_r must be >= 0")
    degs = [g.degree() for g in generators]
    out = []
    for code in range(1 << len(degs)):
        e = tuple((code >> i) & 1 for i in range(len(degs)))
        # leading forms never cancel in a product, so degrees add
        if sum(d for d, ei in zip(degs, e) if ei) <= two_r:
            product = Polynomial.constant(n_vars, 1.0)
            for g, ei in zip(generators, e):
                if ei:
                    product = product * g
            out.append((e, product))
    return out


def _forced_zeros(rows: Sequence[Sequence[Tuple[int, int, int, float]]]) -> set:
    """(product, basis index) positions every feasible point must zero.

    Each row is an equality with zero right-hand side and no eps entry,
    given by its entries (product, i, j, coefficient).  When the entries
    that avoid every forced position are all diagonal with one strict
    sign, they are a signed sum of nonnegative diagonals equal to zero, so
    those Gram rows vanish; this repeats to a fixed point.  It is a facial
    reduction (Loefberg, IEEE TAC 54(5), 2009) that holds in any basis, and
    it removes the degenerate directions that stall the interior-point
    iteration when a perturbation touches only a few coefficients.
    """
    forced: set = set()
    changed = True
    while changed:
        changed = False
        for row in rows:
            left = [(k, i, j, c) for k, i, j, c in row
                    if (k, i) not in forced and (k, j) not in forced]
            if (left and all(i == j for _, i, j, _ in left)
                    and (all(c > 0 for *_, c in left) or all(c < 0 for *_, c in left))):
                forced.update((k, i) for k, i, _, _ in left)
                changed = True
    return forced


# -- results -------------------------------------------------------------------


@dataclass
class ApproximationResult:
    """Outcome of one weight computation or degree sweep.

    eps_star is the moment-side optimum (never meaningfully positive);
    min_eps = -eps_star is the smallest weight making the perturbed target a
    sum of squares at this degree; gap is the cross-side disagreement.
    warnings says, for a sweep, that the returned certificate does not
    re-verify (`_residual_warnings`); it is serialized only when not empty.
    """

    r: int
    eps_star: float
    min_eps: float
    certificate: Optional[GramCertificate]
    dual_moments: MomentVector
    gap: float
    trajectory: Optional[List[dict]] = None
    warnings: List[str] = field(default_factory=list)

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
        if self.warnings:
            obj["warnings"] = self.warnings
        return obj


def _residual_warnings(residual: float) -> List[str]:
    """The warning of a certificate whose residual is not within
    DEFAULT_RESIDUAL_TOL (NaN included), which `verify` would reject, or
    none."""
    if not residual <= DEFAULT_RESIDUAL_TOL:
        return [f"reconstruction residual {residual:.3e} exceeds "
                f"{DEFAULT_RESIDUAL_TOL:g}: the monomial certificate does not "
                "re-verify at the default tolerance"]
    return []


def _check_degrees(f: Polynomial, p: Polynomial, r: int) -> None:
    if p.n_vars != f.n_vars:
        raise DimensionMismatchError(
            f"target has {f.n_vars} variables, perturbation has {p.n_vars}")
    for what, q in (("target", f), ("perturbation", p)):
        if q.degree() > 2 * r:
            raise DegreeTooLowError(f"degree {q.degree()} {what} needs 2r >= {q.degree()}")


def epsilon_star(f: Polynomial, r: int, p: Polynomial) -> ApproximationResult:
    """Minimal weight eps making f + eps*p a sum of squares of degree 2r.

    One primal-dual solve yields both sides: the Gram block certifies
    f + min_eps * p, and the negated dual vector is the optimal moment
    functional, reported for downstream boundedness checks.  Basis rows
    forced to zero by the sparsity pattern are eliminated before the solve
    and reinstated as zeros afterwards; moment values whose matching
    constraint was trivially satisfied are reported as zero.
    """
    reduced = _ReducedGram(f, p, r)
    res = reduced.weight()
    return replace(res, certificate=GramCertificate.from_gram(
        reduced.bases[0], reduced.expand_gram(reduced.solution.primal_blocks)[0],
        f + p.scale(res.min_eps)))


def is_sos(f: Polynomial) -> Tuple[bool, Optional[GramCertificate]]:
    """Decide sum-of-squares membership by a pure feasibility solve.

    The program is the feasibility form of the one assembly for f at
    r = deg f / 2 (eps = 0): Gram blocks and zero objective, no eps block.
    Odd degree can never be a sum of squares and returns False immediately.
    True requires an optimal solver status and an independently recomputed
    certificate residual within DEFAULT_RESIDUAL_TOL.  False means a
    definite "no": the program is infeasible, or the certificate fails to
    verify.  A solve that ends undecided (numerical trouble, iteration
    limit) raises SolverFailureError.
    """
    if f.is_zero:
        return True, GramCertificate.from_gram(
            MonomialBasis.build(f.n_vars, 0), np.zeros((1, 1)), f)
    if f.degree() % 2 == 1:
        return False, None
    reduced = _ReducedGram(f, Polynomial.zero(f.n_vars), f.degree() // 2, eps=0.0)
    sol = reduced.solve()
    if sol.status is SolveStatus.PRIMAL_LIKELY_INFEASIBLE:
        return False, None
    if sol.status is not SolveStatus.OPTIMAL:
        raise SolverFailureError(
            f"feasibility solve ended with {sol.status.value}: membership undecided",
            sol)
    try:
        certificate = GramCertificate.from_gram(
            reduced.bases[0], reduced.expand_gram(sol.primal_blocks)[0], f)
    except NotPsdError:
        return False, None
    if certificate.residual_linf > DEFAULT_RESIDUAL_TOL:
        return False, None
    return True, certificate


def _sweep(
    f: Polynomial,
    eps: float,
    kind: PerturbationKind,
    r_max: int,
    weight: Callable[[int, Polynomial], ApproximationResult],
    generators: Sequence[Polynomial] = (),
) -> Tuple[ApproximationResult, Polynomial, _ReducedGram, List[np.ndarray], List[dict]]:
    """The degree sweep behind `minimal_r` and `preorder.membership`.

    Scans r upward from ceil(deg f / 2) one step at a time and solves the
    weight program weight(r, p_r) at every degree, recording one
    trajectory entry per degree: its minimal weight, or why it has none.
    At the first degree whose minimal weight eps covers, the decomposition
    step re-solves the feasibility program for f + eps*p_r, assembled
    over `generators`.  When pruning leaves no program or
    the re-solve does not end Optimal, the degree is marked
    "weight-ok-decomposition-failed" and the sweep goes on.  Returns the
    covered degree's weight result, p_r, the feasibility assembly, its
    Gram matrices (`_ReducedGram.expand_gram`) and the trajectory; the
    failure exception carries the trajectory too, so callers can inspect
    the trend, and the verdict with the degrees it rests on.  Nothing
    found is no definite "no" when a degree's decomposition failed
    (status "decomposition-failed": eps was covered there) or, failing
    that, when a degree's weight solve failed (status "solver-failed":
    eps may be covered there); otherwise the status is None.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be finite and positive, got {eps}")
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
            # an undecided degree does not block the sweep; the next
            # degree is usually better conditioned
            status = ("infeasible"
                      if exc.solution.status is SolveStatus.PRIMAL_LIKELY_INFEASIBLE
                      else "solver-failed")
            trajectory.append({"r": r, "min_eps": None, "status": status})
            continue
        trajectory.append({"r": r, "min_eps": base.min_eps, "status": "ok"})
        if eps < base.min_eps - SOS_DECISION_TOL:
            continue
        reduced = _ReducedGram(f, p, r, eps, generators)
        sol = reduced.solve()
        if sol.status is not SolveStatus.OPTIMAL:
            trajectory[-1]["status"] = "weight-ok-decomposition-failed"
            continue
        return base, p, reduced, reduced.expand_gram(sol.primal_blocks), trajectory
    failed = [t["r"] for t in trajectory if t["status"] == "weight-ok-decomposition-failed"]
    if failed:
        raise NotFoundWithinRMaxError(
            f"weight eps={eps} is covered at r = {', '.join(map(str, failed))}, but the "
            f"feasibility re-solve gave no decomposition there, and no certificate was "
            f"found at any degree r <= {r_max}", trajectory, "decomposition-failed", failed)
    unsolved = [t["r"] for t in trajectory if t["status"] == "solver-failed"]
    if unsolved:
        raise NotFoundWithinRMaxError(
            f"weight eps={eps} is covered at no solved degree r <= {r_max}, but the "
            f"weight program failed at r = {', '.join(map(str, unsolved))}, so nothing "
            f"found is no definite answer", trajectory, "solver-failed", unsolved)
    raise NotFoundWithinRMaxError(
        f"no degree r <= {r_max} admits weight eps={eps}", trajectory)


def minimal_r(
    f: Polynomial,
    eps: float,
    kind: PerturbationKind,
    r_max: int,
) -> ApproximationResult:
    """Smallest r <= r_max at which eps covers the minimal weight.

    The degree sweep of `_sweep` over the weight program; the trajectory
    rides along on the result.  The certificate is extracted from the Gram
    matrix of the sweep's decomposition step, the re-solve of the
    feasibility program for f + eps*p_r at the first covered degree, as in
    `preorder.membership`.  When its residual exceeds DEFAULT_RESIDUAL_TOL
    the result carries a warning.
    """
    base, p, reduced, grams, trajectory = _sweep(
        f, eps, kind, r_max, lambda r, p: _ReducedGram(f, p, r).weight())
    certificate = GramCertificate.from_gram(reduced.bases[0], grams[0], f + p.scale(eps))
    return replace(base, certificate=certificate, trajectory=trajectory,
                   warnings=_residual_warnings(certificate.residual_linf))


def approximate_on_box(
    f: Polynomial,
    eps: float,
    l: float,
    r_max: int,
) -> ApproximationResult:
    """Certify f on the box [-l, l]^n via the unit-box pipeline.

    Runs the degree sweep of `minimal_r` on x -> f(l*x), whose certificate
    comes from the feasibility re-solve at the covered degree, then
    transports it back: the reported squares and Gram matrix certify
    f + eps*(1 + sum_j (x_j / l)^(2r)) for the original variables, and the
    moment functional is rescaled to match.  The warnings are those of the
    transported certificate.  A box scale whose powers overflow a double,
    on the way to the unit box or back, raises ValueError.
    """
    if not (l > 0 and math.isfinite(l)):
        raise ValueError(f"box scale must be finite and positive, got {l}")
    g = scale_box(f, l)
    res = minimal_r(g, eps, THETA_BIG, r_max)
    if l == 1.0:
        return res
    r = res.r
    basis = res.certificate.basis
    try:
        perturbation = scale_box(theta_big(f.n_vars, r), 1.0 / l)
        scale_vec = np.array([l ** (-sum(a)) for a in basis.entries])
        moment_values = {a: v * l ** sum(a) for a, v in res.dual_moments.values.items()}
    except (OverflowError, ValueError):
        raise ValueError(f"box scale {l!r} is out of range: the certificate at r={r} "
                         "overflows a double on its way back to the box") from None
    target = f + perturbation.scale(eps)
    gram = res.certificate.gram * np.outer(scale_vec, scale_vec)
    certificate = GramCertificate.from_gram(basis, gram, target)
    moments = MomentVector(f.n_vars, 2 * r, moment_values)
    return replace(res, certificate=certificate, dual_moments=moments,
                   warnings=_residual_warnings(certificate.residual_linf))


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
    their max, NaN when either is NaN, so a non-finite certificate never
    passes a tolerance.  Raises DimensionMismatchError on an incompatible
    basis.
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
        "residual_linf": float(np.maximum(residual_gram, residual_squares)),
    }


def verify_certificate_obj(obj: dict, target: Polynomial) -> dict:
    """Re-check a serialized certificate against a target polynomial: the
    one-term case of `_verify_terms`, with product 1."""
    return _verify_terms(target, [(Polynomial.constant(target.n_vars, 1.0), obj)])
