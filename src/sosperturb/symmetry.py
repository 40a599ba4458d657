"""Symmetries of a program: the block split of its sign flips, and the
orbits of its signed permutations.

Flipping signs of variables, x_i -> s_i x_i with s_i = +-1, multiplies
x^alpha by (-1)^(t . alpha), t_i = 1 where s_i = -1.  Only the parity of
alpha matters, so a polynomial is unchanged by the flip exactly when t is
orthogonal, over GF(2), to the parities of all its exponents.  Let L be
the GF(2) span of the exponent parities of every polynomial a program is
built from: target, perturbation and generators.  The flips orthogonal to
L form the symmetry group of the program, and averaging any feasible
point over that group gives a feasible point with the same objective.

In such an averaged point a Gram entry (alpha, beta) is zero unless
alpha + beta has its parity in L.  The basis therefore splits into the
cosets alpha mod L, one Gram block each, and every coefficient constraint
gamma whose parity lies outside L has no entries left and a zero
right-hand side, so it drops.  Chebyshev T_k has the parity of k, so the
same split holds in the tensor Chebyshev basis.  This is the sign-symmetry
reduction of Gatermann and Parrilo (J. Pure Appl. Algebra 192, 2004) and
of Loefberg (IEEE Trans. Autom. Control 54(5), 2009).

A signed permutation g: x_i -> s_i x_perm(i) maps x^alpha to
(-1)^(t . alpha) x^(perm . alpha), where (perm . alpha)_perm(i) = alpha_i.
`stabilizer` finds the signed permutations that leave some polynomials
unchanged, with exact float equality of coefficients, as generators of a
stabilizer chain; it never lists the group, which for 1 + sum x_i^4 in
8 variables has 2^8 * 8! elements.  The flips are the elements with the
identity permutation and are left to `ParitySpan`: they fix every
exponent in L and every Gram entry of a coset block with sign +1, so
they merge no orbit.  `SignedPermutations.orbits` groups exponents into
orbits with the sign sigma that carries the first member to each member,
and `SignedPermutations.average` is the Reynolds operator on Gram
matrices, the average over the group taken one level of the chain at a
time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .polynomials import Multidegree, Polynomial


def _parity(alpha: Multidegree) -> int:
    """Bit k set where alpha_k is odd."""
    return sum(1 << k for k, a in enumerate(alpha) if a & 1)


# a GF(2) system popcount(t & vector) = rhs mod 2, fully reduced: each row
# (pivot, vector, rhs) has its pivot bit, which no other row has
Gf2Rows = List[Tuple[int, int, int]]


def _reduce_gf2(rows: Gf2Rows, equations: Iterable[Tuple[int, int]]) -> Optional[Gf2Rows]:
    """rows with the equations (vector, rhs) added, or None when they
    conflict.  Setting t's pivot bits to the rows' rhs and its other bits
    to 0 solves the system."""
    rows = list(rows)
    for v, b in equations:
        for pivot, w, c in rows:
            if v >> pivot & 1:
                v, b = v ^ w, b ^ c
        if not v:
            if b:
                return None
            continue
        pivot = v.bit_length() - 1
        rows = [(q, w ^ v, c ^ b) if w >> pivot & 1 else (q, w, c) for q, w, c in rows]
        rows.append((pivot, v, b))
    return rows


class ParitySpan:
    """GF(2) span L of the exponent parities of some polynomials.

    Kept as a fully reduced basis (`_reduce_gf2` with every rhs 0).
    Clearing every pivot bit of a parity gives one canonical
    representative per coset of L.
    """

    def __init__(self, polys: Iterable[Polynomial]):
        self._rows = _reduce_gf2([], ((_parity(alpha), 0) for poly in polys
                                      for alpha in poly.terms))

    def coset(self, alpha: Multidegree) -> int:
        """Canonical representative of the parity of alpha modulo L."""
        v = _parity(alpha)
        for pivot, w, _ in self._rows:
            if v >> pivot & 1:
                v ^= w
        return v

    def contains(self, gamma: Multidegree) -> bool:
        return self.coset(gamma) == 0

    def split(self, entries: Sequence[Multidegree]) -> List[List[int]]:
        """Indices of entries grouped by coset; the groups are ordered by
        their first index and keep the order of entries inside."""
        groups: Dict[int, List[int]] = {}
        for i, alpha in enumerate(entries):
            groups.setdefault(self.coset(alpha), []).append(i)
        return list(groups.values())


def scatter(n: int, pieces: Iterable[Tuple[Sequence[int], np.ndarray]]) -> np.ndarray:
    """n x n matrix holding each block at its (indices, indices) positions
    and zero elsewhere."""
    out = np.zeros((n, n))
    for idx, block in pieces:
        out[np.ix_(idx, idx)] = block
    return out


# x_i -> s_i x_perm[i], with bit i of the int set where s_i = -1
SignedPermutation = Tuple[Tuple[int, ...], int]

# backtracking nodes one search of `stabilizer` may visit; a search cut
# short keeps only the levels searched before it, which generate a
# subgroup, and summing over a subgroup's orbits is still exact
_SEARCH_NODES = 20000


def act(g: SignedPermutation, alpha: Multidegree) -> Tuple[Multidegree, int]:
    """(beta, sign) with x^alpha(g x) = sign * x^beta."""
    perm, flips = g
    beta = [0] * len(alpha)
    for i, a in enumerate(alpha):
        if a:
            beta[perm[i]] = a
    return tuple(beta), -1 if bin(flips & _parity(alpha)).count("1") & 1 else 1


class SignedPermutations:
    """A group of signed permutations as a stabilizer chain: levels[k]
    holds generators that fix the variables before k, and the orbit of
    variable k under them is its orbit under the whole group fixing the
    variables before k.  Every element is then one product u_0 ... u_n-1,
    u_k from the transversal of level k."""

    def __init__(self, levels: Sequence[Sequence[SignedPermutation]]):
        self.levels = [list(level) for level in levels]

    @property
    def generators(self) -> List[SignedPermutation]:
        return [g for level in self.levels for g in level]

    def orbits(self, gammas: Sequence[Multidegree]
               ) -> List[Tuple[List[Tuple[Multidegree, int]], bool]]:
        """The orbits of gammas, a set the group maps to itself, in the
        order of their first member: each is its members (gamma, sigma) in
        the order of gammas, sigma the sign that carries the first member
        to gamma, and whether those signs are consistent.  An orbit is
        inconsistent when an element maps a member to minus itself."""
        order = {g: k for k, g in enumerate(gammas)}
        sign: Dict[Multidegree, int] = {}
        out = []
        for gamma in gammas:
            if gamma in sign:
                continue
            sign[gamma], frontier, members, consistent = 1, [gamma], [gamma], True
            while frontier:
                alpha = frontier.pop()
                for g in self.generators:
                    beta, s = act(g, alpha)
                    s *= sign[alpha]
                    if beta not in sign:
                        sign[beta] = s
                        frontier.append(beta)
                        members.append(beta)
                    elif sign[beta] != s:
                        consistent = False
            members.sort(key=order.__getitem__)
            out.append(([(m, sign[m]) for m in members], consistent))
        return out

    def average(self, entries: Sequence[Multidegree], gram: np.ndarray) -> np.ndarray:
        """The Reynolds operator: the average of g . gram over the group,
        gram a matrix over the monomials entries, a set the group maps to
        itself.  Level by level, in chain order, the matrix is replaced by
        its average over that level's transversal.

        gram must be zero outside the coset blocks of the polynomials'
        parity span, as an expanded Gram matrix is.  The sign flips of the
        group then fix it, so the one signed permutation the chain takes
        for each permutation stands for all of them."""
        index = {a: k for k, a in enumerate(entries)}
        n = len(entries)
        for k, level in enumerate(self.levels):
            if not level:
                continue
            # each generator as (variable map, basis map, basis signs)
            moves = []
            for g in level:
                images = [act(g, a) for a in entries]
                moves.append((g[0], np.array([index[b] for b, _ in images]),
                              np.array([float(s) for _, s in images])))
            transversal = {k: (np.arange(n), np.ones(n))}
            frontier = [k]
            while frontier:
                j = frontier.pop()
                idx, sgn = transversal[j]
                for perm, g_idx, g_sgn in moves:
                    if perm[j] not in transversal:
                        transversal[perm[j]] = (g_idx[idx], sgn * g_sgn[idx])
                        frontier.append(perm[j])
            total = np.zeros_like(gram)
            for idx, sgn in transversal.values():
                total += np.outer(sgn, sgn) * gram[np.ix_(idx, idx)]
            gram = total / len(transversal)
        return gram


def stabilizer(polys: Sequence[Polynomial]) -> Optional[SignedPermutations]:
    """Signed permutations with a non-identity permutation that leave every
    polynomial in polys unchanged, coefficients compared exactly; None when
    there are none.

    For each level k, and each variable j after k that variable k could map
    to, a backtracking search over the images of the variables after k
    looks for a group element that fixes the variables before k and maps k
    to j, unless j is already in the orbit of k under the generators found
    at this level.  A partial assignment is pruned when a variable's image
    has another signature (the multiset of its terms' exponents and
    absolute coefficients), or when a term whose variables all have images
    maps to no term of the same absolute coefficient or needs a sign that
    conflicts, over GF(2), with those of the terms before it.  The levels
    are searched from the last; a search past _SEARCH_NODES nodes ends the
    search, keeping the levels after it.
    """
    n = polys[0].n_vars
    terms = [(k, alpha, c) for k, poly in enumerate(polys) for alpha, c in poly.terms.items()]
    signature = [sorted((k, alpha[i], abs(c), sorted(alpha)) for k, alpha, c in terms
                        if alpha[i]) for i in range(n)]
    # the terms checked once variable v has its image: those whose last
    # variable is v
    last: List[List[Tuple[int, Multidegree, float]]] = [[] for _ in range(n)]
    for k, alpha, c in terms:
        support = [i for i, a in enumerate(alpha) if a]
        if support:
            last[support[-1]].append((k, alpha, c))

    def search(k: int, j: int) -> Optional[SignedPermutation]:
        """An element fixing the variables before k with perm[k] = j."""
        perm = list(range(k)) + [j] + [-1] * (n - k - 1)
        used = set(perm[:k + 1])
        nodes = 0

        def signs(v: int, rows: Gf2Rows) -> Optional[Gf2Rows]:
            """rows with the sign each term whose last variable is v must
            pick up, or None when a term cannot map to a term."""
            equations = []
            for q, alpha, c in last[v]:
                d = polys[q].terms.get(act((perm, 0), alpha)[0])
                if d is None or abs(d) != abs(c):
                    return None
                equations.append((_parity(alpha), int(d != c)))
            return _reduce_gf2(rows, equations)

        def extend(v: int, rows: Gf2Rows) -> Optional[SignedPermutation]:
            nonlocal nodes
            if v == n:
                return tuple(perm), sum(1 << q for q, _, b in rows if b)
            for image in range(n):
                if image in used or signature[image] != signature[v]:
                    continue
                nodes += 1
                if nodes > _SEARCH_NODES:
                    raise _SearchCut
                perm[v] = image
                used.add(image)
                fitted = signs(v, rows)
                found = None if fitted is None else extend(v + 1, fitted)
                used.discard(image)
                if found is not None:
                    return found
            perm[v] = -1
            return None

        if signature[j] != signature[k]:
            return None
        rows: Optional[Gf2Rows] = []
        for v in range(k + 1):
            rows = signs(v, rows)
            if rows is None:
                return None
        return extend(k + 1, rows)

    levels: List[List[SignedPermutation]] = [[] for _ in range(n)]
    try:
        for k in range(n - 2, -1, -1):
            orbit = {k}
            for j in range(k + 1, n):
                if j in orbit:
                    continue
                g = search(k, j)
                if g is None:
                    continue
                levels[k].append(g)
                frontier = list(orbit)
                while frontier:
                    i = frontier.pop()
                    for perm, _ in levels[k]:
                        if perm[i] not in orbit:
                            orbit.add(perm[i])
                            frontier.append(perm[i])
    except _SearchCut:
        levels[k] = []
    if not any(levels):
        return None
    return SignedPermutations(levels)


class _SearchCut(Exception):
    """A search of `stabilizer` passed _SEARCH_NODES nodes."""
