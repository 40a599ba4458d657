"""Sign symmetries of a program and the block split they induce.

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
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .polynomials import Multidegree, Polynomial


def _parity(alpha: Multidegree) -> int:
    """Bit k set where alpha_k is odd."""
    return sum(1 << k for k, a in enumerate(alpha) if a & 1)


class ParitySpan:
    """GF(2) span L of the exponent parities of some polynomials.

    Kept as a row-reduced basis, one vector per pivot (its highest bit).
    Reducing a parity by the pivots in decreasing order clears every pivot
    bit, which gives one canonical representative per coset of L.
    """

    def __init__(self, polys: Iterable[Polynomial]):
        self._rows: List[Tuple[int, int]] = []   # (pivot bit, vector), descending
        for poly in polys:
            for alpha in poly.terms:
                v = self._reduce(_parity(alpha))
                if v:
                    self._rows.append((v.bit_length() - 1, v))
                    self._rows.sort(reverse=True)

    def _reduce(self, v: int) -> int:
        for bit, row in self._rows:
            if v >> bit & 1:
                v ^= row
        return v

    def coset(self, alpha: Multidegree) -> int:
        """Canonical representative of the parity of alpha modulo L."""
        return self._reduce(_parity(alpha))

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
