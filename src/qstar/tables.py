"""Margin-constrained integer matrices and the classical product.

L(alpha, beta, n) is the set of (a+1) x (b+1) nonnegative integer matrices
gamma with gamma_00 = 0, total at most n, row sums alpha_i over rows 1..a
and column sums beta_j over columns 1..b.  These are the lattice points of a
transportation polytope with slack, and they index the terms of the
classical product of elementary multisymmetric functions.
"""

from __future__ import annotations

from typing import NamedTuple


def weight(multi_index) -> int:
    return sum(multi_index)


class MarginMatrix(NamedTuple):
    """An (a+1) x (b+1) matrix stored as a tuple of row tuples."""

    rows: tuple

    @property
    def a(self) -> int:
        return len(self.rows) - 1

    @property
    def b(self) -> int:
        return len(self.rows[0]) - 1

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.rows[i][j]


def _check_margins(alpha, beta, n):
    if weight(alpha) > n or weight(beta) > n:
        raise ValueError(
            f"margins exceed n: |alpha|={weight(alpha)}, "
            f"|beta|={weight(beta)}, n={n}"
        )
    if not alpha or not beta:
        raise ValueError("alpha and beta must be nonempty")
    if any(v < 0 for v in alpha) or any(v < 0 for v in beta):
        raise ValueError("multi-index entries must be nonnegative")


def enumerate_L(alpha, beta, n) -> list[MarginMatrix]:
    """All matrices of L(alpha, beta, n), lexicographic on row-major entries.

    A walk over the interior margins: each step puts t >= 1 units in a
    later interior cell, row-major, t at most both residual margins, so
    the recursion is at most as deep as the interior units, min(|alpha|,
    |beta|), however many cells there are.  A branch holding that many
    units has spent every row or every column margin, so it stops there.
    The residual margins form the boundary.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    _check_margins(alpha, beta, n)
    a, b = len(alpha), len(beta)
    cells = [(i, j) for i in range(1, a + 1) for j in range(1, b + 1)]
    # total = |alpha| + |beta| - (interior units), so total <= n needs this
    min_units = weight(alpha) + weight(beta) - n
    full = min(weight(alpha), weight(beta))
    rows = [[0] * (b + 1) for _ in range(a + 1)]
    rows[0][1:] = beta
    for i, v in enumerate(alpha, start=1):
        rows[i][0] = v
    out = []

    def walk(start: int, units: int):
        if units >= min_units:
            out.append(MarginMatrix(tuple(map(tuple, rows))))
            if units == full:
                return
        for idx in range(start, len(cells)):
            i, j = cells[idx]
            for t in range(1, min(rows[i][0], rows[0][j]) + 1):
                rows[i][0] -= t
                rows[0][j] -= t
                rows[i][j] = t
                walk(idx + 1, units + t)
                rows[i][0] += t
                rows[0][j] += t
            rows[i][j] = 0

    walk(0, 0)
    out.sort(key=lambda g: g.rows)
    return out


def classical_product(alpha, p, beta, q, n):
    """Classical product of e_alpha(p) and e_beta(q) as h^0 terms.

    One term per gamma in L(alpha, beta, n); arguments are p, q and the
    pairwise commutative products p_i * q_j with multiplicities read off
    gamma.
    """
    from .expansion import ETerm, canonical_slots

    alpha = tuple(alpha)
    beta = tuple(beta)
    p = tuple(p)
    q = tuple(q)
    if len(p) != len(alpha) or len(q) != len(beta):
        raise ValueError("monomial lists must match multi-index lengths")
    terms = []
    for gamma in enumerate_L(alpha, beta, n):
        slots = []
        for i in range(1, len(alpha) + 1):
            if gamma[i, 0]:
                slots.append((gamma[i, 0], p[i - 1]))
        for j in range(1, len(beta) + 1):
            if gamma[0, j]:
                slots.append((gamma[0, j], q[j - 1]))
        for i in range(1, len(alpha) + 1):
            for j in range(1, len(beta) + 1):
                if gamma[i, j]:
                    slots.append((gamma[i, j], p[i - 1] * q[j - 1]))
        terms.append(ETerm(0, 1, canonical_slots(slots)))
    return terms
