"""Margin-constrained integer matrices and the classical product.

L(alpha, beta, n) is the set of (a+1) x (b+1) nonnegative integer matrices
gamma with gamma_00 = 0, total at most n, row sums alpha_i over rows 1..a
and column sums beta_j over columns 1..b.  These are the lattice points of a
transportation polytope with slack, and they index the terms of the
classical product of elementary multisymmetric functions.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Monomial2


class MarginMatrix(NamedTuple):
    """An (a+1) x (b+1) matrix stored as a tuple of row tuples."""

    rows: tuple

    @property
    def a(self) -> int:
        return len(self.rows) - 1

    @property
    def b(self) -> int:
        return len(self.rows[0]) - 1

    def cells(self) -> list:
        """The two-line array: the nonzero (i, j, v), row-major.

        Row 0 and column 0 are included, so the boundary (the slack) is
        here too; the corner is always 0.
        """
        return [(i, j, v) for i, row in enumerate(self.rows)
                for j, v in enumerate(row) if v]


def _check_margins(alpha, beta, n):
    if sum(alpha) > n or sum(beta) > n:
        raise ValueError(
            f"margins exceed n: |alpha|={sum(alpha)}, "
            f"|beta|={sum(beta)}, n={n}"
        )
    if not alpha or not beta:
        raise ValueError("alpha and beta must be nonempty")
    if any(v < 0 for v in alpha) or any(v < 0 for v in beta):
        raise ValueError("multi-index entries must be nonnegative")


def depth_first(node, *root) -> None:
    """Run the walk from node(*root), depth first on an explicit stack, so
    no depth reaches the recursion limit.  A node is a generator that
    yields each child's argument tuple, and depth_first pushes
    node(*child); a node never names itself, so the walk forms no cycle.
    """
    stack = [node(*root)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(node(*child))


def enumerate_L(alpha, beta, n) -> list[MarginMatrix]:
    """All matrices of L(alpha, beta, n), lexicographic on row-major entries.

    A walk over the interior margins, run by depth_first: each step puts
    t >= 1 units in a later interior cell, row-major, t at most both
    residual margins, and yields the child's (next cell, units).  A branch
    holding min(|alpha|, |beta|) units has spent every row or every column
    margin, so it stops there.  The cells from row i on take at most the
    row margins left in rows i..a, so a scan ends once those cannot bring
    the units up to the total <= n bound.  The residual margins form the
    boundary.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    _check_margins(alpha, beta, n)
    a, b = len(alpha), len(beta)
    cells = [(i, j) for i in range(1, a + 1) for j in range(1, b + 1)]
    # total = |alpha| + |beta| - (interior units), so total <= n needs this
    min_units = sum(alpha) + sum(beta) - n
    full = min(sum(alpha), sum(beta))
    rows = [[0] * (b + 1) for _ in range(a + 1)]
    rows[0][1:] = beta
    for i, v in enumerate(alpha, start=1):
        rows[i][0] = v
    out = []

    def node(start: int, units: int):
        """Record this node, then place each child in rows, yield its args."""
        if units >= min_units:
            out.append(MarginMatrix(tuple(map(tuple, rows))))
            if units == full:
                return
        for idx in range(start, len(cells)):
            i, j = cells[idx]
            if (units < min_units
                    and units + sum([row[0] for row in rows[i:]]) < min_units):
                return  # rows i..a cannot hold the units still needed
            for t in range(1, min(rows[i][0], rows[0][j]) + 1):
                rows[i][0] -= t
                rows[0][j] -= t
                rows[i][j] = t
                yield idx + 1, units + t
                rows[i][0] += t
                rows[0][j] += t
            rows[i][j] = 0

    depth_first(node, 0, 0)
    out.sort()
    return out


def classical_product(alpha, p, beta, q, n):
    """Classical product of e_alpha(p) and e_beta(q) as h^0 terms.

    One term per gamma in L(alpha, beta, n), read off gamma.cells(): cell
    (i, j) with v units is the slot (v, p_i * q_j), where p_0 = q_0 = 1,
    so column 0 gives p_i, row 0 gives q_j and the interior the pairwise
    commutative products.
    """
    from .expansion import ETerm, canonical_slots

    alpha, beta = tuple(alpha), tuple(beta)
    P = (Monomial2(), *p)
    Q = (Monomial2(), *q)
    if len(P) != len(alpha) + 1 or len(Q) != len(beta) + 1:
        raise ValueError("monomial lists must match multi-index lengths")
    return [ETerm(0, 1, canonical_slots(
                [(v, P[i] * Q[j]) for i, j, v in gamma.cells()]))
            for gamma in enumerate_L(alpha, beta, n)]
