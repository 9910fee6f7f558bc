"""Margin-constrained integer matrices and the classical product.

L(alpha, beta, n) is the set of (a+1) x (b+1) nonnegative integer matrices
gamma with gamma_00 = 0, total at most n, row sums alpha_i over rows 1..a
and column sums beta_j over columns 1..b.  These are the lattice points of a
transportation polytope with slack, and they index the terms of the
classical product of elementary multisymmetric functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, groupby


def weight(multi_index) -> int:
    return sum(multi_index)


@dataclass(frozen=True, order=True)
class MarginMatrix:
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

    def total(self) -> int:
        return sum(sum(r) for r in self.rows)

    def row_margin(self, i: int) -> int:
        return sum(self.rows[i])

    def col_margin(self, j: int) -> int:
        return sum(r[j] for r in self.rows)

    def interior_sum(self) -> int:
        return sum(sum(r[1:]) for r in self.rows[1:])


def interior_support_count(gamma: MarginMatrix) -> int:
    """Number of nonzero entries outside row 0 and column 0."""
    return sum(
        1
        for row in gamma.rows[1:]
        for v in row[1:]
        if v != 0
    )


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


def level_stacks(alpha, beta, n, caps, budget, exact=False):
    """Level stacks Gamma^0..Gamma^s of the cubical matrices over L.

    Walks the interior cells (i, j) row-major; cell (i, j) takes t units,
    t at most both residual margins, placed as a multiset of t levels drawn
    from 0..min(caps(i, j), weight left).  Each cell's multisets are built
    once per call, as pieces[cell][t]: the (weight, runs) of each multiset
    of levels up to min(caps(i, j), budget), in
    combinations_with_replacement order, that some stack can use (weight
    at most budget and, when exact, at least what the other cells cannot
    take); a visit keeps those within the weight left.  No recursion grows
    with the caps.  The residual margins form the level-0 boundary.  Yields
    every stack of total at most n and weight at most budget (exactly
    budget when exact) as a list of (k, i, j, v) runs, unsorted and
    possibly with v = 0 on the boundary, which is the input CubicalMatrix
    takes; caps is called with 1-based (i, j).
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    _check_margins(alpha, beta, n)
    a, b = len(alpha), len(beta)
    cells = [(i, j) for i in range(1, a + 1) for j in range(1, b + 1)]
    tops = [min(caps(i, j), budget) for i, j in cells]
    most = [top * min(alpha[i - 1], beta[j - 1])
            for top, (i, j) in zip(tops, cells)]
    pieces = []
    for top, most_here, (i, j) in zip(tops, most, cells):
        least = budget - sum(most) + most_here if exact else 0
        by_t = []
        for t in range(min(alpha[i - 1], beta[j - 1]) + 1):
            by_t.append([
                (w, [(k, i, j, len(list(run))) for k, run in groupby(combo)])
                for combo in combinations_with_replacement(range(top + 1), t)
                if least <= (w := sum(combo)) <= budget
            ])
        pieces.append(by_t)
    # total = |alpha| + |beta| - (interior units), so total <= n needs this
    min_units = weight(alpha) + weight(beta) - n
    ra = list(alpha)
    rb = list(beta)
    picks = [()] * len(cells)  # the runs of each cell's level multiset

    def walk(idx: int, wleft: int, units: int):
        if idx == len(cells):
            if units >= min_units and not (exact and wleft):
                runs = [(0, i, 0, v) for i, v in enumerate(ra, start=1)]
                runs += [(0, 0, j, v) for j, v in enumerate(rb, start=1)]
                runs += chain.from_iterable(picks)
                yield runs
            return
        i, j = cells[idx]
        by_t = pieces[idx]
        for t in range(min(ra[i - 1], rb[j - 1]) + 1):
            ra[i - 1] -= t
            rb[j - 1] -= t
            for w, runs in by_t[t]:
                if w <= wleft:
                    picks[idx] = runs
                    yield from walk(idx + 1, wleft - w, units + t)
            ra[i - 1] += t
            rb[j - 1] += t

    yield from walk(0, budget, 0)


def enumerate_L(alpha, beta, n) -> list[MarginMatrix]:
    """All matrices of L(alpha, beta, n), lexicographic on row-major entries.

    The level stacks with every cap and the weight budget at 0.
    """
    a, b = len(alpha), len(beta)
    out = []
    for runs in level_stacks(alpha, beta, n, lambda i, j: 0, 0):
        rows = [[0] * (b + 1) for _ in range(a + 1)]
        for _, i, j, v in runs:
            rows[i][j] = v
        out.append(MarginMatrix(tuple(map(tuple, rows))))
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
