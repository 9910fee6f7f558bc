"""Cubical matrices: enumeration, support, smash, lifting and vector codecs.

A cubical matrix Gamma is a finite stack of (a+1) x (b+1) levels.  Level 0
may use the boundary row and column; higher levels are interior-only.  The
weight sum_{i,j,k} k * Gamma^k_ij is the power of h a term contributes, and
the levelwise sum (smash) lands back in the classical set L.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .algebra import b_length
from .tables import (
    MarginMatrix,
    _check_margins,
    enumerate_L,
    level_stacks,
    weight,
)


def _zero_level(a: int, b: int) -> tuple:
    return tuple(tuple(0 for _ in range(b + 1)) for _ in range(a + 1))


def _is_zero_level(level) -> bool:
    return all(v == 0 for row in level for v in row)


@dataclass(frozen=True, order=True)
class CubicalMatrix:
    """Levels Gamma^0..Gamma^s; trailing all-zero levels are trimmed."""

    levels: tuple

    def __post_init__(self):
        levels = list(self.levels)
        while len(levels) > 1 and _is_zero_level(levels[-1]):
            levels.pop()
        object.__setattr__(self, "levels", tuple(levels))

    @property
    def a(self) -> int:
        return len(self.levels[0]) - 1

    @property
    def b(self) -> int:
        return len(self.levels[0][0]) - 1

    def entry(self, i: int, j: int, k: int) -> int:
        if k >= len(self.levels):
            return 0
        return self.levels[k][i][j]

    def size(self) -> int:
        return sum(v for lvl in self.levels for row in lvl for v in row)

    def weight(self) -> int:
        return sum(
            k * v
            for k, lvl in enumerate(self.levels)
            for row in lvl
            for v in row
        )

    def support_level(self) -> int:
        # 0 for the all-zero matrix (degenerate)
        return len(self.levels) - 1

    def row_margin(self, i: int) -> int:
        return sum(sum(lvl[i]) for lvl in self.levels)

    def col_margin(self, j: int) -> int:
        return sum(row[j] for lvl in self.levels for row in lvl)

    def smash(self) -> MarginMatrix:
        rows = tuple(
            tuple(
                sum(lvl[i][j] for lvl in self.levels)
                for j in range(self.b + 1)
            )
            for i in range(self.a + 1)
        )
        return MarginMatrix(rows)

    def nonzero_entries(self):
        """Yield (i, j, k, value) over nonzero positions."""
        for k, lvl in enumerate(self.levels):
            for i, row in enumerate(lvl):
                for j, v in enumerate(row):
                    if v:
                        yield i, j, k, v


def from_margin(gamma: MarginMatrix) -> CubicalMatrix:
    """Embed a classical matrix as a single level-0 cubical matrix."""
    return CubicalMatrix((gamma.rows,))


def smash(gamma: CubicalMatrix) -> MarginMatrix:
    return gamma.smash()


def support_level(gamma: CubicalMatrix) -> int:
    return gamma.support_level()


def _level_splits(total: int, top: int, budget: int):
    """Compositions of `total` into levels 0..top with weight at most budget.

    Yields (counts, weight) with counts a tuple of length top + 1.  Only
    lift uses it: the lift route places levels independently of
    tables.level_stacks so that the two can check each other.
    """
    counts = [0] * (top + 1)

    def rec(k: int, rem: int, w: int):
        if k == top:
            if k * rem <= budget - w:
                counts[k] = rem
                yield tuple(counts), w + k * rem
                counts[k] = 0
            return
        for c in range(rem + 1):
            dw = k * c
            if w + dw > budget:
                break
            counts[k] = c
            yield from rec(k + 1, rem - c, w + dw)
            counts[k] = 0

    yield from rec(0, total, 0)


def enumerate_Q(alpha, beta, n, m) -> list[CubicalMatrix]:
    """All cubical matrices in Q(alpha, beta, n, m), in to_vector order.

    The level stacks with every cap at m and weight exactly m.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = [
        CubicalMatrix(levels)
        for levels in level_stacks(
            alpha, beta, n, lambda i, j: m, m, exact=True
        )
    ]
    out.sort(key=lambda g: to_vector(g, levels=m + 1))
    return out


def lift(gamma: MarginMatrix, s: int, m: int) -> list[CubicalMatrix]:
    """All cubical matrices of support s and weight m whose smash is gamma.

    Redistributes each interior entry into levels 0..s; the boundary stays
    at level 0.  Empty when no redistribution has weight m with level s
    occupied.  An independent cross-check route: it does not call
    tables.level_stacks.
    """
    if s > m:
        raise ValueError("support level cannot exceed the weight")
    a, b = gamma.a, gamma.b
    cells = [
        (i, j)
        for i in range(1, a + 1)
        for j in range(1, b + 1)
        if gamma[i, j]
    ]
    out = []
    chosen = {}

    def rec(idx: int, wrem: int):
        if idx == len(cells):
            if wrem != 0:
                return
            if s > 0 and not any(c[s] for c in chosen.values()):
                return
            levels = []
            for k in range(s + 1):
                rows = [[0] * (b + 1) for _ in range(a + 1)]
                if k == 0:
                    for i in range(1, a + 1):
                        rows[i][0] = gamma[i, 0]
                    for j in range(1, b + 1):
                        rows[0][j] = gamma[0, j]
                for (i, j), counts in chosen.items():
                    rows[i][j] = counts[k]
                levels.append(tuple(tuple(r) for r in rows))
            out.append(CubicalMatrix(tuple(levels)))
            return
        i, j = cells[idx]
        for counts, w in _level_splits(gamma[i, j], s, wrem):
            chosen[(i, j)] = counts
            rec(idx + 1, wrem - w)
        chosen.pop((i, j), None)

    if s == 0:
        if m == 0:
            out.append(from_margin(gamma))
    else:
        rec(0, m)
    out.sort(key=lambda g: to_vector(g, levels=s + 1))
    return out


def lift_all(alpha, beta, n, m) -> list[CubicalMatrix]:
    """Q(alpha, beta, n, m) built by lifting every classical matrix.

    The cross-check route for enumerate_Q: the classical matrices come from
    enumerate_L, but their levels are placed by lift, not by
    tables.level_stacks; L itself is checked against words.enumerate_A.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    _check_margins(alpha, beta, n)
    out = []
    for gamma in enumerate_L(alpha, beta, n):
        for s in range(m + 1):
            out.extend(lift(gamma, s, m))
    out.sort(key=lambda g: to_vector(g, levels=m + 1))
    return out


def max_support(p, q) -> int:
    """The paper's length-based support bound S = ceil((l(B)-(a+b))/ab) - 1.

    Unsound in general: when the per-pair grades min(deg_y p_i, deg_x q_j)
    differ, S can fall below the largest of them and contributing terms
    then sit above S.  The engine truncates at
    contributing_support; S is kept as the reference that acceptance
    criterion 4 checks.
    """
    p = tuple(p)
    q = tuple(q)
    a, b = len(p), len(q)
    return ceil((b_length(p, q) - (a + b)) / (a * b)) - 1


def contributing_support(p, q) -> int:
    """Sharp support bound: the largest grade with a nonzero kernel entry.

    The length-based bound of max_support averages the per-pair grades and
    can fall below max_ij min(deg_y p_i, deg_x q_j) when they are unequal,
    dropping genuine contributions; this bound is exact.
    """
    return max(min(pi.y, qj.x) for pi in p for qj in q)


def max_order(alpha, beta, n, s_bound: int) -> int:
    """Upper bound M on the h power of a contributing term.

    Given the support bound s_bound, no contributing term has weight above
    M.  The largest interior sum over L is the transportation max flow
    min(|alpha|, |beta|); the matrix reaching it has total
    max(|alpha|, |beta|) <= n, so it lies in L.  M is attained only if
    some matrix of L with that interior sum has its whole interior in cells
    with K_ij >= s_bound; otherwise every term lies strictly below M.
    """
    _check_margins(alpha, beta, n)
    return s_bound * min(weight(alpha), weight(beta))


def to_vector(gamma: CubicalMatrix, layout: str = "by-level",
              btable=None, levels: int | None = None) -> tuple:
    """Flatten a cubical matrix to an integer vector.

    by-level: boundary (column 0 then row 0) followed by the interior of
    each level row-major; `levels` pads with zero levels.  by-pair: same
    boundary prefix, then per (i, j) the entries k = 0..K_ij aligned with
    the BTable flat order.
    """
    base = gamma.levels[0]
    vec = [row[0] for row in base[1:]]
    vec += base[0][1:]
    if layout == "by-level":
        for lvl in gamma.levels:
            for row in lvl[1:]:
                vec += row[1:]
        if levels is not None and levels > len(gamma.levels):
            vec += [0] * ((levels - len(gamma.levels)) * gamma.a * gamma.b)
        return tuple(vec)
    if layout == "by-pair":
        if btable is None:
            raise ValueError("by-pair layout requires a BTable")
        for i in range(1, gamma.a + 1):
            for j in range(1, gamma.b + 1):
                kmax = btable.k_max(i, j)
                column = [lvl[i][j] for lvl in gamma.levels]
                for k in range(kmax + 1, len(column)):
                    if column[k]:
                        raise ValueError(
                            f"entry at level {k} exceeds K_{i}{j}={kmax}"
                        )
                vec += column[: kmax + 1]
                vec += [0] * (kmax + 1 - len(column))
        return tuple(vec)
    raise ValueError(f"unknown layout {layout!r}")


def from_vector(vec, layout: str = "by-level", shape=None,
                btable=None) -> CubicalMatrix:
    """Inverse of to_vector; `shape` is (a, b) for by-level."""
    vec = tuple(vec)
    if any(v < 0 for v in vec):
        raise ValueError("vector entries must be nonnegative")
    if layout == "by-pair":
        if btable is None:
            raise ValueError("by-pair layout requires a BTable")
        a, b = btable.a, btable.b
    elif layout == "by-level":
        if shape is None:
            raise ValueError("by-level layout requires shape=(a, b)")
        a, b = shape
        if a < 1 or b < 1:
            raise ValueError("shape entries must be positive")
    else:
        raise ValueError(f"unknown layout {layout!r}")
    if len(vec) < a + b:
        raise ValueError("vector shorter than its a+b boundary")
    body = vec[a + b:]
    if layout == "by-level":
        if len(body) % (a * b) != 0:
            raise ValueError("vector length does not fit the shape")
        # interiors[k][i - 1] is row i of level k without its column 0
        interiors = [
            [body[pos + r * b: pos + (r + 1) * b] for r in range(a)]
            for pos in range(0, len(body), a * b)
        ]
    else:
        kmaxes = [
            btable.k_max(i, j) for i in range(1, a + 1) for j in range(1, b + 1)
        ]
        need = sum(k + 1 for k in kmaxes)
        if len(body) < need:
            raise ValueError("vector too short for the BTable")
        if len(body) > need:
            raise ValueError("vector too long for the BTable")
        interiors = [[[0] * b for _ in range(a)]
                     for _ in range(max(kmaxes) + 1)]
        pos = 0
        for cell, kmax in enumerate(kmaxes):
            i, j = divmod(cell, b)
            for k, v in enumerate(body[pos: pos + kmax + 1]):
                interiors[k][i][j] = v
            pos += kmax + 1
    if not interiors:
        interiors = [[(0,) * b] * a]
    edge = vec[: a + b]  # level 0's column 0 (rows 1..a), then its row 0
    levels = []
    for interior in interiors:
        levels.append(
            ((0,) + tuple(edge[a:]),)
            + tuple((c,) + tuple(row) for c, row in zip(edge, interior))
        )
        edge = (0,) * (a + b)
    return CubicalMatrix(tuple(levels))
