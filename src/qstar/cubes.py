"""Cubical matrices: enumeration, support, smash, lifting and vector codecs.

A cubical matrix Gamma is a finite stack of (a+1) x (b+1) levels, held as
its nonzero (k, i, j, v) runs.  Level 0 may use the boundary row and
column; higher levels are interior-only.  The weight sum_{i,j,k} k *
Gamma^k_ij is the power of h a term contributes, and the levelwise sum
(smash) lands back in the classical set L.  Both routes take L from
tables.enumerate_L and differ only in how they place the levels:
level_stacks (behind enumerate_Q and the enumerate route of the star
product) takes a product of per-cell tables, and lift recurses over the
cells with a weight left, so each checks the other's placement.  L
itself is checked by words.enumerate_A at m = 0, not by the other route.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations_with_replacement, groupby, product
from math import ceil
from operator import itemgetter
from typing import NamedTuple

from .algebra import build_B
from .tables import MarginMatrix, _check_margins, enumerate_L, weight


class CubicalMatrix(NamedTuple("_Cubical", [("a", int), ("b", int),
                                            ("entries", tuple)])):
    """A cubical matrix of shape (a, b), stored as its nonzero runs.

    entries holds (k, i, j, v) runs: v units at level k of cell (i, j),
    with 0-based i and j, so row 0 and column 0 are the boundary.  In
    lexicographic order the runs are the matrix's 3-word in run-length
    form.  Invariant, kept here and nowhere else: a >= 1, b >= 1, and the
    runs are sorted with no v = 0, so equal matrices have equal entries.
    Callers pass runs inside the shape, boundary runs at level 0 only.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, entries=()):
        if a < 1 or b < 1:
            raise ValueError("shape entries must be positive")
        runs = tuple(sorted(filter(itemgetter(3), entries)))
        return super().__new__(cls, a, b, runs)

    @classmethod
    def from_levels(cls, levels) -> CubicalMatrix:
        """The matrix with dense levels Gamma^0..Gamma^s (row tuples)."""
        return cls(len(levels[0]) - 1, len(levels[0][0]) - 1, tuple(
            (k, i, j, v)
            for k, lvl in enumerate(levels)
            for i, row in enumerate(lvl)
            for j, v in enumerate(row)
        ))

    def weight(self) -> int:
        return sum(k * v for k, _, _, v in self.entries)

    def support_level(self) -> int:
        # 0 for the all-zero matrix (degenerate)
        return self.entries[-1][0] if self.entries else 0

    def smash(self) -> MarginMatrix:
        rows = [[0] * (self.b + 1) for _ in range(self.a + 1)]
        for _, i, j, v in self.entries:
            rows[i][j] += v
        return MarginMatrix(tuple(map(tuple, rows)))


def level_stacks(alpha, beta, n, caps, m=None):
    """Every cubical matrix over L(alpha, beta, n) with levels up to caps.

    For each gamma of enumerate_L, the cubical matrices that smash onto
    it are the Cartesian product, over its nonzero interior cells (i, j),
    of the multisets of gamma_ij levels from 0..caps(i, j), with the
    boundary at level 0.  Each (i, j, units) table of (weight, runs) is
    built once per call, in combinations_with_replacement order; caps is
    called with 1-based (i, j).  With m given, a piece heavier than m is
    left out of its table, and a product whose piece weights do not sum
    to m is dropped before a matrix is built.  Without m there is no
    weight bound: with caps K_ij <= S a matrix weighs at most S times
    its interior units, at most min(|alpha|, |beta|), which is M.
    """
    a, b = len(alpha), len(beta)

    @cache
    def table(i: int, j: int, units: int) -> list:
        top = caps(i, j)
        most = top * units if m is None else m  # without m, keep every piece
        return [
            (w, [(k, i, j, len(list(run))) for k, run in groupby(combo)])
            for combo in combinations_with_replacement(range(top + 1), units)
            if (w := sum(combo)) <= most
        ]

    for gamma in enumerate_L(alpha, beta, n):
        rows = gamma.rows
        edge = [(0, i, 0, row[0]) for i, row in enumerate(rows[1:], start=1)]
        edge += [(0, 0, j, v) for j, v in enumerate(rows[0][1:], start=1)]
        pieces = [
            table(i, j, units)
            for i, row in enumerate(rows[1:], start=1)
            for j, units in enumerate(row[1:], start=1)
            if units
        ]
        for pick in product(*pieces):
            if m is None or sum([w for w, _ in pick]) == m:
                yield CubicalMatrix(a, b, edge + [
                    run for _, runs in pick for run in runs
                ])


def enumerate_Q(alpha, beta, n, m) -> list[CubicalMatrix]:
    """All cubical matrices in Q(alpha, beta, n, m), in to_vector order.

    The level stacks with every cap at m and weight exactly m.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = list(level_stacks(alpha, beta, n, lambda i, j: m, m))
    out.sort(key=lambda g: to_vector(g, levels=m + 1))
    return out


def lift(gamma: MarginMatrix, m: int, caps) -> list[CubicalMatrix]:
    """Every cubical matrix of weight <= m whose smash is gamma, in walk order.

    The recursion runs over gamma's nonzero interior cells (i, j), 1-based
    and row-major.  Each places its units as a multiset of levels from
    combinations_with_replacement over 0..min(m, caps(i, j), weight left),
    kept while its weight fits what is left; the boundary stays at level
    0.  It shares no code with level_stacks, so each checks the other.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    cells = [
        (i, j, gamma[i, j], min(m, caps(i, j)))
        for i in range(1, gamma.a + 1)
        for j in range(1, gamma.b + 1)
        if gamma[i, j]
    ]
    edge = [(0, i, 0, gamma[i, 0]) for i in range(1, gamma.a + 1)]
    edge += [(0, 0, j, gamma[0, j]) for j in range(1, gamma.b + 1)]
    chosen = [()] * len(cells)
    out = []

    def rec(idx: int, wleft: int):
        if idx == len(cells):
            runs = edge + list(chain.from_iterable(chosen))
            out.append(CubicalMatrix(gamma.a, gamma.b, runs))
            return
        i, j, units, top = cells[idx]
        levels = range(min(top, wleft) + 1)
        for combo in combinations_with_replacement(levels, units):
            if (w := sum(combo)) <= wleft:
                chosen[idx] = [
                    (k, i, j, len(list(run))) for k, run in groupby(combo)
                ]
                rec(idx + 1, wleft - w)

    rec(0, m)
    return out


def lift_all(alpha, beta, n, m, caps) -> list[CubicalMatrix]:
    """Every lift of weight <= m of each matrix of L(alpha, beta, n).

    One enumerate_L call, which checks the margins; lift places the
    levels.  L itself is not checked here, since level_stacks reads the
    same enumerate_L: words.enumerate_A at m = 0 checks it.  In walk order.
    """
    return [g for gamma in enumerate_L(alpha, beta, n)
            for g in lift(gamma, m, caps)]


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
    return ceil((len(build_B(p, q)) - (a + b)) / (a * b)) - 1


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
    each level row-major; `levels` pads with zero levels.  by-pair: the
    count at each place of btable.entries, in its flat order (boundary,
    then per (i, j) the levels k = 0..K_ij).  A run outside the shape
    (the corner cell, a row or column past a or b), on the boundary above
    level 0 or, by-pair, in the interior above K_ij raises ValueError.
    """
    a, b = gamma.a, gamma.b
    by_pair = layout == "by-pair"
    if by_pair:
        if btable is None:
            raise ValueError("by-pair layout requires a BTable")
        if (a, b) != (btable.a, btable.b):
            raise ValueError("matrix dimensions do not match the BTable")
        counts = {}
    elif layout == "by-level":
        nlevels = max(gamma.support_level() + 1, levels or 1)
        vec = [0] * (a + b + nlevels * a * b)
    else:
        raise ValueError(f"unknown layout {layout!r}")
    for k, i, j, v in gamma.entries:
        if i > a or j > b or not (i or j):
            raise ValueError(f"run {k, i, j, v} is outside the shape {a},{b}")
        if k and not (i and j):
            raise ValueError(f"boundary run {k, i, j, v} is above level 0")
        if by_pair:
            counts[k, i, j] = v
        elif i and j:
            vec[a + b + (k * a + i - 1) * b + j - 1] = v
        else:
            vec[i - 1 if i else a + j - 1] = v
    if not by_pair:
        return tuple(vec)
    vec = tuple(counts.pop(place, 0) for place in btable.entries)
    if counts:  # interior runs with no place: units above K_ij
        i, j, k = min((i, j, k) for k, i, j in counts)
        top = btable.k_max(i, j)
        raise ValueError(f"entry at level {k} exceeds K_{i}{j}={top}")
    return vec


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
    if layout == "by-pair":
        if len(vec) < len(btable):
            raise ValueError("vector too short for the BTable")
        if len(vec) > len(btable):
            raise ValueError("vector too long for the BTable")
        places = btable.entries
    else:
        nlevels, rest = divmod(len(vec) - a - b, a * b)
        if rest:
            raise ValueError("vector length does not fit the shape")
        places = [(0, i, 0) for i in range(1, a + 1)]
        places += [(0, 0, j) for j in range(1, b + 1)]
        places += [
            (k, i, j)
            for k in range(nlevels)
            for i in range(1, a + 1)
            for j in range(1, b + 1)
        ]
    return CubicalMatrix(
        a, b, [place + (v,) for place, v in zip(places, vec)]
    )
