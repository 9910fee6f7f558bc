"""Cubical matrices: enumeration, support, smash, lifting and vector codecs.

A cubical matrix Gamma is a finite stack of (a+1) x (b+1) levels, held as
its nonzero (k, i, j, v) runs.  Level 0 may use the boundary row and
column; higher levels are interior-only.  The weight sum_{i,j,k} k *
Gamma^k_ij is the power of h a term contributes, and the levelwise sum
(smash) lands back in the classical set L.  Levels are placed once
here: lift_all folds over given matrices' cells with the weight still
left, for the lift route of the star product, and enumerate_Q keeps the
fold's lifts of weight exactly m.  The enumerate route of the star
product assembles each term from per-cell pieces (product_terms), so it
and lift_all check each other; words.enumerate_A checks Q(m), and at
m = 0 the L that every walk takes from tables.enumerate_L.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement, groupby
from operator import itemgetter
from typing import NamedTuple

from .tables import MarginMatrix, _check_margins, enumerate_L


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


def _fold(gammas, m: int, caps):
    """(gamma, runs, weight left) for each lift of weight <= m of each gamma.

    A fold over gamma.cells(): from its boundary cells at level 0 with
    weight m left, over its interior cells (i, j), 1-based, row-major.
    Each partial takes, in order, every piece that fits its weight left
    (later units fit at level 0, so none is dropped): one (weight, runs)
    per multiset of the cell's levels in combinations_with_replacement
    over 0..min(m, caps(i, j)), built once per (i, j, units) and call.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")

    @cache
    def pieces(i: int, j: int, units: int) -> list:
        return [(w, [(k, i, j, len(list(run))) for k, run in groupby(combo)])
                for combo in combinations_with_replacement(
                    range(min(m, caps(i, j)) + 1), units)
                if (w := sum(combo)) <= m]

    for gamma in gammas:
        cells = gamma.cells()
        partial = [([(0, i, j, v) for i, j, v in cells if not (i and j)], m)]
        for i, j, units in cells:
            if i and j:
                partial = [(runs + piece, wleft - w)
                           for runs, wleft in partial
                           for w, piece in pieces(i, j, units)
                           if w <= wleft]
        yield from ((gamma, runs, wleft) for runs, wleft in partial)


def enumerate_Q(alpha, beta, n, m) -> list[CubicalMatrix]:
    """All cubical matrices in Q(alpha, beta, n, m), in to_vector order.

    The exact-weight slice of lift_all's fold over enumerate_L, every cap
    at m: the lifts with no weight left, so no matrix is built below m.
    Checked by words.enumerate_A, which shares no code with the fold, and
    by the tests' reference walk.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = [CubicalMatrix(gamma.a, gamma.b, runs) for gamma, runs, wleft
           in _fold(enumerate_L(alpha, beta, n), m, lambda i, j: m)
           if not wleft]
    out.sort(key=to_vector)
    return out


def lift_all(gammas, m: int, caps) -> list[CubicalMatrix]:
    """Every cubical matrix of weight <= m whose smash is one of gammas.

    The lifts _fold places, in fold order; caps takes 1-based (i, j).
    star_product passes L, which words.enumerate_A checks at m = 0.
    expansion.product_terms shares no code with the fold, so each checks
    the other.
    """
    return [CubicalMatrix(gamma.a, gamma.b, runs)
            for gamma, runs, _ in _fold(gammas, m, caps)]


def contributing_support(p, q) -> int:
    """Sharp support bound: the largest grade with a nonzero kernel entry.

    The paper's length-based bound S = ceil((l(B)-(a+b))/ab) - 1, kept as
    the tests' reference max_support (tests/conftest.py), averages the
    per-pair grades and can fall below max_ij min(deg_y p_i, deg_x q_j)
    when they are unequal, dropping genuine contributions; this bound is
    exact.
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
    return s_bound * min(sum(alpha), sum(beta))


def to_vector(gamma: CubicalMatrix, layout: str = "by-level",
              btable=None, levels: int | None = None) -> tuple:
    """Flatten a cubical matrix to an integer vector.

    by-level: boundary (column 0 then row 0) followed by the interior of
    each level row-major; `levels` pads with zero levels.  by-pair: the
    count at each place of btable.entries, in its flat order (boundary,
    then per (i, j) the levels k = 0..K_ij), each run written at its
    btable.columns index.  The first run outside the shape (the corner
    cell, a row or column past a or b) or on the boundary above level 0
    raises ValueError; by-pair, then the least (i, j, k) above K_ij does.
    """
    a, b = gamma.a, gamma.b
    if layout == "by-pair":
        if btable is None:
            raise ValueError("by-pair layout requires a BTable")
        if (a, b) != (btable.a, btable.b):
            raise ValueError("matrix dimensions do not match the BTable")
        columns = btable.columns
        vec = [0] * len(columns)
        try:
            for k, i, j, v in gamma.entries:
                vec[columns[k, i, j]] = v
        except KeyError:  # a run with no place in the table
            to_vector(gamma)  # raises if a run has no cell in the shape
            i, j, k = min((i, j, k) for k, i, j, _ in gamma.entries
                          if (k, i, j) not in columns)  # above K_ij
            raise ValueError(f"entry at level {k} exceeds K_{i}{j}="
                             f"{btable.k_max(i, j)}") from None
        return tuple(vec)
    if layout != "by-level":
        raise ValueError(f"unknown layout {layout!r}")
    nlevels = max(gamma.support_level() + 1, levels or 1)
    vec = [0] * (a + b + nlevels * a * b)
    for k, i, j, v in gamma.entries:
        if i and j and i <= a and j <= b:
            vec[a + b + (k * a + i - 1) * b + j - 1] = v
        elif i > a or j > b or not (i or j):
            raise ValueError(f"run {k, i, j, v} is outside the shape {a},{b}")
        elif k:
            raise ValueError(f"boundary run {k, i, j, v} is above level 0")
        else:
            vec[i - 1 if i else a + j - 1] = v
    return tuple(vec)


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
        if len(vec) < len(btable.entries):
            raise ValueError("vector too short for the BTable")
        if len(vec) > len(btable.entries):
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
