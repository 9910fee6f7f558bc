"""Sorted 3-words and their bijection with cubical matrices.

A 3-word stores columns (s, i, j): one column per unit of Gamma^s_{i-1,j-1},
sorted lexicographically.  Row types recover the margins, the top row
recovers weight and support, so a word is a compact serial form of a
cubical matrix.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from .cubes import CubicalMatrix
from .tables import _check_margins, depth_first


class ThreeWord(NamedTuple):
    columns: tuple  # tuple of (s, i, j) triples


def row_type(omega: ThreeWord, c: int) -> tuple:
    """Occurrence counts (u_1..u_k) of values 1..k in row c."""
    values = [col[c - 1] for col in omega.columns]
    k = max(values, default=0)
    if k == 0:
        return ()
    counts = [0] * k
    for v in values:
        if v >= 1:
            counts[v - 1] += 1
    return tuple(counts)


def validate_word(omega: ThreeWord) -> str | None:
    """None when omega is a well-formed 3-word, else the first violation."""
    cols = omega.columns
    for t, (s, i, j) in enumerate(cols, start=1):
        if s < 0:
            return f"condition 1 at t={t}: negative level"
        if i <= 0 or j <= 0:
            return f"condition 2 at t={t}: row/column index must be positive"
    for t in range(len(cols) - 1):
        s1, i1, j1 = cols[t]
        s2, i2, j2 = cols[t + 1]
        if s1 > s2:
            return f"condition 1 at t={t + 1}: s decreasing"
        if s1 == s2 and i1 > i2:
            return f"condition 3 at t={t + 1}: i decreasing within equal s"
        if s1 == s2 and i1 == i2 and j1 > j2:
            return f"condition 4 at t={t + 1}: j decreasing within equal s,i"
    return None


def _cell_condition(s: int, i: int, j: int) -> str | None:
    """The column condition that (s, i, j) breaks, None if it has a cell.

    The one statement of the rule that a word's columns need a
    cubical-matrix cell: "(i)" when the column (s, 1, 1) would sit in the
    corner cell, which has no preimage; "(ii)" when s > 0 in row or
    column 1 would put a positive level on the boundary.
    """
    if i == j == 1:
        return "(i)"
    if s > 0 and (i == 1 or j == 1):
        return "(ii)"
    return None


def encode(gamma: CubicalMatrix) -> ThreeWord:
    """Word with column (k, i+1, j+1) repeated Gamma^k_ij times.

    The matrix's sorted runs are already in the word's lex order.
    """
    return ThreeWord(tuple(
        (k, i + 1, j + 1) for k, i, j, v in gamma.entries for _ in range(v)
    ))


def check_columns(omega: ThreeWord) -> None:
    """Raise ValueError unless omega passes validate_word, whose violation
    is the message, and every column has a cubical-matrix cell."""
    bad = validate_word(omega)
    if bad is not None:
        raise ValueError(bad)
    for t, col in enumerate(omega.columns, start=1):
        broken = _cell_condition(*col)
        if broken == "(i)":
            raise ValueError(f"column {t} is (s,1,1): no preimage")
        if broken:
            raise ValueError(f"column {t} puts a positive level on the boundary")


def decode(omega: ThreeWord, shape=None) -> CubicalMatrix:
    """Cubical matrix whose unit multiplicities match the word's columns.

    Dimensions are inferred from the largest row/column index unless an
    explicit (a, b) shape is given (needed to recover trailing zero
    margins).
    """
    check_columns(omega)
    if shape is not None:
        a, b = shape
        for t, (s, i, j) in enumerate(omega.columns, start=1):
            if i > a + 1 or j > b + 1:
                raise ValueError(
                    f"column {t} ({s},{i},{j}) does not fit the shape {a},{b}"
                )
    else:
        a = max((col[1] for col in omega.columns), default=1) - 1
        b = max((col[2] for col in omega.columns), default=1) - 1
        a, b = max(a, 1), max(b, 1)
    return CubicalMatrix(a, b, tuple(
        (s, i - 1, j - 1, len(list(units)))
        for (s, i, j), units in groupby(omega.columns)
    ))


def word_stats(omega: ThreeWord):
    """(N, support, weight, alpha, beta) read off the word directly.

    Raises ValueError, as decode does, on a word that validate_word
    refuses or with a column that has no matrix cell.
    """
    check_columns(omega)
    n_cols = len(omega.columns)
    s = omega.columns[-1][0] if omega.columns else 0
    m = sum(col[0] for col in omega.columns)
    alpha = row_type(omega, 2)[1:]
    beta = row_type(omega, 3)[1:]
    return n_cols, s, m, alpha, beta


def enumerate_A(alpha, beta, n, m) -> list[ThreeWord]:
    """Members of A(alpha, beta, n, m), generated as column multisets.

    Independent of the matrix enumerators, so that it can cross-check
    them: runs over candidate column values in lex order with residual
    type and weight budgets and calls neither tables.enumerate_L nor a
    walk over it (the fold behind cubes.lift_all and cubes.enumerate_Q, or
    the enumerate route's per-cell pieces in expansion.product_terms);
    it checks Q(m), and at m = 0 enumerate_L.  The walk runs under
    tables.depth_first, each node yielding its children's five carried
    numbers, so neither the column count nor m reaches the recursion
    limit.  Candidates come in lex order of (s, i, j), a spent row-2
    value's (s, i) group is stepped over at once, and the top level
    is m, so a branch ends once it cannot complete: the rem columns left
    cannot carry a weight of at least s*rem; a boundary count is unspent
    past its last candidate (value 1 is the boundary, taken only at level
    0, so tj[1] once s > 0 and ti[1] once i > 1); or at s = m a row-2
    value below i is unspent, or the row-3 units owed below j exceed the
    rem - ti[i] that the rows after i hold (those below are spent): rows
    and columns are cut alike.  Each cut reads carried numbers and holds
    for every later candidate too.  No word has more than |alpha|+|beta|
    columns: a column with row-2 value 1 needs a row-3 value >= 2, as the
    corner (s,1,1) has no cell, so the column count stops there, however
    large n is.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    alpha = tuple(alpha)
    beta = tuple(beta)
    _check_margins(alpha, beta, n)
    a, b = len(alpha), len(beta)
    candidates = [(s, i, j) for s in range(m + 1) for i in range(1, a + 2)
                  for j in range(1, b + 2) if _cell_condition(s, i, j) is None]
    out = []
    for n_cols in range(max(sum(alpha), sum(beta)),
                        min(n, sum(alpha) + sum(beta)) + 1):
        ti = [0, n_cols - sum(alpha), *alpha, 1]  # ti[v]: row-2 value v
        tj = [0, n_cols - sum(beta)] + list(beta)
        cols = []

        def node(idx: int, wrem: int, rem: int, low: int, owed: int):
            """Record a full word, or place each child and yield its args."""
            while not ti[low]:  # stops at the 1 appended at index a + 2
                low += 1  # now the least row-2 value >= 2 left unspent
            if rem == 0:
                if wrem == 0:
                    out.append(ThreeWord(tuple(cols)))
                return
            while idx < len(candidates):
                s, i, j = candidates[idx]
                ui, uj = ti[i], tj[j]
                if j <= 2:  # owed is sum(tj[1:j]), carried as j grows
                    owed = tj[1] if j == 2 else 0
                if (s * rem > wrem or (s > 0 and tj[1]) or (i > 1 and ti[1])
                        or (s == m and (low < i or owed > rem - ui))):
                    return  # every later candidate fails the same cut
                if not ui:  # step past the (s, i) group: it ends at b + 1
                    idx += b + 2 - j
                    continue
                cap = ui if ui < uj else uj  # cap <= ui <= rem: s*cap <= wrem
                for c in range(1, cap + 1):
                    ti[i] -= c
                    tj[j] -= c
                    cols.extend([(s, i, j)] * c)
                    yield idx + 1, wrem - s * c, rem - c, low, owed + uj - c
                    del cols[len(cols) - c:]
                    ti[i] += c
                    tj[j] += c
                owed += uj
                idx += 1

        depth_first(node, 0, m, n_cols, 2, 0)
    out.sort()
    return out
