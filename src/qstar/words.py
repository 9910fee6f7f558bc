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
from .tables import _check_margins, weight


class ThreeWord(NamedTuple):
    columns: tuple  # tuple of (s, i, j) triples

    def __len__(self) -> int:
        return len(self.columns)

    def row(self, c: int) -> tuple:
        return tuple(col[c - 1] for col in self.columns)


def row_type(omega: ThreeWord, c: int) -> tuple:
    """Occurrence counts (u_1..u_k) of values 1..k in row c."""
    values = omega.row(c)
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


def in_A(omega: ThreeWord, alpha, beta, n, m) -> str | None:
    """Membership check for A(alpha, beta, n, m); None means ok."""
    alpha = tuple(alpha)
    beta = tuple(beta)
    bad = validate_word(omega)
    if bad is not None:
        return bad
    if len(omega) > n:
        return f"word has {len(omega)} columns, more than n={n}"
    for t, col in enumerate(omega.columns, start=1):
        broken = _cell_condition(*col)
        if broken == "(i)":
            return f"condition (i) at t={t}: column (s,1,1) has no preimage"
        if broken:
            return f"condition (ii) at t={t}: positive level on the boundary"
    total = sum(col[0] for col in omega.columns)
    if total != m:
        return f"condition (iii): level sum {total} != m={m}"
    a, b = len(alpha), len(beta)
    want2 = (len(omega) - weight(alpha),) + alpha
    want3 = (len(omega) - weight(beta),) + beta
    if want2[0] < 0 or want3[0] < 0:
        return "condition (iv): fewer columns than the margin weight"
    t2 = row_type(omega, 2)
    t3 = row_type(omega, 3)
    t2 = t2 + (0,) * (a + 1 - len(t2))
    t3 = t3 + (0,) * (b + 1 - len(t3))
    if len(t2) != a + 1 or t2 != want2:
        return f"condition (iv): type^2 {t2} != {want2}"
    if len(t3) != b + 1 or t3 != want3:
        return f"condition (iv): type^3 {t3} != {want3}"
    return None


def encode(gamma: CubicalMatrix) -> ThreeWord:
    """Word with column (k, i+1, j+1) repeated Gamma^k_ij times.

    The matrix's sorted runs are already in the word's lex order.
    """
    return ThreeWord(tuple(
        (k, i + 1, j + 1) for k, i, j, v in gamma.entries for _ in range(v)
    ))


def check_columns(omega: ThreeWord) -> None:
    """Raise ValueError unless every column has a cubical-matrix cell."""
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
    bad = validate_word(omega)
    if bad is not None:
        raise ValueError(bad)
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

    Raises ValueError, as decode does, on a column with no matrix cell.
    """
    check_columns(omega)
    n_cols = len(omega)
    s = omega.columns[-1][0] if omega.columns else 0
    m = sum(col[0] for col in omega.columns)
    alpha = row_type(omega, 2)[1:]
    beta = row_type(omega, 3)[1:]
    return n_cols, s, m, alpha, beta


def enumerate_A(alpha, beta, n, m) -> list[ThreeWord]:
    """Members of A(alpha, beta, n, m), generated as column multisets.

    Independent of the matrix enumerators, so that it can cross-check
    them: runs over candidate column values in lex order with residual
    type and weight budgets and does not call tables.level_stacks.
    Each recursion takes at least one column of a later candidate, so
    the depth is at most the column count, whatever m is.  Two cuts drop
    every branch that cannot complete.  Candidates come in order of
    level s and the top level is m, so the rem columns left must carry a
    weight in [s*rem, m*rem].  Boundary columns (row or column value 1)
    exist only at level 0, so once s > 0 their residual counts ti[1] and
    tj[1] must already be spent.  Both cuts then hold for every later
    candidate too, so they end the scan.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    alpha = tuple(alpha)
    beta = tuple(beta)
    _check_margins(alpha, beta, n)
    a, b = len(alpha), len(beta)
    candidates = [
        (s, i, j)
        for s in range(m + 1)
        for i in range(1, a + 2)
        for j in range(1, b + 2)
        if _cell_condition(s, i, j) is None
    ]
    out = []
    for n_cols in range(max(weight(alpha), weight(beta)), n + 1):
        ti = [0, n_cols - weight(alpha)] + list(alpha)  # ti[v]: row-2 value v
        tj = [0, n_cols - weight(beta)] + list(beta)
        cols = []

        def rec(start: int, wrem: int, rem: int):
            """Take c >= 1 columns of a candidate from start onwards."""
            if rem == 0:
                if wrem == 0:
                    out.append(ThreeWord(tuple(cols)))
                return
            if wrem > m * rem:
                return
            for idx in range(start, len(candidates)):
                s, i, j = candidates[idx]
                if s * rem > wrem or (s > 0 and (ti[1] or tj[1])):
                    return  # every later candidate fails the same cut
                cap = min(ti[i], tj[j], rem)
                if s > 0:
                    cap = min(cap, wrem // s)
                for c in range(1, cap + 1):
                    ti[i] -= c
                    tj[j] -= c
                    cols.extend([(s, i, j)] * c)
                    rec(idx + 1, wrem - s * c, rem - c)
                    del cols[len(cols) - c:]
                    ti[i] += c
                    tj[j] += c

        rec(0, m, n_cols)
    out.sort()
    return out
