"""Shared desk-scale grids and helpers for the test suite."""

import random
from contextlib import contextmanager
from math import ceil

import qstar.oracle
from qstar.algebra import Monomial2, build_B
from qstar.cubes import CubicalMatrix, contributing_support, lift_all, max_order
from qstar.expansion import gamma_to_eterm
from qstar.words import ThreeWord, _cell_condition, row_type, validate_word

# Multi-indices with up to two entries, each at most 2.
MULTI_INDICES = [
    (1,), (2,), (0, 1), (1, 1), (1, 2), (2, 1), (2, 2),
]

# Worked four-copy example inputs: alpha, beta, p, q, n.
WORKED = (
    (1, 1),
    (2, 1),
    (Monomial2(2, 1), Monomial2(3, 1)),
    (Monomial2(3, 0), Monomial2(2, 2)),
    4,
)


def combinatorial_grid(max_n=4, max_m=3):
    """(alpha, beta, n, m) points for exhaustive matrix/word checks."""
    for alpha in MULTI_INDICES:
        for beta in MULTI_INDICES:
            lo = max(sum(alpha), sum(beta), 1)
            for n in range(lo, max_n + 1):
                for m in range(max_m + 1):
                    yield alpha, beta, n, m


@contextmanager
def scalars_dropped(monkeypatch):
    """Inside the block verify reads every term's scalar as 1.

    The negative control: the identity must then fail whenever some
    kernel coefficient is not 1.
    """
    original = qstar.oracle.term_orbits

    def dropped(terms, n):
        return original((t._replace(scalar=1) for t in terms), n)

    with monkeypatch.context() as patch:
        patch.setattr(qstar.oracle, "term_orbits", dropped)
        yield


def lift_pairs(alpha, beta, p, q, n):
    """(term, matrix) for every capped matrix over L, by the lift route.

    The matrices and terms of star_product(..., path="lift"), each term
    next to the matrix that gamma_to_eterm read it from.
    """
    btable = build_B(p, q)
    m_bound = max_order(alpha, beta, n, contributing_support(p, q))
    return [(gamma_to_eterm(g, btable), g)
            for g in lift_all(alpha, beta, n, m_bound, btable.k_max)]


def exact_lifts(alpha, beta, n, m, caps=None):
    """lift_all's lifts of weight exactly m, sorted; uncapped, Q(m).

    Sorted so that a comparison with enumerate_Q is one of multisets.
    """
    caps = caps or (lambda i, j: m)
    return sorted(
        g for g in lift_all(alpha, beta, n, m, caps) if g.weight() == m
    )


def from_levels(levels) -> CubicalMatrix:
    """The matrix with dense levels Gamma^0..Gamma^s (row tuples)."""
    return CubicalMatrix(len(levels[0]) - 1, len(levels[0][0]) - 1, tuple(
        (k, i, j, v)
        for k, lvl in enumerate(levels)
        for i, row in enumerate(lvl)
        for j, v in enumerate(row)
    ))


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
    return ceil((len(build_B(p, q).entries) - (a + b)) / (a * b)) - 1


def in_A(omega: ThreeWord, alpha, beta, n, m) -> str | None:
    """Membership check for A(alpha, beta, n, m); None means ok."""
    alpha = tuple(alpha)
    beta = tuple(beta)
    bad = validate_word(omega)
    if bad is not None:
        return bad
    if len(omega.columns) > n:
        return f"word has {len(omega.columns)} columns, more than n={n}"
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
    want2 = (len(omega.columns) - sum(alpha),) + alpha
    want3 = (len(omega.columns) - sum(beta),) + beta
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


def size(gamma):
    """Units in a cubical matrix, boundary included."""
    return sum(v for _, _, _, v in gamma.entries)


def total(gamma):
    """Sum of every entry of a margin matrix."""
    return sum(sum(row) for row in gamma.rows)


def interior_sum(gamma):
    """Units of a margin matrix outside row 0 and column 0."""
    return sum(sum(row[1:]) for row in gamma.rows[1:])


def from_margin(gamma):
    """A margin matrix embedded as a single level-0 cubical matrix."""
    return from_levels((gamma.rows,))


def row_margin(gamma, i):
    """Row sum i of a margin matrix, or over all levels of a cubical one."""
    if isinstance(gamma, CubicalMatrix):
        return sum(v for _, ri, _, v in gamma.entries if ri == i)
    return sum(gamma.rows[i])


def col_margin(gamma, j):
    """Column sum j of a margin matrix, or over all levels of a cubical one."""
    if isinstance(gamma, CubicalMatrix):
        return sum(v for _, _, cj, v in gamma.entries if cj == j)
    return sum(row[j] for row in gamma.rows)


def interior_support_count(gamma):
    """Nonzero entries of a margin matrix outside row 0 and column 0."""
    return sum(1 for row in gamma.rows[1:] for v in row[1:] if v != 0)


def small_monomials(max_exp=2):
    return [
        Monomial2(x, y)
        for x in range(max_exp + 1)
        for y in range(max_exp + 1)
    ]


def oracle_grid():
    """(alpha, beta, p, q, n) specs for the exact oracle identity.

    Exhaustive over single-entry margins with exponents up to 2, plus a
    seeded sample of two-entry shapes with exponents up to 3, plus the
    the worked four-copy example.
    """
    monos = small_monomials(2)
    for alpha in [(1,), (2,)]:
        for beta in [(1,), (2,)]:
            n = max(sum(alpha), sum(beta))
            for p in monos:
                for q in monos:
                    yield alpha, beta, (p,), (q,), n

    rng = random.Random(20250823)
    shapes = [
        ((1, 1), (1,)), ((1,), (1, 1)), ((1, 1), (1, 1)),
        ((2, 1), (1, 1)), ((1, 1), (2, 1)), ((1, 2), (2, 1)),
    ]
    for alpha, beta in shapes:
        for _ in range(5):
            n = max(sum(alpha), sum(beta))
            n = rng.randint(n, 3) if n <= 3 else n
            p = tuple(
                Monomial2(rng.randint(0, 3), rng.randint(0, 3))
                for _ in alpha
            )
            q = tuple(
                Monomial2(rng.randint(0, 3), rng.randint(0, 3))
                for _ in beta
            )
            yield alpha, beta, p, q, n

    yield WORKED


def wide_margin_grid():
    """(alpha, beta, p, q, n) specs with two-entry margins of weight 3-4.

    Two seeded specs per pair of margins, n <= 6, exponents up to 3.  The
    orbit-basis verify checks these; oracle_grid stays the set the full
    polynomial route is timed on.
    """
    rng = random.Random(20261018)
    margins = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]
    for alpha in margins:
        for beta in margins:
            for _ in range(2):
                n = rng.randint(max(sum(alpha), sum(beta)), 6)
                p = tuple(
                    Monomial2(rng.randint(0, 3), rng.randint(0, 3))
                    for _ in alpha
                )
                q = tuple(
                    Monomial2(rng.randint(0, 3), rng.randint(0, 3))
                    for _ in beta
                )
                yield alpha, beta, p, q, n


def three_entry_grid():
    """(alpha, beta, p, q, n) specs with three-entry margins of weight 5-6.

    One seeded spec per pair of margins, n <= 7, exponents up to 3, with
    its own Random so that the specs of the other grids do not move.
    """
    rng = random.Random(20261019)
    margins = [(1, 1, 3), (1, 2, 2), (2, 2, 1), (1, 2, 3), (2, 2, 2)]
    for alpha in margins:
        for beta in margins:
            n = rng.randint(max(sum(alpha), sum(beta)), 7)
            p = tuple(
                Monomial2(rng.randint(0, 3), rng.randint(0, 3))
                for _ in alpha
            )
            q = tuple(
                Monomial2(rng.randint(0, 3), rng.randint(0, 3))
                for _ in beta
            )
            yield alpha, beta, p, q, n


def heavy_entry_grid():
    """(alpha, beta, p, q, n) specs with three-entry margins of weight 7-8.

    One seeded spec per pair of margins, n <= 9, exponents up to 3, with
    its own Random.  The cost grows steeply with the grade K = max_ij
    min(deg_y p_i, deg_x q_j), so each spec is redrawn until K <= 2: two
    verify calls and one star_product per spec took 7.1 s CPU over the
    grid, 3.9 s on its worst spec, against 2.1 s over the grid at K <= 1
    (Python 3.11, shared 2-core host).  With no cap (exponents stop at 3)
    one verify pass took 9.2 s, 7.0 s on one spec.
    """
    rng = random.Random(20261020)
    margins = [(1, 3, 3), (2, 2, 3), (2, 3, 3), (1, 3, 4)]
    for alpha in margins:
        for beta in margins:
            n = rng.randint(max(sum(alpha), sum(beta)), 9)
            while True:
                p = tuple(
                    Monomial2(rng.randint(0, 3), rng.randint(0, 3))
                    for _ in alpha
                )
                q = tuple(
                    Monomial2(rng.randint(0, 3), rng.randint(0, 3))
                    for _ in beta
                )
                if max(min(pi.y, qj.x) for pi in p for qj in q) <= 2:
                    break
            yield alpha, beta, p, q, n
