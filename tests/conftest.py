"""Shared desk-scale grids and helpers for the test suite."""

import random
from contextlib import contextmanager

import qstar.oracle
from qstar.algebra import Monomial2
from qstar.cubes import CubicalMatrix, lift_all
from qstar.expansion import ETerm

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
        return original(
            (ETerm(t.hbar, 1, t.slots, t.origin) for t in terms), n
        )

    with monkeypatch.context() as patch:
        patch.setattr(qstar.oracle, "term_orbits", dropped)
        yield


def exact_lifts(alpha, beta, n, m, caps=None):
    """lift_all's lifts of weight exactly m, sorted; uncapped, Q(m).

    Sorted so that a comparison with enumerate_Q is one of multisets.
    """
    caps = caps or (lambda i, j: m)
    return sorted(
        g for g in lift_all(alpha, beta, n, m, caps) if g.weight() == m
    )


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
    return CubicalMatrix.from_levels((gamma.rows,))


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
    its own Random.  The star side's cost grows steeply with the grade
    K = max_ij min(deg_y p_i, deg_x q_j): one spec took 8 s at K = 2 and
    20 s at K = 3.  So each spec is redrawn until K <= 1, where a kernel
    coefficient deg_y p_i * deg_x q_j can still exceed 1.
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
                if max(min(pi.y, qj.x) for pi in p for qj in q) <= 1:
                    break
            yield alpha, beta, p, q, n
