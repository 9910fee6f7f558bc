import gc
import itertools
from itertools import chain, combinations_with_replacement, groupby

import pytest
from conftest import (
    col_margin,
    combinatorial_grid,
    exact_lifts,
    from_margin,
    interior_support_count,
    lift_pairs,
    row_margin,
    total,
)

from qstar.algebra import Monomial2, build_B
from qstar.cubes import CubicalMatrix, enumerate_Q
from qstar.expansion import ETerm, gamma_to_eterm, star_product
from qstar.oracle import expand_elementary, expand_terms
from qstar.tables import MarginMatrix, classical_product, enumerate_L
from qstar.words import enumerate_A

X = Monomial2(1, 0)
Y = Monomial2(0, 1)


def brute_force_L(alpha, beta, n):
    """Filter oracle: enumerate all small matrices and keep the valid ones.

    Candidates are drawn row by row from the rows of sum at most n; a row
    above n can never meet total <= n, and every defining condition is
    still checked on each candidate.
    """
    a, b = len(alpha), len(beta)
    rows_at_most_n = [
        row for row in itertools.product(range(n + 1), repeat=b + 1)
        if sum(row) <= n
    ]
    found = set()
    for rows in itertools.product(rows_at_most_n, repeat=a + 1):
        g = MarginMatrix(rows)
        if g.rows[0][0] != 0 or total(g) > n:
            continue
        if any(row_margin(g, i) != alpha[i - 1] for i in range(1, a + 1)):
            continue
        if any(col_margin(g, j) != beta[j - 1] for j in range(1, b + 1)):
            continue
        found.add(g)
    return found


class TestEnumerateL:
    def test_worked_count_seven(self):
        assert len(enumerate_L((1, 1), (2, 1), 4)) == 7

    def test_tight_slack(self):
        mats = enumerate_L((1,), (1,), 1)
        assert mats == [MarginMatrix(((0, 0), (0, 1)))]

    def test_two_classical_terms(self):
        assert len(enumerate_L((1,), (1,), 2)) == 2

    def test_margin_error(self):
        with pytest.raises(ValueError):
            enumerate_L((3,), (1,), 2)

    def test_defining_conditions(self):
        for g in enumerate_L((1, 2), (2, 1), 4):
            assert g.rows[0][0] == 0
            assert total(g) <= 4
            assert (row_margin(g, 1), row_margin(g, 2)) == (1, 2)
            assert (col_margin(g, 1), col_margin(g, 2)) == (2, 1)

    def test_canonical_order(self):
        mats = enumerate_L((1, 1), (2, 1), 4)
        assert mats == sorted(mats, key=lambda g: g.rows)

    @pytest.mark.parametrize("alpha", [(1,), (2,), (1, 1), (2, 1), (3, 2)])
    @pytest.mark.parametrize("beta", [(1,), (2,), (1, 2), (3,)])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_filter_oracle(self, alpha, beta, n):
        if sum(alpha) > n or sum(beta) > n:
            return
        assert set(enumerate_L(alpha, beta, n)) == brute_force_L(alpha, beta, n)


@pytest.mark.parametrize("walk, spec", [
    (enumerate_L, ((2, 1), (1, 2), 4)),
    (enumerate_A, ((2, 1), (1, 2), 4, 2)),
])
def test_walk_result_is_freed_without_the_gc(walk, spec):
    # a walk's node closure that kept itself would hold the result in a
    # cycle, alive after the caller drops it until a collection
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        walk(*spec)
        assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()


class TestCells:
    def test_two_line_array_over_grid(self):
        # m only varies the grid's lift depth, so each L is read once
        for alpha, beta, n in {spec[:3] for spec in combinatorial_grid()}:
            for g in enumerate_L(alpha, beta, n):
                cells = g.cells()
                assert cells == [
                    (i, j, g.rows[i][j])
                    for i in range(g.a + 1) for j in range(g.b + 1)
                    if g.rows[i][j]
                ]
                rows = [[0] * (g.b + 1) for _ in range(g.a + 1)]
                for i, j, v in cells:
                    rows[i][j] = v
                assert MarginMatrix(tuple(map(tuple, rows))) == g
                level0 = CubicalMatrix(
                    g.a, g.b, [(0, i, j, v) for i, j, v in cells]
                )
                assert level0 == from_margin(g)
                assert level0.smash() == g


class TestInteriorSupportCount:
    def test_lifting_example(self):
        gamma = MarginMatrix(((0, 0, 0), (0, 0, 2), (0, 1, 0)))
        assert interior_support_count(gamma) == 2

    def test_zero_interior(self):
        gamma = MarginMatrix(((0, 1, 1), (1, 0, 0), (2, 0, 0)))
        assert interior_support_count(gamma) == 0

    def test_worked_sum(self):
        total = sum(
            interior_support_count(g)
            for g in enumerate_L((1, 1), (2, 1), 4)
        )
        assert total == 10


class TestClassicalProduct:
    def test_single_term(self):
        terms = classical_product((1,), (X,), (1,), (Y,), 1)
        assert terms == [ETerm(0, 1, ((1, Monomial2(1, 1)),))]

    def test_two_terms(self):
        terms = classical_product((1,), (Y,), (1,), (X,), 2)
        expected = {
            ((1, Monomial2(1, 1)),),
            ((1, Y), (1, X)),
        }
        assert {t.slots for t in terms} == expected
        assert all(t.hbar == 0 and t.scalar == 1 for t in terms)

    def test_worked_count(self):
        p = (Monomial2(2, 1), Monomial2(3, 1))
        q = (Monomial2(3, 0), Monomial2(2, 2))
        assert len(classical_product((1, 1), p, (2, 1), q, 4)) == 7

    @pytest.mark.parametrize(
        "alpha,beta,p,q,n",
        [
            ((1,), (1,), (Y,), (X,), 2),
            ((1,), (2,), (Monomial2(1, 1),), (X,), 3),
            ((1, 1), (1,), (X, Y), (Monomial2(2, 1),), 3),
            ((2,), (1, 1), (Monomial2(0, 2),), (X, Y), 3),
        ],
    )
    def test_equals_polynomial_product(self, alpha, beta, p, q, n):
        lhs = expand_terms(classical_product(alpha, p, beta, q, n), n)
        rhs = expand_elementary(alpha, p, n) * expand_elementary(beta, q, n)
        assert lhs == rhs


def reference_level_stacks(alpha, beta, n, caps, budget, exact=False):
    """The level-stack walk before it took L from enumerate_L.

    One recursion over every interior cell that places each cell's units
    and levels together under a weight budget (exactly budget when exact),
    regrouping each cell's level multisets on every visit.  Yields the
    matrices as run lists.
    """
    a, b = len(alpha), len(beta)
    cells = [(i, j) for i in range(1, a + 1) for j in range(1, b + 1)]
    tops = [caps(i, j) for i, j in cells]
    min_units = sum(alpha) + sum(beta) - n
    ra = list(alpha)
    rb = list(beta)
    picks = [()] * len(cells)

    def walk(idx, wleft, units):
        if idx == len(cells):
            if units >= min_units and not (exact and wleft):
                runs = [(0, i, 0, v) for i, v in enumerate(ra, start=1)]
                runs += [(0, 0, j, v) for j, v in enumerate(rb, start=1)]
                runs += chain.from_iterable(picks)
                yield runs
            return
        i, j = cells[idx]
        choices = range(min(tops[idx], wleft) + 1)
        for t in range(min(ra[i - 1], rb[j - 1]) + 1):
            ra[i - 1] -= t
            rb[j - 1] -= t
            for combo in combinations_with_replacement(choices, t):
                w = sum(combo)
                if w <= wleft:
                    picks[idx] = [
                        (k, i, j, len(list(units_at_k)))
                        for k, units_at_k in groupby(combo)
                    ]
                    yield from walk(idx + 1, wleft - w, units + t)
            ra[i - 1] += t
            rb[j - 1] += t

    yield from walk(0, budget, 0)


def reference_stacks(alpha, beta, n, caps, m=None):
    """The reference's matrices, sorted, at weight at most or exactly m.

    Without m, as for the enumerate route, the reference runs at a budget
    that cannot bind, the top cap times the most interior units; with m,
    at exactly m.
    """
    a, b = len(alpha), len(beta)
    if m is None:
        top = max(caps(i, j) for i in range(1, a + 1) for j in range(1, b + 1))
        runs = reference_level_stacks(
            alpha, beta, n, caps, top * min(sum(alpha), sum(beta))
        )
    else:
        runs = reference_level_stacks(alpha, beta, n, caps, m, exact=True)
    return sorted(CubicalMatrix(a, b, r) for r in runs)


def cap_monomials(a, b):
    """(p, q) with every K_ij = min(p_i.y, q_j.x) at 0..3, then unequal."""
    for c in range(4):
        yield (Monomial2(0, c),) * a, (Monomial2(c, 0),) * b
    yield (tuple(Monomial2(i % 2, 3 * i % 4) for i in range(1, a + 1)),
           tuple(Monomial2((j + 1) % 4, j % 2) for j in range(1, b + 1)))


def route_stacks(alpha, beta, p, q, n):
    """The lift route's matrices and the enumerate route's terms, sorted."""
    return (sorted(g for _, g in lift_pairs(alpha, beta, p, q, n)),
            sorted(star_product(alpha, beta, p, q, n).terms()))


def stacks_and_terms(stacks, p, q):
    """The reference's matrices, sorted, and gamma_to_eterm's terms of them."""
    btable = build_B(p, q)
    return stacks, sorted(gamma_to_eterm(g, btable) for g in stacks)


class TestLevelStacks:
    # the walk order differs from the reference's, so multisets are
    # compared.  Not exact: every stack with levels up to K_ij and no
    # weight bound, the lift route's matrices, and the enumerate route's
    # terms against those of the reference's matrices; exact: the lifts
    # of weight exactly m, the slice of the fold that enumerate_Q keeps.
    @pytest.mark.parametrize("exact", [False, True])
    def test_matches_reference_walk(self, exact):
        specs = sorted({(a, b, n) for a, b, n, _ in combinatorial_grid()})
        cap_rules = [lambda i, j, c=c: c for c in range(4)]
        cap_rules.append(lambda i, j: (i + 2 * j) % 4)  # unequal caps
        for alpha, beta, n in specs:
            if not exact:
                for p, q in cap_monomials(len(alpha), len(beta)):
                    caps = build_B(p, q).k_max
                    assert route_stacks(alpha, beta, p, q, n) == (
                        stacks_and_terms(
                            reference_stacks(alpha, beta, n, caps), p, q)
                    ), (alpha, beta, p, q, n)
                continue
            for caps in cap_rules:
                for m in range(7):
                    args = (alpha, beta, n, caps, m)
                    assert exact_lifts(alpha, beta, n, m, caps) == (
                        reference_stacks(*args)
                    ), args

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("units,top,count,exact_count", [
        (1, 1500, 1 + 1501, 1),
        # C(302, 2) = 45,451 stacks of two units, with no weight budget
        (2, 300, 301 + 45_451, 1 + 151),
    ])
    def test_matches_reference_on_a_deep_cell(
        self, exact, units, top, count, exact_count,
    ):
        args = ((units,), (units,), units + 1, lambda i, j: top,
                top if exact else None)
        stacks = reference_stacks(*args)
        if exact:  # every cap is top = m
            got = sorted(enumerate_Q(*args[:3], top))
            assert got == stacks
        else:  # y^top * x^top: one cell with K = top
            p, q = (Monomial2(0, top),), (Monomial2(top, 0),)
            got, terms = route_stacks(*args[:2], p, q, args[2])
            assert (got, terms) == stacks_and_terms(stacks, p, q)
        assert len(got) == (exact_count if exact else count)
