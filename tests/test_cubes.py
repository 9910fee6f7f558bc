import random

import pytest
from hypothesis import given, strategies as st

from conftest import (
    WORKED,
    col_margin,
    combinatorial_grid,
    exact_lifts,
    from_levels,
    from_margin,
    interior_sum,
    interior_support_count,
    max_support,
    row_margin,
    size,
)
from qstar.algebra import Monomial2, build_B
from qstar.cubes import (
    CubicalMatrix,
    enumerate_Q,
    from_vector,
    lift_all,
    max_order,
    to_vector,
)
from qstar.tables import MarginMatrix, enumerate_L
from qstar.words import encode

X = Monomial2(1, 0)
Y = Monomial2(0, 1)


def mk(*levels):
    return from_levels(levels)


@st.composite
def dense_levels(draw, a, b, top):
    """Dense levels of shape (a, b) whose interior cell (i, j) uses levels
    0..top(i, j); the boundary stays at level 0."""
    levels = [
        [[0] * (b + 1) for _ in range(a + 1)]
        for _ in range(1 + max(top(i, j) for i in range(1, a + 1)
                               for j in range(1, b + 1)))
    ]
    for i in range(a + 1):
        for j in range(b + 1):
            if (i, j) == (0, 0):
                continue
            for k in range(top(i, j) + 1 if i and j else 1):
                levels[k][i][j] = draw(st.integers(0, 3))
    return levels


def cubical_matrices(a, b, top):
    return dense_levels(a, b, top).map(from_levels)


@st.composite
def shaped_levels(draw):
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    top = draw(st.integers(0, 3))
    return draw(dense_levels(a, b, lambda i, j: top))


def shaped_matrices():
    return shaped_levels().map(from_levels)


@st.composite
def matrices_with_btable(draw):
    monomials = st.builds(Monomial2, st.integers(0, 3), st.integers(0, 3))
    p = draw(st.lists(monomials, min_size=1, max_size=3))
    q = draw(st.lists(monomials, min_size=1, max_size=3))
    btable = build_B(p, q)
    return draw(cubical_matrices(len(p), len(q), btable.k_max)), btable


def by_pair_walk(gamma, btable):
    """The by-pair vector by a walk over every place of btable.

    The reference for to_vector's O(runs) codec: one count per place, and
    the units left over, those above K_ij, named by their least (i, j, k).
    """
    counts = {(k, i, j): v for k, i, j, v in gamma.entries}
    vec = tuple(counts.pop(place, 0) for place in btable.entries)
    if counts:
        i, j, k = min((i, j, k) for k, i, j in counts)
        raise ValueError(
            f"entry at level {k} exceeds K_{i}{j}={btable.k_max(i, j)}")
    return vec


SEC2_CLASSICAL = mk([[0, 1, 0], [0, 1, 0], [0, 0, 1]])
SEC2_LIFTED = mk(
    [[0, 1, 0], [0, 1, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
)


class TestEnumerateQ:
    @pytest.mark.parametrize("m,count", [(0, 7), (1, 10), (2, 13)])
    def test_worked_counts(self, m, count):
        assert len(enumerate_Q((1, 1), (2, 1), 4, m)) == count

    def test_margin_error(self):
        with pytest.raises(ValueError):
            enumerate_Q((3,), (1,), 2, 0)

    def test_defining_conditions(self):
        for g in enumerate_Q((1, 2), (2, 1), 4, 2):
            for k, i, j, _ in g.entries:
                assert (i, j) != (0, 0)
                assert k == 0 or (i and j)
            assert size(g) <= 4
            assert g.weight() == 2
            assert (row_margin(g, 1), row_margin(g, 2)) == (1, 2)
            assert (col_margin(g, 1), col_margin(g, 2)) == (2, 1)

    def test_order_is_the_padded_vector_order(self):
        # sorted by the unpadded vector, a prefix of the one padded to
        # m + 1 levels whose next entries are zeros: the same order
        for alpha, beta, n, m in combinatorial_grid():
            got = enumerate_Q(alpha, beta, n, m)
            assert got == sorted(
                got, key=lambda g: to_vector(g, levels=m + 1))

    def test_deep_level_cap(self):
        # the recursion depth of the enumerator does not grow with the cap
        (g,) = enumerate_Q((1,), (1,), 1, 1500)
        assert g.weight() == 1500
        assert g.support_level() == 1500
        # stored as one run, not 1,501 levels
        assert g.entries == ((1500, 1, 1, 1),)
        assert encode(g).columns == ((1500, 2, 2),)


class TestEntries:
    @given(shaped_matrices(), st.randoms(use_true_random=False), st.data())
    def test_shuffled_runs_with_zeros(self, g, rng, data):
        zeros = data.draw(st.lists(st.tuples(
            st.integers(0, 3), st.integers(0, g.a), st.integers(0, g.b),
            st.just(0),
        )))
        runs = list(g.entries) + zeros
        rng.shuffle(runs)
        h = CubicalMatrix(g.a, g.b, runs)
        assert h == g
        assert hash(h) == hash(g)
        assert h.entries == g.entries

    def test_rejects_nonpositive_shape(self):
        for a, b in [(0, 1), (1, 0), (0, 0)]:
            with pytest.raises(ValueError):
                CubicalMatrix(a, b)

    @given(shaped_levels())
    def test_from_levels_round_trip(self, levels):
        g = from_levels(levels)
        # the by-level layout read straight off the dense levels
        flat = [row[0] for row in levels[0][1:]] + levels[0][0][1:]
        flat += [v for lvl in levels for row in lvl[1:] for v in row[1:]]
        assert to_vector(g, levels=len(levels)) == tuple(flat)
        assert from_vector(flat, shape=(g.a, g.b)) == g


class TestSupportLevel:
    def test_classical_is_support_zero(self):
        assert SEC2_CLASSICAL.support_level() == 0

    def test_lifted_is_support_one(self):
        assert SEC2_LIFTED.support_level() == 1

    def test_lift_has_stated_support(self):
        # a cap of s bounds every level, and the lifts reach each level <= s
        gamma = MarginMatrix(((0, 0, 0), (0, 0, 2), (0, 1, 0)))
        for s in (1, 2):
            lifted = lift_all([gamma], 4, lambda i, j: s)
            assert {g.support_level() for g in lifted} == set(range(s + 1))


class TestSmash:
    def test_smash_example(self):
        assert SEC2_LIFTED.smash() == MarginMatrix(
            ((0, 1, 0), (0, 1, 0), (0, 0, 1))
        )

    def test_single_level(self):
        assert SEC2_CLASSICAL.smash() == MarginMatrix(
            ((0, 1, 0), (0, 1, 0), (0, 0, 1))
        )

    def test_lands_in_L(self):
        classical = set(enumerate_L((1, 1), (2, 1), 4))
        for g in enumerate_Q((1, 1), (2, 1), 4, 1):
            assert g.smash() in classical


class TestLift:
    def test_lift_example(self):
        gamma = MarginMatrix(((0, 0, 0), (0, 0, 2), (0, 1, 0)))
        lifted = [g for g in lift_all([gamma], 1, lambda i, j: 1)
                  if g.weight() == 1]
        expected = {
            mk(
                [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
                [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            ),
            mk(
                [[0, 0, 0], [0, 0, 2], [0, 0, 0]],
                [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
            ),
        }
        assert set(lifted) == expected

    def test_identity_embedding(self):
        gamma = MarginMatrix(((0, 1, 0), (0, 1, 0), (0, 0, 1)))
        assert lift_all([gamma], 0, lambda i, j: 0) == [from_margin(gamma)]

    def test_nothing_to_raise(self):
        # an all-zero interior has no weight-1 lift, only its embedding
        gamma = MarginMatrix(((0, 1, 1), (1, 0, 0), (1, 0, 0)))
        assert lift_all([gamma], 1, lambda i, j: 1) == [from_margin(gamma)]

    @pytest.mark.parametrize("rows", [((0, 0), (0, 1)), ((0, 1), (1, 0))])
    def test_negative_m(self, rows):
        # with an interior unit to place and with none, whose level-0
        # embedding would have weight 0 > m
        with pytest.raises(ValueError, match="m must be nonnegative"):
            lift_all([MarginMatrix(rows)], -1, lambda i, j: 1)

    def test_caps_filter_the_uncapped_lift(self):
        tops = {(1, 1): 0, (1, 2): 2, (2, 1): 1, (2, 2): 3}

        def caps(i, j):
            return tops[i, j]

        def capped(gammas):
            return [
                g for g in gammas
                if all(k <= tops[i, j] for k, i, j, _ in g.entries if i and j)
            ]

        for gamma in enumerate_L((1, 2), (2, 1), 4):
            for m in range(6):
                uncapped = lift_all([gamma], m, lambda i, j: m)
                assert lift_all([gamma], m, caps) == capped(uncapped)
        for m in range(6):
            assert exact_lifts((2, 2), (1, 2), 4, m, caps) == sorted(capped(
                enumerate_Q((2, 2), (1, 2), 4, m)
            ))

    def test_lift_then_smash(self):
        for gamma in enumerate_L((1, 2), (2, 1), 4):
            for top in range(3):
                for m in range(4):
                    lifted = lift_all([gamma], m, lambda i, j: top)
                    assert len(set(lifted)) == len(lifted)
                    for g in lifted:
                        assert g.smash() == gamma
                        assert g.support_level() <= min(top, m)
                        assert g.weight() <= m
        # one 3-unit cell, so the weight left cuts its level multisets
        gamma = MarginMatrix(((0, 1), (2, 3)))
        for top in range(4):
            full = sorted(lift_all([gamma], 3 * top, lambda i, j: top))
            for m in range(5):
                assert sorted(lift_all([gamma], m, lambda i, j: top)) == [
                    g for g in full if g.weight() <= m
                ]

    def test_thousand_cells(self):
        # one unit on each cell of a 1000 x 1000 diagonal: a walk that
        # recursed once per cell would hit the recursion limit here
        rows = [[0] * 1001 for _ in range(1001)]
        for i in range(1, 1001):
            rows[i][i] = 1
        gamma = MarginMatrix(tuple(map(tuple, rows)))
        assert lift_all([gamma], 0, lambda i, j: 0) == [from_margin(gamma)]


class TestLevelSplits:
    """How lift_all spreads one cell's units over its levels."""

    def test_deep_single_cell(self):
        # one level per recursion used to exhaust the stack near 1000
        gamma = MarginMatrix(((0, 0), (0, 1)))
        lifted = lift_all([gamma], 1200, lambda i, j: 1200)
        assert len(lifted) == 1201
        assert [g for g in lifted if g.weight() == 1200] == [
            CubicalMatrix(1, 1, ((1200, 1, 1, 1),))
        ]


class TestLiftAll:
    def test_matches_enumerate_m1(self):
        assert exact_lifts((1, 1), (2, 1), 4, 1) == sorted(
            enumerate_Q((1, 1), (2, 1), 4, 1)
        )

    def test_m0_is_level0_embedding(self):
        got = lift_all(enumerate_L((1, 1), (2, 1), 4), 0, lambda i, j: 0)
        expected = [from_margin(g) for g in enumerate_L((1, 1), (2, 1), 4)]
        assert sorted(got) == sorted(expected)

    def test_negative_m(self):
        with pytest.raises(ValueError, match="m must be nonnegative"):
            lift_all(enumerate_L((1,), (1,), 1), -1, lambda i, j: 1)

    def test_single_cell_high_level(self):
        got = exact_lifts((1,), (1,), 1, 3)
        assert got == [
            mk([[0, 0], [0, 0]], [[0, 0], [0, 0]],
               [[0, 0], [0, 0]], [[0, 0], [0, 1]])
        ]

    def test_weight_window_is_the_union_of_exact_weights(self):
        # one pass keeps every lift of weight <= budget: the capped union
        # of Q(m) over m <= budget
        tops = {(1, 1): 0, (1, 2): 2, (2, 1): 1, (2, 2): 3}

        def caps(i, j):
            return tops[i, j]

        for alpha, beta, n, budget in combinatorial_grid():
            for cap in (lambda i, j: budget, caps):
                union = [
                    g for m in range(budget + 1)
                    for g in enumerate_Q(alpha, beta, n, m)
                    if all(k <= cap(i, j) for k, i, j, _ in g.entries
                           if i and j)
                ]
                assert sorted(
                    lift_all(enumerate_L(alpha, beta, n), budget, cap)
                ) == sorted(union), (alpha, beta, n, budget)


class TestBounds:
    def test_worked_support(self):
        assert max_support(*WORKED[2:4]) == 1

    def test_classical_inputs(self):
        assert max_support((X, Y), (Y, Monomial2(0, 2))) == 0

    def test_single_pair(self):
        assert max_support((Y,), (X,)) == 1

    def test_worked_order(self):
        assert max_order((1, 1), (2, 1), 4, 1) == 2

    def test_zero_support(self):
        assert max_order((1, 1), (2, 1), 4, 0) == 0

    def test_single_interior_cell(self):
        assert max_order((1,), (1,), 2, 1) == 1

    def test_order_matches_largest_interior_sum(self):
        for alpha, beta, n, s in combinatorial_grid():
            reference = s * max(
                interior_sum(g) for g in enumerate_L(alpha, beta, n)
            )
            assert max_order(alpha, beta, n, s) == reference

    def test_order_checks_margins(self):
        with pytest.raises(ValueError):
            max_order((3,), (1,), 2, 1)


class TestVectorCodec:
    def test_worked_h0_vector(self):
        assert to_vector(SEC2_CLASSICAL, levels=2) == (
            0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0
        )

    def test_worked_h1_vector(self):
        assert to_vector(SEC2_LIFTED) == (
            0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1
        )

    def test_zero_matrix(self):
        zero = mk([[0, 0], [0, 0]])
        assert to_vector(zero) == (0, 0, 0)
        btable = build_B((Y,), (X,))
        assert to_vector(zero, layout="by-pair", btable=btable) == (0, 0, 0, 0)

    def test_by_pair_rejects_overflow(self):
        # unit above the pair's top grade cannot align with the B table
        g = mk([[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 1]])
        btable = build_B((Y,), (X,))
        with pytest.raises(ValueError):
            to_vector(g, layout="by-pair", btable=btable)

    @pytest.mark.parametrize("runs,message", [
        (((0, 0, 0, 1),), r"run \(0, 0, 0, 1\) is outside the shape 1,1"),
        (((1, 0, 1, 2),), r"boundary run \(1, 0, 1, 2\) is above level 0"),
        (((2, 1, 1, 1), (3, 1, 1, 1)), "entry at level 2 exceeds K_11=1"),
    ])
    def test_by_pair_error_messages(self, runs, message):
        btable = build_B((Y,), (X,))
        with pytest.raises(ValueError, match=message):
            to_vector(CubicalMatrix(1, 1, runs), "by-pair", btable)

    def test_by_pair_names_the_least_cell_above_its_grade(self):
        # the runs sort level first, (2, 1, 2) before (3, 1, 1); the error
        # names the least (i, j, k), in cell (1, 1)
        btable = build_B((Y,), (X, X))
        g = CubicalMatrix(1, 2, ((2, 1, 2, 1), (3, 1, 1, 1)))
        with pytest.raises(ValueError) as err:
            to_vector(g, "by-pair", btable)
        assert str(err.value) == "entry at level 3 exceeds K_11=1"

    def test_by_pair_names_a_run_outside_the_shape_first(self):
        # whatever their order, a run with no cell beats a unit above K_ij
        btable = build_B((Y,), (X,))
        g = CubicalMatrix(1, 1, ((2, 1, 1, 1), (3, 1, 2, 1)))
        with pytest.raises(ValueError) as err:
            to_vector(g, "by-pair", btable)
        assert str(err.value) == "run (3, 1, 2, 1) is outside the shape 1,1"

    def test_by_pair_matches_the_per_place_walk(self):
        # seeded monomials, so that some matrices have units above K_ij
        def outcome(write):
            try:
                return write()
            except ValueError as exc:
                return str(exc)

        rng = random.Random(20261020)
        written = 0
        for alpha, beta, n, m in combinatorial_grid():
            p, q = ([Monomial2(rng.randint(0, 3), rng.randint(0, 3))
                     for _ in margin] for margin in (alpha, beta))
            btable = build_B(p, q)
            for g in enumerate_Q(alpha, beta, n, m):
                vec = outcome(lambda: by_pair_walk(g, btable))
                assert outcome(lambda: to_vector(g, "by-pair", btable)) == vec
                if isinstance(vec, tuple):
                    assert from_vector(vec, "by-pair", btable=btable) == g
                    written += 1
        assert written == 749  # of 1,985 matrices; the rest raise

    def test_by_pair_rejects_a_table_of_another_shape(self):
        # the table's layout would place the runs of another shape wrongly
        g = mk([[0, 1], [1, 0]])
        btable = build_B((Y, Y), (X,))
        with pytest.raises(ValueError, match="dimensions do not match"):
            to_vector(g, layout="by-pair", btable=btable)

    def test_round_trips(self):
        btable = build_B(WORKED[2], WORKED[3])
        for m in range(3):
            for g in enumerate_Q((1, 1), (2, 1), 4, m):
                vec = to_vector(g)
                assert from_vector(vec, shape=(2, 2)) == g
                if g.support_level() <= 1:
                    vec2 = to_vector(g, layout="by-pair", btable=btable)
                    assert from_vector(vec2, layout="by-pair", btable=btable) == g

    @given(shaped_matrices(), st.integers(0, 3))
    def test_by_level_round_trip(self, g, extra):
        assert from_vector(to_vector(g), shape=(g.a, g.b)) == g
        levels = g.support_level() + 1 + extra
        vec = to_vector(g, levels=levels)
        assert len(vec) == g.a + g.b + levels * g.a * g.b
        assert from_vector(vec, shape=(g.a, g.b)) == g
        # padding never truncates
        assert to_vector(g, levels=1) == to_vector(g)

    @given(matrices_with_btable())
    def test_by_pair_round_trip(self, case):
        g, btable = case
        vec = to_vector(g, layout="by-pair", btable=btable)
        assert len(vec) == len(btable.entries)
        assert from_vector(vec, layout="by-pair", btable=btable) == g

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            from_vector((0, 0, 1, 0, 1), shape=(2, 2))

    @pytest.mark.parametrize(
        "vec,shape",
        [((), (1, 1)), ((1,), (1, 1)), ((0, 0, 1), (2, 2)),
         ((1, 2, 3), (0, 1)), ((1, 2, 3), (1, 0))],
    )
    def test_rejects_short_vector_or_nonpositive_shape(self, vec, shape):
        with pytest.raises(ValueError):
            from_vector(vec, shape=shape)


    @pytest.mark.parametrize("layout", ["by-level", "by-pair"])
    @pytest.mark.parametrize(
        "runs",
        [((0, 0, 0, 1),), ((1, 0, 1, 2),), ((2, 1, 0, 1),),
         ((0, 2, 0, 1),), ((0, 1, 2, 1),), ((1, 1, 2, 1),)],
    )
    def test_rejects_runs_outside_the_shape(self, runs, layout):
        # corner cell, boundary above level 0, row or column past a or b
        g = CubicalMatrix(1, 1, runs)
        btable = build_B((Monomial2(0, 2),), (Monomial2(2, 0),))
        with pytest.raises(ValueError):
            to_vector(g, layout=layout, btable=btable)


class TestGridProperties:
    def test_partition_and_counting(self):
        for alpha, beta, n, m in combinatorial_grid():
            q_set = enumerate_Q(alpha, beta, n, m)
            # disjoint union over supports 0..m
            by_support = {}
            for g in q_set:
                by_support.setdefault(g.support_level(), []).append(g)
            assert all(0 <= s <= m for s in by_support)
            assert sum(len(v) for v in by_support.values()) == len(q_set)
            # lift route gives the same multiset
            assert exact_lifts(alpha, beta, n, m) == sorted(q_set)
            if m >= 1:
                # positive weight needs a raised interior unit, so matrices
                # whose interior is all zero are unreachable
                smashes = {g.smash() for g in q_set}
                expected = {
                    g
                    for g in enumerate_L(alpha, beta, n)
                    if interior_sum(g) >= 1
                }
                assert smashes == expected
            if m == 1:
                expected = sum(
                    interior_support_count(g)
                    for g in enumerate_L(alpha, beta, n)
                )
                assert len(q_set) == expected
