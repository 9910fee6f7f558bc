import pytest
from hypothesis import assume, given, strategies as st

from conftest import (
    col_margin,
    combinatorial_grid,
    from_margin,
    row_margin,
    size,
)
from qstar.cubes import CubicalMatrix, enumerate_Q
from qstar.tables import MarginMatrix, weight
from qstar.words import (
    ThreeWord,
    decode,
    encode,
    enumerate_A,
    in_A,
    row_type,
    validate_word,
    word_stats,
)


def unpruned_enumerate_A(alpha, beta, n, m):
    """enumerate_A before its feasibility cuts: the plain backtracker."""
    a, b = len(alpha), len(beta)
    candidates = sorted(
        (s, i, j)
        for s in range(m + 1)
        for i in range(1, a + 2)
        for j in range(1, b + 2)
        if not (i == j == 1) and not (s > 0 and (i == 1 or j == 1))
    )
    out = []
    for n_cols in range(max(weight(alpha), weight(beta)), n + 1):
        ti = [0, n_cols - weight(alpha)] + list(alpha)
        tj = [0, n_cols - weight(beta)] + list(beta)
        cols = []

        def rec(idx, wrem, rem):
            if rem == 0:
                if wrem == 0:
                    out.append(ThreeWord(tuple(cols)))
                return
            if idx == len(candidates):
                return
            s, i, j = candidates[idx]
            cap = min(ti[i], tj[j], rem)
            if s > 0:
                cap = min(cap, wrem // s)
            for c in range(cap + 1):
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


def three_entry_grid():
    """Specs with a three-entry margin, n <= 6, m <= 4, plus the two
    heaviest enum-A specs of the benchmark's enum-words workload."""
    margins = [(1,), (2, 1), (1, 0, 1), (1, 1, 1)]
    for alpha in margins:
        for beta in margins:
            if max(len(alpha), len(beta)) < 3:
                continue
            lo = max(weight(alpha), weight(beta))
            for n in (lo, 6):
                for m in range(5):
                    yield alpha, beta, n, m
    yield (1, 1, 1), (1, 1, 2), 6, 4
    yield (2, 1, 1), (1, 1, 1), 5, 4


def mk(*levels):
    return CubicalMatrix.from_levels(levels)


# Example 3Palabra: level-0 unit at (2,2), level-1 units at (1,1) and (1,2)
WORD_EXAMPLE = ThreeWord(((0, 3, 3), (1, 2, 2), (1, 2, 3)))
MATRIX_EXAMPLE = mk(
    [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    [[0, 0, 0], [0, 1, 1], [0, 0, 0]],
)


class TestRowType:
    def test_worked_word_example(self):
        w = ThreeWord(((0, 1, 2), (0, 2, 2), (1, 3, 3)))
        assert row_type(w, 1) == (1,)
        assert row_type(w, 2) == (1, 1, 1)
        assert row_type(w, 3) == (0, 2, 1)

    def test_empty_word(self):
        assert row_type(ThreeWord(()), 2) == ()

    def test_word_example_types(self):
        assert row_type(WORD_EXAMPLE, 2) == (0, 2, 1)
        assert row_type(WORD_EXAMPLE, 3) == (0, 1, 2)


class TestValidateWord:
    def test_example_is_valid(self):
        assert validate_word(WORD_EXAMPLE) is None

    def test_decreasing_levels(self):
        bad = ThreeWord(((1, 2, 2), (0, 3, 3)))
        assert "condition 1" in validate_word(bad)

    def test_decreasing_j(self):
        bad = ThreeWord(((0, 2, 3), (0, 2, 2)))
        assert "condition 4" in validate_word(bad)

    def test_zero_index(self):
        bad = ThreeWord(((0, 0, 2),))
        assert "condition 2" in validate_word(bad)


class TestInA:
    def test_example_membership(self):
        assert in_A(WORD_EXAMPLE, (2, 1), (1, 2), 3, 2) is None

    def test_wrong_weight(self):
        assert "condition (iii)" in in_A(WORD_EXAMPLE, (2, 1), (1, 2), 3, 1)

    def test_boundary_level(self):
        bad = ThreeWord(((1, 1, 2),))
        assert "condition (ii)" in in_A(bad, (1,), (1,), 1, 1)

    def test_diagonal_one(self):
        bad = ThreeWord(((0, 1, 1),))
        assert "condition (i)" in in_A(bad, (1,), (1,), 1, 0)


class TestCodec:
    def test_encode_example(self):
        assert encode(MATRIX_EXAMPLE) == WORD_EXAMPLE

    def test_encode_zero(self):
        assert encode(mk([[0, 0], [0, 0]])) == ThreeWord(())

    def test_encode_boundary_multiplicity(self):
        gamma = from_margin(MarginMatrix(((0, 2), (0, 0))))
        assert encode(gamma) == ThreeWord(((0, 1, 2), (0, 1, 2)))

    def test_decode_example(self):
        assert decode(WORD_EXAMPLE) == MATRIX_EXAMPLE

    def test_decode_empty(self):
        assert decode(ThreeWord(()), shape=(1, 1)) == mk([[0, 0], [0, 0]])

    def test_decode_rejects_bad_structure(self):
        with pytest.raises(ValueError):
            decode(ThreeWord(((1, 1, 2),)))

    @pytest.mark.parametrize("word", [
        ThreeWord(((0, 3, 3),)), ThreeWord(((0, 1, 3),)),
        ThreeWord(((0, 3, 1),)),
    ])
    def test_decode_rejects_index_outside_shape(self, word):
        with pytest.raises(ValueError):
            decode(word, shape=(1, 1))

    @given(st.sampled_from(list(combinatorial_grid(max_n=4, max_m=3))),
           st.data())
    def test_round_trip_over_Q(self, spec, data):
        alpha, beta, n, m = spec
        q_set = enumerate_Q(alpha, beta, n, m)
        assume(q_set)
        g = data.draw(st.sampled_from(q_set))
        assert decode(encode(g), shape=(len(alpha), len(beta))) == g

    def test_round_trip_worked_example(self):
        for m in range(3):
            for g in enumerate_Q((1, 1), (2, 1), 4, m):
                assert decode(encode(g), shape=(2, 2)) == g


class TestWordStats:
    def test_example(self):
        assert word_stats(WORD_EXAMPLE) == (3, 1, 2, (2, 1), (1, 2))

    def test_empty(self):
        assert word_stats(ThreeWord(())) == (0, 0, 0, (), ())

    def test_matches_matrix_statistics(self):
        for m in range(3):
            for g in enumerate_Q((1, 2), (2, 1), 4, m):
                n_cols, s, weight, alpha, beta = word_stats(encode(g))
                assert n_cols == size(g)
                assert s == g.support_level() or size(g) == 0
                assert weight == g.weight()
                assert alpha == tuple(
                    row_margin(g, i) for i in range(1, g.a + 1)
                )
                assert beta == tuple(
                    col_margin(g, j) for j in range(1, g.b + 1)
                )


class TestEnumerateA:
    def test_bijection_count(self):
        assert len(enumerate_A((1, 1), (2, 1), 4, 1)) == 10

    def test_minimal(self):
        assert enumerate_A((1,), (1,), 1, 0) == [ThreeWord(((0, 2, 2),))]

    def test_contains_example(self):
        assert WORD_EXAMPLE in enumerate_A((2, 1), (1, 2), 3, 2)

    def test_pruning_keeps_every_word_in_order(self):
        for alpha, beta, n, m in three_entry_grid():
            got = enumerate_A(alpha, beta, n, m)
            assert got == unpruned_enumerate_A(alpha, beta, n, m)
            assert set(got) == {
                encode(g) for g in enumerate_Q(alpha, beta, n, m)
            }

    def test_depth_does_not_grow_with_m(self):
        # one column, so one recursion, however many levels lie below it
        assert enumerate_A((1,), (1,), 1, 100000) == [
            ThreeWord(((100000, 2, 2),))
        ]
        assert len(enumerate_A((1,), (1,), 2, 3000)) == len(
            enumerate_Q((1,), (1,), 2, 3000)
        )

    def test_grid_bijection(self):
        for alpha, beta, n, m in combinatorial_grid(max_n=3, max_m=2):
            q_set = enumerate_Q(alpha, beta, n, m)
            words_set = enumerate_A(alpha, beta, n, m)
            encoded = {encode(g) for g in q_set}
            assert len(encoded) == len(q_set)  # injectivity
            assert set(words_set) == encoded
            for w in words_set:
                assert in_A(w, alpha, beta, n, m) is None
                back = decode(w, shape=(len(alpha), len(beta)))
                assert encode(back) == w
