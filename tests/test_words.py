import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from conftest import (
    col_margin,
    combinatorial_grid,
    from_levels,
    from_margin,
    in_A,
    row_margin,
    size,
)
import qstar
import qstar.words
from qstar.cubes import enumerate_Q
from qstar.tables import MarginMatrix, depth_first
from qstar.words import (
    ThreeWord,
    decode,
    encode,
    enumerate_A,
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
    for n_cols in range(max(sum(alpha), sum(beta)), n + 1):
        ti = [0, n_cols - sum(alpha)] + list(alpha)
        tj = [0, n_cols - sum(beta)] + list(beta)
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
            lo = max(sum(alpha), sum(beta))
            for n in (lo, 6):
                for m in range(5):
                    yield alpha, beta, n, m
    yield (1, 1, 1), (1, 1, 2), 6, 4
    yield (2, 1, 1), (1, 1, 1), 5, 4


def mk(*levels):
    return from_levels(levels)


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

    def test_decode_rejects_decreasing_levels(self):
        with pytest.raises(ValueError) as exc:
            decode(ThreeWord(((1, 2, 2), (0, 2, 2))))
        assert str(exc.value) == "condition 1 at t=1: s decreasing"

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

    @pytest.mark.parametrize("columns", [
        ((1, 2, 2), (0, 3, 3)),  # s decreasing: support would read 0
        ((-1, 2, 2),),  # negative level: support and weight would read -1
    ])
    def test_refuses_what_decode_refuses(self, columns):
        omega = ThreeWord(columns)
        with pytest.raises(ValueError) as expected:
            decode(omega)
        with pytest.raises(ValueError) as exc:
            word_stats(omega)
        assert str(exc.value) == str(expected.value) == validate_word(omega)

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

    def test_no_word_is_longer_than_the_margins(self):
        # a column with row-2 value 1 needs a row-3 value >= 2 (the corner
        # has no cell), so no word has more than |alpha|+|beta| columns;
        # the plain backtracker still walks every column count up to n
        for alpha, beta, n, m in combinatorial_grid():
            top = sum(alpha) + sum(beta)
            if n > top:
                got = enumerate_A(alpha, beta, n, m)
                assert got == enumerate_A(alpha, beta, top, m)
                assert got == unpruned_enumerate_A(alpha, beta, n, m)

    def test_transpose_has_as_many_words(self):
        # swapping rows 2 and 3 of each column, then sorting, maps
        # A(alpha, beta, n, m) onto A(beta, alpha, n, m); the walk cuts on
        # row-2 and on row-3 values owed, and must drop a word on neither
        for alpha, beta, n, m in combinatorial_grid():
            got = enumerate_A(alpha, beta, n, m)
            back = enumerate_A(beta, alpha, n, m)
            assert len(got) == len(back)
            assert sorted(ThreeWord(tuple(sorted(
                (s, j, i) for s, i, j in w.columns))) for w in got) == back

    @pytest.mark.parametrize("alpha, beta, n", [
        ((1,), (1,) * 12, 12), ((1,), (1,) * 8, 10), ((2,), (2,) * 6, 12),
    ])
    def test_wide_beta_walks_as_far_as_wide_alpha(self, monkeypatch, alpha,
                                                  beta, n):
        # a work count, not a time: the walk's nodes on a wide beta and on
        # its transpose; a column cut that carried its sums wrongly, or
        # none, walks several times as many on the wide beta
        count = 0

        def counted(node):
            def call(*args):
                nonlocal count
                count += 1
                return node(*args)
            return call

        monkeypatch.setattr(qstar.words, "depth_first",
                            lambda node, *root: depth_first(counted(node),
                                                            *root))
        wide_beta = len(enumerate_A(alpha, beta, n, 0)), count
        count = 0
        wide_alpha = len(enumerate_A(beta, alpha, n, 0)), count
        assert wide_beta[0] == wide_alpha[0]
        assert wide_beta[1] <= 1.25 * wide_alpha[1]

    def test_depth_does_not_grow_with_m(self):
        # one column, so one node, however many levels lie below it
        assert enumerate_A((1,), (1,), 1, 100000) == [
            ThreeWord(((100000, 2, 2),))
        ]
        assert len(enumerate_A((1,), (1,), 2, 3000)) == len(
            enumerate_Q((1,), (1,), 2, 3000)
        )

    def test_long_margins_under_a_low_recursion_limit(self):
        # 200 rows of one unit each, so each word uses 200 distinct
        # columns: a walk that recursed once per column would pass the
        # limit of 120 here
        code = ("import sys; sys.setrecursionlimit(120); "
                "from qstar.words import enumerate_A; "
                "print(len(enumerate_A((1,) * 200, (1,), 200, 0)))")
        src = Path(qstar.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "200\n", "")

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
