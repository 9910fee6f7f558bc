import sys

import pytest
from hypothesis import given, strategies as st
from math import comb, factorial, perm

from qstar.algebra import (
    Monomial2,
    MonomialSyntaxError,
    ScaledMonomial,
    build_B,
    parse_monomial,
    render_monomial,
    star_pair,
)

X = Monomial2(1, 0)
Y = Monomial2(0, 1)

monomials = st.builds(
    Monomial2, st.integers(0, 6), st.integers(0, 6)
)


def M(x, y):
    return Monomial2(x, y)


class TestMonomial2:
    def test_fields_and_repr(self):
        m = M(1, 2)
        assert (m.x, m.y) == (1, 2)
        assert m.degree() == 3
        assert repr(m) == "Monomial2(x=1, y=2)"
        assert Monomial2() == M(0, 0)

    def test_order_is_x_then_y(self):
        monos = [M(x, y) for x in range(3) for y in range(3)]
        shuffled = monos[::-1]
        assert sorted(shuffled) == monos
        assert M(0, 5) < M(1, 0) < M(1, 1)

    def test_hash_and_equality(self):
        assert M(1, 2) == M(1, 2) and M(1, 2) != M(2, 1)
        assert hash(M(1, 2)) == hash((1, 2))
        assert len({M(1, 2), M(1, 2), M(2, 1)}) == 2

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            M(-1, 0)
        with pytest.raises(ValueError):
            M(0, -2)

    def test_product(self):
        assert M(1, 2) * M(3, 0) == M(4, 2)
        assert isinstance(M(1, 2) * M(3, 0), Monomial2)

    @pytest.mark.parametrize("op", [lambda m: m + m, lambda m: 3 * m])
    def test_tuple_arithmetic_refused(self, op):
        # a tuple would concatenate or repeat the exponents
        with pytest.raises(TypeError):
            op(M(1, 2))


class TestParse:
    def test_worked_input(self):
        assert parse_monomial("x^2y") == ScaledMonomial(1, M(2, 1))

    def test_constant(self):
        assert parse_monomial("1") == ScaledMonomial(1, M(0, 0))

    def test_with_coefficient(self):
        assert parse_monomial("3x^4") == ScaledMonomial(3, M(4, 0))

    def test_negative_coefficient(self):
        assert parse_monomial("-2y^3") == ScaledMonomial(-2, M(0, 3))

    def test_zero_coefficient_drops_the_monomial(self):
        assert ScaledMonomial(0, M(2, 3)) == ScaledMonomial(0)
        assert ScaledMonomial(0, M(2, 3)).mono == Monomial2()
        assert parse_monomial("0x^2y^3") == ScaledMonomial(0)
        assert parse_monomial("0x^2y^3").coeff == 0

    def test_empty_is_error(self):
        with pytest.raises(MonomialSyntaxError):
            parse_monomial("")

    def test_negative_exponent_is_error(self):
        with pytest.raises(MonomialSyntaxError) as exc:
            parse_monomial("x^-2")
        assert exc.value.offset == 2

    def test_trailing_junk_offset(self):
        with pytest.raises(MonomialSyntaxError) as exc:
            parse_monomial("x^2z")
        assert exc.value.offset == 3

    @pytest.mark.parametrize("text,offset", [
        ("x^\u00b2", 2), ("x^\u0661", 2), ("\u0663x", 0), ("2\u0663x", 1),
    ])
    def test_non_ascii_digit_offset(self, text, offset):
        # str.isdigit and int() take these; the grammar's digits are ASCII
        with pytest.raises(MonomialSyntaxError) as exc:
            parse_monomial(text)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("text,message,offset", [
        ("x^y", "expected digits", 2),
        ("y^", "expected digits", 2),
        ("xy^x", "expected digits", 3),
        ("2^3", "unexpected character '^'", 1),
        ("-^", "unexpected character '^'", 1),
        ("yx", "unexpected character 'x'", 1),
        ("x^2^3", "unexpected character '^'", 3),
        ("", "empty monomial", 0),
        ("+", "empty monomial", 0),
        ("\u0663x", "unexpected character '\u0663'", 0),
    ])
    def test_error_kind_and_offset(self, text, message, offset):
        with pytest.raises(MonomialSyntaxError) as exc:
            parse_monomial(text)
        assert str(exc.value) == f"{message} (at offset {offset})"
        assert exc.value.offset == offset

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="interpreter has no int-to-str digit limit",
    )
    @pytest.mark.parametrize("text", ["9" * 4301 + "z", "x^" + "9" * 4301 + "^"])
    def test_oversized_number_before_a_syntax_error(self, text):
        # the parts convert before the syntax is judged: int()'s own error
        with pytest.raises(ValueError) as exc:
            parse_monomial(text)
        assert not isinstance(exc.value, MonomialSyntaxError)

    @given(st.integers(-9, 9).filter(bool), st.integers(0, 9), st.integers(0, 9))
    def test_round_trip(self, c, x, y):
        sm = ScaledMonomial(c, Monomial2(x, y))
        assert parse_monomial(render_monomial(sm)) == sm


class TestStarPair:
    def test_worked_b_list_pair(self):
        # x^2y * x^3 contributes x^5y and 3x^4 to the B list
        assert star_pair(M(2, 1), M(3, 0)) == [
            (0, ScaledMonomial(1, M(5, 1))),
            (1, ScaledMonomial(3, M(4, 0))),
        ]

    def test_classical_only(self):
        assert star_pair(X, Y) == [(0, ScaledMonomial(1, M(1, 1)))]

    def test_y_star_x(self):
        assert star_pair(Y, X) == [
            (0, ScaledMonomial(1, M(1, 1))),
            (1, ScaledMonomial(1, M(0, 0))),
        ]

    def test_scaled_entry(self):
        assert dict(star_pair(M(2, 1), M(2, 2)))[1] == ScaledMonomial(2, M(3, 2))

    def test_k0_always_unit(self):
        assert dict(star_pair(X, Y))[0] == ScaledMonomial(1, M(1, 1))

    def test_beyond_range_is_absent(self):
        assert 2 not in dict(star_pair(M(2, 1), M(3, 0)))

    def test_recurrence_matches_comb_perm(self):
        # the kernel is built by c_{k+1} = c_k (d-k)(e-k)/(k+1)
        pairs = [(d, e) for d in range(41) for e in range(41)] + [(3000, 3000)]
        for d, e in pairs:
            coeffs = [term.coeff for _, term in star_pair(M(1, d), M(e, 2))]
            assert coeffs == [
                comb(d, k) * perm(e, k) for k in range(min(d, e) + 1)
            ], (d, e)

    @given(monomials, monomials)
    def test_length_and_leading_coeff(self, p, q):
        terms = star_pair(p, q)
        assert len(terms) == min(p.y, q.x) + 1
        assert terms[0][1].coeff == 1
        for k, term in terms:
            assert term.mono.degree() == p.degree() + q.degree() - 2 * k

    @given(monomials, monomials)
    def test_coefficient_identity(self, p, q):
        # independent evaluation: d! f! / (k! (d-k)! (f-k)!) * k!
        d, f = p.y, q.x
        for k, term in star_pair(p, q):
            expected = (
                factorial(d)
                // (factorial(k) * factorial(d - k))
                * (factorial(f) // factorial(f - k))
            )
            assert term.coeff == expected


class TestBuildB:
    def test_worked_table(self):
        p = (M(2, 1), M(3, 1))
        q = (M(3, 0), M(2, 2))
        table = build_B(p, q)
        entries = list(table.entries.values())
        assert [render_monomial(ScaledMonomial(1, e.mono)) for e in entries] == [
            "x^2y", "x^3y", "x^3", "x^2y^2", "x^5y", "x^4",
            "x^4y^3", "x^3y^2", "x^6y", "x^5", "x^5y^3", "x^4y^2",
        ]
        assert [e.coeff for e in entries] == [1, 1, 1, 1, 1, 3, 1, 2, 1, 3, 1, 2]
        assert len(table.entries) == 12  # l(B)

    def test_trivial(self):
        table = build_B((X,), (Y,))
        assert len(table.entries) == 3
        assert [e.mono for e in table.entries.values()] == [X, Y, M(1, 1)]
        assert all(e.coeff == 1 for e in table.entries.values())

    def test_two_term_pair(self):
        table = build_B((Y,), (X,))
        assert len(table.entries) == 4
        assert [e.mono for e in table.entries.values()] == [
            Y, X, M(1, 1), M(0, 0)
        ]

    def test_unit_entries_at_k0(self):
        table = build_B((M(2, 1), M(0, 2)), (M(1, 1), M(3, 0)))
        for i in range(1, 3):
            for j in range(1, 3):
                assert table.entries[(0, i, j)].coeff == 1

    def test_value_record(self):
        p, q = (M(2, 1), M(0, 2)), (M(1, 1), M(3, 0))
        table = build_B(p, q)
        assert table == build_B(list(p), list(q))
        assert table != build_B(q, p)
        assert list(table.columns) == list(table.entries)
        assert list(table.columns.values()) == list(range(len(table.entries)))
        with pytest.raises(TypeError):
            hash(table)


class TestBLength:
    """l(B), the flat length of B(p, q), is len(build_B(p, q).entries)."""

    def test_worked_example(self):
        table = build_B((M(2, 1), M(3, 1)), (M(3, 0), M(2, 2)))
        assert len(table.entries) == 12

    def test_trivial(self):
        assert len(build_B((X,), (Y,)).entries) == 3

    def test_formula(self):
        # a + b + sum of (min(d_i, f_j) + 1) = 2 + 2 + 4 * 2
        assert len(build_B((Y, M(1, 1)), (X, M(2, 0))).entries) == 12

    @given(
        st.lists(monomials, min_size=1, max_size=4),
        st.lists(monomials, min_size=1, max_size=4),
    )
    def test_matches_table_length(self, p, q):
        # a + b + sum of (min(deg_y p_i, deg_x q_j) + 1)
        assert len(build_B(p, q).entries) == len(p) + len(q) + sum(
            min(pi.y, qj.x) + 1 for pi in p for qj in q
        )
