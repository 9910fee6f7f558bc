import json
import random
from itertools import chain

import pytest

import qstar.cubes
from conftest import WORKED, oracle_grid, wide_margin_grid
from qstar.algebra import Monomial2, ScaledMonomial, build_B, render_monomial
from qstar.cli import _unlimited_int_digits, main
from qstar.cubes import CubicalMatrix, enumerate_Q
from qstar.expansion import (
    ETerm,
    canonical_slots,
    gamma_to_eterm,
    render,
    star_product,
)
from qstar.tables import classical_product

X = Monomial2(1, 0)
Y = Monomial2(0, 1)


def mk(*levels):
    return CubicalMatrix.from_levels(levels)


def reference_canonical_slots(slots):
    """The slot order as a key sort: total degree, x, y, multiplicity."""
    return tuple(
        sorted(slots, key=lambda s: ((s[1].degree(), s[1].x, s[1].y), s[0]))
    )


class TestCanonicalSlots:
    def test_matches_key_sort(self):
        rng = random.Random(11)
        monos = [Monomial2(x, y) for x in range(4) for y in range(4)]
        for _ in range(500):
            pool = rng.sample(monos, rng.randint(1, 4))  # forces repeats
            slots = [
                (rng.randint(1, 3), rng.choice(pool))
                for _ in range(rng.randint(0, 9))
            ]
            assert canonical_slots(slots) == reference_canonical_slots(slots)

    def test_equal_monomials_stay_separate(self):
        slots = [(2, X), (1, Y), (1, X)]
        assert canonical_slots(slots) == ((1, Y), (1, X), (2, X))


class TestGammaToETerm:
    def test_scaled_term(self):
        btable = build_B(WORKED[2], WORKED[3])
        gamma = mk(
            [[0, 1, 0], [0, 1, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        )
        term = gamma_to_eterm(gamma, btable)
        assert term.hbar == 1
        assert term.scalar == 2
        assert term.slots == (
            (1, Monomial2(3, 0)),
            (1, Monomial2(4, 2)),
            (1, Monomial2(5, 1)),
        )
        # origin is carried but left out of equality, hash and repr
        assert term.origin is gamma
        bare = ETerm(1, 2, term.slots)
        assert term == bare and hash(term) == hash(bare)
        assert repr(term) == repr(bare) == (
            "ETerm(hbar=1, scalar=2, slots=((1, Monomial2(x=3, y=0)), "
            "(1, Monomial2(x=4, y=2)), (1, Monomial2(x=5, y=1))))"
        )
        assert term != ETerm(1, 3, term.slots)
        assert term != (1, 2, term.slots)

    def test_classical_term_unit_scalar(self):
        btable = build_B(WORKED[2], WORKED[3])
        gamma = mk([[0, 1, 0], [0, 1, 0], [0, 0, 1]])
        term = gamma_to_eterm(gamma, btable)
        assert term.hbar == 0
        assert term.scalar == 1

    def test_overflow_level_vanishes(self):
        btable = build_B(WORKED[2], WORKED[3])  # every K_ij is 1
        gamma = mk(
            [[0, 1, 0], [0, 1, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        )
        assert gamma_to_eterm(gamma, btable) is None

    def test_dimension_mismatch(self):
        btable = build_B((Y,), (X,))
        gamma = mk([[0, 1, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            gamma_to_eterm(gamma, btable)

    @pytest.mark.parametrize("run", [
        (0, 0, 0, 1),  # the corner cell
        (1, 0, 1, 1),  # the boundary above level 0
        (0, 2, 0, 1),  # a row past a
    ])
    def test_run_outside_the_shape(self, run):
        btable = build_B((X,), (Y,))
        with pytest.raises(ValueError, match="is outside the shape 1,1"):
            gamma_to_eterm(CubicalMatrix(1, 1, (run,)), btable)


class TestStarProduct:
    def test_noncommuting_pair(self):
        exp = star_product((1,), (1,), (Y,), (X,), 1)
        assert exp.canonical() == [
            (0, 1, ((1, Monomial2(1, 1)),)),
            (1, 1, ((1, Monomial2(0, 0)),)),
        ]

    def test_commuting_pair(self):
        exp = star_product((1,), (1,), (X,), (Y,), 1)
        assert exp.term_counts() == {0: 1}
        assert exp.s_bound == 0

    def test_worked_counts(self):
        exp = star_product(*WORKED)
        assert exp.term_counts() == {0: 7, 1: 10, 2: 3}
        assert (exp.s_bound, exp.m_bound) == (1, 2)

    def test_path_equivalence(self):
        for spec in [
            ((1,), (1,), (Y,), (X,), 2),
            ((1, 1), (1,), (Monomial2(1, 1), Y), (Monomial2(2, 1),), 3),
            WORKED,
        ]:
            a = star_product(*spec, path="enumerate")
            b = star_product(*spec, path="lift")
            assert a.canonical() == b.canonical()
        # the routes visit matrices in different orders; the rendered
        # bytes must not show it
        for spec in chain(oracle_grid(), wide_margin_grid()):
            a = star_product(*spec, path="enumerate")
            b = star_product(*spec, path="lift")
            for fmt in ("text", "json"):
                assert render(a, fmt) == render(b, fmt), (spec, fmt)

    def test_lift_path_enumerates_L_once(self, monkeypatch):
        # one lift_all call up to M, where each m used to enumerate L anew;
        # the levels are placed without tables.level_stacks
        calls = []
        original = qstar.cubes.enumerate_L

        def counted(*args):
            calls.append(args)
            return original(*args)

        def refused(*args, **kwargs):
            raise AssertionError("the lift path called level_stacks")

        monkeypatch.setattr(qstar.cubes, "enumerate_L", counted)
        monkeypatch.setattr(qstar.cubes, "level_stacks", refused)
        exp = star_product(*WORKED, path="lift")
        assert exp.m_bound == 2
        assert calls == [((1, 1), (2, 1), 4)]
        monkeypatch.undo()
        assert exp.canonical() == star_product(*WORKED).canonical()

    def test_deep_single_cell_on_both_paths(self, capsys):
        # y^K * x^K: one cell with K = M, which the lift path used to walk
        # once per (m, s) pair
        K = 1000
        spec = ((1,), (1,), (Monomial2(0, K),), (Monomial2(K, 0),), 1)
        lifted = star_product(*spec, path="lift")
        assert lifted.canonical() == star_product(*spec).canonical()
        assert len(lifted.canonical()) == K + 1
        code = main([
            "star", "--alpha", "1", "--beta", "1", "--p", f"y^{K}",
            "--q", f"x^{K}", "--n", "1", "--path", "both",
        ])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out.count(" + ") == K

    def test_classical_slice(self):
        alpha, beta, p, q, n = WORKED
        exp = star_product(alpha, beta, p, q, n)
        classical = classical_product(alpha, p, beta, q, n)
        assert sorted(
            (t.scalar, t.slots) for t in exp.order_slice(0)
        ) == sorted((t.scalar, t.slots) for t in classical)

    def test_truncation_soundness(self):
        # raw sweep without the S/M bounds reproduces the truncated result
        from qstar.expansion import gamma_to_eterm as to_term

        alpha, beta, p, q, n = WORKED
        exp = star_product(alpha, beta, p, q, n)
        btable = build_B(p, q)
        raw = []
        for m in range(exp.m_bound + 4):
            for g in enumerate_Q(alpha, beta, n, m):
                term = to_term(g, btable)
                if term is not None:
                    raw.append((term.hbar, term.scalar, term.slots))
        assert sorted(raw) == exp.canonical()

    def test_margin_error(self):
        with pytest.raises(ValueError):
            star_product((3,), (1,), (X,), (Y,), 2)


class TestRender:
    def test_text_golden(self):
        exp = star_product((1,), (1,), (Y,), (X,), 1)
        assert render(exp, "text") == "e_(1)(xy) + e_(1)(1) h"

    def test_empty(self):
        exp = star_product((1,), (1,), (X,), (Y,), 1)
        no_terms = type(exp)(
            exp.alpha, exp.beta, exp.p, exp.q, exp.n,
            exp.s_bound, exp.m_bound, {},
        )
        assert render(no_terms, "text") == ""

    def test_json_schema(self):
        exp = star_product(*WORKED)
        doc = json.loads(render(exp, "json"))
        assert set(doc) == {"params", "bounds", "terms"}
        assert doc["params"] == {
            "alpha": [1, 1],
            "beta": [2, 1],
            "p": ["x^2y", "x^3y"],
            "q": ["x^3", "x^2y^2"],
            "n": 4,
        }
        assert doc["bounds"] == {"S": 1, "M": 2}
        assert len(doc["terms"]) == 20
        for term in doc["terms"]:
            assert set(term) == {"m", "scalar", "slots"}
            for slot in term["slots"]:
                assert set(slot) == {"mult", "monomial"}
                assert set(slot["monomial"]) == {"x", "y"}

    def test_scalar_and_power_rendering(self):
        term = ETerm(
            2, 3, canonical_slots([(1, Monomial2(2, 0)), (2, Monomial2(0, 0))])
        )
        exp = star_product((1,), (1,), (Y,), (X,), 1)
        styled = type(exp)(
            exp.alpha, exp.beta, exp.p, exp.q, exp.n,
            exp.s_bound, exp.m_bound, {2: [term]},
        )
        assert render(styled, "text") == "3 e_(2,1)(1,x^2) h^2"


def _monomial_text(mono):
    return render_monomial(ScaledMonomial(1, mono))


def reference_json(exp):
    """The JSON render as a document tree through json.dumps(indent=2)."""
    doc = {
        "params": {
            "alpha": list(exp.alpha),
            "beta": list(exp.beta),
            "p": [_monomial_text(mono) for mono in exp.p],
            "q": [_monomial_text(mono) for mono in exp.q],
            "n": exp.n,
        },
        "bounds": {"S": exp.s_bound, "M": exp.m_bound},
        "terms": [
            {
                "m": t.hbar,
                "scalar": t.scalar,
                "slots": [
                    {"mult": mult, "monomial": {"x": mono.x, "y": mono.y}}
                    for mult, mono in t.slots
                ],
            }
            for t in exp.terms()
        ],
    }
    return json.dumps(doc, indent=2)


def reference_text(exp):
    """The text render with every slot's monomial rendered on its own."""
    out = []
    for t in exp.terms():
        mults = ",".join(str(mult) for mult, _ in t.slots)
        args = ",".join(_monomial_text(mono) for _, mono in t.slots)
        body = f"e_({mults})({args})"
        if t.scalar != 1:
            body = f"{t.scalar} {body}"
        if t.hbar == 1:
            body += " h"
        elif t.hbar > 1:
            body += f" h^{t.hbar}"
        out.append(body)
    return " + ".join(out)


def with_terms(exp, by_order):
    return type(exp)(
        exp.alpha, exp.beta, exp.p, exp.q, exp.n,
        exp.s_bound, exp.m_bound, by_order,
    )


def writer_cases():
    for spec in oracle_grid():
        yield star_product(*spec)
    worked = star_product(*WORKED)
    yield with_terms(worked, {})
    # zero margins: one term whose slot list is empty
    yield star_product((0,), (0,), (Monomial2(1, 2),), (X,), 2)
    yield with_terms(worked, {
        0: [ETerm(0, 0, ())],
        3: [
            ETerm(3, -(10 ** 4400) - 7, canonical_slots(
                [(2, Monomial2(0, 0)), (1, Monomial2(5, 1))]
            )),
            ETerm(3, 10 ** 5000, ((1, Y),)),
        ],
    })


class TestWriter:
    """render's direct writer, byte for byte against the document route."""

    def test_json_bytes(self):
        with _unlimited_int_digits():
            for exp in writer_cases():
                assert render(exp, "json") == reference_json(exp)

    def test_text_bytes(self):
        with _unlimited_int_digits():
            for exp in writer_cases():
                assert render(exp, "text") == reference_text(exp)

    def test_unknown_format(self):
        exp = star_product((1,), (1,), (Y,), (X,), 1)
        with pytest.raises(ValueError):
            render(exp, "yaml")
