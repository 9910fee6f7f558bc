import json
import random
import sys
from collections import Counter
from itertools import chain
from math import prod

import pytest

import qstar.expansion
from conftest import (
    WORKED,
    from_levels,
    lift_pairs,
    oracle_grid,
    three_entry_grid,
    wide_margin_grid,
)
from qstar.algebra import (
    Monomial2,
    ScaledMonomial,
    build_B,
    full_ints,
    render_monomial,
)
from qstar.cli import main
from qstar.cubes import (
    CubicalMatrix,
    contributing_support,
    enumerate_Q,
    lift_all,
    max_order,
)
from qstar.expansion import (
    ETerm,
    canonical_slots,
    gamma_to_eterm,
    product_terms,
    render,
    star_product,
)
from qstar.oracle import term_orbits
from qstar.tables import classical_product, enumerate_L

X = Monomial2(1, 0)
Y = Monomial2(0, 1)


def mk(*levels):
    return from_levels(levels)


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
        # equality, hash and repr are those of the three fields
        bare = ETerm(1, 2, term.slots)
        assert term == bare and hash(term) == hash(bare)
        assert repr(term) == repr(bare) == (
            "ETerm(hbar=1, scalar=2, slots=((1, Monomial2(x=3, y=0)), "
            "(1, Monomial2(x=4, y=2)), (1, Monomial2(x=5, y=1))))"
        )
        assert term != ETerm(1, 3, term.slots)

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
        assert list(exp.terms()) == [
            ETerm(0, 1, ((1, Monomial2(1, 1)),)),
            ETerm(1, 1, ((1, Monomial2(0, 0)),)),
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
        K = 1000  # y^K * x^K: one cell with K = M
        for spec in [
            ((1,), (1,), (Y,), (X,), 2),
            ((1, 1), (1,), (Monomial2(1, 1), Y), (Monomial2(2, 1),), 3),
            WORKED,
            ((1,), (1,), (Monomial2(0, K),), (Monomial2(K, 0),), 1),
        ]:
            a = star_product(*spec, path="enumerate")
            b = star_product(*spec, path="lift")
            assert list(a.terms()) == list(b.terms())
        # the routes visit matrices in different orders; the rendered
        # bytes must not show it
        for spec in chain(oracle_grid(), wide_margin_grid()):
            a = star_product(*spec, path="enumerate")
            b = star_product(*spec, path="lift")
            for fmt in ("text", "json"):
                assert render(a, fmt) == render(b, fmt), (spec, fmt)

    def test_lift_path_enumerates_L_once(self, monkeypatch):
        # one lift_all call up to M, where each m used to enumerate L anew
        calls = []
        original = qstar.expansion.enumerate_L

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(qstar.expansion, "enumerate_L", counted)
        exp = star_product(*WORKED, path="lift")
        assert exp.m_bound == 2
        assert calls == [((1, 1), (2, 1), 4)]
        monkeypatch.undo()
        assert list(exp.terms()) == list(star_product(*WORKED).terms())

    def test_deep_single_cell_on_both_paths(self, capsys):
        # y^K * x^K: one cell with K = M, which the lift path used to walk
        # once per (m, s) pair
        K = 1000
        spec = ((1,), (1,), (Monomial2(0, K),), (Monomial2(K, 0),), 1)
        lifted = list(star_product(*spec, path="lift").terms())
        assert lifted == list(star_product(*spec).terms())
        assert len(lifted) == K + 1
        code = main([
            "star", "--alpha", "1", "--beta", "1", "--p", f"y^{K}",
            "--q", f"x^{K}", "--n", "1", "--path", "both",
        ])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out.count(" + ") == K

    def test_enumerate_path_enumerates_L_once(self, monkeypatch):
        # the terms come from per-cell pieces, not from matrices that
        # gamma_to_eterm reads
        calls = []
        original = qstar.expansion.enumerate_L

        def counted(*args):
            calls.append(args)
            return original(*args)

        def refused(*args, **kwargs):
            raise AssertionError("the enumerate path placed matrices")

        monkeypatch.setattr(qstar.expansion, "enumerate_L", counted)
        monkeypatch.setattr(qstar.expansion, "gamma_to_eterm", refused)
        exp = star_product(*WORKED)
        assert calls == [((1, 1), (2, 1), 4)]
        monkeypatch.undo()
        assert list(exp.terms()) == list(
            star_product(*WORKED, path="lift").terms())

    def test_enumerate_terms_match_their_origins(self):
        # the enumerate-route terms, assembled from per-cell pieces, are
        # the terms that gamma_to_eterm reads off the lift route's
        # matrices, each at its matrix's weight
        K = 1000
        deep = ((1,), (1,), (Monomial2(0, K),), (Monomial2(K, 0),), 1)
        for spec in chain(oracle_grid(), wide_margin_grid(),
                          three_entry_grid(), [deep]):
            pairs = [(t, g) for t, g in lift_pairs(*spec) if t is not None]
            for term, gamma in pairs:
                assert gamma.weight() == term.hbar, spec
            assert Counter(star_product(*spec).terms()) == Counter(
                term for term, _ in pairs), spec

    def test_routes_agree_per_matrix(self):
        # each matrix of L on its own: its per-cell pieces give the terms
        # that gamma_to_eterm reads off its capped lifts
        for alpha, beta, p, q, n in chain(oracle_grid(), wide_margin_grid()):
            btable = build_B(p, q)
            m_bound = max_order(alpha, beta, n, contributing_support(p, q))
            for gamma in enumerate_L(alpha, beta, n):
                lifted = [gamma_to_eterm(g, btable) for g in
                          lift_all([gamma], m_bound, btable.k_max)]
                assert sorted(product_terms([gamma], btable)) == sorted(
                    lifted), (alpha, beta, p, q, n, gamma)

    def test_classical_slice(self):
        alpha, beta, p, q, n = WORKED
        exp = star_product(alpha, beta, p, q, n)
        classical = classical_product(alpha, p, beta, q, n)
        assert sorted(
            (t.scalar, t.slots) for t in exp.by_order.get(0, [])
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
        assert sorted(raw) == sorted(
            (t.hbar, t.scalar, t.slots) for t in exp.terms()
        )

    def test_margin_error(self):
        with pytest.raises(ValueError):
            star_product((3,), (1,), (X,), (Y,), 2)


def times(f, g, n, star=star_product):
    """The terms of e_f * e_g for factors (margin, monomials).

    An empty margin is e_() = 1, the unit, which star_product rejects.
    """
    (alpha, p), (beta, q) = f, g
    if not alpha or not beta:
        margin, monos = g if not alpha else f
        return [ETerm(0, 1, canonical_slots(
            [(v, mono) for v, mono in zip(margin, monos) if v]))]
    return list(star(alpha, beta, p, q, n).terms())


def triple_product(f, g, h, n, star, left: bool) -> dict:
    """(e_f * e_g) * e_h when left, else e_f * (e_g * e_h), in orbits.

    Each term c e_mu(m) h^k of the inner product is multiplied by the
    outer factor with star, scaled by c and shifted by h^k.
    """
    out = []
    for t in times(f, g, n, star) if left else times(g, h, n, star):
        inner = t.multiplicities(), t.arguments()
        outer = times(inner, h, n, star) if left else times(f, inner, n, star)
        out += [ETerm(t.hbar + u.hbar, t.scalar * u.scalar, u.slots)
                for u in outer]
    return term_orbits(out, n)


def associativity_grid():
    """(f, g, h, n): three factors of 1-2 entries in 0..2, exponents <= 2."""
    rng = random.Random(20261020)

    def factor():
        margin = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2)))
        return margin, tuple(
            Monomial2(rng.randint(0, 2), rng.randint(0, 2)) for _ in margin)

    for _ in range(300):
        f, g, h = factor(), factor(), factor()
        weights = (sum(f[0]), sum(g[0]), sum(h[0]), 1)
        yield f, g, h, rng.randint(max(weights), 4)


def powers_dropped(alpha, beta, p, q, n):
    """star_product with each piece scalar a product of coeff, not coeff ** v.

    Read off each term's matrix on the lift route: a scalar is the product
    of its runs' coefficients, the boundary's being 1.
    """
    entries = build_B(p, q).entries
    by_order = {}
    for t, gamma in lift_pairs(alpha, beta, p, q, n):
        scalar = prod([entries[r[:3]].coeff for r in gamma.entries])
        by_order.setdefault(t.hbar, []).append(t._replace(scalar=scalar))
    return star_product(alpha, beta, p, q, n)._replace(by_order=by_order)


class TestAssociativity:
    """(e_f * e_g) * e_h = e_f * (e_g * e_h), with no Moyal side.

    The Moyal product is associative, so both nestings agree in the orbit
    basis.  The inner products hand star_product argument lists that no
    other grid draws: repeated and constant monomials, more entries than
    the input margins, and exponents summed from two factors.
    """

    GRID = list(associativity_grid())

    def test_nestings_agree(self):
        # e_() = 1 arises as an inner term in both nestings
        for i, j in ((0, 1), (1, 2)):
            assert any(not any(spec[i][0] + spec[j][0]) for spec in self.GRID)
        for f, g, h, n in self.GRID:
            left = triple_product(f, g, h, n, star_product, left=True)
            right = triple_product(f, g, h, n, star_product, left=False)
            assert left == right, (f, g, h, n)

    def test_classical_slice_commutes(self):
        for f, g, _, n in self.GRID:
            fg, gf = (
                {k: c for k, c in term_orbits(times(x, y, n), n).items()
                 if k[1] == 0}
                for x, y in ((f, g), (g, f))
            )
            assert fg == gf, (f, g, n)

    def test_dropped_powers_break_it(self):
        # the negative control: piece scalars without ** v
        broken = [
            spec for spec in self.GRID
            if triple_product(*spec, powers_dropped, left=True)
            != triple_product(*spec, powers_dropped, left=False)
        ]
        assert len(broken) >= 10


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
        with full_ints():
            for exp in writer_cases():
                assert render(exp, "json") == reference_json(exp)

    def test_text_bytes(self):
        with full_ints():
            for exp in writer_cases():
                assert render(exp, "text") == reference_text(exp)

    @pytest.mark.parametrize("fmt, name, reference", [
        ("text", "_text_slot", reference_text),
        ("json", "_json_slot", reference_json),
    ])
    def test_each_slot_written_once_per_call(self, monkeypatch, fmt, name,
                                             reference):
        # a second render shares slots with the first, and writes each of
        # its own distinct slots once: the cache does not outlive a call
        first = star_product(*WORKED)
        second = star_product(*WORKED[:4], 5)
        written = []
        original = getattr(qstar.expansion, name)

        def counted(slot):
            written.append(slot)
            return original(slot)

        monkeypatch.setattr(qstar.expansion, name, counted)
        render(first, fmt)
        assert written
        shared, written[:] = set(written), []
        assert render(second, fmt) == reference(second)
        slots = {slot for t in second.terms() for slot in t.slots}
        assert slots & shared
        assert len(written) == len(slots) and set(written) == slots

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_library_render_prints_scalars_in_full(self, capsys, fmt):
        # the top scalar is 1600!, 4,466 digits: past Python's 4,300-digit
        # int-to-str limit, which render lifts for its own call only
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        exp = star_product((1,), (1,), (Monomial2(0, 1600),),
                           (Monomial2(1600, 0),), 1)
        text = render(exp, fmt)
        assert main(["star", "--alpha", "1", "--beta", "1", "--p", "y^1600",
                     "--q", "x^1600", "--n", "1", "--format", fmt]) == 0
        assert capsys.readouterr().out == text + "\n"
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit
            with pytest.raises(ValueError):
                int("9" * 5000)

    def test_unknown_format(self):
        exp = star_product((1,), (1,), (Y,), (X,), 1)
        with pytest.raises(ValueError):
            render(exp, "yaml")
