"""Acceptance suite: one test per exit criterion, all exact comparisons.

Each test prints a PASS line on success so a verbose run doubles as the
acceptance report.  The oracle-identity grid is the desk-scale set from
conftest.oracle_grid; every comparison is coefficient-for-coefficient with
zero tolerance.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import (
    WORKED,
    combinatorial_grid,
    exact_lifts,
    from_levels,
    in_A,
    interior_sum,
    interior_support_count,
    lift_pairs,
    max_support,
    oracle_grid,
    size,
)
from qstar.algebra import (
    Monomial2,
    build_B,
    render_monomial,
    ScaledMonomial,
)
from qstar.cli import main as cli_main
from qstar.cubes import (
    contributing_support,
    enumerate_Q,
    from_vector,
    max_order,
    to_vector,
)
from qstar.expansion import gamma_to_eterm, star_product
from qstar.oracle import (
    NPoly,
    expand_elementary,
    expand_terms,
    moyal,
    poisson,
)
from qstar.tables import MarginMatrix, classical_product, enumerate_L
from qstar.words import decode, encode, enumerate_A, word_stats

WORKED_H0_VECTORS = {
    (0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0),
    (1, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 1, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0),
}

WORKED_H2_VECTORS = {
    (0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0),
}

# (alpha, beta, n, m, gamma): a classical matrix with an all-zero interior,
# missing from the smash image of Q at positive weight although the
# published claim puts it there.
SMASH_COUNTEREXAMPLE = ((1,), (1,), 2, 1, MarginMatrix(((0, 1), (1, 0))))

# (alpha, beta, p, q, n) with unequal per-pair grades: the published
# support bound S is 1, the sharp bound is 2, and two terms sit at support 2.
S_COUNTEREXAMPLE = (
    (1, 1),
    (1, 1),
    (Monomial2(0, 2), Monomial2(3, 0)),
    (Monomial2(3, 3), Monomial2(2, 1)),
    2,
)

WORKED_B_MONOMIALS = [
    "x^2y", "x^3y", "x^3", "x^2y^2", "x^5y", "x^4",
    "x^4y^3", "x^3y^2", "x^6y", "x^5", "x^5y^3", "x^4y^2",
]


def test_criterion_1_worked_example_structure():
    start = time.monotonic()
    alpha, beta, p, q, n = WORKED
    table = build_B(p, q)
    assert len(table.entries) == 12
    assert [
        render_monomial(ScaledMonomial(1, e.mono))
        for e in table.entries.values()
    ] == WORKED_B_MONOMIALS

    pad = max_support(p, q) + 1
    vectors = {
        to_vector(g, levels=pad)
        for g in enumerate_Q(alpha, beta, n, 0)
    }
    assert vectors == WORKED_H0_VECTORS

    exp = star_product(alpha, beta, p, q, n)
    assert len(exp.by_order.get(2, [])) == 3
    # the lift route pairs each term with its matrix
    h2 = [(t, g) for t, g in lift_pairs(alpha, beta, p, q, n) if t.hbar == 2]
    assert sorted(t for t, _ in h2) == sorted(exp.by_order.get(2, []))
    h2_vectors = {to_vector(g, levels=pad) for _, g in h2}
    assert h2_vectors == WORKED_H2_VECTORS

    # sum-of-supports counting and brute-force enumeration agree on 10
    # terms at order 1
    assert len(exp.by_order.get(1, [])) == 10
    assert len(exp.by_order.get(1, [])) == sum(
        interior_support_count(g) for g in enumerate_L(alpha, beta, n)
    )

    assert exp.m_bound == 2
    btable = build_B(p, q)
    for m in range(3, 6):
        contributing = [
            g
            for g in enumerate_Q(alpha, beta, n, m)
            if gamma_to_eterm(g, btable) is not None
        ]
        assert contributing == []

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS criterion 1: worked-example structure ({elapsed:.2f}s)")


def test_criterion_2_oracle_identity():
    start = time.monotonic()
    checked = 0
    for alpha, beta, p, q, n in oracle_grid():
        exp = star_product(alpha, beta, p, q, n)
        lhs = expand_terms(exp.terms(), n)
        rhs = moyal(
            expand_elementary(alpha, p, n),
            expand_elementary(beta, q, n),
        )
        assert lhs == rhs, (alpha, beta, p, q, n)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"PASS criterion 2: oracle identity on {checked} specs "
        f"({elapsed:.2f}s)"
    )


def test_criterion_3_classical_limit():
    checked = 0
    for alpha, beta, p, q, n in oracle_grid():
        exp = star_product(alpha, beta, p, q, n)
        classical = classical_product(alpha, p, beta, q, n)
        # symbolic: canonical multisets of terms
        assert sorted(
            (t.scalar, t.slots) for t in exp.by_order.get(0, [])
        ) == sorted((t.scalar, t.slots) for t in classical)
        # expanded: exact polynomial equality
        assert expand_terms(exp.by_order.get(0, []), n) == expand_terms(
            classical, n
        )
        checked += 1
    print(f"PASS criterion 3: classical limit on {checked} specs")


def test_criterion_4_combinatorial_propositions():
    # Every clause is checked over its full grid and violations are
    # collected so the failure report pinpoints exactly which proposition
    # breaks, and where.  The two published claims (smash onto all of L,
    # the length-based bounds S and M) are false as stated: the clauses
    # check their corrected forms, and the published forms are kept as
    # asserted counterexamples.
    failures = []
    points = 0
    smash_gaps = set()
    for alpha, beta, n, m in combinatorial_grid():
        classical = enumerate_L(alpha, beta, n)
        q_set = enumerate_Q(alpha, beta, n, m)
        supports = [g.support_level() for g in q_set]
        if not all(0 <= s <= m for s in supports):
            failures.append(("support partition", alpha, beta, n, m))
        if exact_lifts(alpha, beta, n, m) != sorted(q_set):
            failures.append(("lift_all != enumerate_Q", alpha, beta, n, m))
        if m >= 1:
            # weight m >= 1 needs a unit at a level k >= 1, and only
            # interior cells have such levels
            smashes = {g.smash() for g in q_set}
            reachable = {g for g in classical if interior_sum(g) >= 1}
            if smashes != reachable:
                failures.append((
                    "smash image != {g in L : interior sum >= 1}",
                    alpha, beta, n, m, sorted(smashes ^ reachable)[:1],
                ))
            for g in set(classical) - smashes:
                smash_gaps.add((alpha, beta, n, m, g))
                if interior_sum(g) != 0:
                    failures.append((
                        "published smash gap with nonzero interior",
                        alpha, beta, n, m, g,
                    ))
        if m == 1:
            expected = sum(interior_support_count(g) for g in classical)
            if len(q_set) != expected:
                failures.append(("|Q at m=1| != sum f", alpha, beta, n, m))
        points += 1
    if SMASH_COUNTEREXAMPLE not in smash_gaps:
        failures.append(
            ("published smash claim holds at", SMASH_COUNTEREXAMPLE)
        )

    # no contributing term with support above the sharp bound or order
    # above M, and the sharp bound is attained, on the monomial grid; a
    # term above the published S or M occurs only where S undercounts
    specs = 0
    above_published = []
    for alpha, beta, p, q, n in oracle_grid():
        s_sharp = contributing_support(p, q)
        m_bound = max_order(alpha, beta, n, s_sharp)
        s_paper = max_support(p, q)
        m_paper = max_order(alpha, beta, n, s_paper)
        btable = build_B(p, q)
        sweep = max_order(
            alpha, beta, n,
            max(k for k, _, _ in btable.entries),
        )
        top_support = -1
        for m in range(max(m_bound, sweep) + 2):
            for g in enumerate_Q(alpha, beta, n, m):
                if gamma_to_eterm(g, btable) is None:
                    continue
                s = g.support_level()
                top_support = max(top_support, s)
                where = (alpha, beta, p, q, n, m, to_vector(g))
                if s > s_sharp:
                    failures.append(
                        ("contributing support > contributing_support",)
                        + where
                    )
                if g.weight() > m_bound:
                    failures.append(("contributing order > M",) + where)
                if s > s_paper or g.weight() > m_paper:
                    above_published.append(where)
                    if s_paper >= s_sharp:
                        failures.append(
                            ("term above the published S or M while S is "
                             "sharp",) + where
                        )
        if top_support != s_sharp:
            failures.append((
                "sharp support bound not attained",
                alpha, beta, p, q, n, top_support, s_sharp,
            ))
        specs += 1

    # on the pinned spec the published truncation misses terms the oracle
    # needs, while the full expansion matches it exactly
    alpha, beta, p, q, n = S_COUNTEREXAMPLE
    s_paper = max_support(p, q)
    m_paper = max_order(alpha, beta, n, s_paper)
    exp = star_product(alpha, beta, p, q, n)
    rhs = moyal(expand_elementary(alpha, p, n), expand_elementary(beta, q, n))
    terms = list(exp.terms())
    pairs = lift_pairs(alpha, beta, p, q, n)
    if sorted(term for term, _ in pairs) != sorted(terms):
        failures.append(("pinned spec: the routes' terms differ", alpha,
                         beta, p, q, n))
    kept = [
        term for term, g in pairs
        if g.support_level() <= s_paper and term.hbar <= m_paper
    ]
    truncated = expand_terms(kept, n)
    full = expand_terms(terms, n)
    dropped = len(terms) - len(kept)
    if (s_paper, contributing_support(p, q), dropped) != (1, 2, 2):
        failures.append((
            "pinned spec: (S, sharp bound, terms above S) != (1, 2, 2)",
            s_paper, contributing_support(p, q), dropped,
        ))
    if truncated == rhs:
        failures.append(("truncation at S matches the oracle", alpha, beta,
                         p, q, n))
    if full != rhs:
        failures.append(("full expansion differs from the oracle", alpha,
                         beta, p, q, n))

    if failures:
        shown = "\n".join(repr(f) for f in failures[:8])
        pytest.fail(
            f"FAIL criterion 4: {len(failures)} proposition violations, "
            f"first few:\n{shown}"
        )
    print(
        f"PASS criterion 4: combinatorial propositions on {points} points "
        f"and {specs} specs; published claims refuted at {len(smash_gaps)} "
        f"smash gaps and by {len(above_published)} terms above S or M"
    )


def test_criterion_5_three_word_bijection():
    points = 0
    for alpha, beta, n, m in combinatorial_grid():
        shape = (len(alpha), len(beta))
        q_set = enumerate_Q(alpha, beta, n, m)
        words_set = enumerate_A(alpha, beta, n, m)
        encoded = [encode(g) for g in q_set]
        assert len(set(encoded)) == len(q_set)
        assert set(encoded) == set(words_set)
        for g, w in zip(q_set, encoded):
            assert in_A(w, alpha, beta, n, m) is None
            assert decode(w, shape=shape) == g
            n_cols, s, weight, walpha, wbeta = word_stats(w)
            assert n_cols == size(g)
            assert weight == g.weight()
            if size(g):
                assert s == g.support_level()
        for w in words_set:
            assert encode(decode(w, shape=shape)) == w
        points += 1

    # Example 3Palabra both directions, bit-exact
    from qstar.words import ThreeWord

    word = ThreeWord(((0, 3, 3), (1, 2, 2), (1, 2, 3)))
    matrix = from_levels((
        ((0, 0, 0), (0, 0, 0), (0, 0, 1)),
        ((0, 0, 0), (0, 1, 1), (0, 0, 0)),
    ))
    assert encode(matrix) == word
    assert decode(word) == matrix
    print(f"PASS criterion 5: 3-word bijection on {points} points")


def _random_poly(rng, n):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(rng.randint(0, 3) for _ in range(2 * n)) + (0,)
        terms[key] = Fraction(rng.randint(-3, 3))
    return NPoly(n, terms)


def test_criterion_6_oracle_self_tests():
    rng = random.Random(2025)
    for _ in range(200):
        n = rng.randint(1, 2)
        f, g, h = (_random_poly(rng, n) for _ in range(3))
        prod = moyal(f, g)
        assert moyal(prod, h) == moyal(f, moyal(g, h))
        assert prod.hbar_coefficient(0) == (f * g).hbar_coefficient(0)
        assert prod.is_integral()
        commutator = prod - moyal(g, f)
        assert commutator.hbar_coefficient(1) == poisson(f, g) * -1
    print("PASS criterion 6: oracle self-tests on 200 triples")


def test_criterion_7_path_and_layout_equivalence(capsys):
    checked = 0
    for alpha, beta, p, q, n in oracle_grid():
        enumerated = star_product(alpha, beta, p, q, n, "enumerate")
        lifted = star_product(alpha, beta, p, q, n, "lift")
        assert list(enumerated.terms()) == list(lifted.terms())
        btable = build_B(p, q)
        shape = (len(alpha), len(beta))
        m_bound = max_order(alpha, beta, n, contributing_support(p, q))
        for m in range(m_bound + 1):
            for g in enumerate_Q(alpha, beta, n, m):
                vec = to_vector(g)
                assert from_vector(vec, shape=shape) == g
                try:
                    vec2 = to_vector(g, layout="by-pair", btable=btable)
                except ValueError:
                    continue  # level above K_ij: not representable by-pair
                assert (
                    from_vector(vec2, layout="by-pair", btable=btable) == g
                )
        checked += 1

    # the CLI --path both contract on the worked example
    alpha, beta, p, q, n = WORKED
    code = cli_main([
        "star", "--alpha", "1,1", "--beta", "2,1",
        "--p", "x^2y,x^3y", "--q", "x^3,x^2y^2", "--n", "4",
        "--path", "both",
    ])
    capsys.readouterr()
    assert code == 0
    print(f"PASS criterion 7: path and layout equivalence on {checked} specs")
