import random
from fractions import Fraction
from itertools import chain, groupby, permutations
from math import factorial, prod

import pytest

import qstar.oracle
from conftest import (
    WORKED,
    heavy_entry_grid,
    oracle_grid,
    scalars_dropped,
    three_entry_grid,
    wide_margin_grid,
)
from qstar.algebra import Monomial2, star_pair
from qstar.expansion import ETerm, star_product
from qstar.oracle import (
    NPoly,
    expand_elementary,
    expand_eterm,
    expand_terms,
    moyal,
    moyal_orbits,
    poisson,
    term_orbits,
    verify,
)
from qstar.tables import classical_product

X = Monomial2(1, 0)
Y = Monomial2(0, 1)
XY = Monomial2(1, 1)


def var(name, i, n):
    mono = X if name == "x" else Y
    return NPoly.from_monomial(mono, i, n)


def permute_copies(poly, perm_map):
    """Apply a permutation of copy indices; perm_map[i] is 0-based."""
    n = poly.n
    out = {}
    for key, c in poly.terms.items():
        new = [0] * (2 * n + 1)
        for i in range(n):
            new[perm_map[i]] = key[i]
            new[n + perm_map[i]] = key[n + i]
        new[-1] = key[-1]
        out[tuple(new)] = c
    return NPoly(n, out)


def stabilizer(pairs):
    """Permutations of the copies fixing sorted per-copy pairs."""
    return prod(factorial(len(list(g))) for _, g in groupby(pairs))


def full_orbits(poly):
    """A symmetric NPoly as {(sorted per-copy pairs, h power): coefficient}.

    Asserts that every monomial of an orbit is present with one and the
    same coefficient.
    """
    n = poly.n
    seen = {}
    for key, c in poly.terms.items():
        orbit = tuple(sorted(zip(key[:n], key[n:2 * n]))), key[-1]
        seen.setdefault(orbit, []).append(c)
    for (pairs, _), coeffs in seen.items():
        assert len(coeffs) == factorial(n) // stabilizer(pairs), pairs
        assert len(set(coeffs)) == 1, pairs
    return {orbit: coeffs[0] for orbit, coeffs in seen.items()}


def full_moyal_orbits(alpha, p, beta, q, n):
    """e_alpha(p) * e_beta(q) by the full NPoly route, in the orbit basis."""
    return full_orbits(moyal(
        expand_elementary(alpha, p, n), expand_elementary(beta, q, n)
    ))


def reference_moyal_orbits(alpha, p, beta, q, n):
    """Orbit coefficients of e_alpha(p) * e_beta(q) from one monomial of f.

    The one-representative route: with x^k one monomial of f, the
    coefficient at orbit K is |Stab(K)| / (prod_j alpha_j! (n - |alpha|)!)
    times the sum of the coefficients of x^k * g over K's monomials, with
    g = e_beta(q) expanded in full.  It reaches specs the full route does
    not, such as three_entry_grid, but takes over a minute at n = 9.
    """
    alpha = tuple(alpha)
    unused = n - sum(alpha)
    if unused < 0:
        return {}
    rep = [0] * (2 * n + 1)
    copies = chain.from_iterable([mono] * mult for mult, mono in zip(alpha, p))
    for copy, mono in enumerate(copies):
        rep[copy] = mono.x
        rep[n + copy] = mono.y
    single = moyal(NPoly(n, {tuple(rep): 1}), expand_elementary(beta, q, n))
    bins = {}
    for key, c in single.terms.items():
        orbit = tuple(sorted(zip(key[:n], key[n:2 * n]))), key[-1]
        bins[orbit] = bins.get(orbit, 0) + c
    den = factorial(unused) * prod(map(factorial, alpha))
    out = {}
    for orbit, c in bins.items():
        coeff, rest = divmod(c * stabilizer(orbit[0]), den)
        assert rest == 0, "orbit coefficient is not an integer"
        if coeff:
            out[orbit] = coeff
    return out


def random_poly(rng, n, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = tuple(
            rng.randint(0, max_deg) for _ in range(2 * n)
        ) + (0,)
        terms[key] = Fraction(rng.randint(-3, 3))
    return NPoly(n, terms)


class TestExpandElementary:
    def test_power_sum_like(self):
        got = expand_elementary((1,), (X,), 2)
        assert got == var("x", 1, 2) + var("x", 2, 2)

    def test_mixed(self):
        got = expand_elementary((1, 1), (X, Y), 2)
        want = (
            var("x", 1, 2) * var("y", 2, 2)
            + var("x", 2, 2) * var("y", 1, 2)
        )
        assert got == want

    def test_elementary_e2(self):
        assert expand_elementary((2,), (X,), 2) == var("x", 1, 2) * var("x", 2, 2)

    def test_overweight_warns_zero(self):
        with pytest.warns(UserWarning):
            got = expand_elementary((3,), (X,), 2)
        assert got.is_zero()

    def test_symmetry(self):
        poly = expand_elementary((2, 1), (XY, Monomial2(2, 0)), 3)
        for perm in permutations(range(3)):
            assert permute_copies(poly, perm) == poly


class TestExpandETerm:
    def test_constant_argument(self):
        term = ETerm(1, 1, ((1, Monomial2(0, 0)),))
        assert expand_eterm(term, 2) == NPoly.constant(2, 2).shift_hbar(1)

    def test_simple(self):
        term = ETerm(0, 1, ((1, XY),))
        assert expand_eterm(term, 1) == var("x", 1, 1) * var("y", 1, 1)

    def test_scaled_injection_count(self):
        term = ETerm(
            1, 2,
            ((1, Monomial2(3, 0)), (1, Monomial2(5, 1)), (1, Monomial2(4, 2))),
        )
        got = expand_eterm(term, 4)
        brute = NPoly(4)
        monos = [Monomial2(3, 0), Monomial2(5, 1), Monomial2(4, 2)]
        for picks in permutations(range(1, 5), 3):
            prod = NPoly.constant(4, 2)
            for mono, i in zip(monos, picks):
                prod = prod * NPoly.from_monomial(mono, i, 4)
            brute = brute + prod
        # one contribution per ordered injection of copies into arguments
        assert got == brute.shift_hbar(1)


class TestMoyal:
    def test_y_star_x(self):
        f = var("y", 1, 1)
        g = var("x", 1, 1)
        want = var("x", 1, 1) * var("y", 1, 1) + NPoly.constant(1, 1).shift_hbar(1)
        assert moyal(f, g) == want

    def test_x_star_y(self):
        f = var("x", 1, 1)
        g = var("y", 1, 1)
        assert moyal(f, g) == f * g

    def test_bilinear_sum(self):
        n = 2
        f = var("y", 1, n) + var("y", 2, n)
        g = var("x", 1, n) + var("x", 2, n)
        want = f * g + NPoly.constant(n, 2).shift_hbar(1)
        assert moyal(f, g) == want

    def test_single_copy_matches_star_pair(self):
        for p in [XY, Monomial2(2, 1), Monomial2(0, 3)]:
            for q in [X, Monomial2(3, 0), Monomial2(1, 2)]:
                fp = NPoly.from_monomial(p, 1, 1)
                fq = NPoly.from_monomial(q, 1, 1)
                want = NPoly(1)
                for k, term in star_pair(p, q):
                    want = want + (
                        NPoly.from_monomial(term.mono, 1, 1)
                        * term.coeff
                    ).shift_hbar(k)
                assert moyal(fp, fq) == want

    def test_associativity_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 2)
            f = random_poly(rng, n)
            g = random_poly(rng, n)
            h = random_poly(rng, n)
            assert moyal(moyal(f, g), h) == moyal(f, moyal(g, h))

    def test_classical_limit(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 2)
            f = random_poly(rng, n)
            g = random_poly(rng, n)
            prod = moyal(f, g)
            assert prod.hbar_coefficient(0) == (f * g).hbar_coefficient(0)

    def test_integrality(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 2)
            prod = moyal(random_poly(rng, n), random_poly(rng, n))
            assert prod.is_integral()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            moyal(NPoly.constant(1, 1), NPoly.constant(2, 1))


class TestPoisson:
    def test_canonical_pair(self):
        assert poisson(var("x", 1, 1), var("y", 1, 1)) == NPoly.constant(1, 1)

    def test_antisymmetry(self):
        rng = random.Random(17)
        f = random_poly(rng, 2)
        assert poisson(f, f).is_zero()

    def test_commutator_relation(self):
        # h^1 coefficient of f*g - g*f equals -{f, g}, with one fixed sign
        rng = random.Random(19)
        for _ in range(50):
            n = rng.randint(1, 2)
            f = random_poly(rng, n)
            g = random_poly(rng, n)
            commutator = moyal(f, g) - moyal(g, f)
            assert commutator.hbar_coefficient(1) == poisson(f, g) * -1

    def test_rejects_hbar(self):
        with pytest.raises(ValueError):
            poisson(NPoly.constant(1, 1).shift_hbar(1), NPoly.constant(1, 1))


class TestVerify:
    def test_noncommuting_minimal(self):
        report = verify((1,), (1,), (Y,), (X,), 1)
        assert report.ok

    def test_classical_case(self):
        report = verify((1,), (1,), (X,), (Y,), 2)
        assert report.ok

    def test_worked_example(self):
        report = verify(*WORKED)
        assert report.ok

    def test_drop_scalar_negative_control(self, monkeypatch):
        with scalars_dropped(monkeypatch):
            report = verify(*WORKED)
        assert not report.identity_ok
        assert report.details
        # the detail counts the differing orbits and names the first one,
        # lowest h power first, as per-copy monomials
        assert report.details == [
            "expansion differs from Moyal oracle in 13 orbit(s); first "
            "(1, x^2y^2, x^4, x^6y) h^1: expansion 1, oracle 3"
        ]
        alpha, beta, p, q, n = WORKED
        dropped = [
            ETerm(t.hbar, 1, t.slots) for t in star_product(*WORKED).terms()
        ]
        lhs = full_orbits(expand_terms(dropped, n))
        rhs = full_orbits(moyal(
            expand_elementary(alpha, p, n), expand_elementary(beta, q, n)
        ))
        differ = {k for k in lhs.keys() | rhs.keys()
                  if lhs.get(k) != rhs.get(k)}
        assert len(differ) == 13
        first = (((0, 0), (2, 2), (4, 0), (6, 1)), 1)
        assert min(differ, key=lambda k: (k[1], k[0])) == first
        assert (lhs[first], rhs[first]) == (1, 3)

    def test_mismatch_line_prints_integers_in_full(self):
        # a 5,001-digit coefficient and pair exponent, past Python's
        # 4,300-digit int-to-str limit: a failed verify still says so
        big, digits = 10 ** 5000, "1" + "0" * 5000
        line = qstar.oracle._orbit_mismatch({(((0, 0),), 0): big}, {})
        assert line == (
            "expansion differs from Moyal oracle in 1 orbit(s); first "
            f"(1) h^0: expansion {digits}, oracle 0"
        )
        line = qstar.oracle._orbit_mismatch({}, {(((big, 1),), 2): -3})
        assert line.endswith(f"(x^{digits}y) h^2: expansion 0, oracle -3")

    def test_wide_margin_grid(self, monkeypatch):
        # two-entry margins of weight 3-4 at n <= 6; dropping the scalars
        # fails exactly where some kernel coefficient is not 1
        checked = 0
        for spec in wide_margin_grid():
            assert verify(*spec).ok, spec
            nontrivial = any(t.scalar != 1 for t in star_product(*spec).terms())
            with scalars_dropped(monkeypatch):
                dropped = verify(*spec)
            assert dropped.identity_ok != nontrivial, spec
            checked += nontrivial
        assert checked == 37

    def test_three_entry_grid(self, monkeypatch):
        # three-entry margins of weight 5-6 at n <= 7, added beside the
        # other grids; dropping the scalars fails exactly where some kernel
        # coefficient is not 1
        checked = 0
        for spec in three_entry_grid():
            assert verify(*spec).ok, spec
            nontrivial = any(t.scalar != 1 for t in star_product(*spec).terms())
            with scalars_dropped(monkeypatch):
                dropped = verify(*spec)
            assert dropped.identity_ok != nontrivial, spec
            checked += nontrivial
        assert checked == 23

    def test_heavy_entry_grid(self, monkeypatch):
        # three-entry margins of weight 7-8 at n <= 9, added beside the
        # other grids; dropping the scalars fails exactly where some kernel
        # coefficient is not 1
        checked = 0
        for spec in heavy_entry_grid():
            assert verify(*spec).ok, spec
            nontrivial = any(t.scalar != 1 for t in star_product(*spec).terms())
            with scalars_dropped(monkeypatch):
                dropped = verify(*spec)
            assert dropped.identity_ok != nontrivial, spec
            checked += nontrivial
        assert checked == 15

    def test_four_four_at_n9(self, monkeypatch):
        # ROADMAP rung: both engine routes, the star side and the grouped
        # Moyal side, out of the reach of every expanding route
        p = (Monomial2(2, 3), Monomial2(1, 3))
        q = (Monomial2(3, 1), Monomial2(4, 2))
        sizes = []
        original = qstar.oracle.term_orbits

        def counted(terms, n):
            terms = list(terms)
            orbits = original(terms, n)
            sizes.append((len(terms), len(orbits)))
            return orbits

        monkeypatch.setattr(qstar.oracle, "term_orbits", counted)
        report = verify((4, 4), (4, 4), p, q, 9)
        assert report.ok, report.details
        # the first call reads the star side, the second the classical one
        assert sizes[0] == (63250, 13530)

    def test_classical_negative_control(self, monkeypatch):
        # the h^0 slice is read from the LHS, so a wrong reference must
        # still fail the classical check while the identity holds
        original = qstar.oracle.classical_product
        monkeypatch.setattr(
            qstar.oracle, "classical_product",
            lambda *args: original(*args)[1:],
        )
        report = verify(*WORKED)
        assert report.identity_ok
        assert not report.classical_ok
        assert "h^0 slice differs from the classical product" in report.details


class TestWorkedExample:
    def test_integer_coefficients(self):
        alpha, beta, p, q, n = WORKED
        f = expand_elementary(alpha, p, n)
        g = expand_elementary(beta, q, n)
        lhs = expand_terms(star_product(*WORKED).terms(), n)
        for poly in (f, g, lhs, moyal(f, g)):
            assert poly.terms
            assert all(type(c) is int for c in poly.terms.values())

    def test_expand_terms_matches_folded_sum(self):
        n = WORKED[-1]
        terms = list(star_product(*WORKED).terms())
        folded = NPoly(n)
        for term in terms:
            folded = folded + expand_eterm(term, n)
        assert expand_terms(terms, n) == folded


class TestOrbitRoute:
    @pytest.mark.parametrize("term,n", [
        (ETerm(1, 1, ((1, Monomial2(0, 0)),)), 2),
        (ETerm(0, 1, ((1, X), (1, X))), 2),
        (ETerm(2, -3, ((2, XY), (1, X), (1, Monomial2(0, 0)))), 5),
        (ETerm(0, 4, ((2, Y),)), 2),
    ])
    def test_term_equals_its_expansion(self, term, n):
        assert term_orbits([term], n) == full_orbits(expand_eterm(term, n))

    def test_term_above_n_is_zero(self):
        assert term_orbits([ETerm(0, 1, ((3, X),))], 2) == {}

    def test_equals_full_route_on_oracle_grid(self):
        for alpha, beta, p, q, n in oracle_grid():
            terms = list(star_product(alpha, beta, p, q, n).terms())
            assert term_orbits(terms, n) == full_orbits(
                expand_terms(terms, n)
            )
            assert moyal_orbits(alpha, p, beta, q, n) == full_moyal_orbits(
                alpha, p, beta, q, n
            )
            classical = classical_product(alpha, p, beta, q, n)
            assert term_orbits(classical, n) == full_orbits(
                expand_terms(classical, n)
            )

    def test_equals_full_route_on_wide_margin_grid(self):
        for alpha, beta, p, q, n in wide_margin_grid():
            assert moyal_orbits(alpha, p, beta, q, n) == full_moyal_orbits(
                alpha, p, beta, q, n
            )

    def test_equals_reference_on_three_entry_grid(self):
        # the full route takes minutes here, the one-representative route
        # about a second
        for alpha, beta, p, q, n in three_entry_grid():
            assert moyal_orbits(alpha, p, beta, q, n) == reference_moyal_orbits(
                alpha, p, beta, q, n
            )

    @pytest.mark.parametrize("alpha,beta,p,q,n", [
        # zero margin entries
        ((0, 1), (1, 0), (X, Monomial2(2, 1)), (Monomial2(0, 2), X), 2),
        ((0, 2), (2,), (Y, XY), (Monomial2(2, 1),), 3),
        # repeated monomials in p, in q, and the constant monomial 1
        ((1, 2), (2, 1), (XY, XY), (Monomial2(2, 1), Monomial2(2, 1)), 4),
        ((2, 1), (1, 2), (Monomial2(0, 2), Y), (X, X), 3),
        ((1, 1), (2,), (Monomial2(0, 0), Y), (Monomial2(2, 0),), 3),
        ((1,), (1, 1), (Monomial2(1, 2),), (Monomial2(0, 0), X), 2),
        # no copies at all
        ((0,), (0,), (X,), (Y,), 0),
        ((), (), (), (), 2),
    ])
    def test_degenerate_specs(self, alpha, beta, p, q, n):
        got = moyal_orbits(alpha, p, beta, q, n)
        assert got == full_moyal_orbits(alpha, p, beta, q, n)
        assert got == reference_moyal_orbits(alpha, p, beta, q, n)

    def test_weight_above_n_is_zero(self):
        assert moyal_orbits((3,), (X,), (1,), (Y,), 2) == {}
        assert moyal_orbits((1,), (X,), (3,), (Y,), 2) == {}

    def test_three_three_at_n8(self):
        # out of the full route's reach: |f * g| has 66,251,920 keys
        p = (Monomial2(2, 3), Monomial2(1, 3))
        q = (Monomial2(3, 1), Monomial2(4, 2))
        terms = list(star_product((3, 3), (3, 3), p, q, 8).terms())
        lhs = term_orbits(terms, 8)
        assert (len(terms), len(lhs)) == (11656, 4454)
        assert lhs == moyal_orbits((3, 3), p, (3, 3), q, 8)
