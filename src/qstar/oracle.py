"""Ground-truth checks of the star expansion against the Moyal product.

NPoly is a sparse exact polynomial in x_1..x_n, y_1..y_n and h.  Elementary
multisymmetric functions are expanded straight from their generating
product and the n-particle Moyal product is applied term by term; this full
route is the independent reference.  verify compares both sides in the
orbit basis instead: both are invariant under permuting the n copies, so a
symmetric polynomial is fixed by one coefficient per orbit of monomials.
An orbit key is (sorted tuple of per-copy (x, y) pairs, h power).
term_orbits reads the star side off the symbolic terms, and moyal_orbits
computes the Moyal side from counts of copies, expanding neither factor.
"""

from __future__ import annotations

import warnings
from functools import cache
from itertools import chain, combinations_with_replacement, groupby, product
from math import comb, factorial, perm, prod
from operator import add, sub
from typing import NamedTuple

from .algebra import Monomial2, ScaledMonomial, full_ints, render_monomial
from .expansion import ETerm, StarExpansion, star_product
from .tables import classical_product


class NPoly:
    """Exact polynomial over n copies of (x, y) plus the formal h.

    Exponent keys are tuples (ex_1..ex_n, ey_1..ey_n, eh).  Coefficients
    keep the exact type they were given: ints from the engine, Fractions
    where a caller passes them.  The constructor is the one place that
    drops zero coefficients, so none is ever stored.
    """

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    @classmethod
    def constant(cls, n: int, c) -> "NPoly":
        key = (0,) * (2 * n + 1)
        return cls(n, {key: c})

    @classmethod
    def from_monomial(cls, mono: Monomial2, copy: int, n: int) -> "NPoly":
        """The monomial evaluated at copy i, i.e. x_i^c y_i^d."""
        key = [0] * (2 * n + 1)
        key[copy - 1] = mono.x
        key[n + copy - 1] = mono.y
        return cls(n, {tuple(key): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __add__(self, other: "NPoly") -> "NPoly":
        if self.n != other.n:
            raise ValueError("mismatched number of copies")
        return _accumulate(
            self.n, chain(self.terms.items(), other.terms.items())
        )

    def __sub__(self, other: "NPoly") -> "NPoly":
        return self + (other * -1)

    def __mul__(self, other):
        if not isinstance(other, NPoly):
            return NPoly(
                self.n, {k: v * other for k, v in self.terms.items()}
            )
        if self.n != other.n:
            raise ValueError("mismatched number of copies")
        return _accumulate(self.n, (
            (tuple(map(add, k1, k2)), c1 * c2)
            for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items()
        ))

    __rmul__ = __mul__

    def shift_hbar(self, k: int) -> "NPoly":
        return NPoly(
            self.n,
            {key[:-1] + (key[-1] + k,): c for key, c in self.terms.items()},
        )

    def hbar_coefficient(self, k: int) -> "NPoly":
        """Coefficient of h^k, as an h-free polynomial."""
        return NPoly(self.n, {
            key[:-1] + (0,): c for key, c in self.terms.items()
            if key[-1] == k
        })

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def __repr__(self) -> str:
        return f"NPoly(n={self.n}, {len(self.terms)} terms)"


def _accumulate(n: int, pairs) -> NPoly:
    """Sum (key, coefficient) pairs into one polynomial.

    Every sparse sum of this module goes through here: the pairs are added
    into one dict in a single pass, and NPoly drops the zeros.
    """
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return NPoly(n, out)


def _placed(poly: NPoly, mono: Monomial2, i: int):
    """(key, coefficient) pairs of poly times mono at 0-based copy i."""
    n = poly.n
    for key, c in poly.terms.items():
        key = list(key)
        key[i] += mono.x
        key[n + i] += mono.y
        yield tuple(key), c


def expand_elementary(alpha, p, n: int) -> NPoly:
    """Coefficient of t^alpha in prod_i (1 + sum_j p_j(i) t_j)."""
    alpha = tuple(alpha)
    p = tuple(p)
    if len(alpha) != len(p):
        raise ValueError("alpha and p must have equal length")
    if sum(alpha) > n:
        warnings.warn(
            f"|alpha|={sum(alpha)} exceeds n={n}: zero polynomial",
            stacklevel=2,
        )
        return NPoly(n)
    # t-degree -> polynomial in the copies placed so far
    acc = {(0,) * len(alpha): NPoly.constant(n, 1)}
    for i in range(n):
        parts = {}
        for tdeg, poly in acc.items():
            # copy i + 1 left out: the "1" in its factor
            parts.setdefault(tdeg, []).append(poly.terms.items())
            for j, mono in enumerate(p):
                if tdeg[j] < alpha[j]:
                    ndeg = tdeg[:j] + (tdeg[j] + 1,) + tdeg[j + 1:]
                    parts.setdefault(ndeg, []).append(
                        _placed(poly, mono, i)
                    )
        acc = {
            tdeg: _accumulate(n, chain.from_iterable(streams))
            for tdeg, streams in parts.items()
        }
    return acc.get(alpha, NPoly(n))


def expand_eterm(term: ETerm, n: int) -> NPoly:
    """Expand one symbolic term, including its scalar and h power.

    Part of the full route, the reference that term_orbits is tested
    against; verify does not call it.

    A term of total multiplicity above n expands to zero, with the warning
    expand_elementary gives.
    """
    poly = expand_elementary(term.multiplicities(), term.arguments(), n)
    return (poly * term.scalar).shift_hbar(term.hbar)


def moyal(f: NPoly, g: NPoly) -> NPoly:
    """n-particle Moyal product: all y-derivatives act on the left factor.

    f * g = sum_kappa h^|kappa| / kappa! * d_y^kappa f * d_x^kappa g, with
    kappa running over n-vectors.  Integer inputs give integer output; this
    is asserted rather than assumed.  This is the full route's Moyal step,
    the reference that moyal_orbits is tested against; verify does not
    call it.
    """
    if f.n != g.n:
        raise ValueError("mismatched number of copies")
    n = f.n

    def pairs():
        for kf, cf in f.terms.items():
            yexp = kf[n: 2 * n]
            for kg, cg in g.terms.items():
                xexp = kg[:n]
                base = tuple(map(add, kf, kg))
                ranges = [
                    range(min(d, e) + 1) for d, e in zip(yexp, xexp)
                ]
                for kappa in product(*ranges):
                    # kernel perm(d, k) perm(e, k) / k! = C(d, k) perm(e, k)
                    coeff = cf * cg
                    for d, e, k in zip(yexp, xexp, kappa):
                        if k:
                            coeff *= comb(d, k) * perm(e, k)
                    # x_i and y_i each lose kappa_i, h gains |kappa|
                    shift = kappa * 2 + (-sum(kappa),)
                    yield tuple(map(sub, base, shift)), coeff

    result = _accumulate(n, pairs())
    if f.is_integral() and g.is_integral():
        assert result.is_integral(), "Moyal product lost integrality"
    return result


def _derivative(f: NPoly, var: str, copy: int) -> NPoly:
    n = f.n
    pos = copy - 1 if var == "x" else n + copy - 1
    # lowering one exponent is injective on keys, so nothing merges
    return NPoly(n, {
        key[:pos] + (key[pos] - 1,) + key[pos + 1:]: c * key[pos]
        for key, c in f.terms.items()
        if key[pos]
    })


def poisson(f: NPoly, g: NPoly) -> NPoly:
    """Canonical bracket sum_i (dx_i f dy_i g - dy_i f dx_i g)."""
    if f.n != g.n:
        raise ValueError("mismatched number of copies")
    if any(key[-1] for key in chain(f.terms, g.terms)):
        raise ValueError("poisson bracket requires h-free inputs")
    out = NPoly(f.n)
    for i in range(1, f.n + 1):
        out = out + _derivative(f, "x", i) * _derivative(g, "y", i)
        out = out - _derivative(f, "y", i) * _derivative(g, "x", i)
    return out


def expand_terms(terms, n: int) -> NPoly:
    """Sum of the expanded symbolic terms, accumulated in one pass.

    The full route's LHS, kept as the independent reference for
    term_orbits; verify does not call it.
    """
    return _accumulate(n, chain.from_iterable(
        expand_eterm(term, n).terms.items() for term in terms
    ))


def expand_expansion(expansion: StarExpansion, n: int) -> NPoly:
    """Sum of all expanded terms of a star expansion (full route)."""
    return expand_terms(expansion.terms(), n)


def term_orbits(terms, n: int) -> dict:
    """Orbit coefficients of a sum of symbolic terms, with no expansion.

    scalar * e_mu(m_1..m_r) * h^m is one orbit: mu_j copies carry m_j and
    the n - |mu| unused copies carry (0, 0).  A monomial of it arises from
    prod_P count_P! / (prod_j mu_j! * (n - |mu|)!) choices of copies, with
    count_P the copies on pair P.  That is 1 unless slots share a pair, and
    a slot joining c copies on its pair multiplies it by C(c + mu_j, mu_j).
    A term with |mu| > n is zero.
    """
    out = {}
    for term in terms:
        unused = n - sum(term.multiplicities())
        if unused < 0:
            continue
        counts = {}
        weight = 1
        for mult, mono in (*term.slots, (unused, (0, 0))):
            count = counts.get(mono, 0)
            if count:
                weight *= comb(count + mult, mult)
            counts[mono] = count + mult
        pairs = []
        for pair, count in sorted(counts.items()):
            pairs += [pair] * count
        key = (tuple(pairs), term.hbar)
        out[key] = out.get(key, 0) + term.scalar * weight
    return {key: c for key, c in out.items() if c}


def _copy_terms(f: tuple, g: tuple, m: int) -> dict:
    """m copies with left pair f and right pair g: {(pairs, h): coefficient}.

    Each copy picks a term k of its kernel C(d, k) (e)_k (d the left
    y-degree, e the right x-degree); a multiset of picks stands for
    m! / prod_k mult_k! ordered ones.
    """
    (a, d), (e, b) = f, g
    kernel = [comb(d, k) * perm(e, k) for k in range(min(d, e) + 1)]
    out = {}
    for ks in combinations_with_replacement(range(len(kernel)), m):
        coeff = factorial(m)
        for k, run in groupby(ks):
            mult = len(list(run))
            coeff = coeff // factorial(mult) * kernel[k] ** mult
        # a pair falls as k grows, so reversed(ks) gives the pairs sorted
        out[tuple((a + e - k, d + b - k) for k in reversed(ks)), sum(ks)] = coeff
    return out


def moyal_orbits(alpha, p, beta, q, n: int) -> dict:
    """Orbit coefficients of e_alpha(p) * e_beta(q), by grouping copies.

    f = e_alpha(p) is the sum of sigma(x^k) over S_n for one monomial x^k,
    over D = prod_j alpha_j! (n - |alpha|)!, so orbit K gets |Stab(K)| / D
    times the sum of x^k * g over K's monomials.  Up to Stab(k), a monomial
    of g = e_beta(q) is a count matrix c[block][label]: blocks of copies
    with equal pairs in x^k, labels q_1..q_b and unused, column sums beta
    and n - |beta|.  It stands for prod_B s_B! / prod c_Bj! monomials, and
    each (block, label) group is a multiset of kernel terms (_copy_terms).
    Zero when |alpha| > n or |beta| > n.  The full NPoly route
    (expand_elementary, then moyal) is the tested reference, and this
    shares nothing with it.
    """
    alpha = tuple(alpha)
    caps = tuple(beta) + (n - sum(beta),)
    unused = n - sum(alpha)
    if len(alpha) != len(p) or len(caps) != len(q) + 1:
        raise ValueError("margins and monomials must have equal length")
    if unused < 0 or caps[-1] < 0:
        return {}
    blocks = {(0, 0): unused}
    for mult, mono in zip(alpha, p):
        blocks[tuple(mono)] = blocks.get(tuple(mono), 0) + mult
    labels = [tuple(mono) for mono in q] + [(0, 0)]
    rows = [
        [row for row in product(*(range(min(s, c) + 1) for c in caps))
         if sum(row) == s]
        for s in blocks.values()
    ]
    sizes = prod(map(factorial, blocks.values()))
    terms = cache(_copy_terms)
    bins = {}
    for matrix in product(*rows):
        if tuple(map(sum, zip(*matrix))) != caps:
            continue
        part = {((), 0): sizes // prod(map(factorial, chain(*matrix)))}
        for f, row in zip(blocks, matrix):
            for g, m in zip(labels, row):
                if not m:
                    continue
                merged = {}
                for (pairs, h), c in part.items():
                    for (more, k), ck in terms(f, g, m).items():
                        key = tuple(sorted(pairs + more)), h + k
                        merged[key] = merged.get(key, 0) + c * ck
                part = merged
        for orbit, c in part.items():
            bins[orbit] = bins.get(orbit, 0) + c
    den = factorial(unused) * prod(map(factorial, alpha))
    out = {}
    for orbit, c in bins.items():
        # |Stab(K)| = prod_P count_P!, each pair's copies one sorted run
        stabilizer = prod(
            factorial(len(list(run))) for _, run in groupby(orbit[0])
        )
        coeff, rest = divmod(c * stabilizer, den)
        assert rest == 0, "orbit coefficient is not an integer"
        if coeff:
            out[orbit] = coeff
    return out


def _render_orbit(orbit: tuple) -> str:
    """An orbit as its per-copy monomials and h power, e.g. (1, x^2y) h^1."""
    pairs, hbar = orbit
    monos = ", ".join(
        render_monomial(ScaledMonomial(1, Monomial2(x, y))) for x, y in pairs
    )
    return f"({monos}) h^{hbar}"


def _orbit_mismatch(lhs: dict, rhs: dict) -> str:
    differ = sorted(
        (key for key in lhs.keys() | rhs.keys()
         if lhs.get(key, 0) != rhs.get(key, 0)),
        key=lambda key: (key[1], key[0]),
    )
    first = differ[0]
    with full_ints():  # orbit coefficients and pair exponents
        return (
            f"expansion differs from Moyal oracle in {len(differ)} orbit(s); "
            f"first {_render_orbit(first)}: expansion {lhs.get(first, 0)}, "
            f"oracle {rhs.get(first, 0)}"
        )


class VerifyReport(NamedTuple):
    identity_ok: bool
    classical_ok: bool
    paths_ok: bool
    details: list

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.classical_ok and self.paths_ok


def verify(alpha, beta, p, q, n) -> VerifyReport:
    """End-to-end check of the star expansion against the Moyal oracle.

    Both sides and the classical reference are compared in the orbit basis:
    term_orbits for the star side and the classical product, moyal_orbits
    for the Moyal side.  Neither expands a polynomial; the full NPoly route
    is their tested reference.  The two engine paths' term lists are equal
    exactly when their terms are, since star_product sorts each h slice.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    p = tuple(p)
    q = tuple(q)
    details = []
    exp_enum = star_product(alpha, beta, p, q, n, path="enumerate")
    exp_lift = star_product(alpha, beta, p, q, n, path="lift")
    paths_ok = list(exp_enum.terms()) == list(exp_lift.terms())
    del exp_lift  # read by nothing below, so its terms are freed here
    if not paths_ok:
        details.append("enumerate and lift paths produced different terms")

    lhs = term_orbits(exp_enum.terms(), n)
    rhs = moyal_orbits(alpha, p, beta, q, n)
    identity_ok = lhs == rhs
    if not identity_ok:
        details.append(_orbit_mismatch(lhs, rhs))

    classical = term_orbits(classical_product(alpha, p, beta, q, n), n)
    classical_ok = {k: c for k, c in lhs.items() if k[1] == 0} == classical
    if not classical_ok:
        details.append("h^0 slice differs from the classical product")

    return VerifyReport(identity_ok, classical_ok, paths_ok, details)
