"""Assembly of symbolic star-product terms from cubical matrices.

Each cubical matrix contributes one elementary multisymmetric term whose
arguments are read off the B table at the places (k, i, j) of its runs.
Star-kernel coefficients enter the term scalar raised to the slot
multiplicity; a matrix with a unit above the pair's top grade K_ij
contributes nothing.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement, groupby, product
from math import prod
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .algebra import (
    BTable,
    Monomial2,
    ScaledMonomial,
    build_B,
    full_ints,
    render_monomial,
)
from .cubes import CubicalMatrix, contributing_support, lift_all, max_order
from .tables import enumerate_L


def canonical_slots(slots) -> tuple:
    """Sort (multiplicity, monomial) slots; equal monomials stay separate.

    The order is total degree, then x, then y, then multiplicity, sorted
    as plain tuples with no key function.
    """
    keyed = sorted([(mono.x + mono.y, mono, mult) for mult, mono in slots])
    return tuple([(mult, mono) for _, mono, mult in keyed])


class ETerm(NamedTuple):
    """scalar * e_(multiplicities)(monomials) * h^hbar.

    slots holds ordered (multiplicity, Monomial2) pairs.  A term keeps no
    matrix: pair each capped matrix with its term through the lift route,
    (gamma_to_eterm(g, btable), g) for g in lift_all(...).
    """

    hbar: int
    scalar: int
    slots: tuple

    def multiplicities(self) -> tuple:
        return tuple(mult for mult, _ in self.slots)

    def arguments(self) -> tuple:
        return tuple(mono for _, mono in self.slots)


class StarExpansion(NamedTuple):
    alpha: tuple
    beta: tuple
    p: tuple
    q: tuple
    n: int
    s_bound: int
    m_bound: int
    by_order: dict  # hbar power -> list of ETerm

    def terms(self):
        for m in sorted(self.by_order):
            yield from self.by_order[m]

    def term_counts(self) -> dict:
        return {m: len(ts) for m, ts in sorted(self.by_order.items())}


def gamma_to_eterm(gamma: CubicalMatrix, btable: BTable):
    """One symbolic term per matrix, or None when the term vanishes.

    Run (k, i, j, v) takes the argument at place (k, i, j) of
    btable.entries v times.  An interior run with no place is a unit above
    K_ij, so the term vanishes; any other run with no place raises.
    """
    a, b = gamma.a, gamma.b
    if a != btable.a or b != btable.b:
        raise ValueError("matrix dimensions do not match the BTable")
    slots = []
    scalar = 1
    hbar = 0
    for k, i, j, v in gamma.entries:
        entry = btable.entries.get((k, i, j))
        if entry is None:
            if 0 < i <= a and 0 < j <= b:
                return None
            raise ValueError(f"run {k, i, j, v} is outside the shape {a},{b}")
        scalar *= entry.coeff ** v
        slots.append((v, entry.mono))
        hbar += k * v
    return ETerm(hbar, scalar, canonical_slots(slots))


def product_terms(alpha, beta, n, btable: BTable):
    """The terms of every capped cubical matrix over L, cell by cell.

    For each gamma of enumerate_L, the matrices that smash onto it with
    cell (i, j) on levels 0..K_ij are the Cartesian product, over the
    interior cells of gamma.cells(), of the multisets of gamma_ij levels.
    Each (i, j, units) table is built once per call: per multiset, in
    combinations_with_replacement order, its weight, its scalar (the
    product of coeff ** v) and its (degree, monomial, v, (v, monomial))
    slot triples.  The boundary cells of gamma.cells() give, at level 0,
    triples fixed per gamma, with coefficients 1, so a term is a sum of
    weights, a product of scalars and one sort of the joined triples, the
    order of canonical_slots, whose last fields are its slots.
    """
    entries = btable.entries
    last = itemgetter(-1)

    @cache
    def triple(k: int, i: int, j: int, v: int) -> tuple:
        mono = entries[k, i, j].mono
        return mono.degree(), mono, v, (v, mono)

    @cache
    def table(i: int, j: int, units: int) -> list:
        out = []
        for combo in combinations_with_replacement(
                range(btable.k_max(i, j) + 1), units):
            runs = [(k, i, j, len(list(run))) for k, run in groupby(combo)]
            scalar = prod([entries[k, i, j].coeff ** v for k, _, _, v in runs])
            out.append((sum(combo), scalar, [triple(*r) for r in runs]))
        return out

    for gamma in enumerate_L(alpha, beta, n):
        cells = gamma.cells()
        fixed = [triple(0, i, j, v) for i, j, v in cells if not (i and j)]
        pieces = [table(i, j, units) for i, j, units in cells if i and j]
        for pick in product(*pieces):
            hbar = 0
            scalar = 1
            triples = fixed.copy()
            for w, s, t in pick:
                hbar += w
                scalar *= s
                triples += t
            triples.sort()
            yield ETerm(hbar, scalar, tuple(map(last, triples)))


def star_product(alpha, beta, p, q, n, path: str = "enumerate") -> StarExpansion:
    """Full star product of e_alpha(p) and e_beta(q), truncated at S and M.

    Both paths take L from enumerate_L and cap cell (i, j) at K_ij, so
    every matrix they build contributes: neither yields None, which
    gamma_to_eterm keeps for a unit above K_ij.  They differ in placing
    the levels and in assembling the terms.  The enumerate path assembles
    each term from per-cell pieces (product_terms) with no weight bound: a
    level is at most K_ij <= S and the interior holds at most min(|alpha|,
    |beta|) units, so no matrix weighs more than M.  The lift path folds
    over the cells with lift_all up to M instead and assembles each
    matrix's term with gamma_to_eterm, the route that pairs a term with
    its matrix; no term keeps one.  So the paths check each other's level
    placement and assembly, and words.enumerate_A at m = 0 checks L.
    Each h slice is sorted by (slots, scalar), which orders unequal
    terms strictly, so the two paths give equal term lists exactly when
    they give the same multiset of terms, whatever order they come in,
    and render alike.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    p = tuple(p)
    q = tuple(q)
    if len(p) != len(alpha) or len(q) != len(beta):
        raise ValueError("monomial lists must match multi-index lengths")
    if path not in ("enumerate", "lift"):
        raise ValueError(f"unknown path {path!r}")
    btable = build_B(p, q)
    s_bound = contributing_support(p, q)
    m_bound = max_order(alpha, beta, n, s_bound)
    if path == "enumerate":
        terms = product_terms(alpha, beta, n, btable)
    else:
        terms = (gamma_to_eterm(gamma, btable) for gamma in
                 lift_all(alpha, beta, n, m_bound, btable.k_max))
    by_order = {}
    for term in terms:
        by_order.setdefault(term.hbar, []).append(term)
    for terms in by_order.values():
        terms.sort(key=attrgetter("slots", "scalar"))
    return StarExpansion(
        alpha, beta, p, q, n, s_bound, m_bound, by_order
    )


def _monomial_text(mono: Monomial2) -> str:
    return render_monomial(ScaledMonomial(1, mono))


def _text_slot(slot: tuple) -> tuple:
    return str(slot[0]), _monomial_text(slot[1])


def _render_text(expansion: StarExpansion) -> str:
    text = cache(_text_slot)  # each distinct slot written once per call
    out = []
    for t in expansion.terms():
        texts = list(map(text, t.slots))
        body = (f"e_({','.join([mult for mult, _ in texts])})"
                f"({','.join([arg for _, arg in texts])})")
        if t.scalar != 1:
            body = f"{t.scalar} {body}"
        if t.hbar == 1:
            body += " h"
        elif t.hbar > 1:
            body += f" h^{t.hbar}"
        out.append(body)
    return " + ".join(out)


def _json_list(items: list, indent: str) -> str:
    """A list whose items are already written at indent + 2 spaces."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + f"\n{indent}]"


def _json_slot(slot: tuple) -> str:
    mult, mono = slot
    return (
        f'        {{\n          "mult": {mult},\n          "monomial": {{\n'
        f'            "x": {mono.x},\n            "y": {mono.y}\n'
        f'          }}\n        }}'
    )


def _json_values(values) -> str:
    """A params list, its items written at 6 spaces."""
    return _json_list([f"      {v}" for v in values], "    ")


def _render_json(expansion: StarExpansion) -> str:
    e = expansion
    p, q = ([f'"{_monomial_text(mono)}"' for mono in monos]
            for monos in (e.p, e.q))  # monomial texts: nothing to escape
    slot = cache(_json_slot)  # each distinct slot written once per call
    terms = [
        f'    {{\n      "m": {t.hbar},\n      "scalar": {t.scalar},\n'
        f'      "slots": {_json_list([*map(slot, t.slots)], "      ")}\n    }}'
        for t in e.terms()
    ]
    return (
        f'{{\n  "params": {{\n    "alpha": {_json_values(e.alpha)},\n'
        f'    "beta": {_json_values(e.beta)},\n    "p": {_json_values(p)},\n'
        f'    "q": {_json_values(q)},\n    "n": {e.n}\n  }},\n'
        f'  "bounds": {{\n    "S": {e.s_bound},\n    "M": {e.m_bound}\n  }},\n'
        f'  "terms": {_json_list(terms, "  ")}\n}}'
    )


def render(expansion: StarExpansion, fmt: str = "text") -> str:
    """Deterministic serialization; text mirrors e_(...)(...) h^m notation.

    JSON is the bytes of json.dumps(doc, indent=2) for the document
    {"params", "bounds", "terms"}, tests/test_expansion.py's reference, but
    one writer makes all of it from templates at that indentation: its
    only strings are monomial texts, digits, x, y and ^, which json would
    not escape.  JSON "bounds.S" is the sharp contributing_support the
    expansion was truncated at, not the paper's length-based bound (the
    tests' reference max_support in tests/conftest.py).  Each distinct
    slot is written once per call.  Scalars are written in full, inside
    algebra.full_ints; an unknown format raises before it is entered.
    """
    writer = {"text": _render_text, "json": _render_json}.get(fmt)
    if writer is None:
        raise ValueError(f"unknown format {fmt!r}")
    with full_ints():
        return writer(expansion)
