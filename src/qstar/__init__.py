"""Exact star products of elementary multisymmetric functions on (R^2)^n/S_n."""

from .algebra import (
    BTable,
    Monomial2,
    ScaledMonomial,
    build_B,
    parse_monomial,
    render_monomial,
    star_pair,
)
from .cubes import (
    CubicalMatrix,
    enumerate_Q,
    from_vector,
    lift,
    lift_all,
    contributing_support,
    max_order,
    max_support,
    to_vector,
)
from .expansion import ETerm, StarExpansion, gamma_to_eterm, render, star_product
from .oracle import (
    NPoly,
    expand_elementary,
    expand_eterm,
    expand_terms,
    moyal,
    poisson,
    verify,
)
from .tables import MarginMatrix, classical_product, enumerate_L
from .words import (
    ThreeWord,
    decode,
    encode,
    enumerate_A,
    in_A,
    row_type,
    validate_word,
    word_stats,
)

__version__ = "0.1.0"
