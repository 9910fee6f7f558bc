"""Record contracts: read-only fields, field replacement, and sorts in
field order."""

import random

import pytest

from conftest import WORKED
from qstar.algebra import Monomial2, ScaledMonomial, build_B
from qstar.cubes import CubicalMatrix, enumerate_Q
from qstar.expansion import star_product
from qstar.oracle import verify
from qstar.tables import MarginMatrix, enumerate_L
from qstar.words import ThreeWord, enumerate_A

EXPANSION = star_product(*WORKED)

RECORDS = [
    (Monomial2(1, 2), "x"),
    (ScaledMonomial(3, Monomial2(1, 2)), "coeff"),
    (build_B(WORKED[2], WORKED[3]), "entries"),
    (MarginMatrix(((0, 1), (1, 0))), "rows"),
    (CubicalMatrix(1, 1, ((0, 0, 1, 1),)), "entries"),
    (ThreeWord(((0, 1, 2),)), "columns"),
    (next(EXPANSION.terms()), "scalar"),
    (next(EXPANSION.terms()), "slots"),
    (EXPANSION, "by_order"),
    (verify(*WORKED), "details"),
    (build_B(WORKED[2], WORKED[3]), "columns"),
]


@pytest.mark.parametrize("record, name", RECORDS)
def test_fields_are_read_only(record, name):
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is value


@pytest.mark.parametrize("record, name, value", [
    (build_B(WORKED[2], WORKED[3]), "p_args", WORKED[3]),
    (ThreeWord(((0, 2, 2), (1, 2, 2))), "columns", ((0, 3, 3),)),
], ids=["BTable", "ThreeWord"])
def test_replace_and_make(record, name, value):
    # namedtuple's _make checks len() against the number of fields
    replaced = record._replace(**{name: value})
    assert getattr(replaced, name) == value
    assert replaced == type(record)._make(
        value if field == name else getattr(record, field)
        for field in record._fields)
    assert replaced._replace(**{name: getattr(record, name)}) == record


def _shuffled(items):
    items = list(items)
    random.Random(7).shuffle(items)
    return items


@pytest.mark.parametrize("records, fields", [
    (enumerate_Q((1,), (1,), 2, 1) + enumerate_Q((1, 1), (2, 1), 4, 1)
     + enumerate_Q((2,), (1, 1), 3, 2), ("a", "b", "entries")),
    (enumerate_L((1, 1), (2, 1), 4) + enumerate_L((1,), (2,), 3), ("rows",)),
    (enumerate_A((1, 1), (2, 1), 4, 1) + enumerate_A((1,), (1,), 2, 2),
     ("columns",)),
    ([*EXPANSION.terms(), *star_product(
        (1, 1), (1,), (Monomial2(1, 1), Monomial2(0, 1)), (Monomial2(2, 1),),
        3).terms()],
     ("hbar", "scalar", "slots")),
])
def test_sort_is_field_order(records, fields):
    def key(record):
        return tuple(getattr(record, f) for f in fields)

    shuffled = _shuffled(records)
    assert sorted(shuffled) == sorted(shuffled, key=key)
    assert len({key(r) for r in records}) == len(records)
