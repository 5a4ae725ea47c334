"""The fully reduced reference eliminator keeps the canonical basis and its
column index after every insert."""

import random

import pytest

from nkoszul.cyclo import get_field
from nkoszul.elim import add_scaled, combine, express, pivot_index
from reduced_eliminator import ReducedEliminator
from test_elim import random_entry


def assert_fully_reduced(field, elim):
    rows = elim.pivot_rows
    occupancy: dict = {}
    for p, row in rows.items():
        assert min(row) == p and row[p] is field.one
        assert all(q not in row for q in rows if q != p)
        for j in row:
            if j != p:
                occupancy.setdefault(j, set()).add(p)
    assert elim._col_index == occupancy


@pytest.mark.parametrize("conductor", [1, 3])
def test_eliminator_invariants_under_shuffled_insertion(conductor):
    field = get_field(conductor)
    rng = random.Random(20 + conductor)
    width = 7
    for _ in range(25):
        rows = [
            {c: random_entry(rng, field) for c in rng.sample(range(width), rng.randint(1, 4))}
            for _ in range(rng.randint(1, 6))
        ]
        # a dependent row, so that some insertions reduce to zero
        rows.append(combine(field, rows, [(0, random_entry(rng, field)), (len(rows) - 1, field.one)]))
        canonical = None
        for _ in range(3):
            order = rows[:]
            rng.shuffle(order)
            elim = ReducedEliminator(field)
            for r in order:
                elim.add(r)
                assert_fully_reduced(field, elim)
            if canonical is None:
                canonical = elim.rows_canonical()
            assert elim.rows_canonical() == canonical
        index = pivot_index(canonical)
        for _ in range(5):
            v = {c: random_entry(rng, field) for c in rng.sample(range(width), rng.randint(0, width))}
            red = elim.reduce(v)
            assert not set(red) & set(index)
            diff = dict(v)
            add_scaled(field, diff, red, field.neg(field.one))
            assert combine(field, canonical, express(field, canonical, index, diff)) == diff
