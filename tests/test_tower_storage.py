"""The quotient tower stores positions, not words.

Each level of ``homogeneous._Tower`` keeps only its canonical kernel rows
and their sorted pivots; the A_n basis is the non-pivot positions, and
``reps`` decodes their monomials on demand.  ``StoredTower`` below is the
earlier construction, which kept an eliminator, a position -> basis index
dict and the basis word tuples per level.  It is the oracle the decoded
``reps`` and the normal forms are compared with.
"""

import gc
import itertools
import tracemalloc
from pathlib import Path

import pytest

from nkoszul.elim import SparseEliminator, accumulate, add_scaled, express, pivot_index
from nkoszul.homogeneous import _Level, w_rows
from nkoszul.jsonio import load_input
from reduced_eliminator import ReducedEliminator
from test_koszul_reference import BalancedTensor

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


class StoredTower:
    """Per level: an eliminator, ``a_index`` (position -> basis index) and
    ``reps`` (basis index -> (word, g)), all kept."""

    def __init__(self, alg):
        self.N = alg.N
        self.R = alg.R
        self.ctx = ctx = alg.ctx
        order = ctx.order
        self.levels = [
            (ReducedEliminator(ctx.field), order, {g: g for g in range(order)}, [((), g) for g in range(order)])
        ]
        self.memo = {((), g): {g: ctx.field.one} for g in range(order)}

    def ensure(self, n):
        ctx = self.ctx
        field = ctx.field
        mult = ctx.group.mult_table
        split = []
        for row in self.R.basis_sparse():
            terms = []
            for coord, raw in row.items():
                word, g = ctx.word_of(coord, self.N)
                terms.append((word[0], word[1:], g, raw))
            split.append(terms)
        while len(self.levels) <= n:
            lv = len(self.levels)
            prev = self.levels[-1]
            width = prev[1]
            elim = ReducedEliminator(field)
            if lv >= self.N:
                for terms in split:
                    for wb, gb in self.levels[lv - self.N][3]:
                        row: dict = {}
                        for j, rest, g, raw in terms:
                            for tw, c in ctx.apply_group_to_word(g, wb):
                                nfv = self.nf(rest + tw, mult[g][gb])
                                shifted = {j * width + b2: v for b2, v in nfv.items()}
                                add_scaled(field, row, shifted, field.mul(raw, c))
                        elim.add(row)
            a_index = {}
            reps = []
            for pos in range(ctx.dimV * width):
                if pos not in elim.pivot_rows:
                    a_index[pos] = len(reps)
                    j, b = divmod(pos, width)
                    wb, gb = prev[3][b]
                    reps.append(((j,) + wb, gb))
            self.levels.append((elim, len(reps), a_index, reps))

    def nf(self, word, g):
        key = (word, g)
        if key not in self.memo:
            n = len(word)
            self.ensure(n)
            elim, _, a_index, _ = self.levels[n]
            base = word[0] * self.levels[n - 1][1]
            vec = {base + b: v for b, v in self.nf(word[1:], g).items()}
            self.memo[key] = {a_index[pos]: v for pos, v in elim.reduce(vec).items()}
        return self.memo[key]


def group_level(fixture):
    pres, _ = load_input(str(FIXTURES / f"{fixture}.json"))
    # the group-level homogenization itself, not its field-level slice
    return pres.homogenization()


@pytest.mark.parametrize(
    "fixture, bound, order",
    [("sl2", 8, 1), ("cubic_z3", 9, 1), ("sr_z6", 6, 6), ("down_up", 8, 1)],
)
def test_decoded_reps_and_normal_forms_match_the_stored_tower(fixture, bound, order):
    alg = group_level(fixture)
    ctx = alg.ctx
    assert ctx.order == order
    tower = alg.tower()
    oracle = StoredTower(alg)
    oracle.ensure(bound)
    for n in range(bound + 1):
        reps = tower.reps(n)
        assert reps == oracle.levels[n][3], n
        assert tower.adim(n) == oracle.levels[n][1] == len(reps)
        # a basis monomial's normal form is its own basis vector
        assert all(tower.nf(w, g) == {b: ctx.field.one} for b, (w, g) in enumerate(reps))
        for word in itertools.product(range(ctx.dimV), repeat=n):
            for g in range(order):
                assert tower.nf(word, g) == oracle.nf(word, g), (word, g)


def test_no_level_holds_an_eliminator_a_column_index_or_words():
    alg = group_level("sr_z6")
    tower = alg.tower()
    tower.ensure(6)
    assert _Level.__slots__ == ("rows", "pivots", "positions", "adim", "collapsed", "index")
    for level in tower.levels:
        assert not hasattr(level, "__dict__")
        assert type(level.rows) is dict
        assert all(type(p) is int and type(row) is dict for p, row in level.rows.items())
        assert all(type(c) is int for row in level.rows.values() for c in row)
        assert level.pivots == sorted(level.rows)
        assert all(type(p) is int for p in level.pivots)
        assert type(level.positions) is int and type(level.adim) is int
        assert level.adim == level.positions - len(level.rows)
        assert level.collapsed == 0  # a graded level has no lower keys
        for slot in _Level.__slots__:
            assert not isinstance(getattr(level, slot), SparseEliminator)
        # the position table, once a front has read the level
        if level.index is not None:
            free = [p - sum(q < p for q in level.pivots) for p in range(level.positions)]
            assert level.index == [-1 if p in level.rows else i for p, i in enumerate(free)]
    # the kernel is not empty from degree N on, so the rows are exercised
    assert all(tower.levels[n].rows for n in range(alg.N, 7))
    assert tower.levels[alg.N].index is not None
    # the build of the cubic's level D reads the levels below it, and
    # nothing reads level D, so it holds no table
    cubic = group_level("cubic_z3").tower()
    cubic.ensure(7)
    assert cubic.levels[7].rows and cubic.levels[7].index is None
    assert cubic.levels[6].index is not None


# Bytes the tower of cubic_z3 retains after ensure(9), measured with
# tracemalloc exactly as below on the construction that stored an
# eliminator (with its column index), ``a_index`` and ``reps`` per level
# (CPython 3.11.7): 11,847,580 bytes.
STORED_TOWER_BYTES = 11_847_580


def test_the_tower_retains_under_six_tenths_of_the_stored_construction():
    alg = group_level("cubic_z3")
    gc.collect()
    tracemalloc.start()
    try:
        tower = alg.tower()
        tower.ensure(9)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tower.adim(9) == 14849
    assert retained < 0.6 * STORED_TOWER_BYTES


@pytest.mark.parametrize("a", [0, 1, 2, 3])
def test_balanced_tensor_matches_the_free_position_index(a):
    """Bisect over the pivots gives the coordinates the index dict gave.

    ``BalancedTensor`` is the Koszul certificate's reference construction
    (tests/test_koszul_reference.py); it keeps its quotient as a ``_Level``.
    """
    alg = group_level("sr_z6")
    ctx = alg.ctx
    field = ctx.field
    tower = alg.tower()
    rows = w_rows(alg, alg.N, {})
    degree = alg.N
    bt = BalancedTensor(tower, a, rows, degree)
    # the balance rows, eliminated and indexed as before
    na, ns = tower.adim(a), len(rows)
    elim = ReducedEliminator(field)
    index = pivot_index(rows)
    reps = tower.reps(a)
    for g in ctx.group.generators:
        action = [express(field, rows, index, ctx.left_action_sparse(g, s, degree)) for s in rows]
        for b in range(na):
            wb, gb = reps[b]
            u = tower.nf(wb, ctx.group.mult_table[gb][g])
            for t in range(ns):
                row = {b2 * ns + t: v for b2, v in u.items()}
                for t2, c in action[t]:
                    accumulate(field, row, b * ns + t2, field.neg(c))
                elim.add(row)
    assert len(elim.pivot_rows) > 0
    assert bt.dim == na * ns - len(elim.pivot_rows)
    free = [pos for pos in range(na * ns) if pos not in elim.pivot_rows]
    free_index = {pos: i for i, pos in enumerate(free)}
    two = field.add(field.one, field.one)
    for pos in range(na * ns):
        vec = {pos: two, (pos + 1) % (na * ns): field.one}
        expected = {free_index[p]: v for p, v in elim.reduce(vec).items()}
        assert bt.reduce(vec) == expected
