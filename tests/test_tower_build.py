"""The quotient tower builds each level on basis indices.

``_Tower.ensure`` builds the row of relation r and basis index b of
degree lv − N from b itself: each term's letters go in front of the start
g(s_b), last one first, with one reduction per level below lv, and the
suffix chains of one b are shared by all relations, then dropped.  A chain
that is a standard monomial is held as its basis index: the start is the
int b for the identity, a step to a free position is one read of the
level's position table, and only a step that meets a pivot turns the
chain into the dict {i: one} for ``_Level.front``.  So over the trivial
group the build never touches the word memo ``_nf_memo``.
``ReferenceTower`` below is the earlier build, which decoded every basis
monomial and took the normal form of every term's word through ``nf``,
filling that memo, and stopped at the first failing degree.  It is the
oracle the rows and normal forms below that degree, the first failure and
the witness are compared with; the levels past the failure are compared
with the full-space ``reference``.
"""

import gc
import itertools
import random
import sys
from collections import namedtuple
from pathlib import Path

import pytest

from nkoszul.elim import add_scaled
from nkoszul.filtered import OracleEngine
from nkoszul.homogeneous import _LOWER, _Level, _Tower
from nkoszul.jsonio import load_input, parse_input
from reduced_eliminator import ReducedEliminator
from test_oracle_tower import all_graded_relations, all_relations, random_presentation, reference
from test_s3_cherednik_report import S3_CHEREDNIK
from test_tower_step import level_reduce

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


class ReferenceTower(_Tower):
    """The word-memo build: every term goes through ``nf`` of its whole word,
    and ``nf`` recurses through ``_vector`` one letter at a time."""

    def ensure(self, n):
        ctx = self.ctx
        field = ctx.field
        one = field.one
        mult = ctx.group.mult_table
        while len(self.levels) <= n:
            if self.failed is not None:
                return self.failed
            lv = len(self.levels)
            positions = ctx.dimV * self.levels[-1].adim
            elim = ReducedEliminator(field)
            if lv >= self.N:
                images = {}
                lower_reps = self.reps(lv - self.N)
                for terms in self.relations:
                    for wb, gb in lower_reps:
                        row = {}
                        for word, g, raw in terms:
                            image = images.get((g, wb))
                            if image is None:
                                image = images[g, wb] = ctx.apply_group_to_word(g, wb)
                            ggb = mult[g][gb]
                            for tw, c in image:
                                coeff = raw if c is one else field.mul(raw, c)
                                add_scaled(field, row, self._vector(word + tw, ggb, lv), coeff)
                        piv = elim.add(row)
                        if piv is not None and piv >= positions:
                            self.failed = lv
                            self.witness = {k - _LOWER: v for k, v in elim.pivot_rows[piv].items()}
                            return lv
            self.levels.append(_Level(elim.pivot_rows, positions))
            self.starts.append(self.starts[-1] + self.levels[-1].adim)
        return None

    def _vector(self, word, g, n):
        """The monomial (word, g), of degree at most n, over level n's keys."""
        if len(word) < n:
            return self._lifted(len(word), self.nf(word, g))
        return self._front(word[0], self.nf(word[1:], g), n)

    def nf(self, word, g):
        key = (word, g)
        if key not in self._nf_memo:
            n = len(word)
            self.ensure(n)
            self._nf_memo[key] = level_reduce(self.levels[n], self.ctx.field, self._vector(word, g, n))
        return self._nf_memo[key]


def assert_same_build(tower, relations, bound, nf_degree=4):
    """The same levels as the reference on all of ``relations`` below the
    first failure, where the reference stops."""
    ref = ReferenceTower(tower.ctx, tower.N, relations)
    assert tower.ensure(bound) == ref.ensure(bound)
    assert (tower.failed, tower.witness) == (ref.failed, ref.witness)
    assert len(tower.levels) == bound + 1
    assert len(ref.levels) == (bound + 1 if ref.failed is None else ref.failed)
    assert tower.starts[: len(ref.starts)] == ref.starts
    for new, old in zip(tower.levels, ref.levels):
        assert (new.rows, new.positions) == (old.rows, old.positions)
    ctx = tower.ctx
    for n in range(min(nf_degree, len(ref.levels) - 1) + 1):
        for word in itertools.product(range(ctx.dimV), repeat=n):
            for g in range(ctx.order):
                assert tower.nf(word, g) == ref.nf(word, g), (word, g)


def fixture(name):
    pres, _ = load_input(str(FIXTURES / f"{name}.json"))
    return pres


def s3_cherednik():
    pres, _ = parse_input(S3_CHEREDNIK)
    return pres


def fresh_graded(pres):
    """A new tower on the relations of R, the graded algebra's."""
    return _Tower(pres.ctx, pres.N, pres.homogenization().tower().relations)


@pytest.mark.parametrize(
    "build, graded_bound, oracle_bound",
    [
        (lambda: fixture("cubic_z3"), 9, 7),
        (lambda: fixture("sl2"), 8, 8),
        (lambda: fixture("down_up"), 10, 10),
        (lambda: fixture("sr_z6"), 6, 6),
        (s3_cherednik, 5, 5),
    ],
    ids=["cubic_z3", "sl2", "down_up", "sr_z6", "s3_cherednik"],
)
def test_the_build_matches_the_word_memo_build(build, graded_bound, oracle_bound):
    pres = build()
    # R's tower (homogeneous relations) and P's (lower-degree terms too)
    assert_same_build(fresh_graded(pres), all_graded_relations(pres), graded_bound)
    assert_same_build(OracleEngine(pres, oracle_bound).tower, all_relations(pres), oracle_bound)


def test_the_build_matches_on_random_presentations():
    rng = random.Random(22)
    failing = 0
    for _ in range(100):
        pres, D = random_presentation(rng)
        engine = OracleEngine(pres, D)
        assert_same_build(engine.tower, all_relations(pres), D, nf_degree=3)
        failing += engine.tower.failed is not None
        # every level, past the failure too, against the full space
        engine.run()
        ref = reference(pres, D)
        assert (engine.j_dims, engine.equalities) == (ref.j_dims, ref.equalities)
    # failing inputs, with their witnesses, are among them
    assert 20 <= failing <= 80


def test_the_build_over_the_trivial_group_leaves_the_word_memo_alone():
    tower = fresh_graded(fixture("cubic_z3"))
    assert tower.ctx.order == 1
    assert tower.ensure(8) is None
    assert tower._nf_memo == {((), 0): {0: tower.ctx.field.one}}


def test_the_build_over_a_group_memoizes_only_the_start_words():
    """The word memo holds the normal forms of g(s) ⊗ g·g_s for the terms'
    group elements g ≠ 1 and the standard monomials s of degree lv − N.

    On sr_z6's oracle tower: its one kept relation, a right K-generator of
    P, has terms with g ≠ 1.  The graded tower's R = R0 ⊗ K keeps one
    relation with g = 1 only, which starts no word."""
    tower = fixture("sr_z6").oracle(6).tower
    ctx = tower.ctx
    mult = ctx.group.mult_table
    assert tower.ensure(6) is None
    moved = {g for terms in tower.relations for _, g, _ in terms} - {0}
    assert moved
    starts = {((), g) for g in range(ctx.order)}
    for d in range(6 - tower.N + 1):
        for wb, gb in tower.reps(d):
            for g in moved:
                starts.update((tw, mult[g][gb]) for tw, _ in ctx.apply_group_to_word(g, wb))
    assert set(tower._nf_memo) <= starts
    # words of every start degree are there
    assert {len(w) for w, _ in tower._nf_memo} == set(range(6 - tower.N + 1))


@pytest.mark.parametrize("name, bound", [("cubic_z3", 8), ("sr_z6", 6), ("sl2", 7)])
def test_the_build_leaves_no_reference_cycle(name, bound):
    pres = fixture(name)
    towers = [fresh_graded(pres), OracleEngine(pres, bound).tower]
    gc.collect()
    gc.disable()
    try:
        for tower in towers:
            tower.ensure(bound)
        assert gc.collect() == 0
    finally:
        gc.enable()


# One ``_Level.front`` call that ``_relation_rows`` makes itself: the
# chain it extends (an int or a dict) and that chain's place in the
# chains of one b, the vector passed and the result.
Step = namedtuple("Step", "level j width chain shorter vec out")


def record_build_steps(monkeypatch) -> list:
    """The ``Step`` of every ``_Level.front`` call made by ``_relation_rows``
    itself, not through ``nf`` or ``_front_lower``; the caller's locals
    give the chain the call extends."""
    steps = []
    front = _Level.front
    code = _Tower._relation_rows.__code__

    def recorded(self, field, j, width, vec, lowered):
        out = front(self, field, j, width, vec, lowered)
        caller = sys._getframe(1)
        if caller.f_code is code:
            chain, shorter = caller.f_locals["vec"], caller.f_locals["shorter"]
            steps.append(Step(self, j, width, chain, shorter, vec, out))
        return out

    monkeypatch.setattr(_Level, "front", recorded)
    return steps


def assert_turned_at_a_pivot(step, one):
    """An int chain reaches ``front`` only as {i: one} at a pivot position."""
    assert step.vec == {step.chain: one} and next(iter(step.vec.values())) is one
    assert step.level.table()[step.j * step.width + step.chain] < 0


def test_the_cubic_build_steps_through_front_only_at_pivots(monkeypatch):
    """The cubic's graded tower to degree 9 holds its 9 chains per basis
    index b as ints until one meets a pivot: the dict build made
    9·Σ adim(lv − 3) = 8,568 ``_Level.front`` calls, one per chain and b,
    and this build makes at most a tenth of them (672).  Every call takes
    an int turned into {i: one} at a pivot or a dict an earlier step gave
    (the trivial group starts no dict); some ints turn after an int step,
    and the dict they turn into is stepped on."""
    tower = fresh_graded(fixture("cubic_z3"))
    one = tower.ctx.field.one
    steps = record_build_steps(monkeypatch)
    assert tower.ensure(9) is None
    dict_build = 9 * sum(tower.levels[lv - tower.N].adim for lv in range(tower.N, 10))
    assert dict_build == 8568
    assert 0 < len(steps) <= dict_build // 10
    given = set()  # the results of earlier steps, kept alive in ``steps``
    turned = set()
    turned_mid_chain = continued = 0
    for step in steps:
        if type(step.chain) is int:
            assert_turned_at_a_pivot(step, one)
            turned.add(id(step.out))
            turned_mid_chain += step.shorter > 0
        else:
            assert step.vec is step.chain and id(step.vec) in given
            continued += id(step.vec) in turned
        given.add(id(step.out))
    assert turned_mid_chain and continued


@pytest.mark.parametrize(
    "name, bound, group_starts, failed",
    [("sr_z6", 6, True, None), ("nonjacobi", 8, False, 3)],
    ids=["sr_z6_oracle", "nonjacobi_oracle"],
)
def test_an_int_chain_turns_into_a_dict_at_a_pivot(monkeypatch, name, bound, group_starts, failed):
    """On sr_z6's oracle tower, whose relation has terms with g ≠ 1 and so
    dict starts beside the int one, and on nonjacobi's, which fails at
    degree 3 and carries lower keys: some chain goes from an int to the
    dict {i: one} at a pivot, and the levels are still the word-memo
    build's."""
    pres = fixture(name)
    tower = OracleEngine(pres, bound).tower
    one = tower.ctx.field.one
    steps = record_build_steps(monkeypatch)
    assert_same_build(tower, all_relations(pres), bound)
    assert any(type(step.chain) is int for step in steps)
    for step in steps:
        if type(step.chain) is int:
            assert_turned_at_a_pivot(step, one)
        else:
            assert step.vec is step.chain
    moved = {g for terms in tower.relations for _, g, _ in terms} - {0}
    assert (bool(moved), tower.failed) == (group_starts, failed)
