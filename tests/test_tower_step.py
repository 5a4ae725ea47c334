"""One fused tower step: a letter in front and the reduction in one pass.

``_Level.front(field, j, width, vec, lowered)`` puts letter j in front of
a normal form one level down and returns it reduced, in quotient
coordinates.  The two-pass step it replaces, ``_Tower._front`` (positions
of level n) followed by ``level_reduce`` (``normal_form`` against the
level's rows, then positions to indices), stays here as the reference: the
fused step must give the same keys, in the same order, with the same
values, on every level and letter, and it must not make more field
multiplications than the two-pass step did.
"""

import random
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

import pytest

from nkoszul import cyclo
from nkoszul.elim import normal_form
from nkoszul.filtered import OracleEngine
from nkoszul.homogeneous import _LOWER
from nkoszul.jsonio import load_input
from test_oracle_tower import random_presentation

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def level_reduce(level, field, vec: dict) -> dict:
    """Quotient coordinates of a sparse vector on ``level``; lower keys pass
    through.  ``normal_form`` against the rows, then positions to indices."""
    if not level.rows:
        return vec
    pivots = level.pivots
    red = normal_form(field, level.rows, vec)
    return {(pos - bisect_left(pivots, pos) if pos < _LOWER else pos): v for pos, v in red.items()}


def presentation(name):
    pres, _ = load_input(str(FIXTURES / f"{name}.json"))
    return pres


def graded(name):
    """The group-level graded tower (over |Gamma| = 6 for sr_z6)."""
    return presentation(name).homogenization().tower()


def oracle(name, bound):
    return OracleEngine(presentation(name), bound).tower


def random_vectors(rng, tower, n, j, lower_keys, count=12):
    """Sparse vectors over level n-1's keys, some of them on level n's pivots.

    Top keys are A_{n-1} basis indices; lower keys (_LOWER + i, i a global
    index of a degree below n-1) appear only in a tower with lower-degree
    relation terms.  Entries mix the signs ``field.one`` and
    ``field.minus_one`` with other values, so every path of ``add_scaled``
    is taken.
    """
    field = tower.ctx.field
    width = tower.levels[n - 1].adim
    level = tower.levels[n]
    # basis indices b with j·width + b a pivot of level n
    hitting = [p - j * width for p in level.pivots if j * width <= p < (j + 1) * width]
    lower = tower.starts[n - 1] if lower_keys else 0
    values = [field.one, field.minus_one, field.from_fraction(Fraction(2)), field.from_fraction(Fraction(-1, 3))]
    if tower.ctx.conductor > 2:
        values.append(field.zeta_power(1))
    for _ in range(count):
        keys = set(rng.sample(range(width), min(width, rng.randint(1, 4))))
        if hitting:
            keys.update(rng.sample(hitting, min(len(hitting), rng.randint(0, 3))))
        if lower:
            keys.update(_LOWER + i for i in rng.sample(range(lower), min(lower, rng.randint(0, 3))))
        order = list(keys)
        rng.shuffle(order)
        yield {k: rng.choice(values) for k in order}


def assert_fused_steps(tower, bound, rng):
    """The fused step against the two-pass one on every level and letter;
    the counts of vectors that met a top pivot and a collapse pivot."""
    lower_keys = any(len(word) < tower.N for terms in tower.relations for word, _, _ in terms)
    tower.ensure(bound)
    field = tower.ctx.field
    hits = collapse_hits = 0
    for n in range(1, bound + 1):
        level = tower.levels[n]
        width = tower.levels[n - 1].adim
        for j in range(tower.ctx.dimV):
            for vec in random_vectors(rng, tower, n, j, lower_keys):
                front = tower._front(j, vec, n)
                hits += any(k in level.rows for k in front if k < _LOWER)
                collapse_hits += any(k in level.rows for k in front if k >= _LOWER)
                expected = level_reduce(level, field, front)
                got = level.front(field, j, width, vec, tower._front_lower)
                assert list(got.items()) == list(expected.items()), (n, j, vec)
    return hits, collapse_hits


@pytest.mark.parametrize(
    "build, bound",
    [
        (lambda: graded("sl2"), 8),
        (lambda: graded("cubic_z3"), 8),
        (lambda: graded("sr_z6"), 6),
        (lambda: graded("down_up"), 8),
        (lambda: oracle("nonjacobi", 8), 8),
    ],
    ids=["sl2", "cubic_z3", "sr_z6", "down_up", "nonjacobi_oracle"],
)
def test_the_fused_step_is_the_reduced_front(build, bound):
    tower = build()
    hits, collapse_hits = assert_fused_steps(tower, bound, random.Random(26))
    assert hits
    if tower.failed is not None:
        # nonjacobi's oracle tower fails at degree 3: collapse rows reduce lower keys
        assert collapse_hits


def test_the_fused_step_on_failing_random_presentations():
    """Small failing towers, where a vector meets top and collapse pivots
    whose tails share lower keys, so the order they are added in shows."""
    rng = random.Random(22)
    failing = 0
    for _ in range(60):
        pres, bound = random_presentation(rng)
        tower = OracleEngine(pres, bound).tower
        if tower.ensure(bound) is None:
            continue
        failing += 1
        assert_fused_steps(tower, bound, random.Random(failing))
    assert failing >= 10


def test_the_fused_build_makes_no_more_multiplications(monkeypatch):
    """The cubic's relation coefficients and the entries the build meets are
    signs, which ``add_scaled`` and ``add_shifted`` add or subtract without a
    multiplication: the two-pass build of its graded tower to degree 9 made
    none, and sr_z6's to degree 6 made 515 (counted by the same wrapper)."""
    calls = []
    for cls in (cyclo.RationalField, cyclo.CyclotomicField):
        mul = cls.mul
        monkeypatch.setattr(cls, "mul", lambda self, a, b, mul=mul: calls.append(1) or mul(self, a, b))
    for name, bound, two_pass in (("cubic_z3", 9, 0), ("sr_z6", 6, 515)):
        tower = graded(name)
        calls.clear()
        tower.ensure(bound)
        assert len(calls) <= two_pass, name


# The field operations of the build that held every chain as a dict,
# counted by the wrapper below (CPython 3.11.7): its graded towers of the
# cubic to degree 9 and of sr_z6 to degree 6.
DICT_CHAIN_OPERATIONS = {
    "cubic_z3": {"add": 0, "sub": 330, "neg": 0, "mul": 0},
    "sr_z6": {"add": 0, "sub": 0, "neg": 0, "mul": 0},
}


def test_the_int_chain_build_makes_no_more_field_operations(monkeypatch):
    """The wrapper of ``test_the_fused_build_makes_no_more_multiplications``
    on ``add``, ``sub``, ``neg`` and ``mul``.  Where the dict build
    subtracted one from an entry (``add_shifted``'s path for raw = -1), an
    int chain adds raw = -1, the same value: the cubic's 330 subtractions
    are 330 additions, so the two are counted together."""
    calls: dict = {}
    for cls in (cyclo.RationalField, cyclo.CyclotomicField):
        for op in ("add", "sub", "neg", "mul"):
            method = getattr(cls, op)

            def counted(self, *args, method=method, op=op):
                calls[op] = calls.get(op, 0) + 1
                return method(self, *args)

            monkeypatch.setattr(cls, op, counted)
    for name, bound in (("cubic_z3", 9), ("sr_z6", 6)):
        tower = graded(name)
        calls.clear()
        tower.ensure(bound)
        before = DICT_CHAIN_OPERATIONS[name]
        got = {op: calls.get(op, 0) for op in before}
        assert got["add"] + got["sub"] <= before["add"] + before["sub"], name
        assert got["neg"] <= before["neg"] and got["mul"] <= before["mul"], name


def test_the_build_negates_no_sign_object(monkeypatch):
    """Subtracting a sign entry gives the other sign object, not a fresh
    copy, so the cubic's graded build to degree 9 calls ``neg`` on neither
    ``field.one`` nor ``field.minus_one``."""
    tower = graded("cubic_z3")
    signs = []
    for cls in (cyclo.RationalField, cyclo.CyclotomicField):
        neg = cls.neg

        def counted(self, a, neg=neg):
            if a is self.one or a is self.minus_one:
                signs.append(a)
            return neg(self, a)

        monkeypatch.setattr(cls, "neg", counted)
    tower.ensure(9)
    assert signs == []
