"""The quotient towers take only the right K-generators of R and P.

P and R are K-sub-bimodules, K = k[Gamma], so a relation r·h times a
standard monomial s is r times h·s, and ``elim.generators`` keeps a
relation only when it lies outside the span of the right translates of
those kept before it.  A ``_Tower`` on every canonical row of R or P is
the oracle: the kept relations must give the same levels (rows, pivots,
dimensions, collapse rows), the same first failure and the same normal
forms.  The inputs are the paper's group family, where up to |Gamma| times
fewer relations are kept, and two non-equivariant psi whose oracle fails
at degree 2.
"""

import itertools
import random
from pathlib import Path

import pytest

from families import family_inputs, non_equivariant
from nkoszul.homogeneous import _Tower
from nkoszul.jsonio import load_input, parse_input
from test_oracle_tower import all_graded_relations, all_relations

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"

FAMILY = {name: data for name, data, _ in family_inputs(seed=0)}


def family(name):
    return lambda: parse_input(FAMILY[name])[0]


def failing(name):
    return lambda: parse_input(non_equivariant(FAMILY[name]))[0]


def sr_z6():
    return load_input(str(FIXTURES / "sr_z6.json"))[0]


# (input, bound, relations kept of all, graded then oracle)
CASES = {
    "s3": (family("s3"), 5, (6, 36), (6, 36)),
    "sr_z6": (sr_z6, 6, (1, 6), (1, 6)),
    "q8": (family("q8"), 5, (1, 8), (1, 8)),
    "bd12": (family("bd12"), 5, (1, 12), (1, 12)),
    "s3_non_equivariant": (failing("s3"), 5, None, None),
    "q8_non_equivariant": (failing("q8"), 5, None, None),
}


def assert_same_tower(tower, oracle, bound, rng):
    assert tower.ensure(bound) == oracle.ensure(bound)
    assert tower.failed == oracle.failed
    assert tower.starts == oracle.starts
    for new, old in zip(tower.levels, oracle.levels, strict=True):
        assert (new.pivots, new.adim, new.collapsed) == (old.pivots, old.adim, old.collapsed)
        assert new.rows == old.rows
    ctx = tower.ctx
    for n in range(bound + 1):
        words = list(itertools.product(range(ctx.dimV), repeat=n))
        for word in rng.sample(words, min(len(words), 12)):
            g = rng.randrange(ctx.order)
            assert tower.nf(word, g) == oracle.nf(word, g), (word, g)


@pytest.mark.parametrize("name", list(CASES))
def test_the_generator_towers_match_the_all_relations_towers(name):
    build, bound, graded_kept, oracle_kept = CASES[name]
    pres = build()
    rng = random.Random(name)
    towers = [
        (pres.homogenization().tower(), all_graded_relations(pres), graded_kept),
        (pres.oracle(bound).tower, all_relations(pres), oracle_kept),
    ]
    for tower, relations, kept in towers:
        if kept is not None:
            assert (len(tower.relations), len(relations)) == kept
        assert_same_tower(tower, _Tower(pres.ctx, pres.N, relations), bound, rng)
    if name.endswith("non_equivariant"):
        assert pres.oracle(bound).tower.failed == 2
