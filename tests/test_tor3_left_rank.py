"""The Koszul certificate's position-2 rank is read off the quotient tower.

In internal degree n, ``koszul_complex_check`` needs the rank of the
differential A_{n-N} ⊗_K R -> A_{n-1} ⊗_K E at position 2, which is the
rank of V^{n-N} ⊗ R -> A_{n-1} ⊗_K E since V^{n-N} spans A_{n-N}.
Since V^{n-N} R + I_{n-1} E = I_n, that rank is
dim I_n - dimV * dim I_{n-1} = dimV * dim A_{n-1} - dim A_n.  The explicit
elimination below is the oracle for that identity: it reduces every image
of V^{n-N} ⊗ R in A_{n-1} ⊗_K E, on the trivial group and on a group
algebra K = k[Z/6] without passing to field level.
"""

from itertools import product
from pathlib import Path

import pytest

from nkoszul.elim import add_scaled
from nkoszul.homogeneous import koszul_complex_check
from nkoszul.jsonio import load_input
from reduced_eliminator import ReducedEliminator

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def mod_IE_map(tower, n, word, g):
    """Image of the monomial word ⊗ g of degree n in A_{n-1} ⊗_K E.

    word ⊗ g = (word[:-1] ⊗ g) · (rho(g^{-1}) e_l ⊗ 1) with l the last
    letter; coordinates are (A_{n-1} basis index, letter of V).
    """
    ctx = tower.ctx
    field = ctx.field
    tower.ensure(n - 1)
    col = ctx.columns[ctx.group.inverses[g]][word[-1]]
    out: dict = {}
    for b, v in tower.nf(word[:-1], g).items():
        for i, raw in col.items():
            out[b * ctx.dimV + i] = field.mul(v, raw)
    return out


def eliminated_rank(alg, n):
    """Rank of V^{n-N} ⊗ R -> A_{n-1} ⊗_K E by explicit elimination."""
    ctx = alg.ctx
    field = ctx.field
    tower = alg.tower()
    elim = ReducedEliminator(field)
    for word in product(range(ctx.dimV), repeat=n - alg.N):
        for rrow in alg.R.basis_sparse():
            vec: dict = {}
            for coord, raw in rrow.items():
                rword, g = ctx.word_of(coord, alg.N)
                add_scaled(field, vec, mod_IE_map(tower, n, word + rword, g), raw)
            elim.add(vec)
    return len(elim.pivot_rows)


@pytest.mark.parametrize(
    "fixture, top, order",
    [("sr_z6", 6, 6), ("cubic_z3", 7, 1), ("down_up", 8, 1)],
)
def test_eliminated_rank_is_the_tower_identity(fixture, top, order):
    pres, _ = load_input(str(FIXTURES / f"{fixture}.json"))
    # the group-level algebra itself, not its field-level slice
    alg = pres.homogenization()
    assert alg.ctx.order == order
    tower = alg.tower()
    dimV = alg.ctx.dimV
    cert = koszul_complex_check(alg, top)
    checked = []
    for n in range(alg.N + 1, top + 1):
        rank = eliminated_rank(alg, n)
        assert rank == dimV * tower.adim(n - 1) - tower.adim(n), n
        # the certificate's ranks start at position 1
        assert cert.degrees[n].ranks[1] == rank, n
        checked.append(rank)
    # the identity is not vacuous: some relation has a nonzero image
    assert any(checked)
