"""The tor3 relations read off the Koszul certificate agree with the degreewise equality.

``check_tor3_concentration`` reports, for 2N <= n <= D, exactness of the
Koszul complex at position 2 in internal degree n.  The degreewise
equality below is the oracle: it compares

    dim[(V^{⊗(n-N)} R) ∩ (I_{n-1} E)]  and  dim[V^{⊗(n-N-1)} W_{N+1} + I_{n-N} R]

by building the right side in A_{n-N} ⊗_K R on its own, and runs on the
group-level algebra even where the checks pass to field level.
"""

from pathlib import Path

import pytest

from nkoszul.elim import SparseEliminator, accumulate, pivot_index
from nkoszul.filtered import build_lie
from nkoszul.homogeneous import (
    BalancedTensor,
    HomogeneousAlgebra,
    check_tor3_concentration,
    prefix_split,
    w_rows,
)
from nkoszul.jsonio import load_input
from nkoszul.scalar import Scalar
from nkoszul.smashtensor import GroupData, Subbimodule, TensorContext

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def tor3_relation_holds(alg, n, w_cache):
    """The degree-n equality of the two dimensions above.

    The right side contains the left for structural reasons, so the
    dimension equality is the whole content.  The left side needs no
    elimination: V^{⊗(n-N)} R + I_{n-1} E = I_n, so the map of
    V^{⊗(n-N)} ⊗ R into A_{n-1} ⊗_K E has rank
    dimV dim A_{n-1} - dim A_n, read off the tower.
    """
    ctx = alg.ctx
    field = ctx.field
    N = alg.N
    tower = alg.tower()
    a = n - N
    tower.ensure(n)
    r_rows = alg.R.basis_sparse()
    dimV = ctx.dimV
    dim_VaR = dimV**a * len(r_rows)
    lhs_dim = dim_VaR - (dimV * tower.adim(n - 1) - tower.adim(n))

    # right side: dim I_a R + rank of V^{⊗(a-1)} W_{N+1} in A_a ⊗_K R
    bt = BalancedTensor(tower, a, r_rows, N)
    dim_IaR = dim_VaR - bt.dim
    wn1 = w_rows(alg, N + 1, w_cache)
    lower = ctx.component_dim(N)
    index = pivot_index(r_rows)
    splits = [prefix_split(field, w, lower, r_rows, index) for w in wn1]
    elim = SparseEliminator(field)
    ns = len(r_rows)
    for word in ctx.words(a - 1):
        for split in splits:
            vec: dict = {}
            for j, t, c in split:
                for b, v in tower.nf(word + (j,), 0).items():
                    accumulate(field, vec, b * ns + t, field.mul(c, v))
            elim.add(bt.reduce(vec))
    return lhs_dim == dim_IaR + elim.rank


def sl2():
    return build_lie({(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}}).homogenization()


def fixture(name):
    # the group-level algebra itself, not its field-level slice
    pres, _ = load_input(str(FIXTURES / f"{name}.json"))
    return pres.homogenization()


def non_koszul_quadratic():
    ctx = TensorContext(3, GroupData.trivial(3, 1), 1)
    x, y, z = 0, 1, 2
    one = Scalar.rational(1)
    R = Subbimodule.from_elements(ctx, 2, [{((z, x), 0): one}, {((x, y), 0): one, ((y, z), 0): one}])
    return HomogeneousAlgebra(ctx, 2, R)


@pytest.mark.parametrize(
    "make, D, order, verdict",
    [
        (sl2, 8, 1, "holds_up_to_8"),
        (lambda: fixture("down_up"), 9, 1, "holds_up_to_9"),
        (lambda: fixture("cubic_z3"), 9, 1, "holds_up_to_9"),
        (lambda: fixture("sr_z6"), 6, 6, "holds_up_to_6"),
        (non_koszul_quadratic, 6, 1, "fails(4)"),
    ],
    ids=["sl2", "down_up", "cubic_z3", "sr_z6", "non_koszul"],
)
def test_relations_match_the_degreewise_oracle(make, D, order, verdict):
    alg = make()
    assert alg.ctx.order == order
    w_cache: dict = {}
    oracle = {n: tor3_relation_holds(alg, n, w_cache) for n in range(2 * alg.N, D + 1)}
    rep = check_tor3_concentration(make(), D)
    assert rep.relations == oracle
    assert rep.verdict == verdict
