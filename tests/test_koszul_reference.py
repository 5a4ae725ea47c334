"""The Koszul certificate against its construction over the balanced tensor.

``_koszul_certificate`` reads every group-level dimension and rank off one
image rule in A_a ⊗ V^{⊗m}, where A_a ⊗_K W_m embeds because K = k[Gamma]
is semisimple.  The reference below builds A_a ⊗_K W_m as the explicit
quotient ``BalancedTensor`` of A_a ⊗_k W_m, expands each W_{zeta(i)} row
over V^{⊗delta} ⊗ W_{zeta(i-1)}, and loops over all dimV^a words; the two
must give the same certificate.  Both run on the group-level algebra, with
no field-level dispatch, so positions >= 3 over a nontrivial group are
exercised.  The elimination that ``scalar_extension_slice`` used to make
is kept here too, as the reference for its reading of canonical rows.
"""

import json
import random
from itertools import product
from pathlib import Path

import pytest

from nkoszul.elim import TaggedRows, accumulate, combine, express, pivot_index
from nkoszul.filtered import build_lie, prefix_split
from nkoszul.homogeneous import (
    DegreeCertificate,
    HomogeneousAlgebra,
    KoszulCertificate,
    _koszul_certificate,
    _Level,
    _Tower,
    is_antisymmetrizer_relations,
    scalar_extension_slice,
    w_rows,
    zeta_degrees,
)
from nkoszul.jsonio import load_input
from nkoszul.scalar import MatrixS, Scalar
from nkoszul.smashtensor import GroupData, Subbimodule, TensorContext
from paper_checks import change_of_rings
from reduced_eliminator import ReducedEliminator
from test_tower_step import level_reduce

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"

S3_CHEREDNIK = {
    "context": {
        "conductor": 1,
        "dimV": 4,
        "group_generators": [
            ["-1", "1", "0", "0", "0", "1", "0", "0", "0", "0", "-1", "0", "0", "0", "1", "1"],
            ["1", "0", "0", "0", "1", "-1", "0", "0", "0", "0", "1", "1", "0", "0", "0", "-1"],
        ],
    },
    "presentation": {
        "builder": "h_psi",
        "p": 2,
        "psi_builder": {
            "builder": "symplectic_reflection",
            "omega": [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["-1", "0", "0", "0"], ["0", "-1", "0", "0"]],
            "m": ["1", "1/2", "1/2", "1", "1", "1/2"],
        },
    },
}


class BalancedTensor:
    """A_a (x)_K S as an explicit quotient of A_a (x)_k S.

    S is given by its canonical rows in degree ``degree``.  Coordinates are
    pairs (A-basis index, S-row index) at position b·|S| + t; the balance
    rows b·g (x) s - b (x) g·s over the group generators are eliminated
    once and kept as a ``_Level``, so a reduction lands on the non-pivot
    positions.  Over the trivial group vectors pass through unchanged.
    """

    def __init__(self, tower: _Tower, a: int, rows: list[dict], degree: int):
        ctx = tower.ctx
        field = ctx.field
        na = tower.adim(a)
        ns = len(rows)
        elim = ReducedEliminator(field)
        index = pivot_index(rows)
        reps = tower.reps(a) if ctx.group.generators else []
        for g in ctx.group.generators:
            # g acting on S rows, expressed back over the S basis
            action = [express(field, rows, index, ctx.left_action_sparse(g, srow, degree)) for srow in rows]
            for b, (wb, gb) in enumerate(reps):
                u = tower.nf(wb, ctx.group.mult_table[gb][g])
                for t in range(ns):
                    row = {b2 * ns + t: v for b2, v in u.items()}
                    for t2, c in action[t]:
                        accumulate(field, row, b * ns + t2, field.neg(c))
                    elim.add(row)
        self.field = field
        self.quotient = _Level(elim.pivot_rows, na * ns)
        self.dim = self.quotient.adim

    def reduce(self, vec: dict) -> dict:
        """Quotient coordinates of a sparse (b, t)-vector."""
        return level_reduce(self.quotient, self.field, vec)


def all_words(ctx, length):
    return list(product(range(ctx.dimV), repeat=length))


def reference_certificate(alg: HomogeneousAlgebra, D: int) -> KoszulCertificate:
    """The certificate over ``BalancedTensor`` and all words, at group level."""
    ctx = alg.ctx
    field = ctx.field
    tower = alg.tower()
    tower.ensure(D)
    zetas = zeta_degrees(alg.N, D)
    w_sparse = {m: w_rows(alg, m, {}) for m in zetas}

    comp_zero = True
    for idx in range(1, len(zetas) - 1):
        m_lo = zetas[idx - 1]
        elim = ReducedEliminator(field)
        for rrow in alg.R.basis_sparse():
            for lrow in w_sparse[m_lo]:
                elim.add(ctx.row_product(rrow, lrow, m_lo))
        comp_zero = comp_zero and all(elim.contains(r) for r in w_sparse[zetas[idx + 1]])

    bts: dict = {}

    def bt_for(a, m):
        if (a, m) not in bts:
            bts[a, m] = BalancedTensor(tower, a, w_sparse[m], m)
        return bts[a, m]

    def expansion(i):
        prev_rows = w_sparse[zetas[i - 1]]
        lower = ctx.component_dim(zetas[i - 1])
        index = pivot_index(prev_rows)
        return [prefix_split(field, row, lower, prev_rows, index) for row in w_sparse[zetas[i]]]

    expansions = {i: expansion(i) for i in range(3, len(zetas))}

    degrees = []
    for d in range(D + 1):
        imax = max(i for i, z in enumerate(zetas) if z <= d)
        dims = [tower.adim(d)]
        if imax >= 1:
            dims.append(tower.adim(d - 1) * ctx.dimV)
        for i in range(2, imax + 1):
            dims.append(bt_for(d - zetas[i], zetas[i]).dim if w_sparse[zetas[i]] else 0)
        ranks = [tower.adim(d) if d >= 1 else 0]
        if imax >= 2:
            ranks.append(ctx.dimV * tower.adim(d - 1) - tower.adim(d))
        elif imax >= 1:
            ranks.append(0)
        for i in range(3, imax + 2):
            if i > imax or not w_sparse[zetas[i]]:
                ranks.append(0)
                continue
            m_prev = zetas[i - 1]
            bt = bt_for(d - m_prev, m_prev)
            ns = len(w_sparse[m_prev])
            elim = ReducedEliminator(field)
            for word in all_words(ctx, d - zetas[i]):
                for triples in expansions[i]:
                    vec: dict = {}
                    for dnum, t2, raw in triples:
                        dword = ctx.num_word(dnum, zetas[i] - m_prev)
                        for b, v in tower.nf(word + dword, 0).items():
                            accumulate(field, vec, b * ns + t2, field.mul(raw, v))
                    elim.add(bt.reduce(vec))
            ranks.append(len(elim.pivot_rows))
        exact = [ranks[i - 1] + ranks[i] == dims[i] for i in range(1, imax + 1)]
        degrees.append(DegreeCertificate(d=d, dims=dims, ranks=ranks, exact=exact))

    verdict = f"verified_up_to_{D}"
    for dc in degrees:
        bad = [i for i, ok in enumerate(dc.exact, start=1) if not ok]
        if bad:
            verdict = f"counterexample({dc.d},{bad[0]})"
            break
    return KoszulCertificate(
        degree_bound=D,
        degrees=degrees,
        verdict=verdict,
        composition_zero=comp_zero,
        unconditional=verdict.startswith("verified") and is_antisymmetrizer_relations(alg),
    )


def scalar_extension_slice_by_elimination(alg: HomogeneousAlgebra):
    """The identity slice R0 = R ∩ (V^{⊗N} ⊗ 1), if R = R0 (x) K, else None.

    R0 is the kernel of the projection killing the identity-slice
    coordinates; R is a scalar extension exactly when
    dim R = |Gamma| dim R0 and every translate R0 (x) g lies in R.
    """
    ctx = alg.ctx
    order = ctx.order
    if order == 1:
        return alg.R
    field = ctx.field
    rows = alg.R.basis_sparse()
    offgrid = TaggedRows(field, [{c: v for c, v in r.items() if c % order} for r in rows], alg.R.space.ambient_dim)
    trivial_ctx = TensorContext(ctx.dimV, GroupData.trivial(ctx.dimV, ctx.conductor), ctx.conductor)
    slice_rows = []
    for k in offgrid.kernel_rows():
        vec = combine(field, rows, k.items())
        slice_rows.append({c // order: v for c, v in vec.items()})
    if len(slice_rows) * order != alg.R.dim:
        return None
    elim = ReducedEliminator(field)
    elim.add_all(rows)
    for s in slice_rows:
        for g in range(order):
            if not elim.contains({c * order + g: v for c, v in s.items()}):
                return None
    return Subbimodule.from_rows(trivial_ctx, alg.N, slice_rows, close=False)


# -- inputs -------------------------------------------------------------------


def fixture(name):
    # the group-level algebra itself, not its field-level slice
    pres, _ = load_input(str(FIXTURES / f"{name}.json"))
    return pres.homogenization()


def s3_cherednik(tmp_path_factory):
    path = tmp_path_factory.mktemp("s3") / "s3_cherednik.json"
    path.write_text(json.dumps(S3_CHEREDNIK))
    pres, _ = load_input(str(path))
    return pres.homogenization()


def sl2():
    return build_lie({(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}}).homogenization()


GROUPS = {
    "neg": [[-1, 0], [0, -1]],
    "swap": [[0, 1], [1, 0]],
}


def random_algebra(seed: int) -> HomogeneousAlgebra:
    """A seeded relation module of degree 2 or 3 over ±Id or the swap on k^2.

    The closure of a few random elements with signed coefficients and
    group components, built at group level.
    """
    rng = random.Random(seed)
    N = 2 + seed % 2
    group = GroupData.from_generators([MatrixS.from_rows(GROUPS["neg" if seed % 4 < 2 else "swap"])])
    ctx = TensorContext(2, group)
    elems = []
    for _ in range(rng.choice([1, 2])):
        terms: dict = {}
        for _ in range(rng.choice([1, 2, 3])):
            key = (tuple(rng.randrange(2) for _ in range(N)), rng.randrange(2))
            terms[key] = terms.get(key, Scalar.rational(0)) + Scalar.rational(rng.choice([-2, -1, 1, 2]))
        elems.append({k: v for k, v in terms.items() if not v.is_zero()})
    return HomogeneousAlgebra(ctx, N, Subbimodule.from_elements(ctx, N, [e for e in elems if e]))


RANDOM_SEEDS = list(range(30))


def random_bound(alg):
    # positions 3 and 4 need internal degrees zeta(3) and zeta(4)
    return 5 if alg.N == 2 else 7


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize(
    "make, D",
    [
        (sl2, 7),
        (lambda: fixture("down_up"), 9),
        (lambda: fixture("cubic_z3"), 8),
        (lambda: fixture("sr_z6"), 6),
    ],
    ids=["sl2", "down_up", "cubic_z3", "sr_z6"],
)
def test_certificate_matches_the_balanced_tensor_reference(make, D):
    assert _koszul_certificate(make(), D).to_json() == reference_certificate(make(), D).to_json()


def test_s3_certificate_at_positions_three_and_four_matches_the_reference(tmp_path_factory):
    alg = s3_cherednik(tmp_path_factory)
    assert alg.ctx.order == 6
    cert = _koszul_certificate(alg, 6)
    assert cert.to_json() == reference_certificate(s3_cherednik(tmp_path_factory), 6).to_json()
    # W_3 and W_4 are nonzero: positions 3 and 4 have content from degree 3 on
    assert [dc.dims[3:5] for dc in cert.degrees[3:5]] == [[24], [96, 6]]


def test_random_relation_modules_match_the_reference():
    failing = 0
    for seed in RANDOM_SEEDS:
        alg = random_algebra(seed)
        D = random_bound(alg)
        cert = _koszul_certificate(alg, D)
        assert cert.to_json() == reference_certificate(random_algebra(seed), D).to_json(), seed
        failing += not cert.exact_everywhere
    # both verdicts are exercised
    assert 0 < failing < len(RANDOM_SEEDS)


S3_ON_THE_PLANE = [[[-1, 1], [0, 1]], [[1, 0], [1, -1]]]


@pytest.mark.parametrize("seed", [0, 3, 6])
def test_s3_relations_mixing_group_slices_match_the_reference(seed):
    # over a nonabelian group and relations that are no scalar extension,
    # the tail must be moved by rho(g)^-1 and not by rho(g)
    rng = random.Random(seed)
    ctx = TensorContext(2, GroupData.from_generators([MatrixS.from_rows(m) for m in S3_ON_THE_PLANE]))
    terms = {}
    for _ in range(2):
        key = ((rng.randrange(2), rng.randrange(2)), rng.randrange(6))
        terms[key] = Scalar.rational(rng.choice([-1, 1]))

    def make():
        return HomogeneousAlgebra(ctx, 2, Subbimodule.from_elements(ctx, 2, [terms]))

    assert scalar_extension_slice(make()) is None
    assert _koszul_certificate(make(), 4).to_json() == reference_certificate(make(), 4).to_json()


def extension_inputs(tmp_path_factory):
    """Group-level relation modules, scalar extensions and not."""
    yield fixture("sr_z6")
    yield fixture("cubic_z3")
    yield s3_cherednik(tmp_path_factory)
    for seed in RANDOM_SEEDS:
        alg = random_algebra(seed)
        yield alg
        # the extension of the field-level slice, when the group keeps it stable
        ctx = TensorContext(2, GroupData.trivial(2))
        R0 = Subbimodule.from_rows(ctx, alg.N, [{c // 2: v for c, v in r.items()} for r in alg.R.basis_sparse()])
        try:
            yield change_of_rings(HomogeneousAlgebra(ctx, alg.N, R0), alg.ctx.group)
        except ValueError:
            pass


def test_scalar_extension_slice_matches_the_elimination_reference(tmp_path_factory):
    extensions = 0
    total = 0
    for alg in extension_inputs(tmp_path_factory):
        got = scalar_extension_slice(alg)
        expected = scalar_extension_slice_by_elimination(alg)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.basis_sparse() == expected.basis_sparse()
            extensions += alg.ctx.order > 1
        total += 1
    assert extensions > 10 and total - extensions > 10
