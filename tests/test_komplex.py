"""Tests for the truncated algebra, the N-complex and its contraction.

Each N-complex map is built once; the old constructions replaced by the
right K-generators of W_n, by the recurrence for d^{N-1} and by the
one-step product rule are kept here as oracles, and the last tests make
sure the memos and skipped products do not hide a wrong map from
``wedge_agreement`` or ``contracted_complex``.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from nkoszul import grouppres, komplex
from nkoszul.cyclo import get_field
from nkoszul.elim import TaggedRows, accumulate, add_maps, add_scaled, canonical_rows, times
from nkoszul.jsonio import load_input, parse_input
from nkoszul.scalar import MatrixS, Scalar, to_raw
from nkoszul.smashtensor import GroupData, TensorContext
from nkoszul.filtered import build_down_up, build_lie
from nkoszul.grouppres import PsiMap, build_H_psi, build_psi_symplectic_reflection
from nkoszul.komplex import (
    NComplexSlice,
    TruncatedU,
    UnsupportedStructure,
    WedgeComplex,
    _slice_slot,
    alternating_step_sum,
    check_dN_zero,
    compose_maps,
    contracted_complex,
    map_difference,
    map_is_zero,
    maps_equal,
    wedge_agreement,
)
from families import family_inputs
from paper_checks import (
    factorization_identity_holds,
    full_slice_contraction,
    full_slice_dN_zero,
    full_slice_wedge_agreement,
    power,
)
from reduced_eliminator import ReducedEliminator
from test_elim import CountingField

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"

S = Scalar.rational


def weyl_presentation():
    g = GroupData.trivial(2)
    psi = PsiMap(2, 2, 1, {0: {(0, 1): 1}})
    return build_H_psi(g, psi), g, psi


def planes_p2_presentation():
    # p = 2 on Q^3 with a degenerate alternating scalar form: W_3 is nonzero
    g = GroupData.trivial(3)
    psi = PsiMap(2, 3, 1, {0: {(0, 1): 1, (1, 2): 1}})
    return build_H_psi(g, psi), g, psi


def cubic_zeta3_presentation():
    g = GroupData.trivial(3, conductor=3)
    psi = PsiMap(3, 3, 1, {0: {(0, 1, 2): Scalar.one(3)}}, conductor=3)
    return build_H_psi(g, psi), g, psi


def symplectic_presentation(t=1):
    neg = MatrixS.from_rows([[-1, 0], [0, -1]])
    g = GroupData.from_generators([neg])
    psi = build_psi_symplectic_reflection(
        g, MatrixS.from_rows([[0, 1], [-1, 0]]), [1, t]
    )
    return build_H_psi(g, psi), g, psi


# -- the truncated algebra ----------------------------------------------------


def test_truncated_u_dimensions_match_oracle():
    pres, _, _ = weyl_presentation()
    tu = TruncatedU(pres, 5)
    # Weyl algebra: graded dimensions n+1
    assert tu.dims_by_degree == [1, 2, 3, 4, 5, 6]
    assert tu.dim_filtration(3) == 1 + 2 + 3 + 4


def test_truncated_u_rejects_failed_oracle():
    bad = build_lie({(1, 3): {1: 1}, (2, 3): {3: 1}}, dimV=3)
    with pytest.raises(ValueError):
        TruncatedU(bad, 4)


def reduced(tu, terms: dict) -> dict:
    """Normal form of a term dict as a sparse vector over the truncated basis."""
    return tu._reduce((word, g, to_raw(tu.field, c)) for (word, g), c in terms.items())


def test_reduction_independent_of_representative():
    pres, _, _ = weyl_presentation()
    tu = TruncatedU(pres, 5)
    one = Scalar.one(1)
    # xy and yx + 1 are the same class in the Weyl algebra
    a = reduced(tu, {((0, 1), 0): one})
    b = reduced(tu, {((1, 0), 0): one, ((), 0): one})
    assert a == b
    # adding an ideal element to a representative does not change the class
    j_elem = {((0, 1), 0): one, ((1, 0), 0): -one, ((), 0): -one}
    base = {((0, 0, 1), 0): one}
    shifted = dict(base)
    prod = pres.ctx.smash_mul_terms({((0,), 0): one}, j_elem)
    for k, v in prod.items():
        shifted[k] = shifted.get(k, Scalar.zero(1)) + v
    assert reduced(tu, base) == reduced(tu, shifted)


def test_multiplication_respects_group_twist():
    pres, g, psi = symplectic_presentation()
    tu = TruncatedU(pres, 4)
    # (x ⊗ s)(x ⊗ e) = -(x x ⊗ s) for s = -Id
    xs = next(i for i, (d, w, h) in enumerate(tu.basis) if d == 1 and w == (0,) and h == 1)
    xe = next(i for i, (d, w, h) in enumerate(tu.basis) if d == 1 and w == (0,) and h == 0)
    prod = tu.multiply_basis(xs, xe)
    xxs = next(i for i, (d, w, h) in enumerate(tu.basis) if d == 2 and w == (0, 0) and h == 1)
    assert prod == {xxs: tu.field.neg(tu.field.one)}


def test_truncated_multiplication_associative():
    import random

    pres, _, _ = symplectic_presentation()
    tu = TruncatedU(pres, 6)
    rng = random.Random(3)
    field = tu.field

    def scale_into(out, vec, c):
        for k, v in vec.items():
            term = field.mul(c, v)
            cur = out.get(k)
            nv = term if cur is None else field.add(cur, term)
            if field.is_zero(nv):
                out.pop(k, None)
            else:
                out[k] = nv

    checked = 0
    while checked < 40:
        a, b, c = (rng.randrange(len(tu.basis)) for _ in range(3))
        if sum(tu.basis[i][0] for i in (a, b, c)) > 6:
            continue
        checked += 1
        left: dict = {}
        for j, cj in tu.multiply_basis(a, b).items():
            scale_into(left, tu.multiply_basis(j, c), cj)
        right: dict = {}
        for j, cj in tu.multiply_basis(b, c).items():
            scale_into(right, tu.multiply_basis(a, j), cj)
        assert left == right


def walk_product(tu, a, b):
    """The letter-by-letter product: basis monomial a times each letter of
    b's word on the right, then times b's group element."""
    field = tu.field
    _, word, g = tu.basis[b]
    steps = [lambda i, l=letter: tu.right_mult_letter(i, l) for letter in word]
    if g:
        steps.append(lambda i: tu._product("right", i, None, g))
    vec = {a: field.one}
    for step in steps:
        out: dict = {}
        for i, c in vec.items():
            for i2, c2 in step(i):
                accumulate(field, out, i2, field.mul(c, c2))
        vec = out
    return vec


@pytest.mark.parametrize(
    "build, D",
    [
        (lambda: build_lie({(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}}), 5),
        (lambda: load_input(str(FIXTURES / "sr_z6.json"))[0], 4),
    ],
    ids=["sl2", "sr_z6"],
)
def test_one_step_products_match_the_letter_walk(build, D):
    tu = TruncatedU(build(), D)
    pairs = 0
    for a, (da, _, _) in enumerate(tu.basis):
        for b, (db, _, _) in enumerate(tu.basis):
            if da + db <= D:
                assert tu.multiply_basis(a, b) == walk_product(tu, a, b)
                pairs += 1
    assert pairs > len(tu.basis)


def test_monomial_right_free_structure():
    pres, _, _ = symplectic_presentation()
    tu = TruncatedU(pres, 4)
    b0, decomp = tu.monomial_right_free_basis()
    assert len(b0) * 2 == len(tu.basis)
    for idx, (pos, g) in decomp.items():
        d, word, h = tu.basis[idx]
        d0, word0, h0 = tu.basis[b0[pos]]
        assert word0 == word and h0 == 0 and g == h


# -- differentials -------------------------------------------------------------


def test_d_left_and_d_right_lowest_slice():
    # d_l(1 ⊗ v ⊗ 1) = v ⊗ 1 and d_r(1 ⊗ v ⊗ 1) = 1 ⊗ v
    pres, _, _ = weyl_presentation()
    fam = NComplexSlice(pres, 4)
    unit = next(
        i for i, (pos, t) in enumerate(fam.basis(1))
        if fam.tu.basis[fam.b0[pos]][0] == 0 and fam.x_space(1).level[t] == 0
    )
    dl = fam.d_left(1)[unit]
    dr = fam.d_right(1)[unit]
    assert len(dl) == 1 and len(dr) == 1
    (k_l,), (k_r,) = list(dl), list(dr)
    pos_l, t_l = fam.basis(0)[k_l]
    pos_r, t_r = fam.basis(0)[k_r]
    # left image has the letter in the left factor, right image in the right
    assert fam.tu.basis[fam.b0[pos_l]][0] == 1 and fam.x_space(0).level[t_l] == 0
    assert fam.tu.basis[fam.b0[pos_r]][0] == 0 and fam.x_space(0).level[t_r] == 1


def test_dl_commutes_with_dr():
    for pres, _, _ in (weyl_presentation(), symplectic_presentation()):
        fam = NComplexSlice(pres, 5)
        field = fam.ctx.field
        for n in range(2, fam.max_n + 1):
            lhs = compose_maps(fam.d_left(n - 1), fam.d_right(n), field)
            rhs = compose_maps(fam.d_right(n - 1), fam.d_left(n), field)
            assert maps_equal(lhs, rhs, fam.slice_dim(n))


def test_dl_power_equals_phi_lift():
    # d_l^N = 1 (x) phi^{1,N} (x) 1 and d_r^N = 1 (x) phi^{n-N+1,n} (x) 1
    pres, _, _ = planes_p2_presentation()
    fam = NComplexSlice(pres, 5)
    field = fam.ctx.field
    for n in range(2, fam.max_n + 1):
        dl2 = compose_maps(fam.d_left(n - 1), fam.d_left(n), field)
        assert maps_equal(dl2, fam.phi_left(n), fam.slice_dim(n))
        dr2 = compose_maps(fam.d_right(n - 1), fam.d_right(n), field)
        assert maps_equal(dr2, fam.phi_right(n), fam.slice_dim(n))


def test_dl_power_vanishes_in_graded_case():
    g = GroupData.trivial(2)
    pres = build_H_psi(g, PsiMap(2, 2, 1, {}))
    fam = NComplexSlice(pres, 4)
    field = fam.ctx.field
    dl2 = compose_maps(fam.d_left(1), fam.d_left(2), field)
    assert map_is_zero(dl2)


def test_rejects_phi_not_concentrated_in_degree_zero():
    with pytest.raises(UnsupportedStructure):
        NComplexSlice(build_down_up(2, -1, 1), 6)


# -- d^N = 0 and the factorization --------------------------------------------


def test_d_squared_zero_weyl_and_symplectic():
    q = S(-1)
    for pres, _, _ in (weyl_presentation(), symplectic_presentation()):
        fam = NComplexSlice(pres, 6)
        assert all(ok for _, ok in check_dN_zero(fam, q))


def test_d_cubed_zero_zeta3_both_roots():
    pres, _, _ = cubic_zeta3_presentation()
    fam = NComplexSlice(pres, 6)
    first = check_dN_zero(fam, Scalar.zeta(3))
    second = check_dN_zero(fam, Scalar.zeta(3, 2))
    assert all(ok for _, ok in first)
    assert first == second


def test_twisted_maps_lift_q_into_the_family_field():
    # q = -1 as a rational and as an element of Q(zeta3) on a family over
    # Q(zeta3): both spellings give the same twisted differential
    neg = MatrixS.from_rows([[-1, 0], [0, -1]], 3)
    g = GroupData.from_generators([neg])
    psi = build_psi_symplectic_reflection(g, MatrixS.from_rows([[0, 1], [-1, 0]]), None, conductor=3)
    fam = NComplexSlice(build_H_psi(g, psi), 5)
    assert fam.ctx.field.conductor == 3 and fam.N == 2
    assert check_dN_zero(fam, S(-1)) == check_dN_zero(fam, S(-1, 3)) == [(2, True)]
    assert factorization_identity_holds(fam, S(-1), 2)
    assert factorization_identity_holds(fam, S(-1, 3), 2)


def test_dN_zero_rejects_imprimitive_root():
    pres, _, _ = cubic_zeta3_presentation()
    fam = NComplexSlice(pres, 6)
    with pytest.raises(ValueError):
        check_dN_zero(fam, Scalar.one(3))


def test_factorization_identity_with_content():
    # p = 2 on Q^3: W_3 is nonzero, so the identity at n = 3 has content
    pres, _, _ = planes_p2_presentation()
    fam = NComplexSlice(pres, 6)
    assert factorization_identity_holds(fam, S(-1), 3)
    pres3, _, _ = cubic_zeta3_presentation()
    fam3 = NComplexSlice(pres3, 6)
    assert factorization_identity_holds(fam3, Scalar.zeta(3), 3)


@pytest.mark.parametrize(
    "make, D",
    [
        (lambda: symplectic_presentation(1)[0], 6),
        (lambda: symplectic_presentation(2)[0], 6),
        (lambda: load_input(str(FIXTURES / "sr_z6.json"))[0], 5),
    ],
    ids=["pm_id_t1", "pm_id_t2", "sr_z6"],
)
def test_factorization_identity_over_a_nontrivial_group(make, D):
    # phi takes values at group elements other than the identity, so the
    # phi lifts read phi(r_s) group element by group element
    fam = NComplexSlice(make(), D)
    assert any(g for value in fam.phi.component(0) for g in value)
    slices = [n for n in range(fam.N, fam.max_n + 1) if fam.slice_dim(n)]
    assert slices and not map_is_zero(fam.phi_left(slices[0]))
    for n in slices:
        assert factorization_identity_holds(fam, S(-1), n)


def test_factorization_detects_corrupted_phi():
    # corrupting the correction map breaks the identity d_l^N = phi-lift,
    # pinpointing the product identity behind the factorization; the twisted
    # differential itself does not involve phi, so d^N = 0 cannot be broken
    # on a well-defined truncated algebra.
    pres, _, _ = planes_p2_presentation()
    fam = NComplexSlice(pres, 6)
    field = fam.ctx.field
    n = 3
    dl_pow = compose_maps(fam.d_left(n - 1), fam.d_left(n), field)
    assert maps_equal(dl_pow, fam.phi_left(n), fam.slice_dim(n))
    fam.phi.rows[0] = {c: field.add(v, v) for c, v in fam.phi.rows[0].items()}
    assert not maps_equal(dl_pow, fam.phi_left(n), fam.slice_dim(n))


# -- contraction ---------------------------------------------------------------


def test_contraction_weyl_exact():
    pres, _, _ = weyl_presentation()
    rep = contracted_complex(NComplexSlice(pres, 6))
    assert rep.exact_in_window and rep.composition_zero
    assert rep.window == 4


def test_contraction_symplectic_exact_both_class_values():
    for t in (0, 1):
        pres, _, _ = symplectic_presentation(t)
        rep = contracted_complex(NComplexSlice(pres, 6))
        assert rep.exact_in_window and rep.composition_zero


def test_contraction_zeta3_exact():
    pres, _, _ = cubic_zeta3_presentation()
    rep = contracted_complex(NComplexSlice(pres, 6))
    assert rep.exact_in_window and rep.composition_zero
    assert rep.window == 3


def test_contraction_detects_non_koszul_homogeneous_input():
    # a homogeneous presentation passes the filtration oracle trivially, so
    # the truncated algebra exists even when A is not Koszul; the windowed
    # exactness check must then fail at the position carrying homology
    from nkoszul.smashtensor import FilteredSubspace, TensorContext
    from nkoszul.filtered import FilteredPresentation, oracle_pbw

    ctx = TensorContext(3)
    x, y, z = 0, 1, 2
    P = FilteredSubspace.from_elements(
        ctx, 2, [{((z, x), 0): S(1)}, {((x, y), 0): S(1), ((y, z), 0): S(1)}]
    )
    pres = FilteredPresentation(ctx, 2, P)
    assert oracle_pbw(pres, 6).holds
    fam = NComplexSlice(pres, 6)
    # the twisted differential still squares to zero in the graded case
    assert all(ok for _, ok in check_dN_zero(fam, S(-1)))
    rep = contracted_complex(fam)
    assert rep.composition_zero
    assert not rep.exact_in_window
    failing = [p for p in rep.positions if not p["exact"]]
    assert failing and failing[0]["i"] == 2
    # the restricted families see what the full slices see
    assert rep.to_json() == full_slice_contraction(fam).to_json()
    assert check_dN_zero(fam, S(-1)) == full_slice_dN_zero(fam, S(-1))


def test_contraction_euler_characteristic_in_window():
    pres, _, _ = symplectic_presentation()
    fam = NComplexSlice(pres, 6)
    rep = contracted_complex(fam)
    # windowed alternating sum: dim U^window - dim0 + dim1 - ... = 0
    total = -fam.tu.dim_filtration(rep.window)
    for pos in rep.positions:
        total += pos["dim_window"] if pos["i"] % 2 == 0 else -pos["dim_window"]
    assert total == 0


def test_exactness_ranks_invariant_under_basis_shuffle():
    # ranks of the windowed maps cannot depend on how the coset basis is
    # enumerated; compare against a column-permuted recomputation
    import random

    pres, _, _ = symplectic_presentation()
    fam = NComplexSlice(pres, 6)
    rep = contracted_complex(fam)
    rng = random.Random(5)

    field = fam.ctx.field
    d1 = map_difference(fam.d_left(1), fam.d_right(1), field, fam.slice_dim(1))
    cols = [dict(v) for v in d1.values()]
    rng.shuffle(cols)
    elim = ReducedEliminator(field)
    for c in cols:
        elim.add(c)
    full_rank = len(elim.pivot_rows)
    elim2 = ReducedEliminator(field)
    for c in d1.values():
        elim2.add(dict(c))
    assert full_rank == len(elim2.pivot_rows)


# -- wedge formulas ------------------------------------------------------------


def test_wedge_agreement_all_fixtures():
    for pres, g, psi in (
        weyl_presentation(),
        planes_p2_presentation(),
        symplectic_presentation(),
        cubic_zeta3_presentation(),
    ):
        fam = NComplexSlice(pres, 5)
        assert wedge_agreement(fam)


def test_wedge_odd_even_identical_for_p2():
    # for p = 2 the two parity recipes instantiate one uniform formula
    # sum_j (-1)^{j-1} (a v_j (x) ... (x) b  -  a (x) ... (x) v_j b):
    # the sign carried by the right-hand term flips with the wedge parity in
    # exactly the way that makes the printed formulas coincide
    from nkoszul.komplex import WedgeComplex

    pres, g, psi = symplectic_presentation()
    fam = NComplexSlice(pres, 5)
    wc = WedgeComplex(fam)
    field = fam.ctx.field

    def uniform(m):
        wc.basis(m - 1)
        cols = {}
        for src, (pos, combo, b_idx) in enumerate(wc.basis(m)):
            out = {}
            b0_idx = fam.b0[pos]
            for jpos in range(m):
                letter = combo[jpos]
                rest = combo[:jpos] + combo[jpos + 1 :]
                sign = field.one if jpos % 2 == 0 else field.neg(field.one)
                wc._left_term(out, m - 1, b0_idx, letter, rest, b_idx, sign)
                for b2, c in fam.tu.left_mult_letter(b_idx, letter):
                    wc._emit(out, m - 1, pos, rest, b2, field.neg(field.mul(sign, c)))
            cols[src] = out
        return cols

    odd = wc.differential(1, True)
    assert maps_equal(odd, uniform(1), len(wc.basis(1)))
    even = wc.differential(2, False)
    assert maps_equal(even, uniform(2), len(wc.basis(2)))


def test_wedge_single_letter_formula():
    # d(a ⊗ v ⊗ b) = a v ⊗ b - a ⊗ v b on wedge size 1
    pres, g, psi = weyl_presentation()
    fam = NComplexSlice(pres, 4)
    from nkoszul.komplex import WedgeComplex

    wc = WedgeComplex(fam)
    basis1 = wc.basis(1)
    unit = next(
        i for i, (pos, combo, b) in enumerate(basis1)
        if fam.tu.basis[fam.b0[pos]][0] == 0 and fam.tu.basis[b][0] == 0 and combo == (0,)
    )
    col = wc.differential(1, True)[unit]
    assert len(col) == 2
    vals = sorted(str(Scalar(fam.ctx.field, v)) for v in col.values())
    assert vals == ["-1", "1"]


def test_graded_part_of_twisted_differential_matches_psi_zero():
    # setting psi = 0 gives the homogeneous complex; the filtration-degree
    # preserving part of the twisted differentials agrees with it under the
    # common monomial labels
    g = GroupData.trivial(2)
    psi = PsiMap(2, 2, 1, {0: {(0, 1): 1}})
    pres1 = build_H_psi(g, psi)
    pres0 = build_H_psi(g, PsiMap(2, 2, 1, {}))
    fam1 = NComplexSlice(pres1, 5)
    fam0 = NComplexSlice(pres0, 5)

    def labels(fam, n):
        out = {}
        x = fam.x_space(n)
        for i, (pos, t) in enumerate(fam.basis(n)):
            d0, w0, _ = fam.tu.basis[fam.b0[pos]]
            p, wnum = divmod(x.pivots[t], x.vn)
            b = x.by_pos[p]
            db, wb, _ = fam.tu.basis[b]
            out[(d0, w0, wnum, db, wb)] = i
        return out

    for n in (1, 2):
        lab1_src = labels(fam1, n)
        lab0_src = labels(fam0, n)
        lab1_tgt = labels(fam1, n - 1)
        lab0_tgt = labels(fam0, n - 1)
        assert set(lab1_src) == set(lab0_src)
        inv0_tgt = {v: k for k, v in lab0_tgt.items()}
        d1 = fam1.d_left(n)
        d0 = fam0.d_left(n)
        for key, src1 in lab1_src.items():
            src0 = lab0_src[key]
            col0 = {inv0_tgt[k]: v for k, v in d0[src0].items()}
            col1 = fam1.d_left(n).get(src1, {})
            # keep only the degree-preserving targets of the twisted map
            deg = fam1.total_degree(n, fam1.basis(n)[src1])
            top = {}
            inv1_tgt = {v: k for k, v in lab1_tgt.items()}
            for k, v in col1.items():
                if fam1.total_degree(n - 1, fam1.basis(n - 1)[k]) == deg:
                    top[inv1_tgt[k]] = v
            assert top == col0


@pytest.fixture(scope="module")
def sr_z6():
    pres, _ = load_input(str(FIXTURES / "sr_z6.json"))
    return NComplexSlice(pres, 6)


# -- right K-generators of W_n ------------------------------------------------


def all_generator_rows(x):
    """The old construction: the tagged span of w_t (x) b for every row t of
    W_n, on coordinates pos[b]·vn + w."""
    tu = x.tu
    max_u = tu.bound - x.n
    rights = [b for b, (d, _, _) in enumerate(tu.basis) if d <= max_u]
    by_pos = sorted(rights, key=lambda b: (-tu.basis[b][0], b))
    assert x.by_pos == by_pos
    assert all(x.pos[b] == p for p, b in enumerate(by_pos))
    gens = [x._embed(t, b) for t in range(len(x.w_rows)) for b in rights]
    return TaggedRows(tu.field, gens, len(rights) * x.vn).span_rows()


def test_right_generators_tag_one_generator_per_dimension(sr_z6):
    assert sr_z6.ctx.order == 6
    for n in range(sr_z6.max_n + 1):
        x = sr_z6.x_space(n)
        assert x.dim > 0
        assert len(x.tags) == x.dim
        assert x.rows == all_generator_rows(x)


def test_phi_expresses_each_row_over_its_spanning_tensors(sr_z6, monkeypatch):
    """The solver ``_phi_map`` builds over x.tags recombines to every row."""
    built = []

    class Recording(TaggedRows):
        def __init__(self, field, gens, ambient):
            gens = list(gens)
            super().__init__(field, gens, ambient)
            built.append((gens, self))

    monkeypatch.setattr(komplex, "TaggedRows", Recording)
    field = sr_z6.ctx.field
    for n in range(sr_z6.N, sr_z6.max_n + 1):
        sr_z6.phi_left(n)
        x = sr_z6.x_space(n)
        gens, solver = next(
            (gens, solver) for gens, solver in built if solver.ambient == x.width and len(gens) == len(x.tags)
        )
        assert gens == [x._embed(t, b) for t, b in x.tags]
        for row in x.rows:
            vec: dict = {}
            for i, c in solver.solve(row):
                add_scaled(field, vec, gens[i], c)
            assert vec == row


def test_products_store_one_as_the_field_one_object(sr_z6):
    sr_z6.d_left(1)
    sr_z6.d_right(1)
    tu = sr_z6.tu
    field = tu.field
    ones = 0
    for entries in tu._products.values():
        for _, v in entries:
            if v == field.one:
                assert v is field.one
                ones += 1
    assert ones > 0


def test_products_store_minus_one_as_the_sign_object(sr_z6):
    sr_z6.d_left(1)
    sr_z6.d_right(1)
    tu = sr_z6.tu
    field = tu.field
    signs = 0
    for entries in tu._products.values():
        for _, v in entries:
            if v == field.minus_one:
                assert v is field.minus_one
                signs += 1
    assert signs > 0


@pytest.mark.parametrize("name", ["sr_z6", "cubic_z3"])
def test_every_stored_sign_is_the_field_sign_object(name, monkeypatch):
    # the sign objects come from the field alone: nothing in komplex,
    # smashtensor or grouppres restores them, and elim.times skips by identity
    expressed = []
    express = komplex.express

    def recording(*args):
        out = express(*args)
        expressed.append(out)
        return out

    monkeypatch.setattr(komplex, "express", recording)
    pres, _ = load_input(str(FIXTURES / f"{name}.json"))
    fam = NComplexSlice(pres, 6)
    report = contracted_complex(fam)
    assert report.composition_zero and report.exact_in_window
    field = fam.ctx.field
    # the maps live on the restrictions the checks read
    fams = [fam, *fam._restrictions.values()]
    assert len(fams) > 1

    def entries(attr):
        return [v for f in fams for m in getattr(f, attr).values() for col in m.values() for v in col.values()]

    stored = {
        "columns": [v for g in fam.ctx.columns for col in g.values() for v in col.values()],
        "products": [v for entries in fam.tu._products.values() for _, v in entries],
        "rows": [v for f in fams for x in f._x.values() for row in x.rows for v in row.values()],
        "express": [c for out in expressed for _, c in out],
        "contraction": entries("_contraction"),
        "d_left": entries("_dl"),
        "d_right": entries("_dr"),
    }
    signs = (field.one, field.minus_one)
    for where, values in stored.items():
        fresh = [v for v in values if v in signs and not any(v is s for s in signs)]
        assert not fresh, f"{len(fresh)} fresh sign tuples in {where}"
        assert any(v is s for v in values for s in signs), where


def test_mul_by_a_sign_object_takes_no_product(monkeypatch):
    for field in (get_field(1), get_field(6)):
        z = field.add(field.one, field.one)
        counting = CountingField(field)
        assert times(counting, field.minus_one, z) == field.neg(z)
        assert times(counting, z, field.minus_one) == field.neg(z)
        assert times(counting, field.minus_one, field.minus_one) is field.one
        assert times(counting, field.one, field.minus_one) is field.minus_one
        assert counting.calls == {"neg": 2}
        assert times(counting, z, z) == field.mul(z, z)
        assert counting.calls == {"neg": 2, "mul": 1}
    # the loops that multiply by group-map entries: -Id over Q, and the
    # element zeta^3 = -1 of sr_z6's Z/6 over Q(zeta6)
    neg = MatrixS.from_rows([[-1, 0], [0, -1]])
    sr_z6_ctx = load_input(str(FIXTURES / "sr_z6.json"))[0].ctx
    for ctx in (TensorContext(2, GroupData.from_generators([neg])), sr_z6_ctx):
        field = ctx.field
        # the element acting as -Id: every entry of its columns is -1
        g = next(h for h, cols in enumerate(ctx.columns) if all(c == {i: field.minus_one} for i, c in cols.items()))
        z = field.from_fraction(Fraction(3, 2))
        word = (0, 1, 0)
        row = {ctx.coord(word, 0): z, ctx.coord((1, 1, 0), 0): field.minus_one}
        grown = {ctx.coord((0, 1), g): z, ctx.coord((1, 1), g): field.one}
        # sign entries against the columns of element 1, diag(zeta, zeta^5) in sr_z6
        signed = {ctx.coord((0,), 1): field.minus_one, ctx.coord((1,), 1): field.one}
        table = {(0, 1): S(5, ctx.conductor)}
        wedged = {(0, 1): field.minus_one}

        def calls():
            return (
                ctx.apply_group_to_word(g, word),
                ctx.left_action_sparse(g, row, 3),
                ctx.append_letter(grown, 0),
                ctx.append_letter(signed, 1),
                grouppres._paired(ctx.field, table, wedged),
                grouppres.wedge(ctx.field, [ctx.columns[g][1], ctx.columns[g][0]]),
                grouppres.wedge(ctx.field, [ctx.columns[g][0], {0: z, 1: z}]),
            )

        want = calls()
        counting = CountingField(field)
        monkeypatch.setattr(ctx, "field", counting)
        assert calls() == want
        assert "mul" not in counting.calls and counting.calls.get("neg")
        monkeypatch.undo()


# -- d^{N-1} by recurrence ----------------------------------------------------


def brute_force_step_sum(left, right, top, steps, ncols, field):
    """The old loop: every term L^a ∘ R^b composed from the identity."""
    total = None
    for a in range(steps + 1):
        cur = {src: {src: field.one} for src in range(ncols)}
        level = top
        for step in [right] * (steps - a) + [left] * a:
            cur = compose_maps(step(level), cur, field)
            level -= 1
        total = cur if total is None else add_maps(field, total, cur, field.one, ncols)
    return total


def random_map(rng, field, ncols, nrows):
    cols = {}
    for src in range(ncols):
        cols[src] = {
            r: field.from_fraction(Fraction(v, rng.choice((1, 1, 2, 3))))
            for r in rng.sample(range(nrows), rng.randint(0, min(3, nrows)))
            if (v := rng.randint(-2, 2))
        }
    return cols


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_step_sum_recurrence_matches_the_sum_of_compositions(steps):
    field = get_field(1)
    rng = random.Random(f"step-sum:{steps}")
    for _ in range(5):
        top = steps + rng.randint(0, 2)
        dims = {level: rng.randint(1, 5) for level in range(top - steps, top + 1)}
        lefts = {m: random_map(rng, field, dims[m], dims[m - 1]) for m in range(top - steps + 1, top + 1)}
        rights = {m: random_map(rng, field, dims[m], dims[m - 1]) for m in range(top - steps + 1, top + 1)}
        got = alternating_step_sum(lefts.__getitem__, rights.__getitem__, top, steps, field)
        want = brute_force_step_sum(lefts.__getitem__, rights.__getitem__, top, steps, dims[top], field)
        assert sorted(got) == list(range(dims[top]))
        assert maps_equal(got, want, dims[top])


def test_step_sum_recurrence_on_the_cubic_family():
    pres, _, _ = cubic_zeta3_presentation()
    fam = NComplexSlice(pres, 6)
    field = fam.ctx.field
    steps = fam.N - 1
    nonzero = 0
    for top in range(steps, fam.max_n + 1):
        ncols = fam.slice_dim(top)
        got = alternating_step_sum(fam.d_left, fam.d_right, top, steps, field)
        want = brute_force_step_sum(fam.d_left, fam.d_right, top, steps, ncols, field)
        assert maps_equal(got, want, ncols)
        nonzero += any(got.values())
    assert nonzero > 0


# -- the cross-checks still see a wrong map -----------------------------------


def test_wedge_agreement_sees_one_flipped_entry(monkeypatch):
    pres, g, psi = weyl_presentation()
    fam = NComplexSlice(pres, 6)
    assert wedge_agreement(fam)
    right_step = WedgeComplex._right_step
    flips = []

    def flipped(self, m):
        cols = right_step(self, m)
        field = self.ctx.field
        src = next(s for s in sorted(cols) if cols[s])
        key = min(cols[src])
        cols[src][key] = field.neg(cols[src][key])
        flips.append(src in self.generator_columns(m))
        return cols

    monkeypatch.setattr(WedgeComplex, "_right_step", flipped)
    assert not wedge_agreement(fam)
    # the comparison reads the generator columns, and the flip lies in one
    assert flips and all(flips)


@pytest.mark.parametrize("make", [weyl_presentation, cubic_zeta3_presentation])
def test_contraction_eliminates_each_windowed_map_once(monkeypatch, make):
    pres, _, _ = make()
    fam = NComplexSlice(pres, 6)
    # build the slices first, so only the ranks are counted
    first = contracted_complex(fam)
    calls = []
    original = komplex.rank

    def counted(field, rows):
        calls.append(rows)
        return original(field, rows)

    monkeypatch.setattr(komplex, "rank", counted)
    rep = contracted_complex(fam)
    assert rep.positions == first.positions
    # one map out of every position i >= 1; mu's rank is read off the unit
    assert len(calls) == len(rep.positions) - 1 > 1
    assert rep.positions[0]["rank_out"] == fam.tu.dim_filtration(fam.bound - fam.N)
    for pos, nxt in zip(rep.positions, rep.positions[1:]):
        assert pos["rank_in"] == nxt["rank_out"]


def test_maps_equal_reads_a_missing_column_as_empty():
    field = get_field(1)
    one, two = field.one, field.from_fraction(Fraction(2))
    stored_empty = {0: {}, 1: {3: one}}
    missing = {1: {3: one}}
    assert maps_equal(stored_empty, missing, 2)
    assert maps_equal(missing, stored_empty, 2)
    assert not maps_equal(stored_empty, {1: {3: two}}, 2)
    assert not maps_equal({0: {1: one}}, missing, 2)
    assert not maps_equal(missing, {0: {1: one}, 1: {3: one}}, 2)
    # only columns 0..n_cols-1 are compared
    assert maps_equal({5: {0: one}}, {}, 5)


@pytest.mark.parametrize("make", [weyl_presentation, cubic_zeta3_presentation])
def test_wedge_agreement_reuses_the_contraction_maps(monkeypatch, make):
    # both read the generic maps of the family restricted to max_n
    pres, _, _ = make()
    fam = NComplexSlice(pres, 6)
    gen = fam.restricted(fam.max_n)
    built = []
    original = komplex.contraction_map

    def counting(left, right, top, *args):
        if getattr(left, "__self__", None) is gen:  # the generic maps, not the wedge ones
            built.append(top)
        return original(left, right, top, *args)

    monkeypatch.setattr(komplex, "contraction_map", counting)
    rep = contracted_complex(fam)
    assert rep.exact_in_window and len(built) == len(set(built)) > 1
    made = len(built)
    assert wedge_agreement(fam)
    assert len(built) == made


# -- N = 2: the twisted maps are the contraction maps --------------------------


def fresh_sr_z6(D=6):
    pres, _ = load_input(str(FIXTURES / "sr_z6.json"))
    return NComplexSlice(pres, D)


def test_dN_zero_and_the_contraction_form_the_N2_product_once(monkeypatch):
    fam = fresh_sr_z6()
    assert fam.N == 2 and fam.max_n == 2
    products = []
    original = komplex.compose_maps

    def counted(outer, inner, field):
        products.append((outer, inner))
        return original(outer, inner, field)

    monkeypatch.setattr(komplex, "compose_maps", counted)
    results = check_dN_zero(fam, S(-1, 6))
    rep = contracted_complex(fam)
    assert results and all(flag for _, flag in results)
    assert rep.composition_zero and rep.exact_in_window
    gen = fam.restricted(fam.max_n)
    d1, d2 = gen.contraction(1), gen.contraction(2)

    def generators_of(inner, full, n):
        # the inner map cut to the generator columns, their columns shared
        return sorted(inner) == gen.generator_columns(n) and all(inner[s] is full[s] for s in inner)

    assert sum(outer is d1 and generators_of(inner, d2, 2) for outer, inner in products) == 1
    # d(1)∘d(2) in dN_zero, then only mu∘d(1) in the contraction; the
    # windowed ranks compose nothing
    assert len(products) == 2 and generators_of(products[1][1], d1, 1)


def test_twisted_maps_at_minus_one_are_the_contraction_maps(sr_z6):
    field = sr_z6.ctx.field
    q = S(-1, 6)
    for n in range(1, sr_z6.max_n + 1):
        got = sr_z6.d_twisted(n, q)
        assert got is sr_z6.contraction(n)
        # the formula d_l - q^{n-1} d_r
        want = add_maps(
            field, sr_z6.d_left(n), sr_z6.d_right(n), field.neg(to_raw(field, q ** (n - 1))), sr_z6.slice_dim(n)
        )
        assert maps_equal(got, want, sr_z6.slice_dim(n))
        assert got == want


def test_cubic_dN_zero_still_composes_the_twisted_formula():
    pres, _, _ = cubic_zeta3_presentation()
    fam = NComplexSlice(pres, 6)
    field = fam.ctx.field
    for q in (Scalar.zeta(3), Scalar.zeta(3) ** 2):

        def twisted(m):
            qm = to_raw(field, q ** (m - 1))
            return add_maps(field, fam.d_left(m), fam.d_right(m), field.neg(qm), fam.slice_dim(m))

        want = [
            (n, map_is_zero(power(twisted, n, 3, field)))
            for n in range(3, fam.max_n + 1)
            if fam.slice_dim(n) > 0
        ]
        assert want and check_dN_zero(fam, q) == want
        assert all(flag for _, flag in want)


@pytest.mark.parametrize("first", [1, 2])
def test_the_shared_composite_does_not_hide_a_doubled_d_right(monkeypatch, first):
    """d_r scaled by 2 out of every slice >= ``first``: d^2 and the
    contraction's composition test must both fail.  With ``first`` = 2,
    mu ∘ d(1) still vanishes, so only the shared composite can see it."""
    fam = fresh_sr_z6()
    field = fam.ctx.field
    two = field.from_fraction(Fraction(2))
    original = NComplexSlice.d_right

    def doubled(self, n):
        cols = original(self, n)
        if n < first:
            return cols
        return {src: {k: field.mul(two, v) for k, v in col.items()} for src, col in cols.items()}

    # on the class, so that every restriction of the family sees it
    monkeypatch.setattr(NComplexSlice, "d_right", doubled)
    results = check_dN_zero(fam, S(-1, 6))
    assert not all(flag for _, flag in results)
    assert results == full_slice_dN_zero(fam, S(-1, 6))
    assert fam.restricted(fam.max_n).composite_zero(1) is False
    rep = contracted_complex(fam)
    assert rep.composition_zero is False
    assert full_slice_contraction(fam).composition_zero is False
    mu_zero = map_is_zero(compose_maps(fam.mu_matrix(range(len(fam.basis(0)))), fam.contraction(1), field))
    assert mu_zero is (first == 2)


# -- the restrictions against the full-slice oracles ---------------------------


def cli_root(fam):
    """The root q of unity the CLI's dN_zero uses on the family."""
    cond = fam.ctx.conductor
    return S(-1, cond) if fam.N == 2 else Scalar.zeta(cond) ** (cond // fam.N)


ORACLE_INPUTS = [
    (name, lambda name=name: load_input(str(FIXTURES / f"{name}.json"))[0], 6) for name in ("cubic_z3", "sr_z6")
] + [(name, lambda data=data: parse_input(data)[0], D) for name, data, D in family_inputs(seed=0)]


@pytest.mark.parametrize("name, make, D", ORACLE_INPUTS, ids=[name for name, _, _ in ORACLE_INPUTS])
def test_the_restricted_checks_match_the_full_slice_oracles(name, make, D):
    fam = NComplexSlice(make(), D)
    q = cli_root(fam)
    got = check_dN_zero(fam, q)
    assert got and all(flag for _, flag in got)
    assert got == full_slice_dN_zero(fam, q)
    rep = contracted_complex(fam)
    assert rep.composition_zero and rep.exact_in_window
    assert rep.to_json() == full_slice_contraction(fam).to_json()
    assert wedge_agreement(fam) and full_slice_wedge_agreement(fam)
    # the windowed ranks came from the family at D - N, the rest from max_n
    assert sorted(fam._restrictions) == sorted({D - fam.N, fam.max_n} - {D})


@pytest.mark.parametrize(
    "name, triples",
    [
        ("cubic_z3", [(101, 39, 140), (1, 101, 102), (0, 1, 1)]),
        ("sr_z6", [(330, 90, 420), (90, 330, 420), (0, 90, 90)]),
    ],
)
def test_the_window_family_gives_the_windowed_ranks(name, triples):
    # (rank_in, rank_out, dim_window) per position at D = 6, as the full
    # slices gave them
    pres, _ = load_input(str(FIXTURES / f"{name}.json"))
    rep = contracted_complex(NComplexSlice(pres, 6))
    assert [(p["rank_in"], p["rank_out"], p["dim_window"]) for p in rep.positions] == triples


def test_a_restriction_is_built_once_and_shares_the_algebra():
    fam = fresh_sr_z6()
    low = fam.restricted(3)
    assert fam.restricted(3) is low and fam.restricted(fam.bound) is fam
    assert low.tu is fam.tu and low.phi is fam.phi and low.b0 is fam.b0
    assert (low.bound, low.max_n) == (3, fam.max_n)
    assert fam.restricted(1).max_n == 1
    # its slices are the full ones cut to total degree <= 3
    for n in range(4):
        assert low.slice_dim(n) == sum(fam.total_degree(n, key) <= 3 for key in fam.basis(n))
    with pytest.raises(ValueError, match="lowers"):
        fam.restricted(fam.bound + 1)


# -- slices counted from the levels ---------------------------------------------


def listed_slice(fam, n):
    """Slice n by the filter rule: (pos, t) for every row t of W_n (x)_K U
    whose level fits the room the left factor leaves."""
    x = fam.x_space(n)
    degree = fam.tu.basis
    return [
        (pos, t)
        for pos, b0_idx in enumerate(fam.b0)
        for t in range(x.dim)
        if x.level[t] <= fam.bound - n - degree[b0_idx][0]
    ]


@pytest.mark.parametrize("name, make, D", ORACLE_INPUTS, ids=[name for name, _, _ in ORACLE_INPUTS])
def test_levels_never_rise_and_slices_are_counted_by_the_first_fitting_row(name, make, D):
    fam = NComplexSlice(make(), D)
    for family in [fam] + [fam.restricted(b) for b in range(D)]:
        for n in range(family.max_n + 2):
            level = family.x_space(n).level
            assert all(a >= b for a, b in zip(level, level[1:]))
            assert family.slice_dim(n) == len(listed_slice(family, n))
            assert family.basis(n) == listed_slice(family, n)


@pytest.mark.parametrize("name, make, D", ORACLE_INPUTS, ids=[name for name, _, _ in ORACLE_INPUTS])
def test_slice_positions_are_the_run_offsets(name, make, D):
    """The position arithmetic of ``_slice_slot`` is ``enumerate(basis(n))``,
    and the last row before a left factor's run has no position."""
    fam = NComplexSlice(make(), D)
    for family in [fam] + [fam.restricted(b) for b in range(D)]:
        for n in range(family.max_n + 2):
            basis = family.basis(n)
            runs = family._slice_runs[n]
            assert [_slice_slot(runs, pos, t) for pos, t in basis] == list(range(len(basis)))
            dim = family.x_space(n).dim
            for pos in range(len(family.b0)):
                first = min([t for p, t in basis if p == pos], default=dim)
                if first:
                    with pytest.raises(RuntimeError, match="left the truncated slice"):
                        _slice_slot(runs, pos, first - 1)


@pytest.mark.parametrize("name", ["cubic_z3", "sr_z6"])
def test_wedge_slots_are_the_basis_order(name):
    """``WedgeComplex._slot`` is ``enumerate(basis(m))`` on the two
    N-complex bench fixtures at their bench bound D = 6, on the family and
    on the one ``wedge_agreement`` reads; a right factor past its left
    factor's run, or a left factor with no run, has no slot."""
    fam = NComplexSlice(load_input(str(FIXTURES / f"{name}.json"))[0], 6)
    past_the_bound = 0
    for family in (fam, fam.restricted(fam.max_n)):
        wc = WedgeComplex(family)
        for m in range(family.ctx.dimV + 1):
            basis = wc.basis(m)
            assert basis
            assert [wc._slot(m, *key) for key in basis] == list(range(len(basis)))
            combo = basis[0][1]
            for pos, run in enumerate(wc._runs[m]):
                past_the_bound += run is None
                with pytest.raises(RuntimeError, match="left the truncated slice"):
                    wc._slot(m, pos, combo, run[1] if run else 0)
    assert past_the_bound


def test_the_contraction_lists_no_slice_of_the_bound_family():
    fam = fresh_sr_z6()
    contracted_complex(fam)
    # top and dim_total are counted from degree blocks; the spaces and
    # the lists are the restrictions'
    assert not fam._x and not fam._slice_basis and not fam._slice_runs
    assert all(low._slice_basis for low in fam._restrictions.values())


# -- sizes and ranks that need no space at D -------------------------------------


@pytest.mark.parametrize("name, make, D", ORACLE_INPUTS, ids=[name for name, _, _ in ORACLE_INPUTS])
def test_degree_block_counts_match_the_levels_of_a_space_at_the_bound(name, make, D):
    # C_n(r), the prefix sums of the degree-block ranks, against the rows
    # of level <= r of W_n (x)_K U^{<= D-n} built and reduced at D
    fam = NComplexSlice(make(), D)
    for n in range(fam.max_n + 2):
        w = komplex.w_rows(fam._alg, n, fam._alg.w_cache)
        x = komplex._XSpace(fam.tu, n, w, fam.w_generators(n), D)
        assert x.dim == fam.rows_within(n, D - n)
        for r in range(D - n + 1):
            assert fam.rows_within(n, r) == sum(level <= r for level in x.level), (n, r)
    assert fam.rows_within(0, -1) == 0


@pytest.mark.parametrize("name, make, D", ORACLE_INPUTS, ids=[name for name, _, _ in ORACLE_INPUTS])
def test_mu_on_the_window_has_the_rank_read_off_the_unit(name, make, D):
    fam = NComplexSlice(make(), D)
    win = fam.restricted(D - fam.N)
    field = fam.ctx.field
    assert komplex.rank(field, list(win.mu_matrix(range(len(win.basis(0)))).values())) == fam.tu.dim_filtration(D - fam.N)
    assert contracted_complex(fam).positions[0]["rank_out"] == fam.tu.dim_filtration(D - fam.N)


@pytest.mark.parametrize("fixture", ["cubic_z3", "sr_z6"])
def test_the_contraction_builds_no_space_at_the_bound_and_mu_only_where_it_is_read(monkeypatch, fixture):
    pres, _ = load_input(str(FIXTURES / f"{fixture}.json"))
    fam = NComplexSlice(pres, 6)
    assert fam.max_n < fam.bound
    spaces, mus, ranked = [], [], []
    make_space, mu_matrix, rank = komplex._XSpace.__init__, NComplexSlice.mu_matrix, komplex.rank

    def recording_space(self, tu, n, w_row_list, gens, bound):
        spaces.append(bound)
        make_space(self, tu, n, w_row_list, gens, bound)

    def recording_mu(self, sources):
        cols = mu_matrix(self, sources)
        mus.append((self, sources, cols))
        return cols

    def recording_rank(field, rows):
        ranked.append(rows)
        return rank(field, rows)

    monkeypatch.setattr(komplex._XSpace, "__init__", recording_space)
    monkeypatch.setattr(NComplexSlice, "mu_matrix", recording_mu)
    monkeypatch.setattr(komplex, "rank", recording_rank)
    rep = contracted_complex(fam)
    assert rep.composition_zero and rep.exact_in_window
    assert spaces and fam.bound not in spaces
    # one windowed map ranked out of every position i >= 1, in order; the
    # other ranks are the degree blocks of the counts, one per level
    assert len(rep.positions) > 2
    gen = fam.restricted(fam.max_n)
    win = fam.restricted(fam.bound - fam.N)
    maps = {i: list(win.contraction(i).values()) for i in range(1, len(rep.positions))}

    def same(rows, cols):
        return len(rows) == len(cols) and all(a is b for a, b in zip(rows, cols))

    assert [i for rows in ranked for i, cols in maps.items() if same(rows, cols)] == list(maps)
    assert len(ranked) == len(maps) + sum(len(counts) for counts in fam._level_counts.values())
    # mu once, on the max_n family, on the columns d(1) reaches from the
    # generator columns
    d1 = gen.contraction(1)
    reached = sorted({key for src in gen.generator_columns(1) for key in d1[src]})
    assert [(fam_, sources) for fam_, sources, _ in mus] == [(gen, reached)]
    assert len(reached) < len(gen.basis(0))
    assert mus[0][2] == {src: col for src, col in mu_matrix(gen, range(len(gen.basis(0)))).items() if src in reached}


def right_ideal_rows(ctx, h: int) -> list:
    """Rows of the right K-submodule of V (x) K generated by v_0 (x) e, e the
    sum of the powers of h; it is free over K only when h = 1."""
    field, table = ctx.field, ctx.group.mult_table
    powers = [0]
    while table[powers[-1]][h] != 0:
        powers.append(table[powers[-1]][h])
    row = {g: field.one for g in powers}  # word number 0 is v_0
    return canonical_rows(field, [ctx.right_action_sparse(row, g) for g in range(ctx.order)])


@pytest.mark.parametrize("name", ["q8", "bd12"])
def test_degree_block_counts_hold_for_a_W_that_is_not_free_over_K(monkeypatch, name):
    # the counts need only K semisimple: on W = v_0 (x) eK, not free over K,
    # they match the levels of a space built at D, though the group moves
    # standard monomials to lower degree there, so the tensors w (x) b,
    # deg b = l, uncut would have a larger rank than c(l)
    _, data, D = next(case for case in family_inputs(seed=0) if case[0] == name)
    fam = NComplexSlice(parse_input(data)[0], D)
    ctx, field = fam.ctx, fam.ctx.field
    w_rows = komplex.w_rows
    uncut_larger = False
    for h in range(1, ctx.order):
        rows = right_ideal_rows(ctx, h)
        monkeypatch.setattr(komplex, "w_rows", lambda alg, n, cache: rows if n == 1 else w_rows(alg, n, cache))
        fam._gens.clear()
        fam._level_counts.clear()
        gens = fam.w_generators(1)
        assert len(gens) * ctx.order > len(rows)  # not free over K
        x = komplex._XSpace(fam.tu, 1, rows, gens, D)
        for r in range(D):
            assert fam.rows_within(1, r) == sum(level <= r for level in x.level), (h, r)
        for level in range(D):
            lo, hi = fam.tu.dim_filtration(level - 1), fam.tu.dim_filtration(level)
            every = list(range(hi))  # every U index at its own coordinates
            uncut = [komplex._tensor(fam.tu, rows[t], b, every, ctx.dimV) for t in gens for b in range(lo, hi)]
            cut_rank = fam.rows_within(1, level) - fam.rows_within(1, level - 1)
            uncut_larger |= komplex.rank(field, uncut) > cut_rank
    assert uncut_larger


def test_the_right_generators_of_each_W_n_are_found_once_per_family_tree(monkeypatch):
    # the counts, the spaces of every restriction and the three slice checks
    # read one list per n
    found = []
    generators = komplex.generators

    def recording(field, rows, act, order):
        found.append(rows)
        return generators(field, rows, act, order)

    monkeypatch.setattr(komplex, "generators", recording)
    fam = fresh_sr_z6()
    assert check_dN_zero(fam, S(-1, 6)) and contracted_complex(fam).exact_in_window and wedge_agreement(fam)
    assert len(fam._restrictions) == 2 and all(low._x for low in fam._restrictions.values())
    assert len(found) == len({id(rows) for rows in found}) == len(fam._gens) > 1
