"""Tests for group-twisted presentations, psi criteria and differentials."""

import random
from math import comb

import pytest

from nkoszul.scalar import MatrixS, Scalar, kernel
from nkoszul.smashtensor import GroupData, TensorContext, W, antisymmetrizer_subbimodule
from nkoszul.filtered import (
    build_lie,
    check_condition_I,
    check_condition_J,
    project_R,
)
from nkoszul.grouppres import (
    GDecomposition,
    PsiMap,
    build_H_psi,
    build_psi_corollary45,
    build_psi_symplectic_reflection,
    check_equivariance,
    check_identity_41,
    decompose,
    koszul_differential,
    koszul_differential_injective,
    leibniz_identity_holds,
    theorem_44_verdict,
)

S = Scalar.rational


def perm_matrix(perm):
    n = len(perm)
    return MatrixS.from_rows([[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)])


def neg_group(dim=2):
    return GroupData.from_generators([MatrixS.from_rows([[-1 if i == j else 0 for j in range(dim)] for i in range(dim)])])


# -- decomposition ------------------------------------------------------


def test_decompose_identity_even_p():
    g = GroupData.trivial(3)
    dec = decompose(g, 2)
    assert dec.a == [0]
    assert dec.L[0].dim == 3 and dec.M[0].dim == 0


def test_decompose_minus_identity():
    dec = decompose(neg_group(), 2)
    assert dec.a == [0, 2]
    assert dec.M[1].dim == 2 and dec.L[1].dim == 0


def test_decompose_transposition_on_Q3():
    g = GroupData.from_generators([perm_matrix([1, 0, 2])])
    dec = decompose(g, 2)
    # Id - swap has image spanned by e1 - e2
    swap_idx = 1
    assert dec.a[swap_idx] == 1
    row = dec.M[swap_idx].basis_rows()[0]
    assert row == [S(1), S(-1), S(0)]


def test_decompose_p_out_of_range():
    with pytest.raises(ValueError):
        decompose(neg_group(), 5)


# -- construction of the presentation -----------------------------------


def test_build_H_psi_zero_gives_antisymmetrizer():
    g = GroupData.from_generators([perm_matrix([1, 0, 2, 3]), perm_matrix([0, 2, 1, 3])])
    psi = PsiMap(3, 4, g.order, {})
    pres = build_H_psi(g, psi)
    R = project_R(pres)
    assert R.dim == comb(4, 3) * g.order
    ctx = pres.ctx
    assert R == antisymmetrizer_subbimodule(ctx, 3)
    assert W(R, 4).dim == comb(4, 4) * g.order


def test_psi_over_a_larger_field_than_the_group():
    # Gamma's matrices over Q, psi over Q(zeta3): the checks and the
    # builders work in Q(zeta3), the larger of the two fields
    g = GroupData.from_generators([MatrixS.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])])
    psi = build_psi_corollary45(g, 3, {(0, 1, 2): Scalar.zeta(3)}, conductor=3)
    assert psi.conductor == 3 and set(psi.components) == {0, 1}
    assert check_equivariance(g, psi) and check_identity_41(g, psi)
    assert theorem_44_verdict(g, psi).holds
    pres = build_H_psi(g, psi)
    assert pres.ctx.conductor == 3 and pres.ctx.group is g
    assert check_condition_I(pres) and check_condition_J(pres).holds


def test_build_H_psi_trivial_group_p2_matches_lie():
    # psi given by a bracket f recovers the enveloping-algebra presentation
    g = GroupData.trivial(3)
    # f(e1,e2) = e3 etc is not scalar-valued, so take the scalar case:
    # p = 2 with psi scalar-valued matches a central-extension bracket only
    # in its scalar part; compare against the explicit relation span instead
    psi = PsiMap(2, 3, 1, {0: {(0, 1): 1, (1, 2): -2}})
    pres = build_H_psi(g, psi)
    from nkoszul.smashtensor import FilteredSubspace

    ctx = pres.ctx
    expect = FilteredSubspace.from_elements(
        ctx,
        2,
        [
            {((0, 1), 0): S(1), ((1, 0), 0): S(-1), ((), 0): S(-1)},
            {((0, 2), 0): S(1), ((2, 0), 0): S(-1)},
            {((1, 2), 0): S(1), ((2, 1), 0): S(-1), ((), 0): S(2)},
        ],
    )
    assert pres.P == expect


# -- equivariance and the contraction identity ----------------------------


def test_equivariance_trivial_group_always():
    g = GroupData.trivial(2)
    psi = PsiMap(2, 2, 1, {0: {(0, 1): 7}})
    assert check_equivariance(g, psi)


def test_equivariance_of_corollary_construction():
    g = GroupData.from_generators([perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])])
    # phi = determinant-like invariant 3-form is S3-invariant only up to
    # sign; use p = 2 with an invariant symmetric-free 2-form instead: the
    # permutation action fixes omega = sum_{i<j} e_i* ^ e_j* only up to
    # signs, so build from the full antisymmetrization-invariant on Z/2
    g2 = neg_group(2)
    psi = build_psi_symplectic_reflection(g2, MatrixS.from_rows([[0, 1], [-1, 0]]), [1, 1])
    assert check_equivariance(g2, psi)
    assert check_identity_41(g2, psi)


def test_equivariance_fails_on_single_noncentral_support():
    g = GroupData.from_generators([perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])])
    # support on a single transposition with generic values
    swap_idx = None
    for i in range(g.order):
        if g.matrices[i] == perm_matrix([1, 0, 2]):
            swap_idx = i
    psi = PsiMap(2, 3, g.order, {swap_idx: {(0, 1): 1, (0, 2): 2}})
    assert not check_equivariance(g, psi)
    pres = build_H_psi(g, psi)
    assert not check_condition_I(pres)


def test_identity_41_zero_psi():
    g = neg_group(3)
    assert check_identity_41(g, PsiMap(2, 3, g.order, {}))


def test_identity_41_on_and_off_component():
    # Z/2 generated by diag(-1,-1,1,1) acting on Q^4, p = 2:
    # M_g = span{e1,e2}, L_g = span{e3,e4}, a(g) = 2
    gmat = MatrixS.from_rows(
        [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    g = GroupData.from_generators([gmat])
    dec = decompose(g, 2)
    assert dec.a == [0, 2]
    on_component = PsiMap(2, 4, 2, {1: {(0, 1): 1}})  # supported on Λ²(M)
    assert check_identity_41(g, on_component)
    off_component = PsiMap(2, 4, 2, {1: {(2, 3): 1}})  # supported on Λ²(L)
    assert not check_identity_41(g, off_component)


def test_theorem44_detects_global_phi_assignment():
    # psi_g = phi globally is wrong when M_g is neither V nor 0
    gmat = MatrixS.from_rows(
        [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    g = GroupData.from_generators([gmat])
    omega = {(0, 1): S(1), (2, 3): S(1)}  # invariant under g
    psi_wrong = PsiMap(2, 4, 2, {0: omega, 1: omega})
    rep = theorem_44_verdict(g, psi_wrong)
    assert rep.equivariant
    assert not rep.holds
    assert not check_identity_41(g, psi_wrong)
    # the corrected component-wise construction passes
    psi_right = build_psi_corollary45(g, 2, omega, [1, 1])
    assert theorem_44_verdict(g, psi_right).holds
    # psi_g keeps only the Λ²(M_g) part for the reflection element
    assert psi_right.components[1] == {(0, 1): S(1)}


def random_psi(rng, group, p, dimV):
    comps = {}
    for g in range(group.order):
        if rng.random() < 0.4:
            continue
        table = {}
        from itertools import combinations

        for combo in combinations(range(dimV), p):
            c = rng.randint(-1, 1)
            if c:
                table[combo] = S(c)
        if table:
            comps[g] = table
    return PsiMap(p, dimV, group.order, comps)


def test_theorem44_equals_equivariance_and_identity_randomized():
    rng = random.Random(7)
    groups = [GroupData.trivial(2), neg_group(2), GroupData.from_generators([perm_matrix([1, 0, 2])])]
    for _ in range(40):
        g = groups[rng.randrange(len(groups))]
        psi = random_psi(rng, g, 2, g.dimV)
        lhs = theorem_44_verdict(g, psi).holds
        rhs = check_equivariance(g, psi) and check_identity_41(g, psi)
        assert lhs == rhs


def test_theorem44_equals_pbw_conditions_randomized():
    rng = random.Random(13)
    groups = [GroupData.trivial(2), neg_group(2)]
    for _ in range(20):
        g = groups[rng.randrange(len(groups))]
        psi = random_psi(rng, g, 2, g.dimV)
        lhs = theorem_44_verdict(g, psi).holds
        pres = build_H_psi(g, psi)
        if check_condition_I(pres):
            rhs = check_condition_J(pres).holds
        else:
            rhs = False
        assert lhs == rhs


# -- the corollary construction ---------------------------------------------


def test_phi_of_group_presentation_is_psi_in_degree_zero():
    # for antisymmetrizer-minus-psi relations the correction map is
    # concentrated in degree zero and reproduces psi on the wedge basis
    from nkoszul.filtered import build_phi
    from itertools import combinations

    g = neg_group(2)
    psi = build_psi_symplectic_reflection(g, MatrixS.from_rows([[0, 1], [-1, 0]]), [1, 1])
    pres = build_H_psi(g, psi)
    phi = build_phi(pres)
    for j in range(1, 2):
        assert phi.is_zero_component(j)
    # each relation row with top part Alt(combo) carries psi(combo) in the
    # constant block; evaluate through the canonical R rows
    ctx = pres.ctx
    field = ctx.field
    from nkoszul.smashtensor import alternating_sum_terms

    for combo in combinations(range(2), 2):
        alt_vec = ctx.terms_to_sparse(alternating_sum_terms(ctx, combo))
        coeffs = []
        residual = dict(alt_vec)
        for t, row in enumerate(phi.r_rows):
            piv = min(row)
            c = residual.get(piv, field.zero)
            coeffs.append(c)
            if not field.is_zero(c):
                for col, v in row.items():
                    cur = residual.get(col)
                    term = field.mul(c, v)
                    nv = field.sub(cur, term) if cur is not None else field.neg(term)
                    if field.is_zero(nv):
                        residual.pop(col, None)
                    else:
                        residual[col] = nv
        assert not residual
        value = phi.apply_to_R_vector(coeffs)
        # degree-zero coordinates are the group slots
        got = {gidx: Scalar(field, v) for gidx, v in value.items()}
        expect = {
            gidx: psi.value(gidx, combo)
            for gidx in range(g.order)
            if not psi.value(gidx, combo).is_zero()
        }
        assert got == expect


def test_corollary45_trivial_group_returns_phi():
    g = GroupData.trivial(3)
    phi = {(0, 1): S(2), (1, 2): S(-1)}
    psi = build_psi_corollary45(g, 2, phi)
    assert psi.components == {0: phi}


def test_corollary45_symplectic_reflection_on_Q2():
    g = neg_group(2)
    psi = build_psi_symplectic_reflection(g, MatrixS.from_rows([[0, 1], [-1, 0]]), [1, 1])
    assert psi.components[0] == {(0, 1): S(1)}
    assert psi.components[1] == {(0, 1): S(1)}
    assert theorem_44_verdict(g, psi).holds


def test_corollary45_zero_class_function_gives_graded_case():
    g = neg_group(2)
    psi = build_psi_symplectic_reflection(g, MatrixS.from_rows([[0, 1], [-1, 0]]), [0, 0])
    assert psi.is_zero()


def test_corollary45_rejects_non_invariant_phi():
    g = GroupData.from_generators([perm_matrix([1, 0, 2])])
    phi = {(0, 1): S(1), (0, 2): S(5)}  # not invariant under the swap
    with pytest.raises(ValueError):
        build_psi_corollary45(g, 2, phi)


def test_corollary45_rejects_non_class_constant_factors():
    g = GroupData.from_generators([perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])])
    phi = {}  # zero form is invariant
    bad = [S(i) for i in range(g.order)]
    with pytest.raises(ValueError):
        build_psi_corollary45(g, 2, phi, bad)


def test_symplectic_builder_validates_form():
    g = neg_group(2)
    with pytest.raises(ValueError):
        build_psi_symplectic_reflection(g, MatrixS.from_rows([[0, 1], [1, 0]]), [1, 1])
    with pytest.raises(ValueError):
        build_psi_symplectic_reflection(g, MatrixS.from_rows([[0, 0], [0, 0]]), [1, 1])


# -- exterior differentials ---------------------------------------------------


def test_koszul_differential_injectivity_sweep():
    for e_dim in range(1, 6):
        for p in range(0, e_dim + 1):
            assert koszul_differential_injective(e_dim, p) == (p < e_dim)


def test_koszul_differential_top_degree_kernel():
    mat = koszul_differential(3, 3)
    assert mat.cols == 1 and mat.rows == 0
    assert kernel(mat).dim == 1


def test_koszul_differential_single_term():
    # p = 0 on a 1-dimensional space: (d c)(v) = -c v
    mat = koszul_differential(1, 0)
    assert mat.rows == 1 and mat.cols == 1
    assert mat[0, 0] == S(-1)


def test_leibniz_identity_matrix_comparison():
    assert leibniz_identity_holds(2, 2, 1, 1)
    assert leibniz_identity_holds(2, 1, 1, 1)
    assert leibniz_identity_holds(1, 2, 0, 1)
    assert leibniz_identity_holds(2, 2, 2, 0)
