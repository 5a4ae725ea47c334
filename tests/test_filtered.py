"""Tests for filtered presentations, phi, the overlap condition and PBW."""

import random
from math import comb

import pytest

from nkoszul.scalar import MatrixS, Scalar
from nkoszul.smashtensor import (
    FilteredSubspace,
    GroupData,
    TensorContext,
)
from nkoszul.filtered import (
    FilteredPresentation,
    OracleEngine,
    build_down_up,
    build_lie,
    build_phi,
    check_condition_I,
    check_condition_J,
    check_remark_310,
    is_antisymmetrizer_relations,
    oracle_pbw,
    pbw_verdict,
    project_R,
)
from paper_checks import rebuild_P

S = Scalar.rational


def trivial_ctx(dimV, conductor=1):
    return TensorContext(dimV, GroupData.trivial(dimV, conductor), conductor)


def sl2():
    # [h, e] = 2e, [h, f] = -2f, [e, f] = h with basis h=1, e=2, f=3
    return build_lie({(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})


def heisenberg():
    return build_lie({(1, 2): {3: 1}, (1, 3): {}, (2, 3): {}}, dimV=3)


def non_jacobi():
    """Brute-force-discovered bracket: first alternating integer table with
    a nonzero Jacobiator under the search order in test_non_jacobi_search,
    namely f(e1,e3) = e1, f(e2,e3) = e3, f(e1,e2) = 0."""
    return build_lie({(1, 3): {1: 1}, (2, 3): {3: 1}}, dimV=3)


def test_non_jacobi_search_finds_frozen_fixture():
    # enumerate small integer structure constants in a fixed order and stop
    # at the first bracket violating the Jacobi identity
    def jacobiator_nonzero(c12, c13, c23):
        # f(e_i, e_j) = e_{c}: single-basis-vector brackets, 0 means zero
        def f(i, j):
            if i == j:
                return {}
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            k = {(1, 2): c12, (1, 3): c13, (2, 3): c23}[(i, j)]
            return {k: sign} if k else {}

        def f_vec(vec):  # f(vec, e_m) for vec a dict {basis: coeff}
            return vec

        total = {}
        for (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            inner = f(i, j)
            for b, c in inner.items():
                for b2, c2 in f(b, k).items():
                    total[b2] = total.get(b2, 0) + c * c2
        return any(v != 0 for v in total.values())

    found = None
    for c12 in range(4):
        for c13 in range(4):
            for c23 in range(4):
                if jacobiator_nonzero(c12, c13, c23):
                    found = (c12, c13, c23)
                    break
            if found:
                break
        if found:
            break
    assert found == (0, 1, 3)  # f(e1,e3)=e1, f(e2,e3)=e3, f(e1,e2)=0


# -- projection and condition (I) -----------------------------------------


def test_project_R_homogeneous_presentation():
    ctx = trivial_ctx(2)
    P = FilteredSubspace.from_elements(ctx, 2, [{((0, 1), 0): S(1), ((1, 0), 0): S(-1)}])
    pres = FilteredPresentation(ctx, 2, P)
    assert project_R(pres).dim == P.dim == 1
    assert check_condition_I(pres)


def test_project_R_sl2_has_three_commutators():
    pres = sl2()
    assert project_R(pres).dim == 3
    assert check_condition_I(pres)


def test_degenerate_P_equal_to_constants():
    ctx = trivial_ctx(2)
    P = FilteredSubspace.from_elements(ctx, 2, [{((), 0): S(1)}])
    pres = FilteredPresentation(ctx, 2, P)
    assert project_R(pres).dim == 0
    assert not check_condition_I(pres)
    with pytest.raises(ValueError):
        build_phi(pres)


def test_phi_split_refuses_a_P_that_meets_the_lower_filtration():
    ctx = trivial_ctx(2)
    P = FilteredSubspace.from_elements(
        ctx, 2, [{((0, 1), 0): S(1), ((1, 0), 0): S(-1)}, {((), 0): S(1)}]
    )
    pres = FilteredPresentation(ctx, 2, P)
    assert not check_condition_I(pres)
    lower = P.layout.below(P.basis_sparse(), 1)
    assert P.dim == 2 and lower == [{P.layout.coord((), 0): ctx.field.one}]
    with pytest.raises(ValueError, match="meets F"):
        build_phi(pres)


def test_condition_I_down_up():
    assert check_condition_I(build_down_up(2, -1, 1))


# -- phi -------------------------------------------------------------------


def test_phi_zero_for_homogeneous():
    ctx = trivial_ctx(2)
    P = FilteredSubspace.from_elements(ctx, 2, [{((0, 1), 0): S(1), ((1, 0), 0): S(-1)}])
    pres = FilteredPresentation(ctx, 2, P)
    phi = build_phi(pres)
    assert all(not row for row in phi.rows)
    assert check_remark_310(pres)


def test_phi_down_up_degree_one_values():
    pres = build_down_up(2, -1, 1)
    phi = build_phi(pres)
    ctx = pres.ctx
    # phi is concentrated in degree 1 with values gamma*d and gamma*u
    assert phi.is_zero_component(0) and phi.is_zero_component(2)
    comp1 = phi.component(1)
    d_coord = ctx.coord((0,), 0)
    u_coord = ctx.coord((1,), 0)
    values = sorted(tuple(sorted(c.items())) for c in comp1)
    assert len(comp1) == 2
    got = {frozenset(c.keys()) for c in comp1}
    assert got == {frozenset({d_coord}), frozenset({u_coord})}
    assert check_remark_310(pres)


def test_phi_reconstruction_is_identity():
    for pres in (sl2(), build_down_up(2, -1, 1), heisenberg()):
        phi = build_phi(pres)
        assert rebuild_P(phi) == pres.P


def test_remark310_detects_constant_terms():
    # Weyl-type presentation: xy - yx - 1 has phi_0 != 0
    ctx = trivial_ctx(2)
    P = FilteredSubspace.from_elements(
        ctx, 2, [{((0, 1), 0): S(1), ((1, 0), 0): S(-1), ((), 0): S(-1)}]
    )
    pres = FilteredPresentation(ctx, 2, P)
    assert not check_remark_310(pres)


# -- the overlap condition (J) ----------------------------------------------


def test_condition_J_sl2_and_heisenberg():
    for pres in (sl2(), heisenberg()):
        rep = check_condition_J(pres)
        assert rep.holds and rep.direct and rep.lifted and rep.components


def test_condition_J_fails_exactly_at_J2_for_non_jacobi():
    rep = check_condition_J(non_jacobi())
    assert not rep.holds
    assert rep.j1 and rep.j3
    assert rep.j2 == {1: False}


def test_condition_J_down_up_displayed_cancellation():
    pres = build_down_up(2, -1, 1)
    rep = check_condition_J(pres)
    assert rep.holds
    # the degree-2 component of the lifted difference on the generator of
    # W_4 cancels exactly, which is the J'2 equation at j = 2
    assert rep.j2 == {1: True, 2: True}
    # and W_4 is one-dimensional with generator proportional to r1 u - beta r2 d
    from nkoszul.homogeneous import w_rows

    alg = pres.homogenization()
    rows = w_rows(alg, 4, {})
    assert len(rows) == 1
    ctx = pres.ctx
    d, u = 0, 1
    al, be = S(2), S(-1)
    one = Scalar.one(1)
    r1 = {((d, d, u), 0): one, ((d, u, d), 0): -al, ((u, d, d), 0): -be}
    r2 = {((d, u, u), 0): one, ((u, d, u), 0): -al, ((u, u, d), 0): -be}
    r1u = ctx.smash_mul_terms(r1, {((u,), 0): one})
    r2d = ctx.smash_mul_terms(r2, {((d,), 0): one})
    expect = dict(r1u)
    for k, v in r2d.items():
        expect[k] = expect.get(k, Scalar.zero(1)) - be * v
    vec = ctx.terms_to_sparse(expect)
    got = rows[0]
    # proportionality: got = c * vec
    piv = min(got)
    c = ctx.field.div(got[piv], vec[piv])
    assert {k: ctx.field.mul(c, v) for k, v in vec.items()} == got


def test_strategy_agreement_on_random_presentations():
    rng = random.Random(99)
    neg = MatrixS.from_rows([[-1, 0], [0, -1]])
    contexts = [trivial_ctx(2), trivial_ctx(3), TensorContext(2, GroupData.from_generators([neg]))]
    checked = 0
    negatives = 0
    while checked < 25:
        ctx = contexts[rng.randrange(len(contexts))]
        N = rng.choice([2, 3])
        elems = []
        for _ in range(rng.randint(1, 2)):
            t = {}
            for _ in range(rng.randint(1, 3)):
                w = tuple(rng.randrange(ctx.dimV) for _ in range(rng.randint(0, N)))
                g = rng.randrange(ctx.order)
                c = rng.randint(-2, 2)
                if c:
                    t[(w, g)] = t.get((w, g), S(0)) + S(c)
            t = {k: v for k, v in t.items() if not v.is_zero()}
            if t and any(len(w) == N for (w, _g) in t):
                elems.append(t)
        if not elems:
            continue
        P = FilteredSubspace.from_elements(ctx, N, elems, close=True)
        pres = FilteredPresentation(ctx, N, P)
        if not check_condition_I(pres):
            continue
        rep = check_condition_J(pres)  # raises on internal disagreement
        checked += 1
        if not rep.holds:
            negatives += 1
    assert negatives > 0  # the suite must exercise both outcomes


# -- the oracle --------------------------------------------------------------


def test_oracle_homogeneous_is_trivially_exact():
    ctx = trivial_ctx(2)
    P = FilteredSubspace.from_elements(ctx, 2, [{((0, 1), 0): S(1), ((1, 0), 0): S(-1)}])
    pres = FilteredPresentation(ctx, 2, P)
    rep = oracle_pbw(pres, 6)
    assert rep.holds
    assert rep.candidate_gr_dims == rep.a_dims


def test_oracle_sl2_dimensions():
    rep = oracle_pbw(sl2(), 8)
    assert rep.holds
    assert rep.candidate_gr_dims == [comb(n + 2, 2) for n in range(9)]


def test_oracle_non_jacobi_witness_at_degree_three():
    rep = oracle_pbw(non_jacobi(), 5)
    assert not rep.holds
    assert rep.equalities[2] is True and rep.equalities[3] is False
    assert rep.witness_degree == 3
    # the witness is the Jacobiator value, a vector of degree <= 2
    assert all(len(t["word"]) <= 2 for t in rep.witness["terms"])


def test_oracle_engine_top_rank_consistency_guard():
    # internal invariant: new pivots in the top block match the graded ideal
    engine = OracleEngine(build_down_up(2, -1, 1), 6)
    engine.run()
    assert all(engine.equalities.values())


# -- the combined verdict ----------------------------------------------------


def test_pbw_verdict_down_up_certified():
    rep = pbw_verdict(build_down_up(2, -1, 1), 8)
    assert rep.certified
    assert rep.condition_I and rep.condition_J.holds and rep.tor3.holds
    assert rep.phi0_zero is True
    assert [c for _, c, _ in rep.gr_table] == [a for _, _, a in rep.gr_table]


def test_pbw_verdict_sl2_unconditional_via_antisymmetrizer():
    rep = pbw_verdict(sl2(), 8)
    assert rep.certified and rep.unconditional
    assert is_antisymmetrizer_relations(sl2().homogenization())


def test_pbw_verdict_non_jacobi_failure_reason():
    rep = pbw_verdict(non_jacobi(), 6)
    assert not rep.certified
    assert rep.theorem34_verdict == "failed(J'2[1])"
    assert not rep.oracle.holds


def test_pbw_verdict_condition_I_failure_keeps_oracle():
    ctx = trivial_ctx(2)
    P = FilteredSubspace.from_elements(
        ctx, 2, [{((0, 1), 0): S(1), ((1, 0), 0): S(-1)}, {((), 0): S(1)}]
    )
    pres = FilteredPresentation(ctx, 2, P)
    rep = pbw_verdict(pres, 4)
    assert rep.theorem34_verdict == "failed(condition_I)"
    assert rep.condition_J is None and rep.tor3 is None
    assert rep.oracle is not None and not rep.oracle.holds


def test_oracle_consistency_with_certification():
    # whenever the verdict certifies at D, the oracle equalities hold up to D
    # and candidate dimensions match the graded algebra below the bound
    for pres, D in ((build_down_up(2, -1, 1), 8), (sl2(), 8), (heisenberg(), 8)):
        rep = pbw_verdict(pres, D)
        assert rep.certified
        assert all(rep.oracle.equalities[n] for n in range(pres.N, D + 1))
        for n in range(D):
            assert rep.oracle.candidate_gr_dims[n] == rep.oracle.a_dims[n]


def test_down_up_requires_nonzero_beta():
    with pytest.raises(ValueError):
        build_down_up(1, 0, 1)


def test_abelian_lie_is_symmetric_algebra():
    pres = build_lie({(1, 2): {}}, dimV=2)
    rep = oracle_pbw(pres, 5)
    assert rep.holds
    assert rep.candidate_gr_dims == [n + 1 for n in range(6)]
