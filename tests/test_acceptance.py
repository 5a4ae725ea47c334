"""Acceptance suite: one test per criterion, each printing a verdict line.

Every expected value is either a classical count (binomials, monomial
staircases), an independently recomputed quantity, or a structural fact
checked through two separate code paths; tolerances are exact equality
throughout, as everything is computed in exact arithmetic.
"""

import random
from itertools import combinations
from math import comb

from nkoszul.cyclo import get_field
from nkoszul.elim import TaggedRows
from nkoszul.scalar import MatrixS, Scalar
from nkoszul.smashtensor import (
    FilteredSubspace,
    Filtration,
    GroupData,
    Subbimodule,
    TensorContext,
    W,
    antisymmetrizer_subbimodule,
)
from nkoszul.homogeneous import (
    HomogeneousAlgebra,
    check_ec,
    koszul_complex_check,
    w_rows,
)
from nkoszul.filtered import (
    FilteredPresentation,
    build_down_up,
    build_lie,
    build_phi,
    check_condition_I,
    check_condition_J,
    pbw_verdict,
    _phi_lift_difference,
    _right_split_solver,
)
from nkoszul.grouppres import (
    PsiMap,
    build_H_psi,
    build_psi_symplectic_reflection,
    check_equivariance,
    theorem_44_verdict,
)
from nkoszul.komplex import (
    NComplexSlice,
    check_dN_zero,
    contracted_complex,
    wedge_agreement,
)
from paper_checks import (
    change_of_rings,
    check_identity_41,
    check_lemma22,
    factorization_identity_holds,
    koszul_differential,
    leibniz_identity_holds,
)

S = Scalar.rational


def announce(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def perm_matrix(perm):
    n = len(perm)
    return MatrixS.from_rows([[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)])


def test_criterion_1_down_up():
    """Down-up algebra with parameters (2, -1, 1)."""
    pres = build_down_up(2, -1, 1)
    ctx = pres.ctx
    alg = pres.homogenization()
    beta = S(-1)
    one = Scalar.one(1)
    d, u = 0, 1

    # dim W_4 = 1 with generator proportional to r1 u - beta r2 d
    rows = w_rows(alg, 4, {})
    assert len(rows) == 1
    al = S(2)
    r1 = {((d, d, u), 0): one, ((d, u, d), 0): -al, ((u, d, d), 0): -beta}
    r2 = {((d, u, u), 0): one, ((u, d, u), 0): -al, ((u, u, d), 0): -beta}
    expect = dict(ctx.smash_mul_terms(r1, {((u,), 0): one}))
    for k, v in ctx.smash_mul_terms(r2, {((d,), 0): one}).items():
        expect[k] = expect.get(k, Scalar.zero(1)) - beta * v
    vec = ctx.terms_to_sparse(expect)
    got = rows[0]
    piv = min(got)
    c = ctx.field.div(got[piv], vec[piv])
    assert {k: ctx.field.mul(c, v) for k, v in vec.items()} == got

    # conditions (I) and (J'1), (J'2), (J'3)
    assert check_condition_I(pres)
    jrep = check_condition_J(pres)
    assert jrep.j1 and jrep.j3 and jrep.j2 == {1: True, 2: True}

    # the displayed cancellation: the lifted difference vanishes on W_4,
    # in particular its degree-2 component is exactly zero
    phi = build_phi(pres)
    diff = _phi_lift_difference(pres, phi, rows[0], _right_split_solver(pres, phi.r_rows))
    assert diff == {}
    assert not Filtration(ctx, 3).block(diff, 2)

    # oracle equalities for 3 <= n <= 8 and the staircase dimensions
    rep = pbw_verdict(pres, 8)
    assert rep.certified
    assert all(rep.oracle.equalities[n] for n in range(3, 9))

    def staircase(n):
        return sum(1 for j in range(n // 2 + 1) for _ in range(n - 2 * j + 1))

    expected = [staircase(n) for n in range(8)]
    assert expected == [1, 2, 4, 6, 9, 12, 16, 20]
    assert rep.oracle.candidate_gr_dims[:8] == expected
    assert rep.oracle.a_dims[:8] == expected
    announce(1, "down-up W_4 generator, conditions, oracle and staircase dims")


def test_criterion_2_sl2_and_non_jacobi():
    """Enveloping algebra of sl2 and the brute-force non-Jacobi bracket."""
    sl2 = build_lie({(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})
    rep = pbw_verdict(sl2, 8)
    assert rep.certified
    assert rep.oracle.candidate_gr_dims == [comb(n + 2, 2) for n in range(9)]

    bad = build_lie({(1, 3): {1: 1}, (2, 3): {3: 1}}, dimV=3)
    bad_rep = pbw_verdict(bad, 6)
    assert bad_rep.theorem34_verdict == "failed(J'2[1])"
    jrep = bad_rep.condition_J
    assert jrep.j1 and jrep.j3 and jrep.j2 == {1: False}
    # the oracle localizes the failure at degree 3: J^3 meets F^2 beyond J^2
    assert bad_rep.oracle.equalities[2] and not bad_rep.oracle.equalities[3]
    assert bad_rep.oracle.witness_degree == 3
    announce(2, "sl2 certified with binomial dims; non-Jacobi fails exactly at J'2")


def test_criterion_3_antisymmetrizer_family():
    """dimV = 4, p = 3: trivial group and S3 on three coordinates."""
    ctx = TensorContext(4)
    R = antisymmetrizer_subbimodule(ctx, 3)
    alg = HomogeneousAlgebra(ctx, 3, R)
    assert W(R, 4).dim == comb(4, 4)
    assert check_ec(alg).holds
    cert = koszul_complex_check(alg, 6)
    assert cert.verdict == "verified_up_to_6"
    assert all(all(dc.exact) for dc in cert.degrees)

    group = GroupData.from_generators([perm_matrix([1, 0, 2, 3]), perm_matrix([0, 2, 1, 3])])
    assert group.order == 6
    alg2 = change_of_rings(alg, group)
    assert W(alg2.R, 4).dim == comb(4, 4) * 6
    assert check_ec(alg2).holds
    cert2 = koszul_complex_check(alg2, 6)
    assert cert2.verdict == "verified_up_to_6"
    assert all(all(dc.exact) for dc in cert2.degrees)
    announce(3, "antisymmetrizer family over trivial and S3 groups verified to degree 6")


def test_criterion_4_symplectic_reflection():
    """Gamma = {±Id} in Sp(Q^2) with class function (1, t), t in {0, 1}."""
    neg = MatrixS.from_rows([[-1, 0], [0, -1]])
    group = GroupData.from_generators([neg])
    omega = MatrixS.from_rows([[0, 1], [-1, 0]])
    for t in (0, 1):
        psi = build_psi_symplectic_reflection(group, omega, [1, t])
        assert theorem_44_verdict(group, psi).holds
        pres = build_H_psi(group, psi)
        rep = pbw_verdict(pres, 6)
        assert rep.certified
        assert rep.oracle.candidate_gr_dims == [2 * (n + 1) for n in range(7)]
        fam = NComplexSlice(pres, 6)
        assert all(ok for _, ok in check_dN_zero(fam, S(-1)))
        contraction = contracted_complex(fam)
        assert contraction.exact_in_window and contraction.composition_zero
    announce(4, "symplectic reflection algebras for t in {0,1}: verdicts, dims, d^2 = 0, exact window")


def _random_psi(rng, group, p, dimV, conductor=1):
    comps = {}
    for g in range(group.order):
        if rng.random() < 0.35:
            continue
        table = {}
        for combo in combinations(range(dimV), p):
            c = rng.randint(-1, 1)
            if c:
                table[combo] = Scalar.rational(c, conductor)
        if table:
            comps[g] = table
    return PsiMap(p, dimV, group.order, comps, conductor)


def test_criterion_5_equivalence_laws():
    """Randomized agreement laws, one hundred trials each, zero failures."""
    neg2 = GroupData.from_generators([MatrixS.from_rows([[-1, 0], [0, -1]])])
    swap2 = GroupData.from_generators([perm_matrix([1, 0])])

    # (a) the three overlap-condition strategies agree; the checker raises
    # on internal disagreement, so completing all trials is the assertion
    rng = random.Random(501)
    contexts = [
        TensorContext(2),
        TensorContext(3),
        TensorContext(2, neg2),
    ]
    done = 0
    negatives = 0
    while done < 100:
        ctx = contexts[rng.randrange(len(contexts))]
        N = rng.choice([2, 3])
        elems = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                w = tuple(rng.randrange(ctx.dimV) for _ in range(rng.randint(0, N)))
                g = rng.randrange(ctx.order)
                c = rng.randint(-2, 2)
                if c:
                    key = (w, g)
                    terms[key] = terms.get(key, S(0)) + S(c)
            terms = {k: v for k, v in terms.items() if not v.is_zero()}
            if terms and any(len(w) == N for (w, _g) in terms):
                elems.append(terms)
        if not elems:
            continue
        P = FilteredSubspace.from_elements(ctx, N, elems, close=True)
        pres = FilteredPresentation(ctx, N, P)
        if not check_condition_I(pres):
            continue
        if not check_condition_J(pres).holds:
            negatives += 1
        done += 1
    assert negatives > 0

    # (b) theorem 4.4 verdict = equivariance and the contraction identity
    rng = random.Random(502)
    groups = [GroupData.trivial(2), neg2, GroupData.from_generators([perm_matrix([1, 0, 2])])]
    for _ in range(100):
        g = groups[rng.randrange(len(groups))]
        psi = _random_psi(rng, g, 2, g.dimV)
        assert theorem_44_verdict(g, psi).holds == (
            check_equivariance(g, psi) and check_identity_41(g, psi)
        )

    # (c) theorem 4.4 verdict = conditions (I) and (J) on the built algebra
    rng = random.Random(503)
    cases = [(GroupData.trivial(2), 2), (neg2, 2), (GroupData.trivial(3), 3), (swap2, 2)]
    for _ in range(100):
        g, p = cases[rng.randrange(len(cases))]
        psi = _random_psi(rng, g, p, g.dimV)
        pres = build_H_psi(g, psi)
        if check_condition_I(pres):
            built = check_condition_J(pres).holds
        else:
            built = False
        assert theorem_44_verdict(g, psi).holds == built

    # (d) product/intersection exchange identities on random sub-bimodules
    rng = random.Random(504)
    contexts = [TensorContext(2), TensorContext(3), TensorContext(2, neg2)]

    def random_sub(ctx, degree):
        elems = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                w = tuple(rng.randrange(ctx.dimV) for _ in range(degree))
                g = rng.randrange(ctx.order)
                c = rng.randint(-2, 2)
                if c:
                    terms[(w, g)] = S(c)
            if terms:
                elems.append(terms)
        if not elems:
            return Subbimodule.zero(ctx, degree)
        return Subbimodule.from_elements(ctx, degree, elems)

    for _ in range(100):
        ctx = contexts[rng.randrange(len(contexts))]
        di, dj = rng.randint(1, 2), rng.randint(1, 2)
        if ctx.dimV == 2 and rng.random() < 0.3:
            di = 3
        e, ep = random_sub(ctx, di), random_sub(ctx, di)
        f, fp = random_sub(ctx, dj), random_sub(ctx, dj)
        assert check_lemma22(e, ep, f, fp, "i")
        assert check_lemma22(e, ep, f, fp, "ii")
        assert check_lemma22(e, e.intersect(ep), f, f.intersect(fp), "iii")
    announce(5, "equivalence laws (a)-(d), 100 randomized trials each, zero failures")


def test_criterion_6_n_complex_over_zeta3():
    """A cubic example over Q(zeta_3): d^3 = 0, factorization, both roots."""
    group = GroupData.trivial(3, conductor=3)
    psi = PsiMap(3, 3, 1, {0: {(0, 1, 2): Scalar.one(3)}}, conductor=3)
    assert theorem_44_verdict(group, psi).holds
    pres = build_H_psi(group, psi)
    fam = NComplexSlice(pres, 6)
    first = check_dN_zero(fam, Scalar.zeta(3))
    assert first and all(ok for _, ok in first)
    for n, _ in first:
        assert factorization_identity_holds(fam, Scalar.zeta(3), n)
    second = check_dN_zero(fam, Scalar.zeta(3, 2))
    assert first == second
    announce(6, "cubic example over Q(zeta_3): d^3 = 0 and the factorization, both primitive roots")


def test_criterion_7_wedge_cross_validation():
    """Wedge formulas match the generic maps for p = 2 and p = 3."""
    neg = MatrixS.from_rows([[-1, 0], [0, -1]])
    group2 = GroupData.from_generators([neg])
    psi2 = build_psi_symplectic_reflection(group2, MatrixS.from_rows([[0, 1], [-1, 0]]), [1, 1])
    pres2 = build_H_psi(group2, psi2)
    fam2 = NComplexSlice(pres2, 5)
    assert wedge_agreement(fam2)

    group3 = GroupData.trivial(3)
    psi3 = PsiMap(3, 3, 1, {0: {(0, 1, 2): 1}})
    pres3 = build_H_psi(group3, psi3)
    fam3 = NComplexSlice(pres3, 5)
    assert wedge_agreement(fam3)

    # p = 2: both parity recipes instantiate the same uniform formula
    from nkoszul.komplex import WedgeComplex, maps_equal

    wc = WedgeComplex(fam2)
    field = fam2.ctx.field

    def uniform(m):
        wc.basis(m - 1)
        cols = {}
        for src, (pos, combo, b_idx) in enumerate(wc.basis(m)):
            out = {}
            b0_idx = fam2.b0[pos]
            for jpos in range(m):
                letter = combo[jpos]
                rest = combo[:jpos] + combo[jpos + 1 :]
                sign = field.one if jpos % 2 == 0 else field.neg(field.one)
                wc._left_term(out, m - 1, b0_idx, letter, rest, b_idx, sign)
                for b2, c in fam2.tu.left_mult_letter(b_idx, letter):
                    wc._emit(out, m - 1, pos, rest, b2, field.neg(field.mul(sign, c)))
            cols[src] = out
        return cols

    assert maps_equal(wc.differential(1, True), uniform(1), len(wc.basis(1)))
    assert maps_equal(wc.differential(2, False), uniform(2), len(wc.basis(2)))
    announce(7, "wedge formulas agree with the generic differentials; p = 2 recipes coincide")


def test_criterion_8_injectivity_and_leibniz():
    """Contraction differential injectivity sweep and the product rule."""
    for e_dim in range(0, 6):
        for p in range(0, e_dim + 1):
            cols = koszul_differential(e_dim, p).values()
            injective = not TaggedRows(get_field(1), cols, comb(e_dim, p + 1) * e_dim).kernel_rows()
            assert injective == (p < e_dim)
    assert leibniz_identity_holds(2, 2, 1, 1)
    announce(8, "differential injective exactly below the top degree; product rule verified")
