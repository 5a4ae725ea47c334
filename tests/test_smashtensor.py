"""Tests for groups, smash products, sub-bimodules, ideal components and W_n."""

import random
from math import comb

import pytest

from families import binary_dihedral_q8, non_equivariant, with_class_factors
from nkoszul.elim import SparseEliminator, canonical_rows, intersection
from nkoszul.filtered import FilteredPresentation, build_phi
from nkoszul.jsonio import parse_input
from nkoszul.scalar import DimensionMismatch, MatrixS, Scalar
from nkoszul.smashtensor import (
    FilteredSubspace,
    Filtration,
    GroupData,
    Subbimodule,
    TensorContext,
    W,
    placement,
    product_EF,
)
from paper_checks import check_lemma22, ideal_component, is_homomorphic_action, rebuild_P
from test_oracle_tower import non_equivariant_h_psi, random_presentation


def S(x):
    return Scalar.rational(x)


def perm_matrix(perm):
    n = len(perm)
    return MatrixS.from_rows([[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)])


def trivial_ctx(dimV, conductor=1):
    return TensorContext(dimV, GroupData.trivial(dimV, conductor), conductor)


# -- groups ------------------------------------------------------------


def test_group_of_order_two():
    neg = MatrixS.from_rows([[-1, 0], [0, -1]])
    g = GroupData.from_generators([neg])
    assert g.order == 2
    assert g.mult_table == ((0, 1), (1, 0))
    assert g.inverses == (0, 1)
    assert g.conj_classes == ((0,), (1,))
    assert is_homomorphic_action(g)


def test_trivial_group():
    g = GroupData.trivial(3)
    assert g.order == 1
    assert g.conj_classes == ((0,),)


def test_s3_from_transpositions():
    a = perm_matrix([1, 0, 2])
    b = perm_matrix([0, 2, 1])
    g = GroupData.from_generators([a, b])
    assert g.order == 6
    assert len(g.conj_classes) == 3
    assert sorted(len(c) for c in g.conj_classes) == [1, 2, 3]
    assert is_homomorphic_action(g)


def test_non_invertible_generator_rejected():
    with pytest.raises(ValueError):
        GroupData.from_generators([MatrixS.from_rows([[1, 0], [0, 0]])])


def test_order_cap_exceeded():
    # A shear has infinite order; the cap must catch it.
    shear = MatrixS.from_rows([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        GroupData.from_generators([shear], order_cap=16)


# -- smash product ------------------------------------------------------


def test_smash_product_trivial_group_concatenates():
    ctx = trivial_ctx(2)
    x = {((0,), 0): S(1)}
    y = {((1,), 0): S(1)}
    assert ctx.smash_mul_terms(x, y) == {((0, 1), 0): S(1)}


def test_smash_product_scalar_action():
    # (x ⊗ g)(y ⊗ e) with rho(g) = -Id gives -(xy ⊗ g).
    neg = MatrixS.from_rows([[-1, 0], [0, -1]])
    ctx = TensorContext(2, GroupData.from_generators([neg]))
    x_g = {((0,), 1): S(1)}
    y_e = {((1,), 0): S(1)}
    prod = ctx.smash_mul_terms(x_g, y_e)
    assert prod == {((0, 1), 1): S(-1)}


def test_smash_product_associative_random():
    rng = random.Random(3)
    swap = perm_matrix([1, 0])
    ctx = TensorContext(2, GroupData.from_generators([swap]))

    def random_terms(degree):
        out = {}
        for _ in range(2):
            word = tuple(rng.randrange(2) for _ in range(degree))
            g = rng.randrange(ctx.order)
            out[(word, g)] = S(rng.randint(-2, 2))
        return out

    for _ in range(20):
        a, b, c = random_terms(1), random_terms(2), random_terms(1)
        left = ctx.smash_mul_terms(ctx.smash_mul_terms(a, b), c)
        right = ctx.smash_mul_terms(a, ctx.smash_mul_terms(b, c))
        ctx_field = ctx.field
        assert ctx.terms_to_sparse(left) == ctx.terms_to_sparse(right)


# -- sub-bimodules -------------------------------------------------------


def test_full_component_dimension():
    swap = perm_matrix([1, 0])
    ctx = TensorContext(2, GroupData.from_generators([swap]))
    assert Subbimodule.full(ctx, 3).dim == 2**3 * 2


def test_closure_is_verified_and_assertable():
    # span{x⊗y} is not closed under the swap action; closure adds y⊗x.
    swap = perm_matrix([1, 0])
    ctx = TensorContext(2, GroupData.from_generators([swap]))
    e = {((0, 1), 0): S(1)}
    closed = Subbimodule.from_elements(ctx, 2, [e], close=True)
    assert closed.is_closed()
    assert closed.dim == 4  # left action spreads over both group slices
    with pytest.raises(ValueError):
        Subbimodule.from_elements(ctx, 2, [e], close=False)


def test_from_elements_refuses_a_term_of_another_degree():
    # read by coordinate alone, (1,) would be the word (0, 1) and (0, 0, 0)
    # the word (0, 0) of degree 2
    ctx = trivial_ctx(2)
    for word in ((1,), (0, 0, 0)):
        with pytest.raises(DimensionMismatch):
            Subbimodule.from_elements(ctx, 2, [{(word, 0): S(1)}])
        with pytest.raises(DimensionMismatch):
            Subbimodule.from_elements(ctx, 2, [{((0, 1), 0): S(1)}, {(word, 0): S(2)}])
    # a zero coefficient carries no term, whatever its word
    e = Subbimodule.from_elements(ctx, 2, [{((0, 1), 0): S(1), ((1,), 0): S(0)}])
    assert e.basis_sparse() == [{ctx.coord((0, 1), 0): ctx.field.one}]


def test_product_EF_full_times_full():
    ctx = trivial_ctx(2)
    v1 = Subbimodule.full(ctx, 1)
    assert product_EF(v1, v1) == Subbimodule.full(ctx, 2)


def test_product_EF_zero():
    ctx = trivial_ctx(2)
    z = Subbimodule.zero(ctx, 1)
    f = Subbimodule.full(ctx, 1)
    assert product_EF(z, f).dim == 0


def test_product_VE_commutator_span():
    # E = span{x⊗y - y⊗x} in two variables: dim VE = 2.
    ctx = trivial_ctx(2)
    e = Subbimodule.from_elements(ctx, 2, [{((0, 1), 0): S(1), ((1, 0), 0): S(-1)}])
    ve = product_EF(Subbimodule.full(ctx, 1), e)
    assert ve.dim == 2


def test_product_monotone_and_associative_spans():
    rng = random.Random(9)
    ctx = trivial_ctx(2)

    def rand_sub(degree, count):
        elems = []
        for _ in range(count):
            t = {}
            for _ in range(2):
                word = tuple(rng.randrange(2) for _ in range(degree))
                t[(word, 0)] = S(rng.randint(-2, 2))
            elems.append(t)
        return Subbimodule.from_elements(ctx, degree, elems)

    for _ in range(10):
        e = rand_sub(1, 1)
        e2 = e.sum(rand_sub(1, 1))
        f = rand_sub(2, 2)
        g = rand_sub(1, 1)
        ef = product_EF(e, f)
        e2f = product_EF(e2, f)
        assert e2f.space.contains_subspace(ef.space)
        assert product_EF(ef, g) == product_EF(e, product_EF(f, g))


# -- ideal components and W ----------------------------------------------


def commutator_R(ctx):
    # relations of the symmetric algebra on two variables
    return Subbimodule.from_elements(ctx, 2, [{((0, 1), 0): S(1), ((1, 0), 0): S(-1)}])


def test_ideal_component_below_degree_is_zero():
    ctx = trivial_ctx(2)
    r = commutator_R(ctx)
    assert ideal_component(r, 0).dim == 0
    assert ideal_component(r, 1).dim == 0


def test_ideal_component_at_degree_is_R():
    ctx = trivial_ctx(2)
    r = commutator_R(ctx)
    assert ideal_component(r, 2) == r


def test_ideal_component_degree3_commutative_two_variables():
    # dim A_3 = (monomials of degree 3 in 2 commuting variables) = 4,
    # so dim I(R)_3 = 2^3 - 4 = 4.
    ctx = trivial_ctx(2)
    r = commutator_R(ctx)
    assert ideal_component(r, 3).dim == 8 - 4


def test_W_at_relation_degree_is_R():
    ctx = trivial_ctx(2)
    r = commutator_R(ctx)
    assert W(r, 2) == r
    with pytest.raises(ValueError):
        W(r, 1)


def antisymmetrizer_R(ctx, p):
    """Bimodule closure of the antisymmetrized p-tensors."""
    from itertools import combinations, permutations

    elems = []
    letters = range(ctx.dimV)
    for combo in combinations(letters, p):
        t = {}
        for perm in permutations(range(p)):
            sign = 1
            for i in range(p):
                for j in range(i + 1, p):
                    if perm[i] > perm[j]:
                        sign = -sign
            word = tuple(combo[perm[i]] for i in range(p))
            t[(word, 0)] = S(sign)
        elems.append(t)
    return Subbimodule.from_elements(ctx, p, elems)


def test_W4_antisymmetrizer_dim_matches_top_wedge():
    # For the antisymmetrizer relations in 4 variables with p = 3 the
    # degree-4 intersection has dimension C(4,4) = 1.
    ctx = trivial_ctx(4)
    r = antisymmetrizer_R(ctx, 3)
    assert r.dim == comb(4, 3)
    assert W(r, 4).dim == comb(4, 4)


def test_W4_down_up_homogeneous_is_one_dimensional():
    # Homogeneous down-up relations (N = 3, two variables): dim W_4 = 1.
    ctx = trivial_ctx(2)
    alpha, beta = S(2), S(-1)
    d, u = 0, 1
    r1 = {((d, d, u), 0): S(1), ((d, u, d), 0): -alpha, ((u, d, d), 0): -beta}
    r2 = {((d, u, u), 0): S(1), ((u, d, u), 0): -alpha, ((u, u, d), 0): -beta}
    r = Subbimodule.from_elements(ctx, 3, [r1, r2])
    w4 = W(r, 4)
    assert w4.dim == 1


# -- Lemma-type product/intersection identities ----------------------------


def test_lemma22_trivial_case_iii_and_idempotence():
    ctx = trivial_ctx(2)
    e = Subbimodule.from_elements(ctx, 1, [{((0,), 0): S(1)}])
    f = Subbimodule.full(ctx, 1)
    assert check_lemma22(e, e, f, f, "iii")


def random_subbimodule(rng, ctx, degree):
    elems = []
    for _ in range(rng.randint(1, 2)):
        t = {}
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.randrange(ctx.dimV) for _ in range(degree))
            g = rng.randrange(ctx.order)
            c = rng.randint(-2, 2)
            if c:
                t[(word, g)] = S(c)
        if t:
            elems.append(t)
    if not elems:
        return Subbimodule.zero(ctx, degree)
    return Subbimodule.from_elements(ctx, degree, elems)


@pytest.mark.parametrize("order_two", [False, True])
def test_lemma22_randomized_suite(order_two):
    rng = random.Random(42 if order_two else 17)
    if order_two:
        neg = MatrixS.from_rows([[-1, 0], [0, -1]])
        ctx = TensorContext(2, GroupData.from_generators([neg]))
    else:
        ctx = trivial_ctx(3)
    for _ in range(30):
        di = rng.randint(1, 2)
        dj = rng.randint(1, 2)
        e = random_subbimodule(rng, ctx, di)
        ep = random_subbimodule(rng, ctx, di)
        f = random_subbimodule(rng, ctx, dj)
        fp = random_subbimodule(rng, ctx, dj)
        assert check_lemma22(e, ep, f, fp, "i")
        assert check_lemma22(e, ep, f, fp, "ii")
        # for (iii) shrink E' and F' to honest subobjects
        ep2 = e.intersect(ep)
        fp2 = f.intersect(fp)
        assert check_lemma22(e, ep2, f, fp2, "iii")


def test_W_nested_in_shifted_products():
    ctx = trivial_ctx(2)
    r = commutator_R(ctx)
    for n in range(2, 5):
        wn = W(r, n)
        wn1 = W(r, n + 1)
        vw = placement(wn, 1, 0)
        wv = placement(wn, 0, 1)
        assert vw.intersect(wv).space.contains_subspace(wn1.space)


# -- filtered subspaces ----------------------------------------------------


def test_filtered_subspace_layout_and_projection():
    ctx = trivial_ctx(2)
    # P = span{xy - yx - 1} inside F^2
    p = FilteredSubspace.from_elements(
        ctx, 2, [{((0, 1), 0): S(1), ((1, 0), 0): S(-1), ((), 0): S(-1)}]
    )
    assert p.dim == 1
    top = p.block_projection(2)
    assert top.dim == 1
    assert p.block_projection(1).dim == 0
    assert p.block_projection(0).dim == 1


def test_filtered_mul_E_and_truncation():
    ctx = trivial_ctx(2)
    p = FilteredSubspace.from_elements(
        ctx, 2, [{((0, 1), 0): S(1), ((1, 0), 0): S(-1), ((), 0): S(-1)}]
    )
    pv = p.mul_E("right")
    vp = p.mul_E("left")
    assert pv.top_degree == 3 and vp.top_degree == 3
    assert pv.dim == 2 and vp.dim == 2
    both = FilteredSubspace(
        ctx, 3, pv.space.sum(vp.space)
    )
    cut = both.truncate_intersection(2)
    # With two variables the degree-3 overlap space vanishes, so the
    # intersection with F^2 is zero and lands in P trivially.
    assert cut.dim == 0
    assert p.contains(cut)


def test_mul_E_from_the_generators_is_the_product_of_every_row():
    """P·E and E·P multiply only P's right and left K-generators; the spans
    are those of every canonical row of P times every e_l ⊗ g.  Random
    sub-bimodules over groups of order two and the non-equivariant h_psi
    over Z/3, whose left and right generators differ, are among the inputs."""
    rng = random.Random(32)
    cases = [random_presentation(rng)[0] for _ in range(40)] + list(non_equivariant_h_psi())
    cases.append(parse_input(non_equivariant(with_class_factors(binary_dihedral_q8(), "0:q8")))[0])
    for pres in cases:
        P, ctx = pres.P, pres.ctx
        target = Filtration(ctx, P.top_degree + 1)
        for side, mul in (("right", P.layout.right_mul), ("left", P.layout.left_mul)):
            rows = [
                mul(row, letter, g, target)
                for row in P.basis_sparse()
                for letter in range(ctx.dimV)
                for g in range(ctx.order)
            ]
            assert P.mul_E(side).basis_sparse() == canonical_rows(ctx.field, rows), side


def test_filtered_closure_under_group():
    neg = MatrixS.from_rows([[-1, 0], [0, -1]])
    ctx = TensorContext(2, GroupData.from_generators([neg]))
    p = FilteredSubspace.from_elements(
        ctx, 2, [{((0, 1), 0): S(1), ((1, 0), 0): S(-1), ((), 1): S(-1)}]
    )
    assert p.is_closed()
    # the right action by -Id sends the constant slice e -> g
    assert p.dim == 2


@pytest.mark.parametrize("order_two", [False, True])
def test_subbimodule_is_the_one_degree_filtered_subspace(order_two):
    # a degree-n sub-bimodule is the filtered subspace of F^n on the same
    # rows: one layout, one ambient, one closure and one equality
    rng = random.Random(5 if order_two else 3)
    if order_two:
        neg = MatrixS.from_rows([[-1, 0], [0, -1]])
        ctx = TensorContext(2, GroupData.from_generators([neg]))
    else:
        ctx = trivial_ctx(2)
    for _ in range(10):
        n = rng.randint(1, 3)
        elems = [
            {
                (tuple(rng.randrange(ctx.dimV) for _ in range(n)), rng.randrange(ctx.order)): S(
                    rng.choice([-2, -1, 1, 3])
                )
                for _ in range(rng.randint(1, 3))
            }
            for _ in range(rng.randint(1, 2))
        ]
        sub = Subbimodule.from_elements(ctx, n, elems)
        filt = FilteredSubspace.from_elements(ctx, n, elems)
        assert sub == filt and hash(sub) == hash(filt)
        for t in elems:
            assert ctx.terms_to_sparse(t) == FilteredSubspace.terms_to_sparse(ctx, n, t)
        assert sub.layout.start == filt.layout.start and sub.layout.dim == filt.layout.dim
        assert sub.space.ambient_dim == filt.space.ambient_dim == sub.layout.dim
        assert sub.is_closed()
        # the rows lead in degree n, so nothing of them lies lower down
        assert sub.truncate_intersection(n) is sub
        low = sub.truncate_intersection(n - 1)
        assert type(low) is FilteredSubspace and low.top_degree == n - 1 and low.dim == 0
        assert type(placement(sub, 1, 0)) is Subbimodule


# -- the filtration layout --------------------------------------------------


def sr_z6_ctx():
    """Z/6 acting on Q(zeta6)^2 by diag(zeta, zeta^5)."""
    z = Scalar.zeta(6)
    gen = MatrixS(2, 2, [z, Scalar.zero(6), Scalar.zero(6), z**5], 6)
    return TensorContext(2, GroupData.from_generators([gen]), 6)


def s3_ctx():
    gens = [perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])]
    return TensorContext(3, GroupData.from_generators(gens))


def test_filtration_coordinates_round_trip():
    ctx = sr_z6_ctx()
    layout = Filtration(ctx, 3)
    assert layout.dim == sum(ctx.component_dim(d) for d in range(4))
    assert layout.start[3] == 0
    for coord in range(layout.dim):
        word, g = layout.decode(coord)
        assert layout.block_of(coord) == len(word)
        assert layout.coord(word, g) == coord
    for d in range(4):
        lo = layout.start[d]
        hi = lo + ctx.component_dim(d) - 1
        assert layout.block_of(lo) == layout.block_of(hi) == d
        assert layout.block({lo: 1, hi: 2, layout.dim: 3}, d) == {0: 1, hi - lo: 2}


def as_row(terms, layout):
    return {layout.coord(w, g): c.raw for (w, g), c in terms.items() if not c.is_zero()}


@pytest.mark.parametrize("make_ctx", [sr_z6_ctx, s3_ctx], ids=["sr_z6", "s3"])
def test_filtration_products_match_the_term_product(make_ctx):
    ctx = make_ctx()
    rng = random.Random(7)
    layout = Filtration(ctx, 2)
    target = Filtration(ctx, 3)
    one = Scalar.one(ctx.conductor)
    for _ in range(4):
        terms = {}
        for _ in range(5):
            word = tuple(rng.randrange(ctx.dimV) for _ in range(rng.randrange(3)))
            terms[(word, rng.randrange(ctx.order))] = Scalar.rational(rng.randint(-3, 3), ctx.conductor)
        row = as_row(terms, layout)
        for g in range(ctx.order):
            for letter in range(ctx.dimV):
                elem = {((letter,), g): one}
                right = ctx.smash_mul_terms(terms, elem)
                left = ctx.smash_mul_terms(elem, terms)
                assert layout.right_mul(row, letter, g, target) == as_row(right, target)
                assert layout.left_mul(row, letter, g, target) == as_row(left, target)
            elem = {((), g): one}
            right = ctx.smash_mul_terms(terms, elem)
            left = ctx.smash_mul_terms(elem, terms)
            assert layout.right_mul(row, None, g, layout) == as_row(right, layout)
            assert layout.left_mul(row, None, g, layout) == as_row(left, layout)


def test_group_expansions_store_one_as_the_field_one_object(monkeypatch):
    ctx = sr_z6_ctx()
    field = ctx.field
    ones = 0
    for g in range(ctx.order):
        for length in range(4):
            for num in range(ctx.dimV**length):
                for _, c in ctx.apply_group_to_word(g, ctx.num_word(num, length)):
                    if c == field.one:
                        assert c is field.one
                        ones += 1
    assert ones
    # the generator scales e_1 by zeta and e_2 by zeta^5: the product is one
    gen = ctx.group.generators[0]
    word = (0, 1)
    assert ctx.apply_group_to_word(gen, word) == [(word, field.one)]
    assert ctx.apply_group_to_word(gen, word)[0][1] is field.one
    calls = []
    mul = type(field).mul
    monkeypatch.setattr(type(field), "mul", lambda self, a, b: calls.append((a, b)) or mul(self, a, b))
    out = ctx.left_action_sparse(gen, {ctx.coord(word, 0): field.one}, 2)
    assert out == {ctx.coord(word, gen): field.one}
    # the one product zeta·zeta^5, and none by one
    assert len(calls) == 1 and not any(a is field.one or b is field.one for a, b in calls)


def random_filtered(ctx, rng, top):
    """The closure of 1-2 random elements of F^top, mostly of lower degree."""
    elements = []
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.randrange(ctx.dimV) for _ in range(rng.choice([top, *range(top)])))
            terms[(word, rng.randrange(ctx.order))] = Scalar.rational(rng.randint(-2, 2), ctx.conductor)
        elements.append(terms)
    return FilteredSubspace.from_elements(ctx, top, elements)


@pytest.mark.parametrize("make_ctx", [sr_z6_ctx, s3_ctx], ids=["sr_z6", "s3"])
def test_truncate_intersection_matches_the_zassenhaus_intersection(make_ctx):
    # the pivot cut against the intersection with the unit rows of F^level
    ctx = make_ctx()
    field = ctx.field
    rng = random.Random(5)
    nontrivial = 0
    for _ in range(8):
        top = rng.choice([2, 3]) if ctx.dimV == 2 else 2
        sub = random_filtered(ctx, rng, top)
        layout = sub.layout
        for level in range(top):
            units = [{c: field.one} for c in range(layout.start[level], layout.dim)]
            inter = intersection(field, sub.basis_sparse(), units, layout.dim)
            lo = layout.start[level]
            expected = [{c - lo: v for c, v in row.items()} for row in inter]
            cut = sub.truncate_intersection(level)
            assert cut.top_degree == level and cut.basis_sparse() == expected
            assert sub.contains(cut)
            nontrivial += 0 < cut.dim < sub.dim
    assert nontrivial >= 4


@pytest.mark.parametrize("make_ctx", [sr_z6_ctx, s3_ctx], ids=["sr_z6", "s3"])
def test_extend_top_then_truncate_is_the_identity(make_ctx):
    ctx = make_ctx()
    rng = random.Random(9)
    for _ in range(4):
        P = random_filtered(ctx, rng, 2)
        wide = P.extend_top(4)
        assert wide.dim == P.dim and wide.is_closed()
        assert wide.truncate_intersection(2) == P
        for d in range(3):
            assert wide.block_projection(d) == P.block_projection(d)


def test_phi_and_the_cut_eliminate_nothing(monkeypatch):
    # both read P's canonical rows, top degree first, by pivot
    ctx = sr_z6_ctx()
    P = FilteredSubspace.from_elements(
        ctx, 2, [{((0, 1), 0): S(1), ((1, 0), 0): S(-1), ((), 1): S(1)}]
    )
    pres = FilteredPresentation(ctx, 2, P)
    overlaps = FilteredSubspace(ctx, 3, P.mul_E("right").space.sum(P.mul_E("left").space))
    wide = P.extend_top(4)
    made = []
    original = SparseEliminator.__init__

    def counting(self, field):
        made.append(self)
        original(self, field)

    monkeypatch.setattr(SparseEliminator, "__init__", counting)
    phi = build_phi(pres)
    cuts = [wide.truncate_intersection(2), overlaps.truncate_intersection(2)]
    assert made == []
    assert len(phi.rows) == P.dim and any(phi.component(0))
    assert cuts[0] == P and P.contains(cuts[1])
    assert rebuild_P(phi) == P


@pytest.mark.parametrize(
    "term",
    [((0, 2), 0), ((0, 1), 3), ((-1, 0), 0), ((0, 1), -1)],
    ids=["letter-past-V", "g-past-Gamma", "negative-letter", "negative-g"],
)
def test_out_of_range_terms_are_refused(term):
    # over dimV = 2 and the trivial group, ((0, 2), 0) would be read as the
    # word (1, 0) and ((0, 1), 3) as coordinate 4, outside the component
    ctx = trivial_ctx(2)
    element = {term: S(1)}
    with pytest.raises(DimensionMismatch):
        Subbimodule.from_elements(ctx, 2, [element])
    with pytest.raises(DimensionMismatch):
        FilteredSubspace.from_elements(ctx, 2, [element])
