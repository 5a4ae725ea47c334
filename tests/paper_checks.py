"""The paper's statements and references as named oracles for the tests.

Each function decides one statement on exact values, from the package's
own building blocks.  None of them is a check the CLI runs, so they live
beside the tests that call them:

* ``check_lemma22``                -- the product/intersection exchange
                                     identities of Lemma 2.2;
* ``check_identity_41``            -- identity (4.1), the alternating
                                     contraction identity of each group
                                     component of psi;
* ``koszul_differential``          -- the contraction differential
                                     Λ^p(E*) -> Λ^{p+1}(E*) ⊗ E, whose
                                     injectivity underlies the
                                     componentwise criterion;
* ``leibniz_identity_holds``       -- its graded product rule on V = M ⊕ L;
* ``factorization_identity_holds`` -- the product of the twisted maps
                                     against d_l^N - d_r^N against the phi
                                     correction;
* ``ideal_component``              -- the degree-n component of I(R) laid
                                     out in full, the reference for the
                                     quotient tower;
* ``change_of_rings``              -- a field-level algebra extended to
                                     K = k[Gamma];
* ``is_homomorphic_action``        -- rho(g) rho(h) = rho(gh), entry by entry;
* ``rebuild_P``                    -- P rebuilt as {x - phi(x) : x in R};
* ``full_slice_dN_zero``,
  ``full_slice_contraction``,
  ``full_slice_wedge_agreement``   -- the three slice checks on every
                                     column of every slice up to the
                                     family's bound: d^N composed on all
                                     columns, the windowed ranks on the
                                     columns of total degree <= D - N,
                                     and the wedge comparison on all
                                     columns.  The library reads only
                                     the restrictions these verdicts
                                     need (``NComplexSlice.restricted``).

Universal quantifiers over tuples of vectors are discharged on strictly
increasing basis tuples, as in ``nkoszul.grouppres``.
"""

from itertools import combinations
from math import comb

from nkoszul.cyclo import get_field
from nkoszul.elim import accumulate, add_scaled, compose_maps, maps_equal, negated, rank
from nkoszul.filtered import PhiMap
from nkoszul.grouppres import PsiMap, _id_minus_signed, _over
from nkoszul.homogeneous import HomogeneousAlgebra, zeta_degrees
from nkoszul.komplex import ContractionReport, NComplexSlice, WedgeComplex, map_difference, map_is_zero
from nkoszul.scalar import DimensionMismatch, Scalar, to_raw
from nkoszul.smashtensor import FilteredSubspace, GroupData, Subbimodule, TensorContext, placement, product_EF
from reduced_eliminator import ReducedEliminator


def check_lemma22(E: Subbimodule, Ep: Subbimodule, F: Subbimodule, Fp: Subbimodule, which: str) -> bool:
    """Exact validity of the product/intersection exchange identities.

    which = "i":   (EF) ∩ (EF') = E(F ∩ F')
    which = "ii":  (EF) ∩ (E'F) = (E ∩ E')F
    which = "iii": (E'F) ∩ (EF') = E'F'   requiring E' ⊆ E and F' ⊆ F
    """
    if E.degree != Ep.degree or F.degree != Fp.degree:
        raise DimensionMismatch("E,E' and F,F' must come in equal degrees")
    if which == "i":
        lhs = product_EF(E, F).intersect(product_EF(E, Fp))
        rhs = product_EF(E, F.intersect(Fp))
    elif which == "ii":
        lhs = product_EF(E, F).intersect(product_EF(Ep, F))
        rhs = product_EF(E.intersect(Ep), F)
    elif which == "iii":
        if not E.space.contains_subspace(Ep.space):
            raise ValueError("(iii) requires E' contained in E")
        if not F.space.contains_subspace(Fp.space):
            raise ValueError("(iii) requires F' contained in F")
        lhs = product_EF(Ep, F).intersect(product_EF(E, Fp))
        rhs = product_EF(Ep, Fp)
    else:
        raise ValueError("which must be one of 'i', 'ii', 'iii'")
    return lhs == rhs


def check_identity_41(group: GroupData, psi: PsiMap) -> bool:
    """The alternating contraction identity for each group component.

    For every g and increasing (p+1)-tuple of basis vectors, the signed sum
    of psi_g on the p-subtuples weighted by (Id - (-1)^p rho(g)) applied to
    the omitted vector must vanish; p is the arity of psi.
    """
    group, psi = _over(group, psi)
    field = get_field(psi.conductor)
    p = psi.p
    for g, columns in enumerate(group.maps):
        table = psi.components.get(g, {})
        op = _id_minus_signed(field, columns, p)
        for tup in combinations(range(group.dimV), p + 1):
            acc: dict = {}
            for pos in range(p + 1):
                c = table.get(tup[:pos] + tup[pos + 1 :])
                if c is not None:
                    c = to_raw(field, c)
                    add_scaled(field, acc, op[tup[pos]], c if pos % 2 else negated(field, c))
            if acc:
                return False
    return True


def _contraction_rows(E_dim: int, p: int) -> list[tuple]:
    """The pairs (increasing (p+1)-tuple, vector index) indexing the rows of
    ``koszul_differential(E_dim, p)``, in row order."""
    return [(sp, j) for sp in combinations(range(E_dim), p + 1) for j in range(E_dim)]


def koszul_differential(E_dim: int, p: int, conductor: int = 1) -> dict:
    """Columns of the contraction differential Λ^p(E*) -> Λ^{p+1}(E*) ⊗ E.

    A sparse column map: column c is the c-th increasing p-tuple S, and
    rows are numbered as in ``_contraction_rows``.  The entry at row
    (S', j) is (-1)^i when removing the i-th member (1-based) of S' leaves
    S and that member equals j.
    """
    if not 0 <= p <= E_dim:
        raise ValueError("p out of range")
    field = get_field(conductor)
    cols: dict = {c: {} for c in range(comb(E_dim, p))}
    column = {S: c for c, S in enumerate(combinations(range(E_dim), p))}
    for r, (sp, j) in enumerate(_contraction_rows(E_dim, p)):
        if j in sp:
            pos = sp.index(j)
            cols[column[sp[:pos] + sp[pos + 1 :]]][r] = field.one if pos % 2 else field.minus_one
    return cols


def leibniz_identity_holds(dim_m: int, dim_l: int, r: int, s: int, conductor: int = 1) -> bool:
    """Column-exact comparison of the (r, s) component of the differential
    on V = M ⊕ L with the graded product rule built from the factors."""
    n = dim_m + dim_l
    field = get_field(conductor)
    full = koszul_differential(n, r + s, conductor)
    row_full = {key: i for i, key in enumerate(_contraction_rows(n, r + s))}
    col_full = {S: i for i, S in enumerate(combinations(range(n), r + s))}
    dm, cod_m = koszul_differential(dim_m, r, conductor), _contraction_rows(dim_m, r)
    dl, cod_l = koszul_differential(dim_l, s, conductor), _contraction_rows(dim_l, s)
    sign_r = field.minus_one if r % 2 else field.one
    for a, sm in enumerate(combinations(range(dim_m), r)):
        for b, sl0 in enumerate(combinations(range(dim_l), s)):
            sl = tuple(dim_m + i for i in sl0)
            # expected image: dM sm ⊗ sl + (-1)^r sm ⊗ dL sl, whose two
            # target components are (r+1, s) ⊗ M and (r, s+1) ⊗ L; every
            # other row of the full column must vanish
            expected: dict = {}
            for ri, c in dm[a].items():
                spm, j = cod_m[ri]
                accumulate(field, expected, row_full[spm + sl, j], c)
            for ri, c in dl[b].items():
                spl, j = cod_l[ri]
                key = (sm + tuple(dim_m + i for i in spl), dim_m + j)
                accumulate(field, expected, row_full[key], field.mul(sign_r, c))
            if full[col_full[sm + sl]] != expected:
                return False
    return True


def power(step, n: int, N: int, field) -> dict:
    """Columns of step(n-N+1) ∘ ... ∘ step(n), the N-fold composition out of n."""
    comp = step(n)
    for k in range(1, N):
        comp = compose_maps(step(n - k), comp, field)
    return comp


def factorization_identity_holds(slice_family: NComplexSlice, q: Scalar, n: int) -> bool:
    """Product of the twisted maps vs d_l^N - d_r^N vs the phi correction."""
    field = slice_family.ctx.field
    N = slice_family.N
    twisted = power(lambda m: slice_family.d_twisted(m, q), n, N, field)
    ncols = slice_family.slice_dim(n)
    untwisted = map_difference(
        power(slice_family.d_left, n, N, field), power(slice_family.d_right, n, N, field), field, ncols
    )
    lhs_eq = maps_equal(twisted, untwisted, ncols)
    phi_diff = map_difference(slice_family.phi_left(n), slice_family.phi_right(n), field, ncols)
    rhs_eq = maps_equal(untwisted, phi_diff, ncols)
    return lhs_eq and rhs_eq


def ideal_component(R: Subbimodule, n: int) -> Subbimodule:
    """Degree-n component of the two-sided ideal generated by R.

    The component is the sum of all placements V^{⊗i} R V^{⊗j} with
    i + N + j = n; it vanishes for n < N.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    ctx = R.ctx
    N = R.degree
    if n < N:
        return Subbimodule.zero(ctx, n)
    out = placement(R, 0, n - N)
    for i in range(1, n - N + 1):
        out = out.sum(placement(R, i, n - N - i))
    return out


def change_of_rings(alg: HomogeneousAlgebra, group: GroupData) -> HomogeneousAlgebra:
    """Extend a field-level algebra to K = k[Gamma] inside the smash context.

    Requires the field-level relations to be stable under the group action;
    the extended relation module is the bimodule closure of R ⊗ 1 and has
    dimension dim R * |Gamma|.
    """
    if alg.ctx.order != 1:
        raise ValueError("change of rings starts from a field-level algebra")
    ctx2 = TensorContext(group.dimV, group, max(alg.ctx.conductor, 1))
    if group.dimV != alg.ctx.dimV:
        raise DimensionMismatch("group must act on the same V")
    # stability check: rho(g) applied slotwise preserves the relation space
    order = group.order
    lifted = [{c * order: v for c, v in r.items()} for r in alg.R.basis_sparse()]
    elim = ReducedEliminator(alg.ctx.field)
    elim.add_all(alg.R.basis_sparse())
    for g in group.generators:
        for r in lifted:
            img = ctx2.left_action_sparse(g, r, alg.N)
            if not elim.contains({c // order: v for c, v in img.items()}):
                raise ValueError("relations are not stable under the group action")
    R2 = Subbimodule.from_rows(ctx2, alg.N, lifted)
    return HomogeneousAlgebra(ctx2, alg.N, R2)


def is_homomorphic_action(group: GroupData) -> bool:
    """Entry-exact check that rho(g) rho(h) = rho(gh)."""
    maps, field, n = group.maps, group.field, group.dimV
    return all(
        maps_equal(compose_maps(maps[i], maps[j], field), maps[group.mult_table[i][j]], n)
        for i in range(group.order)
        for j in range(group.order)
    )


def rebuild_P(phi: PhiMap) -> FilteredSubspace:
    """Span of {x_t - phi(x_t)}; equals P whenever condition (I) holds."""
    ctx = phi.pres.ctx
    neg = ctx.field.neg
    # r_t fills the leading degree-N block of P's layout, phi(r_t) the rest
    rows = [{**r, **{c: neg(v) for c, v in value.items()}} for r, value in zip(phi.r_rows, phi.rows)]
    return FilteredSubspace.from_rows(ctx, phi.N, rows, close=False)


def full_slice_dN_zero(slice_family: NComplexSlice, q: Scalar) -> list[tuple[int, bool]]:
    """d^N = 0 composed on every column of each slice n = N..max_n."""
    field = slice_family.ctx.field
    N = slice_family.N
    return [
        (n, map_is_zero(power(lambda m: slice_family.d_twisted(m, q), n, N, field)))
        for n in range(N, slice_family.max_n + 1)
        if slice_family.slice_dim(n)
    ]


def full_slice_contraction(slice_family: NComplexSlice) -> ContractionReport:
    """The contracted complex on the family's own slices: consecutive maps
    composed on every column, and each map ranked on its columns of total
    degree <= D - N."""
    fam = slice_family
    N = fam.N
    field = fam.ctx.field
    window = fam.bound - N
    zs = zeta_degrees(N, fam.bound)
    top = 0
    while top + 1 < len(zs) and fam.slice_dim(zs[top + 1]) > 0:
        top += 1
    maps = [fam.mu_matrix()] + [fam.contraction(i) for i in range(1, top + 1)]
    comp_zero = all(map_is_zero(compose_maps(maps[i], maps[i + 1], field)) for i in range(top))
    inside = [[fam.total_degree(n, key) <= window for key in fam.basis(n)] for n in zs[: top + 1]]
    dims = [sum(flags) for flags in inside]
    columns = [[vec for src, vec in cols.items() if flags[src]] for cols, flags in zip(maps, inside)]
    ranks = [rank(field, cols) for cols in columns] + [0]
    positions = []
    for i in range(top + 1):
        ok = ranks[i] + ranks[i + 1] == dims[i]
        if i == 0:
            ok = ok and ranks[0] == fam.tu.dim_filtration(window)
        positions.append(
            {
                "i": i,
                "zeta": zs[i],
                "dim_total": fam.slice_dim(zs[i]),
                "dim_window": dims[i],
                "rank_in": ranks[i + 1],
                "rank_out": ranks[i],
                "exact": ok,
            }
        )
    return ContractionReport(fam.bound, window, positions, comp_zero, all(pos["exact"] for pos in positions))


def full_slice_wedge_agreement(family: NComplexSlice) -> bool:
    """The wedge maps against the generic ones on every column of every
    wedge slice up to the family's bound."""
    wc = WedgeComplex(family)
    field = family.ctx.field
    zs = zeta_degrees(family.N, family.bound)
    ok = True
    for i in range(1, len(zs)):
        hi, lo = zs[i], zs[i - 1]
        if family.slice_dim(hi) == 0 or not wc.basis(hi):
            break
        wedge_map = wc.differential(hi, i % 2 == 1)
        lhs = compose_maps(family.contraction(i), wc.iso_to_generic(hi), field)
        rhs = compose_maps(wc.iso_to_generic(lo), wedge_map, field)
        ok = ok and maps_equal(lhs, rhs, len(wc.basis(hi)))
    return ok
