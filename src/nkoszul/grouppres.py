"""Presentations twisted by a finite group: the antisymmetrizer-minus-psi family.

Given a finite group Gamma < GL(V) and a linear map psi: Λ^p V -> k[Gamma]
with 2 <= p <= dimV, the algebra presented by the relations
Alt(v_1, ..., v_p) - psi(v_1, ..., v_p) is filtered with top degree p.  The
checks take Gamma and psi alone: p is the arity of psi, and the field is
the larger of the two that Gamma's matrices and psi live in.  This
module builds that presentation, decides the equivariance/identity
criteria that characterize when it has the PBW property, constructs psi
from a Gamma-invariant form, and provides the exterior-algebra
differentials whose injectivity underlies the componentwise criterion.

Universal quantifiers over tuples of vectors are discharged on strictly
increasing basis tuples; multilinearity and alternation reduce the general
statement to those, since both sides of every identity checked here are
multilinear and alternating in the vector arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .cyclo import get_field
from .filtered import FilteredPresentation
from .scalar import DimensionMismatch, MatrixS, Scalar, Subspace, image, kernel, rref_raw
from .smashtensor import (
    FilteredSubspace,
    GroupData,
    TensorContext,
    alternating_sum_terms,
)


class PsiMap:
    """Linear map Λ^p V -> k[Gamma], stored on the ascending wedge basis.

    ``components[g]`` maps an ascending tuple of 0-based letters to the
    coefficient of the group element g; absent entries are zero.
    Alternation is structural, so no skew-symmetry needs verifying.
    """

    def __init__(self, p: int, dimV: int, order: int, components: dict, conductor: int = 1):
        if not 2 <= p <= dimV:
            raise ValueError("p must lie between 2 and dimV")
        self.p = p
        self.dimV = dimV
        self.order = order
        self.conductor = conductor
        comps: dict[int, dict] = {}
        for g, table in components.items():
            if not 0 <= g < order:
                raise ValueError(f"psi group index {g} out of range 0..{order - 1}")
            clean = {}
            for combo, c in table.items():
                combo = tuple(combo)
                if len(combo) != p or list(combo) != sorted(set(combo)):
                    raise ValueError("wedge keys must be strictly increasing tuples")
                if combo[0] < 0 or combo[-1] >= dimV:
                    raise ValueError(f"wedge key {combo} has a letter outside 0..{dimV - 1}")
                if not isinstance(c, Scalar):
                    c = Scalar.rational(Fraction(c), conductor)
                if not c.is_zero():
                    clean[combo] = c
            if clean:
                comps[g] = clean
        self.components = comps

    def value(self, g: int, combo: tuple[int, ...]) -> Scalar:
        return self.components.get(g, {}).get(tuple(combo), Scalar.zero(self.conductor))

    def is_zero(self) -> bool:
        return not self.components

    def scaled(self, factors: list[Scalar]) -> "PsiMap":
        comps = {}
        for g, table in self.components.items():
            comps[g] = {combo: c * factors[g] for combo, c in table.items()}
        return PsiMap(self.p, self.dimV, self.order, comps, self.conductor)

    def evaluate_on_vectors(self, g: int, vectors: list[list[Scalar]]) -> Scalar:
        """Multilinear alternating extension evaluated on column vectors."""
        total = Scalar.zero(self.conductor)
        for combo, c in self.components.get(g, {}).items():
            minor = [[vectors[j][i] for j in range(self.p)] for i in combo]
            total = total + c * _det(minor, self.conductor)
        return total


def _det(rows: list[list[Scalar]], conductor: int) -> Scalar:
    n = len(rows)
    if n == 0:
        return Scalar.one(conductor)
    if n == 1:
        return rows[0][0]
    total = Scalar.zero(conductor)
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _det(minor, conductor)
        total = total + term if j % 2 == 0 else total - term
    return total


def wedge_apply(mat: MatrixS, combo: tuple[int, ...]) -> dict:
    """Expansion of (mat e_{i1}) ∧ ... ∧ (mat e_{ip}) on the wedge basis,
    over the field of ``mat``."""
    p = len(combo)
    n = mat.rows
    out: dict = {}
    for target in combinations(range(n), p):
        minor = [[mat[i, j] for j in combo] for i in target]
        d = _det(minor, mat.conductor)
        if not d.is_zero():
            out[target] = d
    return out


@dataclass
class GDecomposition:
    """Per-element splitting V = M_g ⊕ L_g for the maps Id - (-1)^p rho(g)."""

    p: int
    M: list[Subspace]
    L: list[Subspace]
    a: list[int]

    def to_json(self) -> dict:
        return {"p": self.p, "a": list(self.a)}


def _over(group: GroupData, conductor: int) -> GroupData:
    """Gamma with its matrices over Q(zeta_m), m the larger of ``conductor``
    and theirs: the one field that Gamma and psi both live in."""
    m = max(group.matrices[0].conductor, conductor)
    if all(mat.conductor == m for mat in group.matrices):
        return group
    mats = [MatrixS(mat.rows, mat.cols, mat.entries, m) for mat in group.matrices]
    return GroupData(mats, group.mult_table, group.inverses, group.conj_classes, group.generators)


def _id_minus_signed(mat: MatrixS, p: int) -> MatrixS:
    """Id - (-1)^p mat, over the field of ``mat``."""
    n = mat.rows
    sign = Scalar.rational(1 if p % 2 == 0 else -1, mat.conductor)
    ident = MatrixS.identity(n, mat.conductor)
    return MatrixS(n, n, [i - sign * e for i, e in zip(ident.entries, mat.entries)], mat.conductor)


def decompose(group: GroupData, p: int) -> GDecomposition:
    """Image and kernel of Id - (-1)^p rho(g) for every group element,
    over the field of the group's matrices."""
    dimV = group.dimV
    if not 2 <= p <= dimV:
        raise ValueError("p must lie between 2 and dimV")
    Ms, Ls, dims = [], [], []
    for mat in group.matrices:
        op = _id_minus_signed(mat, p)
        m_space = image(op)
        l_space = kernel(op)
        if m_space.dim + l_space.dim != dimV or m_space.intersect(l_space).dim != 0:
            raise ValueError("group element is not semisimple on V")
        Ms.append(m_space)
        Ls.append(l_space)
        dims.append(m_space.dim)
    return GDecomposition(p=p, M=Ms, L=Ls, a=dims)


def build_H_psi(group: GroupData, psi: PsiMap) -> FilteredPresentation:
    """Presentation with relations Alt(e_{i1},...,e_{ip}) - psi(e_{i1},...,e_{ip}).

    p is the arity of psi, and the field is the larger of the fields that
    the group's matrices and psi live in.  Equivariance of psi is
    deliberately not required here; when it fails, the filtration
    condition on the built presentation detects it.
    """
    conductor = max(group.matrices[0].conductor, psi.conductor)
    ctx = TensorContext(group.dimV, group, conductor)
    elements = []
    for combo in combinations(range(group.dimV), psi.p):
        terms = dict(alternating_sum_terms(ctx, combo))
        for g in range(group.order):
            c = psi.value(g, combo)
            if not c.is_zero():
                key = ((), g)
                terms[key] = terms.get(key, Scalar.zero(conductor)) - c
        elements.append(terms)
    P = FilteredSubspace.from_elements(ctx, psi.p, elements, close=True)
    return FilteredPresentation(ctx, psi.p, P)


def check_equivariance(group: GroupData, psi: PsiMap) -> bool:
    """psi(rho(g) w) = g psi(w) g^{-1}, componentwise over the group, for w
    in Λ^p V with p the arity of psi."""
    group = _over(group, psi.conductor)
    for g in range(group.order):
        mat = group.matrices[g]
        ginv = group.inverses[g]
        for combo in combinations(range(group.dimV), psi.p):
            expansion = wedge_apply(mat, combo)
            for h in range(group.order):
                # coefficient of h in psi(rho(g) w)
                lhs = Scalar.zero(mat.conductor)
                for target, c in expansion.items():
                    lhs = lhs + c * psi.value(h, target)
                conj = group.mult(group.mult(ginv, h), g)
                if lhs != psi.value(conj, combo):
                    return False
    return True


def check_identity_41(group: GroupData, psi: PsiMap) -> bool:
    """The alternating contraction identity for each group component.

    For every g and increasing (p+1)-tuple of basis vectors, the signed sum
    of psi_g on the p-subtuples weighted by (Id - (-1)^p rho(g)) applied to
    the omitted vector must vanish; p is the arity of psi.
    """
    group = _over(group, psi.conductor)
    dimV = group.dimV
    p = psi.p
    for g in range(group.order):
        op = _id_minus_signed(group.matrices[g], p)
        for tup in combinations(range(dimV), p + 1):
            acc = [Scalar.zero(op.conductor) for _ in range(dimV)]
            for pos in range(p + 1):
                sub = tup[:pos] + tup[pos + 1 :]
                c = psi.value(g, sub)
                if c.is_zero():
                    continue
                sign = Scalar.rational(-1 if (pos + 1) % 2 else 1, op.conductor)
                col = [op[i, tup[pos]] for i in range(dimV)]
                for i in range(dimV):
                    acc[i] = acc[i] + sign * c * col[i]
            if any(not x.is_zero() for x in acc):
                return False
    return True


@dataclass
class Theorem44Report:
    equivariant: bool
    per_g: list[dict]
    holds: bool

    def to_json(self) -> dict:
        return {"equivariant": self.equivariant, "per_g": self.per_g, "holds": self.holds}


def _adapted_basis(dec: GDecomposition, g: int) -> list[list[Scalar]]:
    """Concatenated canonical bases of M_g then L_g (column vectors)."""
    return [list(row) for row in dec.M[g].basis_rows() + dec.L[g].basis_rows()]


def theorem_44_verdict(group: GroupData, psi: PsiMap) -> Theorem44Report:
    """Equivariance plus vanishing of psi_g off the a(g) component.

    The wedge power of V splits along V = M_g ⊕ L_g; psi_g restricted to
    the summand with i factors from M_g must vanish unless i = a(g), where
    p is the arity of psi.
    """
    group = _over(group, psi.conductor)
    dec = decompose(group, psi.p)
    equivariant = check_equivariance(group, psi)
    per_g = []
    holds = equivariant
    for g in range(group.order):
        basis = _adapted_basis(dec, g)
        a = dec.a[g]
        table: dict[int, bool] = {}
        for combo in combinations(range(group.dimV), psi.p):
            vectors = [basis[i] for i in combo]
            mtype = sum(1 for i in combo if i < a)
            val = psi.evaluate_on_vectors(g, vectors)
            if not val.is_zero() and mtype != a:
                table[mtype] = False
            else:
                table.setdefault(mtype, True)
        bad = [i for i, ok in table.items() if not ok]
        per_g.append({"g": g, "a": a, "off_component_zero": not bad, "bad_components": bad})
        if bad:
            holds = False
    return Theorem44Report(equivariant=equivariant, per_g=per_g, holds=holds)


def build_psi_corollary45(
    group: GroupData,
    p: int,
    phi: dict,
    class_factors: Optional[list] = None,
    conductor: int = 1,
) -> PsiMap:
    """psi_g := phi on the a(g) component of Λ^p(M_g ⊕ L_g), zero elsewhere.

    ``phi`` maps ascending letter tuples to scalars and must be invariant
    under the group; ``class_factors`` is an optional map from elements to
    scalars, required constant on conjugacy classes, multiplying psi_g.
    """
    dimV = group.dimV
    base = PsiMap(p, dimV, group.order, {0: phi}, conductor)
    conductor = max(conductor, base.conductor)
    group = _over(group, conductor)
    phi_map = {combo: base.value(0, combo) for combo in combinations(range(dimV), p)}
    # invariance of phi
    for g in range(group.order):
        mat = group.matrices[g]
        for combo in combinations(range(dimV), p):
            expansion = wedge_apply(mat, combo)
            val = Scalar.zero(conductor)
            for target, c in expansion.items():
                val = val + c * phi_map[target]
            if val != phi_map[combo]:
                raise ValueError("phi is not invariant under the group action")
    factors = None
    if class_factors is not None:
        factors = [
            f if isinstance(f, Scalar) else Scalar.rational(Fraction(f), conductor)
            for f in class_factors
        ]
        if len(factors) != group.order:
            raise ValueError("need one class factor per group element")
        for cls in group.conj_classes:
            vals = {factors[i] for i in cls}
            if len(vals) > 1:
                raise ValueError("class factors must be constant on conjugacy classes")
    dec = decompose(group, p)
    components: dict[int, dict] = {}
    for g in range(group.order):
        a = dec.a[g]
        basis = _adapted_basis(dec, g)
        # transition matrix from standard coordinates to the adapted basis
        cols = [[basis[j][i] for j in range(dimV)] for i in range(dimV)]
        T = MatrixS.from_rows(cols, conductor)
        Tinv = _matrix_inverse(T, conductor)
        table: dict[tuple[int, ...], Scalar] = {}
        for combo in combinations(range(dimV), p):
            # express e_{combo} over the adapted wedge basis, keep only the
            # summands with exactly a factors from M_g, evaluate phi there
            expansion = wedge_apply(Tinv, combo)
            total = Scalar.zero(conductor)
            for target, c in expansion.items():
                if sum(1 for i in target if i < a) != a:
                    continue
                vectors = [basis[i] for i in target]
                total = total + c * base.evaluate_on_vectors(0, vectors)
            if not total.is_zero():
                table[combo] = total
        if factors is not None:
            table = {k: v * factors[g] for k, v in table.items()}
        if table:
            components[g] = table
    return PsiMap(p, dimV, group.order, components, conductor)


def _matrix_inverse(mat: MatrixS, conductor: int) -> MatrixS:
    n = mat.rows
    field = get_field(conductor)
    rows = []
    for i in range(n):
        row = [mat[i, j].raw for j in range(n)]
        row += [field.one if j == i else field.zero for j in range(n)]
        rows.append(row)
    red, pivots = rref_raw(field, rows)
    if list(pivots) != list(range(n)):
        raise ValueError("matrix is not invertible")
    out = []
    for i in range(n):
        for j in range(n):
            out.append(Scalar(field, red[i][n + j]))
    return MatrixS(n, n, out, conductor)


def build_psi_symplectic_reflection(
    group: GroupData, omega: MatrixS, class_factors: Optional[list] = None, conductor: int = 1
) -> PsiMap:
    """The p = 2 construction from an alternating nondegenerate 2-form."""
    n = omega.rows
    if omega.cols != n or n != group.dimV:
        raise DimensionMismatch("form must be square of size dimV")
    for i in range(n):
        if not omega[i, i].is_zero():
            raise ValueError("form must be alternating")
        for j in range(n):
            if omega[i, j] != -omega[j, i]:
                raise ValueError("form must be alternating")
    _matrix_inverse(omega, conductor)  # nondegeneracy
    phi = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = omega[i, j]
            if not c.is_zero():
                phi[(i, j)] = c
    return build_psi_corollary45(group, 2, phi, class_factors, conductor)


# -- exterior algebra differentials -----------------------------------------


def koszul_differential(E_dim: int, p: int, conductor: int = 1) -> MatrixS:
    """Matrix of the contraction differential Λ^p(E*) -> Λ^{p+1}(E*) ⊗ E.

    Rows are indexed by pairs (increasing (p+1)-tuple, vector index), columns
    by increasing p-tuples; the entry at ((S', j), S) is (-1)^i when removing
    the i-th member (1-based) of S' leaves S and that member equals j.
    """
    if not 0 <= p <= E_dim:
        raise ValueError("p out of range")
    domain = list(combinations(range(E_dim), p))
    codomain = [
        (sp, j) for sp in combinations(range(E_dim), p + 1) for j in range(E_dim)
    ]
    row_index = {key: r for r, key in enumerate(codomain)}
    zero = Scalar.zero(conductor)
    entries = [zero] * (len(codomain) * len(domain))
    for c, S in enumerate(domain):
        s_set = S
        for sp in combinations(range(E_dim), p + 1):
            for pos in range(p + 1):
                if sp[:pos] + sp[pos + 1 :] == s_set:
                    r = row_index[(sp, sp[pos])]
                    sign = -1 if (pos + 1) % 2 else 1
                    entries[r * len(domain) + c] = Scalar.rational(sign, conductor)
    return MatrixS(len(codomain), len(domain), entries, conductor)


def koszul_differential_injective(E_dim: int, p: int) -> bool:
    mat = koszul_differential(E_dim, p)
    if mat.cols == 0:
        return True
    return kernel(mat).dim == 0


def leibniz_identity_holds(dim_m: int, dim_l: int, r: int, s: int, conductor: int = 1) -> bool:
    """Entry-exact comparison of the (r, s) component of the differential
    on V = M ⊕ L with the graded product rule built from the factors."""
    n = dim_m + dim_l
    p = r + s
    full = koszul_differential(n, p, conductor)
    domain_full = list(combinations(range(n), p))
    codomain_full = [
        (sp, j) for sp in combinations(range(n), p + 1) for j in range(n)
    ]
    dm = koszul_differential(dim_m, r, conductor)
    dl = koszul_differential(dim_l, s, conductor)
    dom_m = list(combinations(range(dim_m), r))
    dom_l = list(combinations(range(dim_l), s))
    cod_m = [(sp, j) for sp in combinations(range(dim_m), r + 1) for j in range(dim_m)]
    cod_l = [(sp, j) for sp in combinations(range(dim_l), s + 1) for j in range(dim_l)]
    sign_r = Scalar.rational(-1 if r % 2 else 1, conductor)
    col_of_full = {S: i for i, S in enumerate(domain_full)}
    for sm in dom_m:
        for sl0 in dom_l:
            sl = tuple(dim_m + i for i in sl0)
            col = col_of_full[sm + sl]
            # expected image: dM sm ⊗ sl + (-1)^r sm ⊗ dL sl
            expected: dict[tuple, Scalar] = {}
            for ri, (spm, j) in enumerate(cod_m):
                c = dm[ri, dom_m.index(sm)]
                if c.is_zero():
                    continue
                key = (tuple(sorted(spm + sl)), j)
                expected[key] = expected.get(key, Scalar.zero(conductor)) + c
            for ri, (spl, j) in enumerate(cod_l):
                c = dl[ri, dom_l.index(sl0)]
                if c.is_zero():
                    continue
                spl_shift = tuple(dim_m + i for i in spl)
                key = (tuple(sorted(sm + spl_shift)), dim_m + j)
                expected[key] = expected.get(key, Scalar.zero(conductor)) + sign_r * c
            # compare against the full differential column
            for rowi, key in enumerate(codomain_full):
                got = full[rowi, col]
                want = expected.get(key, Scalar.zero(conductor))
                # off-component rows must vanish; the two target components
                # compared above are (r+1, s) ⊗ M and (r, s+1) ⊗ L
                if got != want:
                    return False
    return True
