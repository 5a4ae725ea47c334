"""Presentations twisted by a finite group: the antisymmetrizer-minus-psi family.

Given a finite group Gamma < GL(V) and a linear map psi: Λ^p V -> k[Gamma]
with 2 <= p <= dimV, the algebra presented by the relations
Alt(v_1, ..., v_p) - psi(v_1, ..., v_p) is filtered with top degree p.  The
checks take Gamma and psi alone: p is the arity of psi, and the field is
the larger of the two that Gamma's maps and psi live in.  This
module builds that presentation, decides the equivariance and
componentwise criteria (Theorem 4.4) that characterize when it has the
PBW property, and constructs psi from a Gamma-invariant form.  The
exterior-algebra differentials whose injectivity underlies the
componentwise criterion, and identity (4.1), are checked by the test
oracles in ``tests/paper_checks.py``; the CLI runs neither.

The psi checks compute on raw field values and sparse vectors, like the
rest of the package.  rho(g) is the sparse column map ``GroupData.maps[g]``,
read as it is stored (lifted once when psi's field is larger), M_g and L_g
come from one elimination of the columns of Id - (-1)^p rho(g), and every
Λ^p coefficient is a coefficient of the one exterior product ``wedge``.

Universal quantifiers over tuples of vectors are discharged on strictly
increasing basis tuples; multilinearity and alternation reduce the general
statement to those, since both sides of every identity checked here are
multilinear and alternating in the vector arguments.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .cyclo import get_field
from .elim import TaggedRows, accumulate, add_scaled, negated
from .filtered import FilteredPresentation
from .scalar import DimensionMismatch, MatrixS, Scalar, Subspace, to_raw
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
    Rational coefficients, and scalars of Q, are taken into the field of
    ``conductor``.  ``known`` keeps what the checks computed for psi and a
    group, keyed (name, group): the equivariance verdict and the
    decomposition, so that ``theorem_44_verdict`` repeats neither.
    """

    def __init__(self, p: int, dimV: int, order: int, components: dict, conductor: int = 1):
        if not 2 <= p <= dimV:
            raise ValueError("p must lie between 2 and dimV")
        self.p = p
        self.dimV = dimV
        self.order = order
        self.conductor = conductor
        field = get_field(conductor)
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
                elif c.conductor == 1:
                    c = Scalar(field, to_raw(field, c))
                if not c.is_zero():
                    clean[combo] = c
            if clean:
                comps[g] = clean
        self.components = comps
        self.known: dict = {}

    def value(self, g: int, combo: tuple[int, ...]) -> Scalar:
        return self.components.get(g, {}).get(tuple(combo), Scalar.zero(self.conductor))

    def is_zero(self) -> bool:
        return not self.components


def wedge(field, vectors) -> dict:
    """v_1 ∧ ... ∧ v_p of sparse raw vectors, on the ascending wedge basis.

    The factors are wedged on at the right: e_S ∧ e_i is zero when i lies
    in S, and otherwise (-1)^k e_(S ∪ {i}), k the members of S above i.
    Keys are ascending tuples of coordinates.
    """
    one = field.one
    out = {(): one}
    for vec in vectors:
        nxt: dict = {}
        for S, c in out.items():
            for i, x in vec.items():
                pos = bisect_left(S, i)
                if pos < len(S) and S[pos] == i:
                    continue
                term = c if x is one else x if c is one else field.mul(c, x)
                if (len(S) - pos) % 2:
                    term = negated(field, term)
                accumulate(field, nxt, S[:pos] + (i,) + S[pos:], term)
        out = nxt
    return out


def _paired(field, table: dict, w: dict):
    """One component of psi (wedge key -> Scalar) on a raw wedge-basis vector."""
    one, minus_one = field.one, field.minus_one
    total = field.zero
    for combo, c in w.items():
        v = table.get(combo)
        if v is not None:
            v = to_raw(field, v)
            if c is one:
                term = v
            elif c is minus_one:
                term = field.neg(v)
            elif v is one:
                term = c
            elif v is minus_one:
                term = field.neg(c)
            else:
                term = field.mul(v, c)
            total = field.add(total, term)
    return total


@dataclass
class GDecomposition:
    """Per-element splitting V = M_g ⊕ L_g for the maps Id - (-1)^p rho(g)."""

    p: int
    M: list[Subspace]
    L: list[Subspace]
    a: list[int]


def _over(group: GroupData, psi: PsiMap) -> tuple[GroupData, PsiMap]:
    """Gamma and psi over Q(zeta_m), m the larger of their conductors: the
    one field that Gamma and psi both live in."""
    m = max(group.conductor, psi.conductor)
    if psi.conductor != m:
        psi = PsiMap(psi.p, psi.dimV, psi.order, psi.components, m)
    return group.over(get_field(m)), psi


def _id_minus_signed(field, columns: dict, p: int) -> list[dict]:
    """Sparse raw columns of Id - (-1)^p rho(g), for rho(g)'s ``columns``."""
    sign = field.one if p % 2 else field.minus_one
    out = []
    for j in range(len(columns)):
        op = {j: field.one}
        add_scaled(field, op, columns[j], sign)
        out.append(op)
    return out


def decompose(group: GroupData, p: int) -> GDecomposition:
    """Image and kernel of Id - (-1)^p rho(g) for every group element,
    over the group's field.

    One elimination of the map's columns gives both: the canonical rows of
    their span are M_g and those of their combination kernel are L_g.
    """
    dimV = group.dimV
    if not 2 <= p <= dimV:
        raise ValueError("p must lie between 2 and dimV")
    field = group.field
    Ms, Ls, dims = [], [], []
    for columns in group.maps:
        op = TaggedRows(field, _id_minus_signed(field, columns, p), dimV)
        m_space = Subspace(dimV, op.span_rows(), group.conductor)
        l_space = Subspace(dimV, op.kernel_rows(), group.conductor)
        # dim M_g + dim L_g = dimV by rank-nullity
        if m_space.intersect(l_space).dim != 0:
            raise ValueError("group element is not semisimple on V")
        Ms.append(m_space)
        Ls.append(l_space)
        dims.append(m_space.dim)
    return GDecomposition(p=p, M=Ms, L=Ls, a=dims)


def build_H_psi(group: GroupData, psi: PsiMap) -> FilteredPresentation:
    """Presentation with relations Alt(e_{i1},...,e_{ip}) - psi(e_{i1},...,e_{ip}).

    p is the arity of psi, and the field is the larger of the fields that
    the group's maps and psi live in.  Equivariance of psi is
    deliberately not required here; when it fails, the filtration
    condition on the built presentation detects it.
    """
    conductor = max(group.conductor, psi.conductor)
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
    in Λ^p V with p the arity of psi; the verdict is kept in ``psi.known``."""
    verdict = psi.known["equivariant", group] = _equivariant(*_over(group, psi))
    return verdict


def _equivariant(group: GroupData, psi: PsiMap) -> bool:
    field = get_field(psi.conductor)
    for g, columns in enumerate(group.maps):
        ginv = group.inverses[g]
        for combo in combinations(range(group.dimV), psi.p):
            expansion = wedge(field, [columns[i] for i in combo])
            for h in range(group.order):
                # coefficient of h in psi(rho(g) w)
                lhs = _paired(field, psi.components.get(h, {}), expansion)
                conj = group.mult(group.mult(ginv, h), g)
                if lhs != to_raw(field, psi.value(conj, combo)):
                    return False
    return True


@dataclass
class Theorem44Report:
    equivariant: bool
    per_g: list[dict]
    holds: bool

    def to_json(self) -> dict:
        return {"equivariant": self.equivariant, "per_g": self.per_g, "holds": self.holds}


def _adapted_basis(dec: GDecomposition, g: int) -> list[dict]:
    """The canonical rows of M_g then those of L_g, as sparse raw vectors."""
    return dec.M[g].rows + dec.L[g].rows


def theorem_44_verdict(group: GroupData, psi: PsiMap) -> Theorem44Report:
    """Equivariance plus vanishing of psi_g off the a(g) component.

    The wedge power of V splits along V = M_g ⊕ L_g; psi_g restricted to
    the summand with i factors from M_g must vanish unless i = a(g), where
    p is the arity of psi.  The equivariance verdict and the decomposition
    are read from ``psi.known`` when an earlier call left them there.
    """
    known = psi.known
    if ("equivariant", group) not in known:
        check_equivariance(group, psi)
    equivariant = known["equivariant", group]
    key = ("decomposition", group)
    group, psi = _over(group, psi)
    if key not in known:
        known[key] = decompose(group, psi.p)
    dec = known[key]
    field = get_field(psi.conductor)
    per_g = []
    holds = equivariant
    for g in range(group.order):
        basis = _adapted_basis(dec, g)
        a = dec.a[g]
        psi_g = psi.components.get(g, {})
        table: dict[int, bool] = {}
        for combo in combinations(range(group.dimV), psi.p):
            mtype = sum(1 for i in combo if i < a)
            val = _paired(field, psi_g, wedge(field, [basis[i] for i in combo]))
            if not field.is_zero(val) and mtype != a:
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
    given = group
    group, base = _over(group, PsiMap(p, dimV, group.order, {0: phi}, conductor))
    conductor = base.conductor
    field = get_field(conductor)
    # phi is invariant exactly when psi = phi placed at the identity is
    # equivariant
    if not check_equivariance(group, base):
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
    phi_map = base.components.get(0, {})
    components: dict[int, dict] = {}
    for g in range(group.order):
        a = dec.a[g]
        basis = _adapted_basis(dec, g)
        # T has the adapted basis as its columns; column i of T^-1 holds
        # the coordinates of e_i over the adapted basis
        adapted = TaggedRows(field, basis, dimV)
        t_inv = [dict(adapted.solve({i: field.one})) for i in range(dimV)]
        # phi on the adapted wedges with exactly a factors from M_g
        on_component = {
            target: _paired(field, phi_map, wedge(field, [basis[i] for i in target]))
            for target in combinations(range(dimV), p)
            if sum(1 for i in target if i < a) == a
        }
        table: dict[tuple[int, ...], Scalar] = {}
        for combo in combinations(range(dimV), p):
            # express e_{combo} over the adapted wedge basis and evaluate
            # phi on its a(g) component
            total = field.zero
            for target, c in wedge(field, [t_inv[i] for i in combo]).items():
                value = on_component.get(target)
                if value is not None:
                    total = field.add(total, field.mul(c, value))
            if not field.is_zero(total):
                table[combo] = Scalar(field, total)
        if factors is not None:
            table = {k: v * factors[g] for k, v in table.items()}
        if table:
            components[g] = table
    psi = PsiMap(p, dimV, group.order, components, conductor)
    # over psi's field, as theorem_44_verdict would compute it
    psi.known["decomposition", given] = dec
    return psi


def build_psi_symplectic_reflection(
    group: GroupData, omega: MatrixS, class_factors: Optional[list] = None, conductor: int = 1
) -> PsiMap:
    """The p = 2 construction from an alternating nondegenerate 2-form."""
    n = omega.rows
    if omega.cols != n or n != group.dimV:
        raise DimensionMismatch("form must be square of size dimV")
    field = get_field(omega.conductor)
    # cols[j][i] is the entry omega[i, j]
    cols = omega.sparse_columns(field)
    for j, col in enumerate(cols):
        for i, c in col.items():
            if i == j or cols[i].get(j) != negated(field, c):
                raise ValueError("form must be alternating")
    if TaggedRows(field, cols, n).kernel_rows():
        raise ValueError("matrix is not invertible")
    phi = {(i, j): Scalar(field, c) for j, col in enumerate(cols) for i, c in col.items() if i < j}
    return build_psi_corollary45(group, 2, phi, class_factors, conductor)
