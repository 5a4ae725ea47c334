"""Filtered algebras U = T(V)#Gamma / I(P) and the PBW machinery.

P is a sub-bimodule of the filtration level F^N; its top-degree projection
R defines the homogenized algebra A.  The module provides:

* the projection to R and the filtration condition dim P = dim R,
* the correction map phi with P = {x - phi(x)} and its graded components,
* the overlap condition in three independently computed forms (the direct
  intersection, the lifted-map form on W_{N+1}, and the componentwise
  equations), which must always agree,
* a PBW verdict combining those with the degree-3 Tor concentration of A,
* an oracle that builds the filtered pieces F^nU = F^n/J^n with the
  quotient tower of ``homogeneous._Tower`` on the relations P and checks
  J^n ∩ F^{n-1} = J^{n-1} directly, reporting candidate dimensions for the
  associated graded algebra,
* builders for enveloping-algebra and down-up presentations.

Subspaces of F^n live in ``Filtration(ctx, n)``, top degree first, so phi
and the direct form of (J) cut P's canonical rows by pivot, and the lifted
form reduces against them.  A row of the tower without a top-degree entry
is precisely a witness that the filtration equality fails at that degree
n0; the oracle reports it over the standard monomials of lower degree.
The tower goes on past n0, every degree built once by the same rule, and
the oracle reads every dimension and equality off its levels.  It never
lays out F^D.  The truncated algebra in ``komplex`` reads its basis, the
standard monomials, and its normal forms off the same tower.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .elim import (
    TaggedRows,
    add_scaled,
    combine,
    express,
    generators,
    normal_form,
    pivot_index,
)
from .homogeneous import (
    HomogeneousAlgebra,
    Tor3Report,
    _Tower,
    check_tor3_concentration,
    is_antisymmetrizer_relations,
    w_rows,
)
from .scalar import DimensionMismatch, Scalar
from .smashtensor import (
    FilteredSubspace,
    GroupData,
    Subbimodule,
    TensorContext,
    terms_to_json,
)


class FilteredPresentation:
    """The data (field, Gamma, V, N, P ⊆ F^N) defining U = T(V)#Gamma / I(P)."""

    def __init__(self, ctx: TensorContext, N: int, P: FilteredSubspace):
        if N < 2:
            raise ValueError("relation degree N must be at least 2")
        if P.top_degree != N:
            raise DimensionMismatch("P must sit inside the filtration level F^N")
        self.ctx = ctx
        self.N = N
        self.P = P
        self._R: Optional[Subbimodule] = None
        self._A: Optional[HomogeneousAlgebra] = None
        self._J: Optional[JReport] = None
        self._oracles: dict[int, OracleEngine] = {}

    def homogenization(self) -> HomogeneousAlgebra:
        if self._A is None:
            self._A = HomogeneousAlgebra(self.ctx, self.N, project_R(self))
        return self._A

    def oracle(self, D: int) -> "OracleEngine":
        """The filtration oracle run up to the bound D, built once per bound."""
        engine = self._oracles.get(D)
        if engine is None:
            engine = OracleEngine(self, D)
            engine.run()
            self._oracles[D] = engine
        return engine

    def __repr__(self):
        return (
            f"FilteredPresentation(dimV={self.ctx.dimV}, |G|={self.ctx.order}, "
            f"N={self.N}, dimP={self.P.dim})"
        )


def project_R(pres: FilteredPresentation) -> Subbimodule:
    """Image of P under the block projection onto the top degree."""
    if pres._R is None:
        top = pres.P.block_projection(pres.N)
        pres._R = Subbimodule.from_rows(pres.ctx, pres.N, top.rows, close=False)
    return pres._R


def check_condition_I(pres: FilteredPresentation) -> bool:
    """P ∩ F^{N-1} = 0, equivalently dim P = dim R."""
    return pres.P.dim == project_R(pres).dim


@dataclass
class PhiMap:
    """The unique correction map with P = {x - phi(x) : x in R}.

    ``rows[t]`` is phi applied to the t-th canonical basis row of R, stored
    in P's layout ``Filtration(ctx, N)``, where it has no degree-N block:
    the canonical row of P leading with ``r_rows[t]`` is r_t - phi(r_t).
    """

    pres: FilteredPresentation
    r_rows: list
    rows: list

    @property
    def N(self) -> int:
        return self.pres.N

    def component(self, j: int) -> list[dict]:
        """Degree-j graded piece of each phi value, as component-j vectors."""
        layout = self.pres.P.layout
        return [layout.block(row, j) for row in self.rows]

    def is_zero_component(self, j: int) -> bool:
        return all(not comp for comp in self.component(j))


def build_phi(pres: FilteredPresentation) -> PhiMap:
    """Extract phi from the graph structure of P over its top projection.

    P's canonical rows lead in their top degree: the rows pivoting in block
    N are x_t - phi(x_t), and rows inside F^{N-1} exist exactly when (I)
    fails.
    """
    N = pres.N
    layout = pres.P.layout
    rows = pres.P.basis_sparse()
    if layout.below(rows, N - 1):
        raise ValueError("phi exists only when P meets F^{N-1} trivially")
    neg = pres.ctx.field.neg
    cut = layout.start[N - 1]
    r_rows = [layout.block(row, N) for row in rows]
    phi_rows = [{c: neg(v) for c, v in row.items() if c >= cut} for row in rows]
    return PhiMap(pres=pres, r_rows=r_rows, rows=phi_rows)


# -- lifted applications of phi on W_{N+1} ----------------------------------


def _right_split_solver(pres: FilteredPresentation, r_rows: list) -> TaggedRows:
    """Solver over the generators r_t · (e_l ⊗ g) of degree N+1.

    Generator (t, l, g) has index (t * dimV + l) * |Gamma| + g.
    """
    ctx = pres.ctx
    generators = [
        ctx.right_action_sparse(ctx.append_letter(row, l), g)
        for row in r_rows
        for l in range(ctx.dimV)
        for g in range(ctx.order)
    ]
    return TaggedRows(ctx.field, generators, ctx.component_dim(pres.N + 1))


def prefix_split(field, row: dict, lower: int, rows: list[dict], index: dict) -> list[tuple[int, int, object]]:
    """Write a row as sum_j (prefix j) ⊗ (combination of ``rows``).

    Coordinates split as j * lower + rest, with ``lower`` the dimension of
    the component that ``rows`` (fully reduced, ``index`` their pivot
    index) live in.  Returns triples (j, t, coeff); raises ValueError when
    a block lies outside the span of ``rows``.
    """
    blocks: dict[int, dict] = {}
    for coord, raw in row.items():
        j, rest = divmod(coord, lower)
        blocks.setdefault(j, {})[rest] = raw
    return [
        (j, t, c)
        for j, block in sorted(blocks.items())
        for t, c in express(field, rows, index, block)
    ]


def _phi_lift_difference(
    pres: FilteredPresentation, phi: PhiMap, w_row: dict, right_splits: TaggedRows
) -> dict:
    """(phi^{1,N} - phi^{2,N+1}) applied to a degree N+1 overlap element.

    ``right_splits`` is ``_right_split_solver(pres, phi.r_rows)``.  Returned
    in P's layout, like the phi values it is made of.
    """
    ctx = pres.ctx
    field = ctx.field
    N = pres.N
    layout = pres.P.layout
    out: dict = {}
    # phi^{1,N}: w = sum (r_t combination)·(e_l ⊗ g) -> phi(r_t)·(e_l ⊗ g)
    for i, coeff in right_splits.solve(w_row):
        t, rest = divmod(i, ctx.dimV * ctx.order)
        l, g = divmod(rest, ctx.order)
        add_scaled(field, out, layout.right_mul(phi.rows[t], l, g, layout), coeff)
    # phi^{2,N+1}: w = sum e_j ⊗ (r_t combination) -> (e_j ⊗ 1)·phi(r_t)
    lower = ctx.component_dim(N)
    for j, t, coeff in prefix_split(field, w_row, lower, phi.r_rows, pivot_index(phi.r_rows)):
        add_scaled(field, out, layout.left_mul(phi.rows[t], j, 0, layout), field.neg(coeff))
    return out


@dataclass
class JReport:
    """Three independently computed answers to the overlap condition."""

    direct: bool
    lifted: bool
    j1: bool
    j2: dict[int, bool]
    j3: bool

    @property
    def components(self) -> bool:
        return self.j1 and self.j3 and all(self.j2.values())

    @property
    def holds(self) -> bool:
        return self.direct

    def to_json(self) -> dict:
        return {
            "direct": self.direct,
            "lifted": self.lifted,
            "J'1": self.j1,
            "J'2": {str(k): v for k, v in sorted(self.j2.items())},
            "J'3": self.j3,
            "holds": self.holds,
        }


def check_condition_J(pres: FilteredPresentation) -> JReport:
    """(PE + EP) ∩ F^N ⊆ P, computed three ways that must agree.

    The report is computed once per presentation, so ``condition_J`` and
    ``pbw`` share it.
    """
    if pres._J is not None:
        return pres._J
    if not check_condition_I(pres):
        raise ValueError("the overlap condition presupposes condition (I)")
    ctx = pres.ctx
    field = ctx.field
    N = pres.N
    phi = build_phi(pres)

    # strategy 1: direct intersection
    pe = pres.P.mul_E("right")
    ep = pres.P.mul_E("left")
    combined = FilteredSubspace(ctx, N + 1, pe.space.sum(ep.space))
    cut = combined.truncate_intersection(N)
    direct = pres.P.contains(cut)

    # strategy 2: the lifted difference maps W_{N+1} into P
    alg = pres.homogenization()
    wn1 = w_rows(alg, N + 1, alg.w_cache)
    p_rows = {min(r): r for r in pres.P.basis_sparse()}  # canonical: reduce, never insert
    right_splits = _right_split_solver(pres, phi.r_rows) if wn1 else None
    lifted = True
    diffs = []
    for w in wn1:
        diff = _phi_lift_difference(pres, phi, w, right_splits)
        diffs.append(diff)
        if normal_form(field, p_rows, diff):
            lifted = False

    # strategy 3: componentwise equations
    layout = pres.P.layout
    r_index = pivot_index(phi.r_rows)
    j1 = True
    j2 = {j: True for j in range(1, N)}
    j3 = True
    for diff in diffs:
        try:
            pairs = express(field, phi.r_rows, r_index, layout.block(diff, N))
        except ValueError:
            j1 = False
            continue
        phi_of_top = combine(field, phi.rows, pairs)
        # X_j + phi_j(pi X) = 0 for 1 <= j < N
        total = dict(diff)
        add_scaled(field, total, phi_of_top, field.one)
        for j in range(1, N):
            if layout.block(total, j):
                j2[j] = False
        if layout.block(phi_of_top, 0):
            j3 = False

    report = JReport(direct=direct, lifted=lifted, j1=j1, j2=j2, j3=j3)
    if not (report.direct == report.lifted == report.components):
        raise RuntimeError(
            "internal error: the three overlap-condition strategies disagree"
        )
    pres._J = report
    return report


def check_remark_310(pres: FilteredPresentation) -> bool:
    """True iff phi_0 = 0, i.e. the trivial module structure exists."""
    phi = build_phi(pres)
    return phi.is_zero_component(0)


# -- the brute-force filtration oracle ---------------------------------------


class OracleEngine:
    """The filtered pieces F^nU = F^n/J^n, built level by level up to D.

    ``tower`` is ``homogeneous._Tower`` on the relations P, the class that
    builds A_n from R, fed only P's right K-generators (``elim.generators``):
    P is a K-sub-bimodule, so r·h·s = r·(h·s) for a relation r, a group
    element h and a standard monomial s, and the kept rows times the
    standard monomials span what all of P's rows span.  Its level n is
    V ⊗ T_{n-1} ⊕ F^{n-1}U modulo P times the standard monomials of degree
    n-N, with T_{n-1} the level's top basis: the standard monomials of
    degree n-1, as many as dim A_{n-1} while the equalities hold.  So
    dim F^nU = Σ_{d≤n} adim(d) − collapsed(n), where the collapsed rows
    span the kernel of the lower keys.  The equality J^n ∩ F^{n-1} =
    J^{n-1} holds iff F^{n-1}U embeds in F^nU, that is iff collapsed(n) =
    collapsed(n-1).  The first collapsed row is the witness, an element of
    J^{n0} ∩ F^{n0-1} written over the standard monomials of lower degree.
    Every level is built once, and none reaches F^D.
    """

    def __init__(self, pres: FilteredPresentation, D: int):
        if D < pres.N:
            raise ValueError("the bound must be at least the relation degree")
        # the inputs, not the presentation: the presentation holds this engine
        self.ctx = ctx = pres.ctx
        self.N = pres.N
        self.alg = pres.homogenization()
        self.D = D
        # P's right K-generators as terms (word, g, raw); every block of the
        # layout starts at a multiple of |Gamma|, so the right action reads
        # a layout row as it reads a component row
        rows = pres.P.basis_sparse()
        relations = [
            [(*pres.P.layout.decode(c), raw) for c, raw in rows[t].items()]
            for t in generators(ctx.field, rows, ctx.right_action_sparse, ctx.order)
        ]
        self.tower = _Tower(ctx, self.N, relations)
        self.j_dims: dict[int, int] = {}
        # dim F^nU - dim F^{n-1}U = adim(n) - collapsed(n) + collapsed(n-1)
        self.candidate_gr_dims: list[int] = []
        self.equalities: dict[int, bool] = {}
        # (degree, {(word, g): raw}) of the first failing equality
        self.witness: Optional[tuple[int, dict]] = None
        self._ran = False

    def run(self) -> None:
        if self._ran:
            return
        self._ran = True
        tower = self.tower
        failed = tower.ensure(self.D)
        ctx = self.ctx
        graded = self.alg.tower()
        f_dim = top_dim = collapsed_below = 0
        levels = tower.levels[: self.D + 1]
        for n, level in enumerate(levels):
            if (failed is None or n < failed) and level.adim != graded.adim(n):
                raise RuntimeError(
                    "internal error: the standard monomials disagree with the graded algebra"
                )
            f_dim += ctx.component_dim(n)
            top_dim += level.adim
            self.candidate_gr_dims.append(level.adim - level.collapsed + collapsed_below)
            if n >= self.N:
                self.j_dims[n] = f_dim - (top_dim - level.collapsed)
                self.equalities[n] = level.collapsed == collapsed_below
            collapsed_below = level.collapsed
        if failed is not None:
            self.witness = (failed, {tower.monomial(i): v for i, v in tower.witness.items()})


@dataclass
class OracleReport:
    degree_bound: int
    equalities: dict[int, bool]
    candidate_gr_dims: list[int]
    a_dims: list[int]
    witness: Optional[dict] = None
    witness_degree: Optional[int] = None

    @property
    def holds(self) -> bool:
        return all(self.equalities.values())

    def to_json(self) -> dict:
        out = {
            "degree_bound": self.degree_bound,
            "equalities": {str(k): v for k, v in sorted(self.equalities.items())},
            "candidate_gr_dims": self.candidate_gr_dims,
            "a_dims": self.a_dims,
            "holds": self.holds,
        }
        if self.witness is not None:
            out["witness_degree"] = self.witness_degree
            out["witness"] = self.witness
        return out


def oracle_pbw(pres: FilteredPresentation, D: int) -> OracleReport:
    """Direct check of the filtration equalities J^n ∩ F^{n-1} = J^{n-1}."""
    engine = pres.oracle(D)
    tower = pres.homogenization().tower()
    a_dims = [tower.adim(n) for n in range(D + 1)]
    witness = witness_degree = None
    if engine.witness is not None:
        witness_degree, terms = engine.witness
        witness = {"terms": terms_to_json({key: Scalar(pres.ctx.field, v) for key, v in terms.items()})}
    return OracleReport(
        degree_bound=D,
        equalities=dict(engine.equalities),
        candidate_gr_dims=list(engine.candidate_gr_dims),
        a_dims=a_dims,
        witness=witness,
        witness_degree=witness_degree,
    )


# -- combined verdict --------------------------------------------------------


@dataclass
class PBWReport:
    condition_I: bool
    condition_J: Optional[JReport]
    phi0_zero: Optional[bool]
    tor3: Optional[Tor3Report]
    oracle: OracleReport
    theorem34_verdict: str
    gr_table: list[tuple[int, int, int]]
    unconditional: bool = False

    @property
    def certified(self) -> bool:
        return self.theorem34_verdict.startswith("pbw_certified")

    def to_json(self) -> dict:
        return {
            "condition_I": self.condition_I,
            "condition_J": self.condition_J.to_json() if self.condition_J else None,
            "phi0_zero": self.phi0_zero,
            "tor3": self.tor3.to_json() if self.tor3 else None,
            "oracle": self.oracle.to_json(),
            "theorem34_verdict": self.theorem34_verdict,
            "gr_table": [
                {"n": n, "candidate_gr_dim": c, "a_dim": a} for n, c, a in self.gr_table
            ],
            "unconditional": self.unconditional,
        }


def pbw_verdict(pres: FilteredPresentation, D: int) -> PBWReport:
    """Conditions (I) and (J) plus Tor-3 concentration up to the bound.

    The verdict is ``pbw_certified_up_to_bound`` when all three hold; the
    Tor-3 premise is verified at degrees up to D only, except for the
    antisymmetrizer relation family, which is known Koszul outright, making
    the certificate unconditional there.
    """
    if D < 2 * pres.N:
        raise ValueError("the bound must reach 2N")
    cond_i = check_condition_I(pres)
    j_report = phi0_zero = tor3 = None
    unconditional = False
    oracle = oracle_pbw(pres, D)
    if cond_i:
        alg = pres.homogenization()
        j_report = check_condition_J(pres)
        phi0_zero = check_remark_310(pres)
        tor3 = check_tor3_concentration(alg, D)
        unconditional = is_antisymmetrizer_relations(alg)
    if not cond_i:
        verdict = "failed(condition_I)"
    elif not j_report.holds:
        failed = []
        if not j_report.j1:
            failed.append("J'1")
        failed.extend(f"J'2[{j}]" for j, ok in sorted(j_report.j2.items()) if not ok)
        if not j_report.j3:
            failed.append("J'3")
        verdict = "failed(%s)" % ", ".join(failed or ["condition_J"])
    elif not tor3.holds:
        verdict = f"failed(tor3: {tor3.verdict})"
    else:
        verdict = "pbw_certified_unconditionally" if unconditional else "pbw_certified_up_to_bound"
    return PBWReport(
        condition_I=cond_i,
        condition_J=j_report,
        phi0_zero=phi0_zero,
        tor3=tor3,
        oracle=oracle,
        theorem34_verdict=verdict,
        gr_table=[(n, oracle.candidate_gr_dims[n], oracle.a_dims[n]) for n in range(D + 1)],
        unconditional=unconditional,
    )


# -- builders ----------------------------------------------------------------


def build_lie(structure_constants, dimV: Optional[int] = None, conductor: int = 1) -> FilteredPresentation:
    """Enveloping-algebra presentation from alternating structure constants.

    ``structure_constants`` maps (i, j) with i < j (1-based) to a dict
    {k: coefficient} describing the bracket of the i-th and j-th basis
    vectors; entries may also be given as an iterable of rows
    [i, j, k, coeff].
    """
    max_index = 0
    items = (
        structure_constants.items()
        if isinstance(structure_constants, dict)
        else [((int(r[0]), int(r[1])), {int(r[2]): r[3]}) for r in structure_constants]
    )
    merged: dict[tuple[int, int], dict[int, Scalar]] = {}
    for (i, j), val in items:
        if i == j:
            raise ValueError("structure constants must be alternating: need i != j")
        key = (i, j)
        bucket = merged.setdefault(key, {})
        for k, c in val.items():
            c = c if isinstance(c, Scalar) else Scalar.rational(Fraction(c), conductor)
            bucket[k] = bucket.get(k, Scalar.zero(conductor)) + c
        max_index = max(max_index, i, j, *val.keys())
    n = dimV if dimV is not None else max_index
    if any(not 1 <= x <= n for (i, j), val in merged.items() for x in (i, j, *val)):
        raise ValueError(f"structure constant indices must lie in 1..{n}")
    ctx = TensorContext(n, GroupData.trivial(n, conductor), conductor)
    one = Scalar.one(conductor)
    elements = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            terms = {((i - 1, j - 1), 0): one, ((j - 1, i - 1), 0): -one}
            bracket = merged.get((i, j), {})
            neg_rev = merged.get((j, i), {})
            for k, c in bracket.items():
                terms[((k - 1,), 0)] = terms.get(((k - 1,), 0), Scalar.zero(conductor)) - c
            for k, c in neg_rev.items():
                terms[((k - 1,), 0)] = terms.get(((k - 1,), 0), Scalar.zero(conductor)) + c
            elements.append(terms)
    P = FilteredSubspace.from_elements(ctx, 2, elements, close=True)
    return FilteredPresentation(ctx, 2, P)


def build_down_up(alpha, beta, gamma, conductor: int = 1) -> FilteredPresentation:
    """The two cubic down-up relations on generators d, u (beta nonzero)."""
    al = alpha if isinstance(alpha, Scalar) else Scalar.rational(Fraction(alpha), conductor)
    be = beta if isinstance(beta, Scalar) else Scalar.rational(Fraction(beta), conductor)
    ga = gamma if isinstance(gamma, Scalar) else Scalar.rational(Fraction(gamma), conductor)
    if be.is_zero():
        raise ValueError("the down-up family requires beta nonzero")
    ctx = TensorContext(2, GroupData.trivial(2, conductor), conductor)
    one = Scalar.one(conductor)
    d, u = 0, 1
    r1 = {
        ((d, d, u), 0): one,
        ((d, u, d), 0): -al,
        ((u, d, d), 0): -be,
        ((d,), 0): -ga,
    }
    r2 = {
        ((d, u, u), 0): one,
        ((u, d, u), 0): -al,
        ((u, u, d), 0): -be,
        ((u,), 0): -ga,
    }
    P = FilteredSubspace.from_elements(ctx, 3, [r1, r2], close=True)
    return FilteredPresentation(ctx, 3, P)
