"""Filtered algebras U = T(V)#Gamma / I(P) and the PBW machinery.

P is a sub-bimodule of the filtration level F^N; its top-degree projection
R defines the homogenized algebra A.  The module provides:

* the projection to R and the filtration condition dim P = dim R,
* the correction map phi with P = {x - phi(x)} and its graded components,
* the overlap condition in three independently computed forms (the direct
  intersection, the lifted-map form on W_{N+1}, and the componentwise
  equations), which must always agree,
* a PBW verdict combining those with the degree-3 Tor concentration of A,
* a brute-force oracle that builds the filtered ideal degree by degree and
  checks J^n ∩ F^{n-1} = J^{n-1} directly, reporting candidate dimensions
  for the associated graded algebra,
* builders for enveloping-algebra and down-up presentations.

The oracle works in the degree-descending coordinates of
``Filtration(ctx, D, descending=True)`` so that the reduced rows of J^n in
lower blocks are exactly the rows of J^{n-1}; a new pivot landing below
the top block is precisely a witness that the filtration equality fails at
that degree.  The truncated algebra in ``komplex`` reads its basis and
products off the same layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .elim import (
    SparseEliminator,
    TaggedRows,
    add_scaled,
    combine,
    express,
    pivot_index,
)
from .homogeneous import (
    HomogeneousAlgebra,
    Tor3Report,
    check_tor3_concentration,
    is_antisymmetrizer_relations,
    prefix_split,
    w_rows,
)
from .scalar import DimensionMismatch, Scalar
from .smashtensor import (
    Filtration,
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
    as a sparse vector over the filtration coordinates of F^{N-1}.
    """

    pres: FilteredPresentation
    r_rows: list
    rows: list

    @property
    def N(self) -> int:
        return self.pres.N

    def component(self, j: int) -> list[dict]:
        """Degree-j graded piece of each phi value, as component-j vectors."""
        layout = Filtration(self.pres.ctx, self.N - 1)
        return [layout.block(row, j) for row in self.rows]

    def is_zero_component(self, j: int) -> bool:
        return all(not comp for comp in self.component(j))

    def apply_to_R_vector(self, coeffs: list) -> dict:
        """phi of the element with the given R-basis coefficients."""
        field = self.pres.ctx.field
        return combine(field, self.rows, [(t, c) for t, c in enumerate(coeffs) if not field.is_zero(c)])

    def rebuild_P(self) -> FilteredSubspace:
        """Span of {x_t - phi(x_t)}; equals P whenever condition (I) holds."""
        ctx = self.pres.ctx
        field = ctx.field
        # F^{N-1} is the leading part of F^N, so phi rows keep their coordinates
        top = self.pres.P.layout.start[self.N]
        rows = []
        for r_row, phi_row in zip(self.r_rows, self.rows):
            row = {top + c: v for c, v in r_row.items()}
            add_scaled(field, row, phi_row, field.minus_one)
            rows.append(row)
        return FilteredSubspace.from_rows(ctx, self.N, rows, close=False)


def build_phi(pres: FilteredPresentation) -> PhiMap:
    """Extract phi from the graph structure of P over its top projection.

    P echelonized with its top block first splits into rows x_t - phi(x_t)
    and rows inside F^{N-1}; the latter exist exactly when (I) fails.
    """
    N = pres.N
    layout = pres.P.layout
    upper, lower = layout.split(pres.P.basis_sparse(), N - 1)
    if lower:
        raise ValueError("phi exists only when P meets F^{N-1} trivially")
    neg = pres.ctx.field.neg
    cut = layout.start[N]
    r_rows = [layout.block(row, N) for row in upper]
    phi_rows = [{c: neg(v) for c, v in row.items() if c < cut} for row in upper]
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


def _phi_lift_difference(
    pres: FilteredPresentation, phi: PhiMap, w_row: dict, right_splits: TaggedRows
) -> dict:
    """(phi^{1,N} - phi^{2,N+1}) applied to a degree N+1 overlap element.

    ``right_splits`` is ``_right_split_solver(pres, phi.r_rows)``.  Returned
    as a sparse vector over the filtration coordinates of F^N.
    """
    ctx = pres.ctx
    field = ctx.field
    N = pres.N
    low = Filtration(ctx, N - 1)
    target = pres.P.layout
    out: dict = {}
    # phi^{1,N}: w = sum (r_t combination)·(e_l ⊗ g) -> phi(r_t)·(e_l ⊗ g)
    for i, coeff in right_splits.solve(w_row):
        t, rest = divmod(i, ctx.dimV * ctx.order)
        l, g = divmod(rest, ctx.order)
        add_scaled(field, out, low.right_mul(phi.rows[t], l, g, target), coeff)
    # phi^{2,N+1}: w = sum e_j ⊗ (r_t combination) -> (e_j ⊗ 1)·phi(r_t)
    lower = ctx.component_dim(N)
    for j, t, coeff in prefix_split(field, w_row, lower, phi.r_rows, pivot_index(phi.r_rows)):
        add_scaled(field, out, low.left_mul(phi.rows[t], j, 0, target), field.neg(coeff))
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
    """(PE + EP) ∩ F^N ⊆ P, computed three ways that must agree."""
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
    p_elim = SparseEliminator(field)
    for r in pres.P.basis_sparse():
        p_elim.add(r)
    right_splits = _right_split_solver(pres, phi.r_rows) if wn1 else None
    lifted = True
    diffs = []
    for w in wn1:
        diff = _phi_lift_difference(pres, phi, w, right_splits)
        diffs.append(diff)
        if p_elim.reduce(diff):
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
    return report


def check_remark_310(pres: FilteredPresentation) -> bool:
    """True iff phi_0 = 0, i.e. the trivial module structure exists."""
    phi = build_phi(pres)
    return phi.is_zero_component(0)


# -- the brute-force filtration oracle ---------------------------------------


class OracleEngine:
    """Degreewise construction of J^n in degree-descending coordinates.

    After ``run()`` the eliminator holds the canonical reduced rows of J^D;
    pivots in the degree-d block are exactly the rows new at step d whenever
    the filtration equalities hold, which downstream consumers (the
    truncated algebra) rely on.
    """

    def __init__(self, pres: FilteredPresentation, D: int):
        if D < pres.N:
            raise ValueError("the bound must be at least the relation degree")
        # the inputs, not the presentation: the presentation holds this engine
        self.ctx = ctx = pres.ctx
        self.N = pres.N
        self.P = pres.P
        self.alg = pres.homogenization()
        self.D = D
        self.layout = Filtration(ctx, D, descending=True)
        self.elim = SparseEliminator(ctx.field)
        self.j_dims: dict[int, int] = {}
        self.equalities: dict[int, bool] = {}
        self.witnesses: dict[int, dict] = {}
        self._ran = False

    def run(self) -> None:
        if self._ran:
            return
        self._ran = True
        ctx = self.ctx
        N = self.N
        tower = self.alg.tower()
        layout = self.layout
        p_rows = [
            self.P.layout.map_blocks(r, lambda block, d: (d, block), layout)
            for r in self.P.basis_sparse()
        ]
        pv_rows = p_rows  # P · V^{⊗m}, advanced each degree
        t_hat = []
        for n in range(N, self.D + 1):
            if n == N:
                new_rows = list(p_rows)
            else:
                new_rows = [
                    layout.left_mul(r, letter, 0, layout)
                    for r in t_hat
                    for letter in range(ctx.dimV)
                ]
                pv_rows = [
                    layout.right_mul(r, letter, 0, layout)
                    for r in pv_rows
                    for letter in range(ctx.dimV)
                ]
                new_rows.extend(pv_rows)
            t_hat = []
            top_added = 0
            low_added = 0
            # rows of J^n lie in F^n; block n leads the descending layout
            top_boundary = layout.start[n] + ctx.component_dim(n)
            for row in new_rows:
                piv = self.elim.add(row)
                if piv is None:
                    continue
                t_hat.append(dict(self.elim.pivot_rows[piv]))
                if piv < top_boundary:
                    top_added += 1
                else:
                    low_added += 1
                    self.witnesses.setdefault(n, dict(self.elim.pivot_rows[piv]))
            self.j_dims[n] = self.elim.rank
            ideal_dim = ctx.component_dim(n) - tower.adim(n)
            if top_added != ideal_dim:
                raise RuntimeError(
                    "internal error: top-block rank disagrees with the graded ideal"
                )
            self.equalities[n] = low_added == 0

    def j_dim(self, n: int) -> int:
        if n < self.N:
            return 0
        return self.j_dims[n]

    def candidate_gr_dim(self, n: int) -> int:
        ctx = self.ctx
        f_n = sum(ctx.component_dim(i) for i in range(n + 1))
        f_prev = f_n - ctx.component_dim(n)
        if n == 0:
            return 1 * ctx.order - self.j_dim(0)
        return (f_n - self.j_dim(n)) - (f_prev - self.j_dim(n - 1))


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
    cands = [engine.candidate_gr_dim(n) for n in range(D + 1)]
    a_dims = [tower.adim(n) for n in range(D + 1)]
    witness = None
    witness_degree = None
    for n in sorted(engine.witnesses):
        witness_degree = n
        row = engine.witnesses[n]
        terms = {engine.layout.decode(c): Scalar(pres.ctx.field, v) for c, v in row.items()}
        witness = {"terms": terms_to_json(terms)}
        break
    return OracleReport(
        degree_bound=D,
        equalities=dict(engine.equalities),
        candidate_gr_dims=cands,
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
    j_report = None
    phi0_zero = None
    alg = pres.homogenization()
    oracle = oracle_pbw(pres, D)
    if not cond_i:
        return PBWReport(
            condition_I=False,
            condition_J=None,
            phi0_zero=None,
            tor3=None,
            oracle=oracle,
            theorem34_verdict="failed(condition_I)",
            gr_table=[
                (n, oracle.candidate_gr_dims[n], oracle.a_dims[n]) for n in range(D + 1)
            ],
        )
    j_report = check_condition_J(pres)
    phi0_zero = check_remark_310(pres)
    tor3 = check_tor3_concentration(alg, D)
    unconditional = is_antisymmetrizer_relations(alg)
    if not j_report.holds:
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
