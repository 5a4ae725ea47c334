"""The N-homogeneous algebra A = T(V)#Gamma / I(R) and its Koszul checks.

The graded components A_n are represented through a quotient tower, the
one ``_Tower`` that also builds the filtered pieces of U = T(V)#Gamma/I(P)
for the PBW oracle.  Level n works on the positions j·adim(n-1) + b of
E (x)_K A_{n-1} (letter j, A_{n-1} basis index b) and stores only the
canonical rows of the relations there, keyed by pivot, with the pivots
sorted.  The rows are inserted in echelon form, reduced only until their
first column is new, and back-substituted once when the level is done
(``elim.echelon_add``, ``elim.back_substitute``).  The A_n basis is the
non-pivot positions in order: position pos has basis index pos minus the
number of pivots below it, read from a table the level builds when it is
first read, and its monomial is decoded on demand through
divmod(pos, adim(n-1)) down the levels.  Level n
is built on the basis indices b of A_{n-N}, not on their words: a
relation's row for b puts each term's letters in front of b one at a
time, each step the letter in front and the pivot-rule reduction in one
pass straight into basis indices (``_Level.front``), so over the trivial
group the build decodes no monomial and stores no normal form of a word.
With lower-degree relation terms (the filtered pieces of U) a level can
collapse: some rows have no top entry.  The build goes on past that
degree, and the next level starts from those collapse rows and from V
times them, the carried rows.  Graded dimensions, normal forms of
monomials and canonical monomial bases come without materializing the
ideal in the ambient tensor component.  On top of the tower sit:

* ``w_rows``                   -- W_n: V^{⊗n}⊗K below N, R in degree N, and
                             the intersection of all placements of R above,
* ``check_ec``                 -- the intersection equalities in degrees
                             N+2..2N-1,
* ``koszul_complex_check``     -- rank-counted exactness of the generalized
                             Koszul complex A ⊗_K W_{zeta(i)} up to an
                             internal degree bound, computed once per bound,
* ``check_tor3_concentration`` -- ec plus exactness of that complex at
                             position 2 (A ⊗_K R) in degrees 2N..D, which
                             pins the third Tor module to degree N+1.

Exactness is certified by rank counting, never by exhibiting homology
bases.  The tower gives the dimensions at positions 0-1 and the ranks at
positions 0-2.  Every other dimension and rank is a rank of images in
A_a ⊗ V^{⊗m}, where A_a ⊗_K W_m embeds since K is semisimple.  The
elements w ⊗ r, with w the word of a standard monomial of A_a and r a row
of W_m, span A_a ⊗_K W_m (W_m is a left K-module), and the differential
is left A-linear, so their images span its image.  Over the trivial group
dim A_a ⊗ W_m = dim A_a · dim W_m.  When the relation module is a scalar
extension R0 (x) K of a field-level relation space (always the case for
the group presentations built in this package), every space in sight is
block diagonal over the group coordinate and the computation runs at
field level with all dimensions and ranks scaled by |Gamma|.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from .elim import (
    SparseEliminator,
    accumulate,
    add_scaled,
    add_shifted,
    back_substitute,
    echelon_add,
    generators,
    intersection,
    negated,
    rank,
    reduced_row,
)
from .scalar import DimensionMismatch
from .smashtensor import (
    GroupData,
    Subbimodule,
    TensorContext,
    antisymmetrizer_subbimodule,
    placement_rows,
)


def zeta(n: int, N: int) -> int:
    """Jump map: expected internal degree of the n-th Tor module."""
    if n < 0:
        raise ValueError("zeta is defined on nonnegative integers")
    q, r = divmod(n, 2)
    return q * N + r


def zeta_degrees(N: int, bound: int) -> list[int]:
    """zeta(0), zeta(1), ... up to the last value at most ``bound``."""
    out = []
    while zeta(len(out), N) <= bound:
        out.append(zeta(len(out), N))
    return out


class HomogeneousAlgebra:
    """A = T(V)#Gamma / I(R) with R a sub-bimodule in a single degree N."""

    def __init__(self, ctx: TensorContext, N: int, R: Subbimodule):
        if N < 2:
            raise ValueError("homogeneity degree N must be at least 2")
        if R.degree != N:
            raise DimensionMismatch("relation module must live in degree N")
        self.ctx = ctx
        self.N = N
        self.R = R
        self._tower: Optional[_Tower] = None
        self._scalar_ext: Optional[tuple] = None
        self._ec: Optional["EcReport"] = None
        # the one W_n cache that every caller of ``w_rows`` passes
        self.w_cache: dict[int, list[dict]] = {}
        self._koszul: dict[int, "KoszulCertificate"] = {}

    def tower(self) -> "_Tower":
        if self._tower is None:
            ctx = self.ctx
            rows = self.R.basis_sparse()
            relations = [
                [(*ctx.word_of(c, self.N), raw) for c, raw in rows[t].items()]
                for t in generators(ctx.field, rows, ctx.right_action_sparse, ctx.order)
            ]
            self._tower = _Tower(ctx, self.N, relations)
        return self._tower

    def zeta(self, n: int) -> int:
        return zeta(n, self.N)

    def __repr__(self):
        return f"HomogeneousAlgebra(dimV={self.ctx.dimV}, |G|={self.ctx.order}, N={self.N}, dimR={self.R.dim})"


# -- scalar extension detection -------------------------------------------


def scalar_extension_slice(alg: HomogeneousAlgebra) -> Optional[Subbimodule]:
    """Field-level relation slice R0 with R = R0 (x) K, or None.

    R0 (x) K is the direct sum of the slices R0 (x) g, which live on the
    disjoint coordinates c with c % |Gamma| = g, so its canonical rows are
    those of the slices side by side.  Conversely, if every canonical row
    of R lies in one slice, R is the sum of its slices, and right
    multiplication by g, which keeps the word, carries slice h onto slice
    hg; mapped by c // |Gamma| the slices are then one list, the canonical
    rows of R0.
    """
    ctx = alg.ctx
    order = ctx.order
    if order == 1:
        return alg.R
    rows = alg.R.basis_sparse()
    if any(len({c % order for c in row}) > 1 for row in rows):
        return None
    slice0 = [{c // order: v for c, v in row.items()} for row in rows if next(iter(row)) % order == 0]
    trivial_ctx = TensorContext(ctx.dimV, GroupData.trivial(ctx.dimV, ctx.conductor), ctx.conductor)
    return Subbimodule._of_rows(trivial_ctx, alg.N, slice0)


def field_level(alg: HomogeneousAlgebra) -> Optional[HomogeneousAlgebra]:
    """The same algebra over the trivial group when R is a scalar extension."""
    if alg.ctx.order == 1:
        return alg
    if alg._scalar_ext is None:
        slice_sub = scalar_extension_slice(alg)
        if slice_sub is None:
            alg._scalar_ext = (False, None)
        else:
            alg._scalar_ext = (True, HomogeneousAlgebra(slice_sub.ctx, alg.N, slice_sub))
    ok, sub = alg._scalar_ext
    return sub if ok else None


# -- the quotient tower ----------------------------------------------------

# A normal form of degree n keys its degree-n part by A_n basis index b and
# each lower-degree standard monomial by _LOWER + i, with i = starts[d] + b
# its global index (degrees ascending).  _LOWER exceeds every position, so
# in a level's rows these keys come after the top degree.
_LOWER = 1 << 48


class _Level:
    """The quotient of k^positions by canonical rows, on its non-pivot positions.

    One degree n of the quotient tower: ``rows`` maps each pivot to its
    canonical row of the relations in degree n, on the ``positions`` =
    dimV·adim(n-1) coordinates j·adim(n-1) + b (letter j, A_{n-1} basis
    index b) and lower keys.  ``pivots`` are the top pivots, those below
    ``positions``, sorted.  The quotient basis is the complement of
    ``pivots`` in range(positions), in order, so position pos has index
    pos minus the number of pivots below it.  The ``collapsed`` rows with a
    lower pivot have no top entry: they span the lower-degree elements
    that vanish in degree n.  A graded tower has none.  ``front`` puts a
    letter in front of a normal form one level down and reduces it here
    in one pass; a row it meets is re-keyed to indices then and not kept.
    The first ``front`` builds ``index``, each position's quotient index
    or -1 at a pivot; a level no ``front`` reads, such as the graded
    checks' top level, holds its rows and nothing else.
    """

    __slots__ = ("rows", "pivots", "positions", "adim", "collapsed", "index")

    def __init__(self, rows: dict, positions: int):
        self.rows = rows
        pivots = sorted(rows)
        top = bisect_left(pivots, positions)
        self.collapsed = len(pivots) - top
        del pivots[top:]
        self.pivots = pivots
        self.positions = positions
        self.adim = positions - top
        # built by the first ``front``: a level no front reads holds none
        self.index: Optional[list] = None

    def free(self):
        """The non-pivot positions, ascending: basis index b is the b-th."""
        start = 0
        for p in self.pivots:
            yield from range(start, p)
            start = p + 1
        yield from range(start, self.positions)

    def front(self, field, j: int, width: int, vec: dict, lowered) -> dict:
        """Letter j in front of a normal form one level down, reduced here.

        The ``normal_form`` against this level's rows, in quotient
        coordinates, of the vector that puts key b < _LOWER of ``vec`` at
        position j·width + b and, after those, adds ``lowered(j, k)``
        times the entry of each lower key k, in one pass and with the same
        field operations: a free position goes to its index directly, and
        a pivot's entry c adds -c times its row's tail, the row minus its
        pivot entry in quotient coordinates.  The collapse pivots among
        the lower keys come last, in the order ``normal_form`` meets them,
        so the keys come out in the order ``normal_form`` gives them.
        ``index`` maps each position to its quotient index, -1 at a pivot.
        """
        index = self.index
        if index is None:
            index = self.index = self._position_table()
        rows = self.rows
        lower = _LOWER
        base = j * width
        out: dict = {}
        hits = []
        for b, v in vec.items():
            if b < lower:
                pos = base + b
                i = index[pos]
                if i < 0:
                    hits.append((pos, v))
                else:
                    out[i] = v
        if len(out) + len(hits) < len(vec):
            for k, v in vec.items():
                if k >= lower:
                    add_scaled(field, out, lowered(j, k), v)
            if self.collapsed:
                hits += [(k, out.pop(k)) for k in [k for k in out if k >= lower and k in rows]]
        for p, c in hits:
            tail = {(index[k] if k < lower else k): v for k, v in rows[p].items() if k != p}
            add_scaled(field, out, tail, negated(field, c))
        return out

    def _position_table(self) -> list:
        """Position -> quotient index, -1 at a pivot: the runs between pivots count on."""
        index = [-1] * self.positions
        start = 0
        for i, p in enumerate(self.pivots):
            index[start:p] = range(start - i, p - i)
            start = p + 1
        index[start:] = range(start - len(self.pivots), self.adim)
        return index


class _Tower:
    """The quotient tower of T(V)#Gamma / I(relations), degree by degree.

    Each relation is a list of terms (word, g, raw) of degree at most N.
    Level n is V ⊗ (degree n-1) plus the standard monomials of lower
    degree, modulo the relations times the standard monomials (s, h) of
    degree n-N; a term w ⊗ g enters as w·g(s) ⊗ gh.  The relations are the
    right K-generators of R or P (``elim.generators``), K = k[Gamma]: the
    module is a K-sub-bimodule, so a relation r·h times s is r times h·s,
    and h·s is, modulo the levels below, a combination of standard
    monomials of degree at most n-N.  So the kept relations span the same
    rows as all of the module's, with up to |Gamma| times fewer of them.
    The levels are spans, so their canonical rows, the collapse rows and
    every dimension are the same; only the witness, one representative,
    may depend on the order the rows come in.  With R every term has
    degree N and level n is E ⊗_K A_{n-1} ->> A_n.  With P the lower-degree
    terms give the normal forms tails of lower degree, and a row without a
    degree-n entry, a collapse row, is a failing equality
    J^n ∩ F^{n-1} = J^{n-1}: ``ensure`` keeps the first one as ``witness``,
    keyed by global index (``monomial``), and does not stop there.  The
    lower keys of level n are the top bases of all degrees below n, so
    level n-1's collapse rows, which span the kernel of the lower keys in
    F^{n-1}U, start level n, and so do their carried rows, each letter in
    front of one of them: modulo both the keys are V ⊗ T_{n-1} ⊕ F^{n-1}U,
    with T_{n-1} level n-1's top basis.  P times the top basis of degree
    n-N then spans the rest of J^n, before a failure and after it.  A
    level is a ``_Level`` (no eliminator, no words) and ``reps`` decodes
    monomials on demand.  ``ensure`` builds level n on the basis indices
    of degree n-N (``_relation_rows``), inserts the rows in echelon form
    and reduces them once, when the level is done.  Each step of a normal
    form, in the build and in ``nf``, is one ``_Level.front``: a letter in
    front and the reduction in one pass over level n's rows, with no
    vector over its positions in between.  ``_front`` (the letter in
    front, on level n's positions) followed by ``normal_form`` against the
    level's rows is the two-pass reference it equals; ``_front`` also
    carries the collapse rows.
    ``_nf_memo`` holds the normal forms ``nf`` gives to outside callers;
    the build adds to it only the starts g(s) ⊗ gh of group elements g ≠ 1.
    """

    def __init__(self, ctx: TensorContext, N: int, relations: list):
        self.ctx = ctx
        self.N = N
        self.relations = relations
        field = ctx.field
        order = ctx.order
        self.levels = [_Level({}, order)]
        self.starts = [0, order]
        self.failed: Optional[int] = None
        self.witness: Optional[dict] = None
        self._nf_memo: dict = {((), g): {g: field.one} for g in range(order)}
        self._fronts: dict = {}

    def adim(self, n: int) -> int:
        self.ensure(n)
        return self.levels[n].adim

    def reps(self, n: int) -> list:
        """The monomial (word, g) of each A_n basis index, decoded afresh.

        Basis index b of level m sits at the b-th non-pivot position
        pos = j·adim(m-1) + b', and its monomial is the letter j in front
        of the monomial of b' one level down.
        """
        self.ensure(n)
        out = [((), g) for g in range(self.ctx.order)]
        for level in self.levels[1 : n + 1]:
            width = len(out)
            prev = out
            out = []
            for pos in level.free():
                j, b = divmod(pos, width)
                wb, gb = prev[b]
                out.append(((j,) + wb, gb))
        return out

    def monomial(self, i: int) -> tuple:
        """The standard monomial (word, g) with global index i = starts[d] + b."""
        d = bisect_right(self.starts, i) - 1
        return self.reps(d)[i - self.starts[d]]

    def ensure(self, n: int) -> Optional[int]:
        """Build the levels up to n, past a failure too; the first failing degree, or None.

        A level's rows go in as echelon rows (``echelon_add``): each is
        reduced only until its first column is new, and that column is the
        pivot a fully reduced basis would give it, so the failing degree is
        the same.  The witness is the fully reduced row of its pivot at the
        moment it goes in (``reduced_row``).  One sweep (``back_substitute``)
        then leaves the level's canonical rows: no row is back-substituted
        per insert and no column index is kept.
        """
        field = self.ctx.field
        while len(self.levels) <= n:
            lv = len(self.levels)
            below = self.levels[-1]
            positions = self.ctx.dimV * below.adim
            rows: dict = {}  # echelon rows by pivot, reduced once the level is done
            if below.collapsed:
                # the collapse rows one level down, copied, and their carried rows
                kernel = [row for p, row in below.rows.items() if p >= below.positions]
                for row in kernel:
                    echelon_add(field, rows, dict(row))
                for row in kernel:
                    for j in range(self.ctx.dimV):
                        echelon_add(field, rows, self._front(j, row, lv))
            if lv >= self.N:
                # each row is dropped once inserted
                relation_rows = self._relation_rows(lv)
                relation_rows.reverse()
                while relation_rows:
                    piv = echelon_add(field, rows, relation_rows.pop())
                    if piv is not None and piv >= positions and self.failed is None:
                        # every key is lower: an element of F^{lv-1}U
                        self.failed = lv
                        self.witness = {k - _LOWER: v for k, v in reduced_row(field, rows, piv).items()}
            back_substitute(field, rows)
            self.levels.append(_Level(rows, positions))
            self.starts.append(self.starts[-1] + self.levels[-1].adim)
        return self.failed

    def _relation_rows(self, lv: int) -> list:
        """Each relation times each basis monomial s_b of degree lv-N, over level lv's keys.

        A term (word, g, raw) gives raw·word·g(s_b): its letters go in front
        of the start, last one first, one ``_Level.front`` per level below
        lv, and the top letter is added into the row with a key shift
        (``add_shifted``); the lower keys of its chain are summed per top
        letter over the relation's terms, times raw, and put behind that
        letter once (``_front``).  The start is {b: one} for the identity,
        otherwise ``nf`` of g(s_b) ⊗ g·g_b.  The chains, each suffix (of a
        term's word or of its word less the top letter) times the start,
        are laid out once per level (``steps``), each after its own suffix
        one letter shorter; those of one b are shared by all relations,
        then dropped.  Rows are built b-major and returned relation-major,
        the order that picks the witness.
        """
        ctx = self.ctx
        field = ctx.field
        one = field.one
        mult = ctx.group.mult_table
        levels = self.levels
        base = lv - self.N
        width = levels[lv - 1].adim
        moved = {g for terms in self.relations for _, g, _ in terms} - {0}
        # the chains of one b, by index: the starts, then the steps
        index = {((), g): i for i, g in enumerate([0, *moved])}
        steps: list = []  # (level, letter, width below, index of the suffix one letter shorter)
        plan: list = []  # per relation: a top term (chain, letter, raw, None), a lower one (chain, None, raw, degree)
        for terms in self.relations:
            plan.append([])
            for word, g, raw in terms:
                top = len(word) == self.N
                suffix = word[1:] if top else word
                for k in range(len(suffix) - 1, -1, -1):
                    if (suffix[k:], g) not in index:
                        d = base + len(suffix) - k
                        steps.append((levels[d], suffix[k], levels[d - 1].adim, index[suffix[k + 1 :], g]))
                        index[suffix[k:], g] = len(index)
                i = index[suffix, g]
                plan[-1].append((i, word[0], raw, None) if top else (i, None, raw, base + len(word)))
        front_lower = self._front_lower
        reps = self.reps(base) if moved else None
        images: dict = {}  # g(s) for each (g, word of s), this level only
        out: list = [[] for _ in self.relations]
        for b in range(levels[base].adim):
            chains = [{b: one}]
            if moved:
                wb, gb = reps[b]
                for g in moved:
                    image = images.get((g, wb))
                    if image is None:
                        image = images[g, wb] = ctx.apply_group_to_word(g, wb)
                    start: dict = {}
                    for tw, c in image:
                        add_scaled(field, start, self.nf(tw, mult[g][gb]), c)
                    chains.append(start)
            for level, j, w, shorter in steps:
                chains.append(level.front(field, j, w, chains[shorter], front_lower))
            for terms, rows in zip(plan, out):
                row: dict = {}
                lowers: dict = {}  # letter -> the sum of raw times its chains' lower keys
                for i, j, raw, d in terms:
                    vec = chains[i]
                    if j is None:
                        add_scaled(field, row, self._lifted(d, vec), raw)
                    elif not add_shifted(field, row, vec, raw, j * width, _LOWER):
                        lower = {k: v for k, v in vec.items() if k >= _LOWER}
                        add_scaled(field, lowers.setdefault(j, {}), lower, raw)
                for j, lower in lowers.items():
                    add_scaled(field, row, self._front(j, lower, lv), one)
                rows.append(row)
        return [row for rows in out for row in rows]

    def _front(self, j: int, vec: dict, n: int) -> dict:
        """Letter j in front of a degree-(n-1) normal form, over level n's keys.

        Unreduced: the carried rows of ``ensure`` and the lower-key part of
        a relation row; with ``normal_form`` the reference for ``_Level.front``.
        """
        base = j * self.levels[n - 1].adim
        lower = _LOWER
        out = {base + b: v for b, v in vec.items() if b < lower}
        if len(out) < len(vec):
            field = self.ctx.field
            for k, v in vec.items():
                if k >= lower:
                    add_scaled(field, out, self._front_lower(j, k), v)
        return out

    def _front_lower(self, j: int, k: int) -> dict:
        """Letter j in front of the standard monomial keyed k, in lower keys."""
        got = self._fronts.get((j, k))
        if got is None:
            i = k - _LOWER
            d = bisect_right(self.starts, i) - 1
            unit = {i - self.starts[d]: self.ctx.field.one}
            red = self.levels[d + 1].front(self.ctx.field, j, self.levels[d].adim, unit, self._front_lower)
            got = self._fronts[j, k] = self._lifted(d + 1, red)
        return got

    def _lifted(self, n: int, vec: dict) -> dict:
        """A degree-n normal form with its top degree moved to lower keys."""
        base = _LOWER + self.starts[n]
        lower = _LOWER
        return {(base + b if b < lower else b): v for b, v in vec.items()}

    def global_nf(self, word: tuple[int, ...], g: int) -> dict:
        """``nf`` keyed by global index starts[d] + b in every degree d."""
        start = self.starts[len(word)]
        lower = _LOWER
        return {(start + k if k < lower else k - lower): v for k, v in self.nf(word, g).items()}

    def nf(self, word: tuple[int, ...], g: int) -> dict:
        """Normal form of a monomial: A_n basis indices, then lower keys.

        The longest suffix already in ``_nf_memo`` (at least ((), g) =
        {g: one}) is extended one letter at a time, one ``_Level.front``
        per level, and each step is kept there.
        """
        memo = self._nf_memo
        got = memo.get((word, g))
        if got is None:
            n = len(word)
            self.ensure(n)
            i = 1
            while (word[i:], g) not in memo:
                i += 1
            got = memo[word[i:], g]
            field = self.ctx.field
            levels = self.levels
            for k in range(i - 1, -1, -1):
                d = n - k
                got = memo[word[k:], g] = levels[d].front(field, word[k], levels[d - 1].adim, got, self._front_lower)
        return got


# -- reports ---------------------------------------------------------------


@dataclass
class EcReport:
    degrees: dict[int, bool] = dataclass_field(default_factory=dict)
    holds: bool = True

    def to_json(self) -> dict:
        return {"per_degree": {str(k): v for k, v in sorted(self.degrees.items())}, "holds": self.holds}


@dataclass
class Tor3Report:
    ec: EcReport
    relations: dict[int, bool]
    degree_bound: int
    verdict: str  # "holds_up_to_D" or "fails(n)"
    note: str = "full concentration for all degrees is not finitely checkable; the verdict covers degrees up to the bound only"

    @property
    def holds(self) -> bool:
        return self.verdict.startswith("holds")

    def to_json(self) -> dict:
        return {
            "ec": self.ec.to_json(),
            "relations": {str(k): v for k, v in sorted(self.relations.items())},
            "degree_bound": self.degree_bound,
            "verdict": self.verdict,
            "note": self.note,
        }


@dataclass
class DegreeCertificate:
    d: int
    dims: list[int]
    ranks: list[int]
    exact: list[bool]

    def to_json(self) -> dict:
        return {"d": self.d, "dims": self.dims, "ranks": self.ranks, "exact": self.exact}


@dataclass
class KoszulCertificate:
    degree_bound: int
    degrees: list[DegreeCertificate]
    verdict: str  # "verified_up_to_D" or "counterexample(d, i)"
    composition_zero: bool
    scaled_by: int = 1
    unconditional: bool = False

    @property
    def exact_everywhere(self) -> bool:
        return self.verdict.startswith("verified")

    def to_json(self) -> dict:
        return {
            "degree_bound": self.degree_bound,
            "degrees": [d.to_json() for d in self.degrees],
            "verdict": self.verdict,
            "composition_zero": self.composition_zero,
            "scaled_by": self.scaled_by,
            "unconditional": self.unconditional,
        }


def is_antisymmetrizer_relations(alg: HomogeneousAlgebra) -> bool:
    """Does R equal the closed span of the antisymmetrized N-tensors?"""
    if alg.N > alg.ctx.dimV:
        return False
    return alg.R == antisymmetrizer_subbimodule(alg.ctx, alg.N)


# -- W_n on sparse rows -------------------------------------------------------


def w_rows(alg: HomogeneousAlgebra, n: int, cache: dict | None = None) -> list[dict]:
    """Canonical sparse rows of W_n, computed incrementally.

    W_n = V^{⊗n}⊗K below N, given by the canonical rows of the full
    component; W_N = R and W_n = (V · W_{n-1}) ∩ (R V^{⊗(n-N)}), one
    Zassenhaus intersection (``elim.intersection``) per degree; the fold
    over all placements gives the same space by the exchange identities
    over our semisimple coefficients, and tests cross-check this against
    the public fold.  Past a zero W_{n-1} the result is empty without
    building R V^{⊗(n-N)}.  Callers pass ``alg.w_cache``, so each W_n is
    built once per algebra.
    """
    ctx = alg.ctx
    N = alg.N
    if cache is not None and n in cache:
        return cache[n]
    if n < N:
        one = ctx.field.one
        out = [{c: one} for c in range(ctx.component_dim(n))]
    elif n == N:
        out = alg.R.basis_sparse()
    else:
        prev = w_rows(alg, n - 1, cache)
        if prev:
            lifted = [ctx.prefix(r, wnum, n - 1) for wnum in range(ctx.dimV) for r in prev]
            out = intersection(ctx.field, lifted, placement_rows(alg.R, 0, n - N), ctx.component_dim(n))
        else:
            out = []
    if cache is not None:
        cache[n] = out
    return out


# -- the extra condition and Tor3 -------------------------------------------


def check_ec(alg: HomogeneousAlgebra) -> EcReport:
    """Intersection equalities in degrees N+2 .. 2N-1 (empty for N = 2).

    The report is computed once per algebra, so ``ec`` and ``tor3`` share it.
    """
    if alg._ec is None:
        sub = field_level(alg)
        if sub is not None and sub is not alg:
            alg._ec = check_ec(sub)
        else:
            alg._ec = _ec_report(alg)
    return alg._ec


def _ec_report(alg: HomogeneousAlgebra) -> EcReport:
    ctx = alg.ctx
    N = alg.N
    report = EcReport()
    if N == 2:
        return report
    wn1 = w_rows(alg, N + 1, alg.w_cache)
    for n in range(N + 2, 2 * N):
        a = n - N
        lhs_left = placement_rows(alg.R, a, 0)
        rhs_sum: list[dict] = []
        for i in range(a):
            rhs_sum.extend(placement_rows(alg.R, i, n - N - i))
        lhs = intersection(ctx.field, lhs_left, rhs_sum, ctx.component_dim(n))
        # word-major, the prefixed canonical rows are already canonical
        expected = [ctx.prefix(r, wnum, N + 1) for wnum in range(ctx.dimV ** (a - 1)) for r in wn1]
        ok = lhs == expected
        report.degrees[n] = ok
        report.holds = report.holds and ok
    return report


def check_tor3_concentration(alg: HomogeneousAlgebra, D: int) -> Tor3Report:
    """(ec) plus, for 2N <= n <= D, exactness of the Koszul complex at
    position 2 in internal degree n; verdict holds_up_to_D or fails(n).

    Position 2 is A_{n-N} ⊗_K R; its exactness in degrees 2N..D is what
    pins the third Tor module to degree N+1 up to the bound.  It is read
    off ``koszul_complex_check`` at the same bound, so ``tor3``, ``pbw``
    and ``koszul_complex`` share one certificate.
    """
    if D < 2 * alg.N:
        raise ValueError("the bound must reach 2N to exercise any relation")
    ec = check_ec(alg)
    cert = koszul_complex_check(alg, D)
    relations = {dc.d: dc.exact[1] for dc in cert.degrees[2 * alg.N :]}
    verdict = "holds_up_to_%d" % D
    if not ec.holds:
        verdict = "fails(ec)"
    else:
        for n, ok in relations.items():
            if not ok:
                verdict = f"fails({n})"
                break
    return Tor3Report(ec=ec, relations=relations, degree_bound=D, verdict=verdict)


# -- the Koszul complex certificate -----------------------------------------


def koszul_complex_check(alg: HomogeneousAlgebra, D: int) -> KoszulCertificate:
    """Rank-counted exactness of the Koszul complex in internal degrees <= D.

    Position 1 is exact for structural reasons (the image of the second
    differential is the kernel of the first); content starts at position 2.
    Composition-zero is certified once through the inclusions
    W_{zeta(i+1)} ⊆ R · W_{zeta(i-1)}.  The certificate is computed once
    per bound and algebra, so ``tor3``, ``pbw`` and ``koszul_complex``
    share it.
    """
    if D < 0:
        raise ValueError("degree bound must be nonnegative")
    cert = alg._koszul.get(D)
    if cert is None:
        sub = field_level(alg)
        if sub is not None and sub is not alg:
            cert = _scaled(koszul_complex_check(sub, D), alg.ctx.order)
        else:
            cert = _koszul_certificate(alg, D)
        alg._koszul[D] = cert
    return cert


def _scaled(cert: KoszulCertificate, order: int) -> KoszulCertificate:
    """A field-level certificate with every dimension and rank times |Gamma|."""
    scaled = [
        DegreeCertificate(
            dc.d, [x * order for x in dc.dims], [x * order for x in dc.ranks], list(dc.exact)
        )
        for dc in cert.degrees
    ]
    return KoszulCertificate(
        degree_bound=cert.degree_bound,
        degrees=scaled,
        verdict=cert.verdict,
        composition_zero=cert.composition_zero,
        scaled_by=order,
        unconditional=cert.unconditional,
    )


def _koszul_certificate(alg: HomogeneousAlgebra, D: int) -> KoszulCertificate:
    ctx = alg.ctx
    field = ctx.field
    N = alg.N
    tower = alg.tower()
    tower.ensure(D)
    # homological index i -> internal degree zeta(i); spaces vanish once
    # either zeta(i) > D or the W module is zero.
    zetas = zeta_degrees(N, D)
    w_sparse = {m: w_rows(alg, m, alg.w_cache) for m in zetas}

    # composition-zero: W_{zeta(i+1)} ⊆ R · W_{zeta(i-1)} for all used i >= 1
    comp_zero = True
    for idx in range(1, len(zetas) - 1):
        m_lo = zetas[idx - 1]
        rows_hi = w_sparse[zetas[idx + 1]]
        if not rows_hi:
            continue
        elim = SparseEliminator(field)
        for rrow in alg.R.basis_sparse():
            for lrow in w_sparse[m_lo]:
                elim.add(ctx.row_product(rrow, lrow, m_lo))
        for r in rows_hi:
            if not elim.contains(r):
                comp_zero = False

    # the one image rule: for w the word of a standard monomial of A_a, a
    # term (u, g) of a W_m row with its first delta letters moved into A
    # goes to nf(w·u[:delta], g) ⊗ rho(g)^-1 u[delta:] in
    # A_{a+delta} ⊗ V^{⊗(m-delta)}.  delta = 0 gives dim A_a ⊗_K W_m, and
    # delta = zeta(i) - zeta(i-1) the rank of the map out of position i.
    # Each row is split once per (m, delta) into {(head, g): tail}.
    splits: dict = {}
    inverses = ctx.group.inverses

    def image_rank(a: int, m: int, delta: int) -> int:
        """Rank of the images of A_a ⊗_K W_m in A_{a+delta} ⊗ V^{⊗(m-delta)}."""
        if (m, delta) not in splits:
            splits[m, delta] = []
            for row in w_sparse[m]:
                split: dict = {}
                for coord, raw in row.items():
                    word, g = ctx.word_of(coord, m)
                    tail = split.setdefault((word[:delta], g), {})
                    for tw, c in ctx.apply_group_to_word(inverses[g], word[delta:]):
                        accumulate(field, tail, ctx.word_num(tw), field.mul(raw, c))
                splits[m, delta].append(split)
        width = ctx.dimV ** (m - delta)

        def image(w, split) -> dict:
            vec: dict = {}
            for (head, g), tail in split.items():
                for b, v in tower.nf(w + head, g).items():
                    add_scaled(field, vec, {b * width + t: c for t, c in tail.items()}, v)
            return vec

        words = dict.fromkeys(w for w, _ in tower.reps(a))
        return rank(field, (image(w, split) for w in words for split in splits[m, delta]))

    def degree_data(d: int) -> DegreeCertificate:
        imax = 0
        while imax + 1 < len(zetas) and zetas[imax + 1] <= d:
            imax += 1
        dims = []
        ranks = []
        for i in range(imax + 1):
            a = d - zetas[i]
            if i == 0:
                dims.append(tower.adim(d))
            elif i == 1:
                dims.append(tower.adim(a) * ctx.dimV)
            elif ctx.order == 1:
                dims.append(tower.adim(a) * len(w_sparse[zetas[i]]))
            else:
                dims.append(image_rank(a, zetas[i], 0))
        for i in range(imax + 2):
            if i == 0:
                ranks.append(0)
            elif i == 1:
                ranks.append(tower.adim(d) if d >= 1 else 0)
            elif i > imax:
                ranks.append(0)
            elif i == 2:
                ranks.append(ctx.dimV * tower.adim(d - 1) - tower.adim(d))
            else:
                ranks.append(image_rank(d - zetas[i], zetas[i], zetas[i] - zetas[i - 1]))
        exact = []
        for i in range(1, imax + 1):
            exact.append(ranks[i] + ranks[i + 1] == dims[i])
        return DegreeCertificate(d=d, dims=dims, ranks=ranks[1 : imax + 2], exact=exact)

    degree_list = [degree_data(d) for d in range(D + 1)]
    verdict = f"verified_up_to_{D}"
    for dc in degree_list:
        for i, ok in enumerate(dc.exact, start=1):
            if not ok:
                verdict = f"counterexample({dc.d},{i})"
                break
        if verdict.startswith("counter"):
            break
    # the antisymmetrizer relation family is Koszul outright, so for it a
    # clean certificate is not merely a bounded statement
    unconditional = verdict.startswith("verified") and is_antisymmetrizer_relations(alg)
    return KoszulCertificate(
        degree_bound=D,
        degrees=degree_list,
        verdict=verdict,
        composition_zero=comp_zero,
        unconditional=unconditional,
    )

