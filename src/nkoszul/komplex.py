"""Bimodule N-complexes over a truncated filtered algebra.

Given a presentation whose filtration oracle passes up to a bound D, the
algebra U is represented on the standard monomials of the oracle's
quotient tower (``homogeneous._Tower``).  Every product is reduced by
one rule: (w (x) g)(w' (x) h) = w·g(w') (x) gh, sent through the tower's
normal forms in one step.  Right and left multiplications by generators
and group elements are cached sparse operators on that basis.

On top sit the spaces U (x)_K W_n (x)_K U truncated to total filtration
degree <= D.  The right half W_n (x)_K U embeds into V^{(x)n} (x) U by
moving group coordinates into the right tensorand.  It is spanned by the
tensors w (x) b with w running over right K-generators of W_n, rows whose
right translates w·g span W_n, since w·g (x) b = w (x) g·b; so about
dim W_n / |Gamma| rows of W_n span it rather than all of them.  Each space
keeps only the canonical rows of that span: a coordinate is arithmetic in
its word number and U index, and the rows' filtration levels never rise.
K = k[Gamma] is semisimple, so the rows of level <= r span
W_n (x)_K U^{<= r}, and their number is a sum of ranks of degree blocks:
a slice's size is counted from those (``NComplexSlice.slice_dim``) with
no space built, and its basis is listed only where a map is built.  The
left U is collapsed through a right-free monomial basis, which requires
the pivot words of the ideal rows to be orbit-pure over the group.  That
holds automatically when the relations extend field-level data (all the
presentations built by this package); other inputs raise a clear error.

The differentials d_l and d_r, the q-twisted maps d_l - q^{n-1} d_r, the
degree-lowering correction maps induced by phi, the contracted complex
alternating d and d^{N-1}, and the explicit wedge-basis formulas for
antisymmetrizer presentations are all provided as sparse column maps, with
rank checks restricted to the safe filtration window <= D - N where
truncation cannot create spurious homology.

The checks build only what their verdicts read, on restrictions of the
slice family to a lower total degree (``NComplexSlice.restricted``) that
share its truncated algebra, so the algebra is still built, and a failed
oracle refused, at D.  Two facts of Berger's bimodule complex set the
restrictions.  mu, d_l and d_r never raise total filtration degree, so the
windowed ranks are those of the family restricted to D - N.  Every map of
the complex is a U-bimodule map, fixed by its values on the generators
1 (x) w (x) 1 of total degree n in slice n; so d^N = 0, the composition
test of the contracted complex and the wedge agreement are decided on
those columns, in the family restricted to max_n, the largest n with
W_n != 0.  Each map is built once:
d^{N-1}, the sum of d_l^a d_r^b over a + b = N - 1, comes from the
recurrence T_k(l) = T_{k-1}(l-1) ∘ d_r(l) + d_l^k(l) (``alternating_step_sum``),
and each windowed map out of a position i >= 1 of the contracted complex
is ranked once, by echelon inserts (``elim.rank``); mu's rank is read off
the unit.  The generic and wedge-basis complexes
share one assembly of their maps out of each position
(``contraction_map``); the generic ones are built once per slice family
(``NComplexSlice.contraction``), so the contracted complex and the wedge
agreement read the same maps.  For N = 2 the twisted maps are the
contraction maps, and each composite of two of them is formed once per
family (``NComplexSlice.composite_zero``), for d^2 = 0 and the contracted
complex alike, on the generator columns of the inner map.  phi's left
and right lifts share one construction.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .elim import (
    TaggedRows,
    accumulate,
    add_maps,
    add_scaled,
    canonical_rows,
    compose_maps,
    express,
    generators,
    maps_equal,
    pivot_index,
    rank,
    times,
)
from .filtered import FilteredPresentation, build_phi
from .grouppres import wedge
from .homogeneous import w_rows, zeta, zeta_degrees
from .scalar import DimensionMismatch, Scalar, to_raw
from .smashtensor import alternating_sum_terms


class UnsupportedStructure(ValueError):
    """The truncated algebra lacks the structure a construction needs."""


class TruncatedU:
    """U = T(V)#Gamma / I(P) on the standard monomials up to degree D.

    The basis is the oracle's standard monomials, ``engine.tower.reps(d)``
    for d = 0..D, so the b-th one of degree d has index starts[d] + b; an
    element reduces to the sum of its terms times the tower's normal forms
    ``tower.global_nf``.  Under PBW the normal form modulo J^D onto the
    standard monomials is unique, so the product of two monomials is
    reduced in one step by the smash-product rule (``_times``), the rule the
    cached one-step products use too.
    """

    def __init__(self, pres: FilteredPresentation, bound: int):
        self.pres = pres
        self.bound = bound
        engine = pres.oracle(bound)
        if not all(engine.equalities.values()):
            bad = sorted(n for n, ok in engine.equalities.items() if not ok)
            raise ValueError(
                f"filtration equalities fail at degree {bad[0]}; the truncated algebra is undefined"
            )
        self.tower = engine.tower
        self.ctx = pres.ctx
        self.basis: list[tuple[int, tuple[int, ...], int]] = [
            (d, word, g) for d in range(bound + 1) for word, g in self.tower.reps(d)
        ]
        self.dims_by_degree = [self.tower.levels[d].adim for d in range(bound + 1)]
        self._products: dict[tuple, list] = {}

    @property
    def field(self):
        return self.ctx.field

    def dim_filtration(self, n: int) -> int:
        return sum(self.dims_by_degree[: max(n + 1, 0)])

    def _reduce(self, terms) -> dict:
        """The sum of c·nf(word, g) over (word, g, raw c), over the basis."""
        field = self.field
        out: dict = {}
        for word, g, c in terms:
            if len(word) > self.bound:
                raise DimensionMismatch("term exceeds the truncation bound")
            add_scaled(field, out, self.tower.global_nf(word, g), c)
        return out

    def _times(self, word1, g1, word2, g2) -> dict:
        """(word1 ⊗ g1)(word2 ⊗ g2) = word1·ρ(g1)word2 ⊗ g1·g2 over the basis.

        Every monomial up to the bound has one normal form, so the product
        reduces in one step; ``_reduce`` rejects one beyond the bound.
        """
        g = self.ctx.group.mult_table[g1][g2]
        return self._reduce((word1 + tw, g, c) for tw, c in self.ctx.apply_group_to_word(g1, word2))

    def multiply_basis(self, left_idx: int, right_idx: int) -> dict:
        """Product of two basis monomials as a sparse basis vector."""
        _, word1, g1 = self.basis[left_idx]
        _, word2, g2 = self.basis[right_idx]
        return self._times(word1, g1, word2, g2)

    # -- cached one-step multiplications --------------------------------

    def _product(self, side: str, idx: int, letter, g: int) -> list:
        """Basis monomial idx times e_letter ⊗ g (1 ⊗ g when ``letter`` is
        None) on the given side, reduced onto the basis."""
        key = (side, idx, letter, g)
        got = self._products.get(key)
        if got is None:
            _, word, g0 = self.basis[idx]
            head = () if letter is None else (letter,)
            if side == "right":
                vec = self._times(word, g0, head, g)
            else:
                vec = self._times(head, g, word, g0)
            got = self._products[key] = sorted(vec.items())
        return got

    def right_mult_letter(self, idx: int, letter: int) -> list:
        return self._product("right", idx, letter, 0)

    def left_mult_letter(self, idx: int, letter: int) -> list:
        return self._product("left", idx, letter, 0)

    def left_mult_group(self, idx: int, g: int) -> list:
        return self._product("left", idx, None, g)

    # -- right-free monomial structure ----------------------------------

    def monomial_right_free_basis(self) -> tuple[list, dict]:
        """Words w with (w, g) in the basis for every g, as left factors.

        Returns (list of basis indices of (w, identity), map from basis index
        to (left-factor index, group element)).  Raises when the pivot words
        are not orbit-pure, in which case the collapsed representation of
        U (x)_K - is unavailable.
        """
        by_word: dict[tuple[int, ...], dict] = {}  # word -> {g: basis index}
        for idx, (_, word, g) in enumerate(self.basis):
            by_word.setdefault(word, {})[g] = idx
        if any(len(entries) != self.ctx.order for entries in by_word.values()):
            raise UnsupportedStructure(
                "coset monomials are not orbit-pure over the group; "
                "the collapsed tensor representation is unavailable"
            )
        b0 = [idx for idx, (_, _, g) in enumerate(self.basis) if g == 0]
        b0_pos = {idx: pos for pos, idx in enumerate(b0)}
        return b0, {idx: (b0_pos[by_word[word][0]], g) for idx, (_, word, g) in enumerate(self.basis)}


# -- the right tensor factor W_n (x)_K U ------------------------------------


def _tensor(tu: TruncatedU, w_row: dict, b_idx: int, pos: list, vn: int) -> dict:
    """w (x) b in V^{(x)n} (x) U, for a row w of W_n and U index b.

    w·g (x) b = w (x) g·b, so the word number w of each coordinate w·g goes
    beside every U index b2 of g·b, at coordinate pos[b2]·vn + w; the U
    indices whose ``pos`` is None are cut off.
    """
    field = tu.field
    order = tu.ctx.order
    vec: dict = {}
    for coord, raw in w_row.items():
        wnum, g = divmod(coord, order)
        entries = [(b_idx, field.one)] if g == 0 else tu.left_mult_group(b_idx, g)
        for b2, c in entries:
            p = pos[b2]
            if p is not None:
                accumulate(field, vec, p * vn + wnum, times(field, raw, c))
    return vec


class _XSpace:
    """W_n (x)_K U^{<= bound-n} embedded in V^{(x)n} (x) U, kept as its canonical rows.

    ``bound`` is the slice family's, at most the truncated algebra's.  The U
    basis ascends in degree, so the right factors are its prefix of length
    ``len(by_pos)``; ``by_pos`` lists them highest degree first, ascending
    within a degree, and ``pos`` is its inverse.  Word number w beside U
    index b is coordinate pos[b]·vn + w, vn = dimV^n, so a row's pivot
    block is its filtration level, the canonical rows are nested across
    levels, and ``level`` never rises along them.  The spanning tensors
    w_t (x) b are taken only for the right K-generators w_t of W_n,
    ``gens``: w·g (x) b = w (x) g·b with g·b in U of the same degree, so
    rows whose right K-translates span W_n give all of W_n (x)_K U.
    """

    def __init__(self, tu: TruncatedU, n: int, w_row_list: list, gens: list, bound: int):
        self.tu = tu
        self.n = n
        degree = tu.basis
        self.w_rows = w_row_list
        self.vn = tu.ctx.dimV**n
        self.by_pos = sorted(range(tu.dim_filtration(bound - n)), key=lambda b: -degree[b][0])
        self.pos = sorted(range(len(self.by_pos)), key=self.by_pos.__getitem__)  # its inverse
        self.width = len(self.by_pos) * self.vn
        self.gens = gens
        self.rows = canonical_rows(tu.field, (self._embed(t, b) for t, b in self.tags))
        self.pivots = [min(r) for r in self.rows]
        self._index = pivot_index(self.rows)
        self.level = [degree[self.by_pos[p // self.vn]][0] for p in self.pivots]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def tags(self) -> list:
        """The spanning tensors w_t (x) b as pairs (t, b), in insertion order."""
        return [(t, b) for t in self.gens for b in range(len(self.by_pos))]

    def express(self, vec: dict) -> list:
        """Coefficients of a vector over the canonical rows."""
        return express(self.tu.field, self.rows, self._index, vec)

    def coord(self, wnum: int, b_idx: int) -> int:
        """The coordinate of word number ``wnum`` beside U index ``b_idx``."""
        return self.pos[b_idx] * self.vn + wnum

    def _embed(self, t: int, b_idx: int) -> dict:
        """w_t (x) b as a vector over the coordinates."""
        return _tensor(self.tu, self.w_rows[t], b_idx, self.pos, self.vn)

    def group_action(self, g: int, row_idx: int) -> list:
        """g · row expressed over the canonical rows (diagonal action)."""
        tu = self.tu
        ctx = tu.ctx
        field = tu.field
        pos, by_pos, vn = self.pos, self.by_pos, self.vn
        vec: dict = {}
        for key, raw in self.rows[row_idx].items():
            p, wnum = divmod(key, vn)
            word = ctx.num_word(wnum, self.n)
            for tw, c in ctx.apply_group_to_word(g, word):
                wnum2 = ctx.word_num(tw)
                for b2, c2 in tu.left_mult_group(by_pos[p], g):
                    accumulate(field, vec, pos[b2] * vn + wnum2, times(field, raw, times(field, c, c2)))
        return self.express(vec)

    def first_letter_split(self, row_idx: int, target: "_XSpace") -> dict:
        """Row as sum over first letters j of vectors in the lower space."""
        by_pos, vn = self.by_pos, self.vn
        low_pos, vlow = target.pos, target.vn
        blocks: dict[int, dict] = {}
        for key, raw in self.rows[row_idx].items():
            p, wnum = divmod(key, vn)
            j, rest = divmod(wnum, vlow)
            blocks.setdefault(j, {})[low_pos[by_pos[p]] * vlow + rest] = raw
        return {j: target.express(vec) for j, vec in sorted(blocks.items())}

    def last_letter_image(self, row_idx: int, target: "_XSpace") -> list:
        """Image under moving the last letter into U, over the lower rows."""
        tu = self.tu
        field = tu.field
        dimV = tu.ctx.dimV
        by_pos, vn = self.by_pos, self.vn
        low_pos, vlow = target.pos, target.vn
        vec: dict = {}
        for key, raw in self.rows[row_idx].items():
            p, wnum = divmod(key, vn)
            rest, ell = divmod(wnum, dimV)
            for b2, c in tu.left_mult_letter(by_pos[p], ell):
                accumulate(field, vec, low_pos[b2] * vlow + rest, times(field, raw, c))
        return target.express(vec)


# -- the complex family -------------------------------------------------


def _slice_slot(runs: list, pos: int, t: int) -> int:
    """The position shift + t of (pos, t) in a slice basis, from the run
    (first, shift) of left factor pos.  Every map between truncated slices
    lands inside the bound, so a row t < first is an internal error."""
    first, shift = runs[pos]
    if t < first:
        raise RuntimeError("image left the truncated slice")
    return shift + t


class NComplexSlice:
    """Truncated spaces U (x)_K W_n (x)_K U with the maps between them.

    ``basis(n)`` lists pairs (left monomial index, right tensor row index)
    with total filtration degree within the bound.  Maps are sparse column
    dictionaries; ``d_left``/``d_right`` are the two one-step maps, and the
    q-twisted differential of the N-complex at slice n is
    d_left - q^{n-1} d_right.  ``restricted(b)`` is the family cut to
    total degree <= b on the same truncated algebra.
    """

    def __init__(self, pres: FilteredPresentation, bound: int):
        self.pres = pres
        self.tu = TruncatedU(pres, bound)
        ctx = pres.ctx
        self.ctx = ctx
        self.N = pres.N
        phi = build_phi(pres)
        for j in range(1, self.N):
            if not phi.is_zero_component(j):
                raise UnsupportedStructure(
                    "the bimodule complex needs the correction map concentrated in degree zero"
                )
        self.phi = phi
        self.b0, self.b_decomp = self.tu.monomial_right_free_basis()
        degree = self.tu.basis
        # (deg b0, the number of left factors b0 of that degree)
        self._left_degrees = sorted(Counter(degree[b0_idx][0] for b0_idx in self.b0).items())
        self._alg = pres.homogenization()
        # shared with every restriction: neither depends on the bound
        self._gens: dict[int, list] = {}
        self._level_counts: dict[int, list] = {}
        self._open(bound, self._max_nonzero_w(bound))

    def _open(self, bound: int, max_n: int) -> None:
        """Empty spaces, maps and restrictions at total degree <= ``bound``."""
        self.bound = bound
        self.max_n = max_n
        self._restrictions: dict[int, NComplexSlice] = {}
        self._x: dict[int, _XSpace] = {}
        self._slice_basis: dict[int, list] = {}
        self._slice_runs: dict[int, list] = {}
        self._dl: dict[int, dict] = {}
        self._dr: dict[int, dict] = {}
        self._contraction: dict[int, dict] = {}
        self._composite_zero: dict[int, bool] = {}

    def _max_nonzero_w(self, bound: int) -> int:
        for n in range(bound, -1, -1):
            if w_rows(self._alg, n, self._alg.w_cache):
                return n
        return 0

    def restricted(self, bound: int) -> "NComplexSlice":
        """The family cut to total filtration degree <= ``bound``.

        It shares the truncated algebra, phi and the left factors, and
        builds its own spaces and maps, so none of this family's work is
        redone; one restriction per bound.  W_{n+1} lies in W_n (x) V, so
        the nonzero W_n are those with n <= max_n.
        """
        if bound == self.bound:
            return self
        if not 0 <= bound < self.bound:
            raise ValueError("a restriction lowers the bound")
        got = self._restrictions.get(bound)
        if got is None:
            got = copy.copy(self)
            got._open(bound, min(self.max_n, bound))
            self._restrictions[bound] = got
        return got

    def x_space(self, n: int) -> _XSpace:
        if n not in self._x:
            w = w_rows(self._alg, n, self._alg.w_cache)
            self._x[n] = _XSpace(self.tu, n, w, self.w_generators(n), self.bound)
        return self._x[n]

    def w_generators(self, n: int) -> list:
        """Indices of the right K-generators of W_n (``elim.generators``, the
        rule the quotient towers and ``mul_E`` share), found once for the
        family and its restrictions."""
        got = self._gens.get(n)
        if got is None:
            ctx = self.ctx
            w = w_rows(self._alg, n, self._alg.w_cache)
            got = self._gens[n] = generators(ctx.field, w, ctx.right_action_sparse, ctx.order)
        return got

    def rows_within(self, n: int, room: int) -> int:
        """C_n(room) = dim W_n (x)_K U^{<= room}, counted from degree blocks.

        U^{<= room} is a left K-submodule of U^{<= D-n}, and K = k[Gamma] is
        semisimple, so it has a left K-complement there and
        (W_n (x)_K U^{<= D-n}) ∩ (V^{(x)n} (x) U^{<= room}) = W_n (x)_K U^{<= room}:
        C_n(room) is the number of rows of level <= room in any ``x_space(n)``
        that holds the room.  The rows of level exactly l are as many as the
        rank c_n(l) of the tensors w_t (x) b, deg b = l, cut to their degree-l
        coordinates: g·b never raises degree, so a tensor w_t (x) b with
        deg b < l has no degree-l part.  c_n(l) does not depend on the bound,
        so the prefix sums are extended once, as far as asked, for the family
        and its restrictions.
        """
        if room < 0:
            return 0
        counts = self._level_counts.setdefault(n, [])
        if len(counts) <= room:
            tu = self.tu
            w = w_rows(self._alg, n, self._alg.w_cache)
            gens = self.w_generators(n)
            vn = self.ctx.dimV**n
            for level in range(len(counts), room + 1):
                lo, hi = tu.dim_filtration(level - 1), tu.dim_filtration(level)
                pos = [None] * lo + list(range(hi - lo))
                block = [_tensor(tu, w[t], b, pos, vn) for t in gens for b in range(lo, hi)]
                counts.append((counts[-1] if counts else 0) + rank(tu.field, block))
        return counts[room]

    def basis(self, n: int) -> list:
        """Pairs (pos, t): the rows t of ``x_space(n)`` that fit beside left
        factor pos, those of level at most the room bound - n - deg b0 it
        leaves, are the last ``rows_within(n, room)`` ones, as ``level``
        never rises.  So each left factor has one run of rows, which
        ``_slice_slot`` reads positions from."""
        if n not in self._slice_basis:
            dim = self.x_space(n).dim
            top = self.bound - n
            degree = self.tu.basis
            out: list = []
            runs = self._slice_runs[n] = []
            for pos, b0_idx in enumerate(self.b0):
                first = dim - self.rows_within(n, top - degree[b0_idx][0])
                runs.append((first, len(out) - first))
                out.extend((pos, t) for t in range(first, dim))
            self._slice_basis[n] = out
        return self._slice_basis[n]

    def slice_dim(self, n: int) -> int:
        """The dimension of slice n, the sum of C_n(bound - n - deg b0) over
        the left factors b0, counted without building ``x_space(n)``."""
        return sum(count * self.rows_within(n, self.bound - n - d) for d, count in self._left_degrees)

    def total_degree(self, n: int, key: tuple[int, int]) -> int:
        pos, t = key
        return self.tu.basis[self.b0[pos]][0] + n + self.x_space(n).level[t]

    def generator_columns(self, n: int) -> list:
        """Sources of slice n of total degree n, the tensors 1 (x) w (x) 1:
        they generate U (x)_K W_n (x)_K U as a U-bimodule."""
        return [src for src, key in enumerate(self.basis(n)) if self.total_degree(n, key) == n]

    def d_left(self, n: int) -> dict:
        """Columns of d_l : slice n -> slice n-1.

        The first letter j of a row of W_n moves into the left factor: each
        b0 · v_j is expanded over b0 · Gamma, and u = b0' · g with g != 1
        pushes g through the lower rows (``group_action``, cached for this map).
        """
        if n in self._dl:
            return self._dl[n]
        if n < 1:
            raise ValueError("d_l needs a positive tensor degree")
        field = self.ctx.field
        one = field.one
        x_hi = self.x_space(n)
        x_lo = self.x_space(n - 1)
        self.basis(n - 1)
        runs = self._slice_runs[n - 1]
        act_cache: dict[tuple[int, int], list] = {}
        splits = [x_hi.first_letter_split(t, x_lo) for t in range(x_hi.dim)]
        right_mult_letter = self.tu.right_mult_letter
        b_decomp = self.b_decomp
        cols: dict = {}
        for src, (pos, t) in enumerate(self.basis(n)):
            b0_idx = self.b0[pos]
            out: dict = {}
            for j, combo in splits[t].items():
                for b_idx, cu in right_mult_letter(b0_idx, j):
                    pos2, g = b_decomp[b_idx]
                    for t1, cx in combo:
                        if g == 0:
                            targets = ((t1, one),)
                        else:
                            targets = act_cache.get((g, t1))
                            if targets is None:
                                targets = act_cache[(g, t1)] = x_lo.group_action(g, t1)
                        for t2, c2 in targets:
                            accumulate(field, out, _slice_slot(runs, pos2, t2), times(field, cu, times(field, cx, c2)))
            cols[src] = out
        self._dl[n] = cols
        return cols

    def d_right(self, n: int) -> dict:
        """Columns of d_r : slice n -> slice n-1."""
        if n in self._dr:
            return self._dr[n]
        if n < 1:
            raise ValueError("d_r needs a positive tensor degree")
        field = self.ctx.field
        x_hi = self.x_space(n)
        x_lo = self.x_space(n - 1)
        self.basis(n - 1)
        runs = self._slice_runs[n - 1]
        nus = [x_hi.last_letter_image(t, x_lo) for t in range(x_hi.dim)]
        cols: dict = {}
        for src, (pos, t) in enumerate(self.basis(n)):
            out: dict = {}
            for t2, c in nus[t]:
                accumulate(field, out, _slice_slot(runs, pos, t2), c)
            cols[src] = out
        self._dr[n] = cols
        return cols

    # -- phi-induced degree-N drops -------------------------------------

    def _phi_map(self, n: int, left: bool) -> dict:
        """Columns of 1 (x) phi (x) 1 : slice n -> slice n-N, phi applied to
        the first N tensor factors when ``left`` and to the last N otherwise.

        Each W_n row is written over the products r_s · w_kappa (``left``) or
        w_kappa · r_s of R rows and W_{n-N} rows.  phi is concentrated in
        degree zero, so phi(r_s) is a combination of group elements g, the
        coordinates of its degree-zero block, read here on every call; on the
        left g acts on w_kappa, on the right it moves into the right U factor.
        """
        field = self.ctx.field
        ctx = self.ctx
        N = self.N
        x_hi = self.x_space(n)
        x_lo = self.x_space(n - N)
        self.basis(n - N)
        runs = self._slice_runs[n - N]
        r_rows = self._alg.R.basis_sparse()
        low = w_rows(self._alg, n - N, self._alg.w_cache)
        if left:
            tags = [(s, k) for s in range(len(r_rows)) for k in range(len(low))]
            gens = [ctx.row_product(r_rows[s], low[k], n - N) for s, k in tags]
            low_index = pivot_index(low)
        else:
            tags = [(s, k) for k in range(len(low)) for s in range(len(r_rows))]
            gens = [ctx.row_product(low[k], r_rows[s], N) for s, k in tags]
        solver = TaggedRows(field, gens, ctx.component_dim(n))
        split = [[(tags[i], c) for i, c in solver.solve(w)] for w in w_rows(self._alg, n, self._alg.w_cache)]
        phi0 = self.phi.component(0)
        # each canonical row of x_hi over its spanning tensors w_t (x) b
        spanning = x_hi.tags
        over_tags = TaggedRows(field, [x_hi._embed(t, b) for t, b in spanning], x_hi.width)
        expressions = [[(spanning[i], c) for i, c in over_tags.solve(row)] for row in x_hi.rows]
        lowered: dict[tuple[int, int], list] = {}  # w_kappa (x) b over x_lo's rows

        def moved(g: int, kappa: int, b_idx: int) -> list:
            """g applied to w_kappa (x) b as (W_{n-N} row, U index, coeff)."""
            if left:
                img = ctx.left_action_sparse(g, low[kappa], n - N)
                return [(k2, b_idx, c) for k2, c in express(field, low, low_index, img)]
            return [(kappa, b2, c) for b2, c in self.tu.left_mult_group(b_idx, g)]

        cols: dict = {}
        for src, (pos, t) in enumerate(self.basis(n)):
            out: dict = {}
            for (gt, b_idx), cg in expressions[t]:
                for (s, kappa), c2 in split[gt]:
                    for g, c3 in phi0[s].items():
                        scale = times(field, cg, times(field, c2, c3))
                        for kappa2, b2, c4 in moved(g, kappa, b_idx):
                            image = lowered.get((kappa2, b2))
                            if image is None:
                                image = lowered[(kappa2, b2)] = x_lo.express(x_lo._embed(kappa2, b2))
                            for t2, c5 in image:
                                term = times(field, scale, times(field, c4, c5))
                                accumulate(field, out, _slice_slot(runs, pos, t2), term)
            cols[src] = out
        return cols

    def phi_left(self, n: int) -> dict:
        """Columns of 1 (x) phi^{1,N} (x) 1 : slice n -> slice n-N."""
        return self._phi_map(n, left=True)

    def phi_right(self, n: int) -> dict:
        """Columns of 1 (x) phi^{n-N+1,n} (x) 1 : slice n -> slice n-N."""
        return self._phi_map(n, left=False)

    # -- assembled maps ---------------------------------------------------

    def d_twisted(self, n: int, q: Scalar) -> dict:
        """d = d_l - q^{n-1} d_r at slice n.

        For N = 2 and q = -1, the one primitive square root, this is the
        contraction map out of position n: zeta(n) = n, and d_l - d_r for
        odd n, d_l + d_r for even n.
        """
        field = self.ctx.field
        if self.N == 2 and to_raw(field, q) == field.minus_one:
            return self.contraction(n)
        qn = to_raw(field, q ** (n - 1))
        return add_maps(field, self.d_left(n), self.d_right(n), field.neg(qn), self.slice_dim(n))

    def contraction(self, i: int) -> dict:
        """Map out of homological position i of the contracted complex: d
        when i is odd, d^{N-1} when even; built once per slice family."""
        got = self._contraction.get(i)
        if got is None:
            odd = i % 2 == 1
            got = contraction_map(self.d_left, self.d_right, zeta(i, self.N), odd, self.N, self.ctx.field)
            self._contraction[i] = got
        return got

    def composite_zero(self, i: int) -> bool:
        """Whether contraction(i) ∘ contraction(i+1) vanishes, for i >= 1.

        Both maps are U-bimodule maps, so the composite vanishes when it
        does on the generator columns of slice zeta(i+1); it is formed on
        those alone, once per slice family, and only its verdict is kept.
        """
        got = self._composite_zero.get(i)
        if got is None:
            inner = self.contraction(i + 1)
            gens = on_columns(inner, self.generator_columns(zeta(i + 1, self.N)))
            got = map_is_zero(compose_maps(self.contraction(i), gens, self.ctx.field))
            self._composite_zero[i] = got
        return got

    def mu_matrix(self, sources) -> dict:
        """Multiplication (U (x)_K U)_{<= D} -> U^{<= D} on slice 0, on the
        given source columns."""
        field = self.ctx.field
        basis = self.basis(0)
        x0 = self.x_space(0)
        cols = {}
        for src in sources:
            pos, t = basis[src]
            b0_idx = self.b0[pos]
            out: dict = {}
            for key, raw in x0.rows[t].items():
                add_scaled(field, out, self.tu.multiply_basis(b0_idx, x0.by_pos[key // x0.vn]), raw)
            cols[src] = out
        return cols


# -- map algebra --------------------------------------------------------


def map_difference(a: dict, b: dict, field, n_cols: int) -> dict:
    return add_maps(field, a, b, field.minus_one, n_cols)


def map_is_zero(cols: dict) -> bool:
    return all(not vec for vec in cols.values())


def on_columns(cols: dict, sources: list) -> dict:
    """The map cut down to the given source columns."""
    return {src: cols[src] for src in sources}


def check_dN_zero(slice_family: NComplexSlice, q: Scalar) -> list[tuple[int, bool]]:
    """d^N = 0 on every slice where N successive maps are defined.

    d^N is a U-bimodule map, so it vanishes on U (x)_K W_n (x)_K U when it
    does on the generators 1 (x) w (x) 1, the columns of total degree n.
    Every slice n with W_n != 0 has n <= max_n, so the family restricted to
    max_n holds them all, and d^N is composed there on them alone.  For
    N = 2 the twisted maps are the contraction maps, so d^2 out of n is
    that family's composite out of contraction position n - 1, the one
    the contracted complex reads too.
    """
    N = slice_family.N
    if (q**N) != Scalar.one(q.conductor):
        raise ValueError("q must be an N-th root of unity")
    for m in range(1, N):
        if (q**m) == Scalar.one(q.conductor):
            raise ValueError("q must be a primitive N-th root of unity")
    top = slice_family.max_n
    if top < N:
        raise ValueError("bound too small: no slice admits N successive maps")
    fam = slice_family.restricted(top)
    field = fam.ctx.field
    results = []
    for n in range(N, top + 1):
        if N == 2:
            results.append((n, fam.composite_zero(n - 1)))
            continue
        comp = on_columns(fam.d_twisted(n, q), fam.generator_columns(n))
        for k in range(1, N):
            comp = compose_maps(fam.d_twisted(n - k, q), comp, field)
        results.append((n, map_is_zero(comp)))
    return results


@dataclass
class ContractionReport:
    bound: int
    window: int
    positions: list[dict]
    composition_zero: bool
    exact_in_window: bool

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "window": self.window,
            "positions": self.positions,
            "composition_zero": self.composition_zero,
            "exact_in_window": self.exact_in_window,
        }


def contracted_complex(slice_family: NComplexSlice) -> ContractionReport:
    """The alternating d, d^{N-1} complex with rank checks in the window.

    Exactness is asserted only at total filtration degree <= D - N, where a
    truncated complex cannot show spurious homology: the maps preserve the
    filtration and the associated graded complex is checked degreewise
    elsewhere.  mu, d_l and d_r never raise total degree, so the columns
    of total degree <= D - N map into the window, and the windowed ranks
    are those of the family restricted to D - N, all of its columns.  mu's
    rank there is dim U^{<= D-N}: the unit is a left factor, every right
    factor b of degree <= D - N fits beside it, and mu(1 (x) b) = b.  The
    maps are U-bimodule maps, so consecutive ones compose to zero when
    they do on the generator columns, which the family restricted to max_n
    holds (``composite_zero``, shared with d^2); mu is built there only on
    the columns d(1) reaches from them.  ``top`` and ``dim_total`` are
    counted at D (``NComplexSlice.slice_dim``), with no space built there.
    """
    fam = slice_family
    N = fam.N
    field = fam.ctx.field
    window = fam.bound - N
    if window < 0:
        raise ValueError("bound too small for a meaningful window")
    # homological positions 0..top, with zeta(i) <= bound and nonzero slices
    zs = zeta_degrees(N, fam.bound)
    top = 0
    while top + 1 < len(zs) and fam.slice_dim(zs[top + 1]) > 0:
        top += 1
    comp_zero = True
    if top > 0:
        gen = fam.restricted(fam.max_n)
        d1 = on_columns(gen.contraction(1), gen.generator_columns(1))
        reached = sorted({key for col in d1.values() for key in col})
        comp_zero = map_is_zero(compose_maps(gen.mu_matrix(reached), d1, field)) and all(
            gen.composite_zero(i) for i in range(1, top)
        )

    win = fam.restricted(window)
    dims = [win.slice_dim(n) for n in zs[: top + 1]]
    # mu out of position 0, the one map out of every other position, and
    # the zero map out of position top + 1
    ranks = [fam.tu.dim_filtration(window)]
    ranks += [rank(field, list(win.contraction(i).values())) for i in range(1, top + 1)] + [0]

    positions = []
    for i in range(top + 1):
        positions.append(
            {
                "i": i,
                "zeta": zs[i],
                "dim_total": fam.slice_dim(zs[i]),
                "dim_window": dims[i],
                "rank_in": ranks[i + 1],
                "rank_out": ranks[i],
                "exact": ranks[i] + ranks[i + 1] == dims[i],
            }
        )
    return ContractionReport(
        bound=fam.bound,
        window=window,
        positions=positions,
        composition_zero=comp_zero,
        exact_in_window=all(pos["exact"] for pos in positions),
    )


def alternating_step_sum(left, right, top: int, steps: int, field) -> dict:
    """Columns of the sum over a + b = steps of left^a ∘ right^b out of ``top``.

    ``left(m)`` and ``right(m)`` are the one-step maps out of level m, with
    a column for every source; the b right steps act first, and steps >= 1.
    The sum T_k(l) of k steps out of level l is built by the recurrence
    T_k(l) = T_{k-1}(l-1) ∘ R(l) + L^k(l) from T_1 = L + R, so each
    one-step map is built once and composed once or twice.
    """
    low = top - steps + 1
    left_pow = left(low)
    total = add_maps(field, left_pow, right(low), field.one, len(left_pow))
    for level in range(low + 1, top + 1):
        step = left(level)
        left_pow = compose_maps(left_pow, step, field)
        total = compose_maps(total, right(level), field)
        total = add_maps(field, total, left_pow, field.one, len(step))
    return total


def contraction_map(left, right, top: int, odd: bool, N: int, field) -> dict:
    """Map out of level ``top`` of a contracted complex built on the one-step
    maps ``left`` and ``right``: left - right when ``odd``, else the
    (N-1)-step ``alternating_step_sum``."""
    if odd:
        step = left(top)
        return map_difference(step, right(top), field, len(step))
    return alternating_step_sum(left, right, top, N - 1, field)


# -- explicit wedge-basis differentials for antisymmetrizer presentations ----


class WedgeComplex:
    """Slices U (x) Λ^m V (x) U on the wedge basis with the explicit maps.

    Requires the presentation to come from the antisymmetrizer family, so
    that W_m is the span of antisymmetrized tensors with group coefficients
    and the wedge words index it freely over K.  The group and p = N are
    the family's.

    ``basis(m)`` lists (pos, combo, b) left factor by left factor, each a
    run of the C(dimV, m) combinations in order times the right factors b
    of degree at most ``top``; ``_slot`` reads a key's place from its run
    (first slot, dim U^{<=top}) and the combination's rank.
    """

    def __init__(self, family: NComplexSlice):
        self.family = family
        self.tu = family.tu
        self.ctx = family.ctx
        self._basis: dict[int, list] = {}
        self._runs: dict[int, list] = {}  # per left factor (first slot, dim U^{<=top}), None past the bound
        self._ranks: dict[int, dict] = {}  # combination -> its place in combinations(range(dimV), m)
        self._iso: dict[int, dict] = {}

    def basis(self, m: int) -> list:
        if m not in self._basis:
            out = []
            runs = []
            combos = list(combinations(range(self.ctx.dimV), m))
            for pos, b0_idx in enumerate(self.family.b0):
                # the U basis ascends in degree, so the right factors of
                # degree at most ``top`` are a prefix of it
                top = self.family.bound - self.tu.basis[b0_idx][0] - m
                if top < 0:
                    runs.append(None)
                    continue
                right = range(self.tu.dim_filtration(top))
                runs.append((len(out), len(right)))
                for combo in combos:
                    out.extend((pos, combo, b_idx) for b_idx in right)
            self._basis[m] = out
            self._runs[m] = runs
            self._ranks[m] = {combo: r for r, combo in enumerate(combos)}
        return self._basis[m]

    def _slot(self, m: int, pos: int, combo: tuple, b_idx: int) -> int:
        """The place of (pos, combo, b_idx) in ``basis(m)``; a key outside
        the truncated slice is an internal error."""
        run = self._runs[m][pos]
        rank = self._ranks[m].get(combo)
        if run is None or rank is None or b_idx >= run[1]:
            raise RuntimeError("image left the truncated slice")
        first, width = run
        return first + rank * width + b_idx

    def generator_columns(self, m: int) -> list:
        """Sources of total degree m, the tensors 1 (x) wedge (x) g."""
        degree = self.tu.basis
        b0 = self.family.b0
        return [
            src for src, (pos, _, b_idx) in enumerate(self.basis(m)) if degree[b0[pos]][0] + degree[b_idx][0] == 0
        ]

    def _emit(self, out: dict, m_low: int, pos: int, combo: tuple, b_idx: int, coeff) -> None:
        accumulate(self.ctx.field, out, self._slot(m_low, pos, combo, b_idx), coeff)

    def _left_term(self, out: dict, m_low: int, b0_idx: int, letter: int, combo: tuple, b_idx: int, scale) -> None:
        """(b0 · v_letter) (x) combo (x) b, normalized over b0 · Gamma."""
        field = self.ctx.field
        for b2, c in self.tu.right_mult_letter(b0_idx, letter):
            pos2, g = self.family.b_decomp[b2]
            coeff = times(field, scale, c)
            if g == 0:
                self._emit(out, m_low, pos2, combo, b_idx, coeff)
            else:
                # push g through the wedge and the right factor
                columns = self.ctx.columns[g]
                expansion = wedge(field, [columns[i] for i in combo])
                for combo2, cw in expansion.items():
                    for b3, c3 in self.tu.left_mult_group(b_idx, g):
                        self._emit(
                            out,
                            m_low,
                            pos2,
                            combo2,
                            b3,
                            times(field, coeff, times(field, cw, c3)),
                        )

    def differential(self, m: int, odd: bool) -> dict:
        """The explicit wedge formula at wedge size m.

        ``odd`` gives the single-step alternating map (the contraction map
        out of odd homological positions); otherwise the (p-1)-fold sum used
        out of even positions.
        """
        return contraction_map(self._left_step, self._right_step, m, odd, self.family.N, self.ctx.field)

    def _left_step(self, m: int) -> dict:
        field = self.ctx.field
        self.basis(m - 1)
        cols = {}
        for src, (pos, combo, b_idx) in enumerate(self.basis(m)):
            out: dict = {}
            b0_idx = self.family.b0[pos]
            for jpos in range(m):
                letter = combo[jpos]
                rest = combo[:jpos] + combo[jpos + 1 :]
                sign_l = field.one if jpos % 2 == 0 else field.minus_one
                self._left_term(out, m - 1, b0_idx, letter, rest, b_idx, sign_l)
            cols[src] = out
        return cols

    def _right_step(self, m: int) -> dict:
        field = self.ctx.field
        self.basis(m - 1)
        cols = {}
        for src, (pos, combo, b_idx) in enumerate(self.basis(m)):
            out: dict = {}
            for jpos in range(m):
                letter = combo[jpos]
                rest = combo[:jpos] + combo[jpos + 1 :]
                sign_r = field.one if (m - 1 - jpos) % 2 == 0 else field.minus_one
                for b2, c in self.tu.left_mult_letter(b_idx, letter):
                    self._emit(out, m - 1, pos, rest, b2, times(field, sign_r, c))
            cols[src] = out
        return cols

    def iso_to_generic(self, m: int) -> dict:
        """Column map identifying the wedge slice with the generic slice.

        Sends b0 (x) wedge(combo) (x) b to the generic basis expansion of
        b0 (x) Alt(combo) (x) b.  The image of Alt(combo) (x) b in the right
        factor does not depend on b0, so each is expressed once; the map is
        kept for the next call.
        """
        got = self._iso.get(m)
        if got is not None:
            return got
        ctx = self.ctx
        field = ctx.field
        fam = self.family
        x = fam.x_space(m)
        fam.basis(m)
        runs = fam._slice_runs[m]
        alts: dict[tuple, list] = {}  # combo -> Alt(combo) as (word number, raw)
        images: dict[tuple, list] = {}  # (combo, b) -> Alt(combo) (x) b over x's rows
        cols = {}
        for src, (pos, combo, b_idx) in enumerate(self.basis(m)):
            image = images.get((combo, b_idx))
            if image is None:
                alt = alts.get(combo)
                if alt is None:
                    terms = alternating_sum_terms(ctx, combo)
                    alt = alts[combo] = [
                        (ctx.word_num(word), to_raw(field, coeff)) for (word, _), coeff in terms.items()
                    ]
                vec: dict = {}
                for wnum, raw in alt:
                    accumulate(field, vec, x.coord(wnum, b_idx), raw)
                image = images[(combo, b_idx)] = x.express(vec)
            out: dict = {}
            for t, c in image:
                accumulate(field, out, _slice_slot(runs, pos, t), c)
            cols[src] = out
        self._iso[m] = cols
        return cols


def wedge_agreement(family: NComplexSlice) -> bool:
    """The wedge formulas match the generic maps under the identification;
    the group and p = N are the family's.

    The wedge maps, the generic maps and the identification are U-bimodule
    maps, so the two sides agree when they do on the generator columns
    1 (x) wedge (x) g of total degree zeta(i).  Every nonzero slice has
    zeta(i) <= max_n, so they are compared on the family restricted to
    max_n, whose contraction maps d^2 and the contracted complex read too.
    """
    fam = family.restricted(family.max_n)
    wc = WedgeComplex(fam)
    field = fam.ctx.field
    zs = zeta_degrees(fam.N, fam.bound)
    ok = True
    for i in range(1, len(zs)):
        hi, lo = zs[i], zs[i - 1]
        if fam.slice_dim(hi) == 0 or not wc.basis(hi):
            break
        gens = wc.generator_columns(hi)
        wedge_map = on_columns(wc.differential(hi, i % 2 == 1), gens)
        lhs = compose_maps(fam.contraction(i), on_columns(wc.iso_to_generic(hi), gens), field)
        rhs = compose_maps(wc.iso_to_generic(lo), wedge_map, field)
        if not maps_equal(lhs, rhs, len(wc.basis(hi))):
            ok = False
    return ok
