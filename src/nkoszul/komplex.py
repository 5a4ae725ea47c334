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
right translates w·g span W_n, since w·g (x) b = w (x) g·b; so it is
tagged by about dim W_n / |Gamma| rows of W_n rather than all of them.  The
left U is collapsed through a right-free monomial basis, which requires
the pivot words of the ideal rows to be orbit-pure over the group.  That
holds automatically when the relations extend field-level data (all the
presentations built by this package); other inputs raise a clear error.

The differentials d_l and d_r, the q-twisted maps d_l - q^{n-1} d_r, the
degree-lowering correction maps induced by phi, the contracted complex
alternating d and d^{N-1}, and the explicit wedge-basis formulas for
antisymmetrizer presentations are all provided as sparse column maps, with
rank checks restricted to the safe filtration window <= D - N where
truncation cannot create spurious homology.  Each map is built once:
d^{N-1}, the sum of d_l^a d_r^b over a + b = N - 1, comes from the
recurrence T_k(l) = T_{k-1}(l-1) ∘ d_r(l) + d_l^k(l) (``alternating_step_sum``),
and each windowed map of the contracted complex is ranked once, by
echelon inserts (``elim.rank``).  The generic and wedge-basis complexes
share one assembly of their maps out of each position
(``contraction_map``); the generic ones are built once per slice family
(``NComplexSlice.contraction``), so the contracted complex and the wedge
agreement read the same maps.  For N = 2 the twisted maps are the
contraction maps, and each composite of two of them is formed once per
family (``NComplexSlice.composite_zero``), for d^2 = 0 and the contracted
complex alike.  phi's left and right lifts share one construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .elim import (
    SparseEliminator,
    TaggedRows,
    accumulate,
    add_maps,
    add_scaled,
    compose_maps,
    express,
    maps_equal,
    negated,
    pivot_index,
    rank,
)
from .filtered import FilteredPresentation, build_phi
from .grouppres import wedge
from .homogeneous import w_rows, zeta, zeta_degrees
from .scalar import DimensionMismatch, Scalar, to_raw
from .smashtensor import alternating_sum_terms


class UnsupportedStructure(ValueError):
    """The truncated algebra lacks the structure a construction needs."""


def _mul(field, a, b):
    """a * b, without a field product when a factor is a sign object."""
    one, minus_one = field.one, field.minus_one
    if a is one:
        return b
    if b is one:
        return a
    if a is minus_one:
        return negated(field, b)
    if b is minus_one:
        return negated(field, a)
    return field.mul(a, b)


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
        self._b0: Optional[list] = None
        self._b0_index: Optional[dict] = None

    @property
    def field(self):
        return self.ctx.field

    def dim_filtration(self, n: int) -> int:
        return sum(self.dims_by_degree[: n + 1])

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
        if self._b0 is not None:
            return self._b0, self._b0_index
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
        self._b0 = b0
        self._b0_index = {
            idx: (b0_pos[by_word[word][0]], g) for idx, (_, word, g) in enumerate(self.basis)
        }
        return b0, self._b0_index


# -- the right tensor factor W_n (x)_K U ------------------------------------


class _XSpace:
    """W_n (x)_K U^{<= D-n} embedded in V^{(x)n} (x) U.

    Coordinates are pairs (word number, U-basis index) ordered with the
    highest U-degree first, so a row's pivot block is its filtration
    level; the canonical rows are nested across levels.
    """

    def __init__(self, tu: TruncatedU, n: int, w_row_list: list):
        self.tu = tu
        self.n = n
        ctx = tu.ctx
        field = tu.field
        self.w_rows = w_row_list
        vn = ctx.dimV**n
        max_u = tu.bound - n
        # coordinate order: highest U-degree first, then word number, then index
        flat = []
        for b_idx, (d, _, _) in enumerate(tu.basis):
            if d <= max_u:
                flat.append(b_idx)
        flat.sort(key=lambda b: (-tu.basis[b][0], b))
        self.coord_rank: dict[tuple[int, int], int] = {}
        self.coord_list: list[tuple[int, int]] = []
        for b in flat:
            for w in range(vn):
                self.coord_rank[(w, b)] = len(self.coord_list)
                self.coord_list.append((w, b))
        self._gen_cache: dict[tuple[int, int], dict] = {}
        # w·g (x) b = w (x) g·b with g·b in U of the same degree, so rows
        # whose right K-translates span W_n give all of W_n (x)_K U
        right = SparseEliminator(field)
        gens = []
        for t, row in enumerate(w_row_list):
            if not right.contains(row):
                gens.append(t)
                right.add_all(ctx.right_action_sparse(row, g) for g in range(ctx.order))
        self.tags = [
            (t, b_idx) for t in gens for b_idx, (d, _, _) in enumerate(tu.basis) if d <= max_u
        ]
        self._solver = TaggedRows(
            field, [self._embed(t, b) for t, b in self.tags], len(self.coord_list)
        )
        self.rows = self._solver.span_rows()
        self.pivots = [min(r) for r in self.rows]
        self._index = pivot_index(self.rows)
        self.level = [self.tu.basis[self.coord_list[p][1]][0] for p in self.pivots]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def express(self, vec: dict) -> list:
        """Coefficients of a vector over the canonical rows."""
        return express(self.tu.field, self.rows, self._index, vec)

    def generator_expression(self, row_idx: int) -> list:
        """The canonical row as a combination of generators w_t (x) b."""
        return [(self.tags[i], c) for i, c in self._solver.solve(self.rows[row_idx])]

    def embed_generator(self, t: int, b_idx: int) -> dict:
        """Embedded vector of w_t (x) b as coordinates (word, U-index)."""
        key = (t, b_idx)
        got = self._gen_cache.get(key)
        if got is None:
            got = self._gen_cache[key] = self._embed(t, b_idx)
        return got

    def _embed(self, t: int, b_idx: int) -> dict:
        tu = self.tu
        ctx = tu.ctx
        field = tu.field
        order = ctx.order
        vec: dict = {}
        for coord, raw in self.w_rows[t].items():
            g = coord % order
            wnum = coord // order
            entries = [(b_idx, field.one)] if g == 0 else tu.left_mult_group(b_idx, g)
            for b2, c in entries:
                accumulate(field, vec, self.coord_rank[(wnum, b2)], _mul(field, raw, c))
        return vec

    def group_action(self, g: int, row_idx: int) -> list:
        """g · row expressed over the canonical rows (diagonal action)."""
        tu = self.tu
        ctx = tu.ctx
        field = tu.field
        vec: dict = {}
        for key, raw in self.rows[row_idx].items():
            wnum, b = self.coord_list[key]
            word = ctx.num_word(wnum, self.n)
            for tw, c in ctx.apply_group_to_word(g, word):
                wnum2 = ctx.word_num(tw)
                for b2, c2 in tu.left_mult_group(b, g):
                    k = self.coord_rank[(wnum2, b2)]
                    accumulate(field, vec, k, _mul(field, raw, _mul(field, c, c2)))
        return self.express(vec)

    def first_letter_split(self, row_idx: int, target: "_XSpace") -> dict:
        """Row as sum over first letters j of vectors in the lower space."""
        tu = self.tu
        ctx = tu.ctx
        vlow = ctx.dimV ** (self.n - 1)
        blocks: dict[int, dict] = {}
        for key, raw in self.rows[row_idx].items():
            wnum, b = self.coord_list[key]
            j, rest = divmod(wnum, vlow)
            blocks.setdefault(j, {})[target.coord_rank[(rest, b)]] = raw
        return {j: target.express(vec) for j, vec in sorted(blocks.items())}

    def last_letter_image(self, row_idx: int, target: "_XSpace") -> list:
        """Image under moving the last letter into U, over the lower rows."""
        tu = self.tu
        ctx = tu.ctx
        field = tu.field
        vec: dict = {}
        for key, raw in self.rows[row_idx].items():
            wnum, b = self.coord_list[key]
            rest, ell = divmod(wnum, ctx.dimV)
            for b2, c in tu.left_mult_letter(b, ell):
                accumulate(field, vec, target.coord_rank[(rest, b2)], _mul(field, raw, c))
        return target.express(vec)


# -- the complex family -------------------------------------------------


def _emit_to_slice(field, out: dict, index: dict, key, value) -> None:
    """Accumulate ``value`` into column ``out`` at the slice position of ``key``.

    Every map between truncated slices lands inside the bound, so a key
    without a position is an internal error.
    """
    skey = index.get(key)
    if skey is None:
        raise RuntimeError("image left the truncated slice")
    accumulate(field, out, skey, value)


class NComplexSlice:
    """Truncated spaces U (x)_K W_n (x)_K U with the maps between them.

    ``basis(n)`` lists pairs (left monomial index, right tensor row index)
    with total filtration degree within the bound.  Maps are sparse column
    dictionaries; ``d_left``/``d_right`` are the two one-step maps, and the
    q-twisted differential of the N-complex at slice n is
    d_left - q^{n-1} d_right.
    """

    def __init__(self, pres: FilteredPresentation, bound: int):
        self.pres = pres
        self.tu = TruncatedU(pres, bound)
        self.bound = bound
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
        alg = pres.homogenization()
        self._x: dict[int, _XSpace] = {}
        self._slice_basis: dict[int, list] = {}
        self._slice_index: dict[int, dict] = {}
        self._dl: dict[int, dict] = {}
        self._dr: dict[int, dict] = {}
        self._contraction: dict[int, dict] = {}
        self._composite_zero: dict[int, bool] = {}
        self._alg = alg
        self._act_cache: dict = {}
        self.max_n = self._max_nonzero_w()

    def _max_nonzero_w(self) -> int:
        for n in range(self.bound, -1, -1):
            if w_rows(self._alg, n, self._alg.w_cache):
                return n
        return 0

    def x_space(self, n: int) -> _XSpace:
        if n not in self._x:
            self._x[n] = _XSpace(self.tu, n, w_rows(self._alg, n, self._alg.w_cache))
        return self._x[n]

    def basis(self, n: int) -> list:
        if n not in self._slice_basis:
            x = self.x_space(n)
            out = []
            fits: dict[int, list] = {}  # room left for the right factor -> its rows t
            for pos, b0_idx in enumerate(self.b0):
                room = self.bound - n - self.tu.basis[b0_idx][0]
                if room not in fits:
                    fits[room] = [t for t in range(x.dim) if x.level[t] <= room]
                out.extend((pos, t) for t in fits[room])
            self._slice_basis[n] = out
            self._slice_index[n] = {key: i for i, key in enumerate(out)}
        return self._slice_basis[n]

    def slice_dim(self, n: int) -> int:
        return len(self.basis(n))

    def total_degree(self, n: int, key: tuple[int, int]) -> int:
        pos, t = key
        return self.tu.basis[self.b0[pos]][0] + n + self.x_space(n).level[t]

    def d_left(self, n: int) -> dict:
        """Columns of d_l : slice n -> slice n-1.

        The first letter j of a row of W_n moves into the left factor: each
        b0 · v_j is expanded over b0 · Gamma, and u = b0' · g with g != 1
        pushes g through the lower rows (``group_action``, cached per slice).
        """
        if n in self._dl:
            return self._dl[n]
        if n < 1:
            raise ValueError("d_l needs a positive tensor degree")
        field = self.ctx.field
        one = field.one
        add, is_zero = field.add, field.is_zero
        x_hi = self.x_space(n)
        x_lo = self.x_space(n - 1)
        self.basis(n - 1)
        index = self._slice_index[n - 1]
        act_cache: dict[tuple[int, int], list] = self._act_cache.setdefault(n - 1, {})
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
                            value = _mul(field, cu, _mul(field, cx, c2))
                            key = index.get((pos2, t2))
                            if key is None:
                                raise RuntimeError("image left the truncated slice")
                            cur = out.get(key)
                            if cur is None:
                                out[key] = value
                            elif is_zero(nv := add(cur, value)):
                                del out[key]
                            else:
                                out[key] = nv
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
        index = self._slice_index[n - 1]
        nus = [x_hi.last_letter_image(t, x_lo) for t in range(x_hi.dim)]
        cols: dict = {}
        for src, (pos, t) in enumerate(self.basis(n)):
            out: dict = {}
            for t2, c in nus[t]:
                _emit_to_slice(field, out, index, (pos, t2), c)
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
        index = self._slice_index[n - N]
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

        def moved(g: int, kappa: int, b_idx: int) -> list:
            """g applied to w_kappa (x) b as (W_{n-N} row, U index, coeff)."""
            if left:
                img = ctx.left_action_sparse(g, low[kappa], n - N)
                return [(k2, b_idx, c) for k2, c in express(field, low, low_index, img)]
            return [(kappa, b2, c) for b2, c in self.tu.left_mult_group(b_idx, g)]

        cols: dict = {}
        for src, (pos, t) in enumerate(self.basis(n)):
            out: dict = {}
            for (gt, b_idx), cg in x_hi.generator_expression(t):
                for (s, kappa), c2 in split[gt]:
                    for g, c3 in phi0[s].items():
                        scale = field.mul(cg, field.mul(c2, c3))
                        for kappa2, b2, c4 in moved(g, kappa, b_idx):
                            for t2, c5 in x_lo.express(x_lo.embed_generator(kappa2, b2)):
                                term = field.mul(scale, field.mul(c4, c5))
                                _emit_to_slice(field, out, index, (pos, t2), term)
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
        """Whether contraction(i) ∘ contraction(i+1) vanishes, for i >= 1;
        the composite is formed once per slice family and only its verdict
        is kept."""
        got = self._composite_zero.get(i)
        if got is None:
            got = map_is_zero(compose_maps(self.contraction(i), self.contraction(i + 1), self.ctx.field))
            self._composite_zero[i] = got
        return got

    def mu_matrix(self) -> dict:
        """Multiplication (U (x)_K U)_{<= D} -> U^{<= D} on slice 0."""
        cols = {}
        for src, (pos, t) in enumerate(self.basis(0)):
            b0_idx = self.b0[pos]
            x0 = self.x_space(0)
            out: dict = {}
            field = self.ctx.field
            for key, raw in x0.rows[t].items():
                _, b = x0.coord_list[key]
                add_scaled(field, out, self.tu.multiply_basis(b0_idx, b), raw)
            cols[src] = out
        return cols


# -- map algebra --------------------------------------------------------


def map_difference(a: dict, b: dict, field, n_cols: int) -> dict:
    return add_maps(field, a, b, field.minus_one, n_cols)


def map_is_zero(cols: dict) -> bool:
    return all(not vec for vec in cols.values())


def _power(step, n: int, N: int, field) -> dict:
    """Columns of step(n-N+1) ∘ ... ∘ step(n), the N-fold composition out of n."""
    comp = step(n)
    for k in range(1, N):
        comp = compose_maps(step(n - k), comp, field)
    return comp


def check_dN_zero(slice_family: NComplexSlice, q: Scalar) -> list[tuple[int, bool]]:
    """d^N = 0 on every slice where N successive maps are defined.

    For N = 2 the twisted maps are the contraction maps, so d^2 out of n
    is the family's composite out of contraction position n - 1, the one
    the contracted complex reads too.
    """
    N = slice_family.N
    field = slice_family.ctx.field
    if (q**N) != Scalar.one(q.conductor):
        raise ValueError("q must be an N-th root of unity")
    for m in range(1, N):
        if (q**m) == Scalar.one(q.conductor):
            raise ValueError("q must be a primitive N-th root of unity")
    results = []
    top = slice_family.max_n
    if top < N:
        raise ValueError("bound too small: no slice admits N successive maps")
    for n in range(N, top + 1):
        if slice_family.slice_dim(n) == 0:
            continue
        if N == 2:
            results.append((n, slice_family.composite_zero(n - 1)))
        else:
            twisted = _power(lambda m: slice_family.d_twisted(m, q), n, N, field)
            results.append((n, map_is_zero(twisted)))
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
    elsewhere.
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
    maps = [fam.mu_matrix()] + [fam.contraction(i) for i in range(1, top + 1)]
    # composition zero of consecutive maps on the full slices; the
    # composites of the contraction maps are the family's, shared with d^2
    comp_zero = top == 0 or (
        map_is_zero(compose_maps(maps[0], maps[1], field))
        and all(fam.composite_zero(i) for i in range(1, top))
    )

    inside = [[fam.total_degree(n, key) <= window for key in fam.basis(n)] for n in zs[: top + 1]]
    dims = [sum(flags) for flags in inside]
    u_window = fam.tu.dim_filtration(window)
    columns = [[vec for src, vec in cols.items() if flags[src]] for cols, flags in zip(maps, inside)]

    # the map out of position top + 1 is zero
    ranks = [rank(field, cols) for cols in columns] + [0]

    positions = []
    for i in range(top + 1):
        ok = ranks[i] + ranks[i + 1] == dims[i]
        if i == 0:
            # onto U^{<= window} as well
            ok = ok and ranks[0] == u_window
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
    """

    def __init__(self, family: NComplexSlice):
        self.family = family
        self.tu = family.tu
        self.ctx = family.ctx
        self._basis: dict[int, list] = {}
        self._index: dict[int, dict] = {}
        self._iso: dict[int, dict] = {}

    def basis(self, m: int) -> list:
        if m not in self._basis:
            out = []
            dimV = self.ctx.dimV
            for pos, b0_idx in enumerate(self.family.b0):
                # the U basis ascends in degree, so the right factors of
                # degree at most ``top`` are a prefix of it
                top = self.family.bound - self.tu.basis[b0_idx][0] - m
                if top < 0:
                    continue
                right = range(self.tu.dim_filtration(top))
                for combo in combinations(range(dimV), m):
                    out.extend((pos, combo, b_idx) for b_idx in right)
            self._basis[m] = out
            self._index[m] = {key: i for i, key in enumerate(out)}
        return self._basis[m]

    def _emit(self, out: dict, m_low: int, pos: int, combo: tuple, b_idx: int, coeff) -> None:
        _emit_to_slice(self.ctx.field, out, self._index[m_low], (pos, combo, b_idx), coeff)

    def _left_term(self, out: dict, m_low: int, b0_idx: int, letter: int, combo: tuple, b_idx: int, scale) -> None:
        """(b0 · v_letter) (x) combo (x) b, normalized over b0 · Gamma."""
        field = self.ctx.field
        for b2, c in self.tu.right_mult_letter(b0_idx, letter):
            pos2, g = self.family.b_decomp[b2]
            coeff = _mul(field, scale, c)
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
                            _mul(field, coeff, _mul(field, cw, c3)),
                        )

    def differential(self, m: int, parity: str) -> dict:
        """The explicit wedge formula at wedge size m.

        parity "odd" gives the single-step alternating map (the contraction
        map out of odd homological positions); parity "even" gives the
        (p-1)-fold sum used out of even positions.
        """
        if parity not in ("odd", "even"):
            raise ValueError("parity must be 'odd' or 'even'")
        return contraction_map(
            self._left_step, self._right_step, m, parity == "odd", self.family.N, self.ctx.field
        )

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
                    self._emit(out, m - 1, pos, rest, b2, _mul(field, sign_r, c))
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
        index = fam._slice_index[m]
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
                    accumulate(field, vec, x.coord_rank[(wnum, b_idx)], raw)
                image = images[(combo, b_idx)] = x.express(vec)
            out: dict = {}
            for t, c in image:
                _emit_to_slice(field, out, index, (pos, t), c)
            cols[src] = out
        self._iso[m] = cols
        return cols


def wedge_agreement(family: NComplexSlice) -> bool:
    """The wedge formulas match the generic maps under the identification;
    the group and p = N are the family's."""
    wc = WedgeComplex(family)
    field = family.ctx.field
    N = family.N
    zs = zeta_degrees(N, family.bound)
    ok = True
    for i in range(1, len(zs)):
        hi, lo = zs[i], zs[i - 1]
        if family.slice_dim(hi) == 0 or not wc.basis(hi):
            break
        parity = "odd" if i % 2 == 1 else "even"
        wedge_map = wc.differential(hi, parity)
        generic = family.contraction(i)
        iso_hi = wc.iso_to_generic(hi)
        iso_lo = wc.iso_to_generic(lo)
        lhs = compose_maps(generic, iso_hi, field)
        rhs = compose_maps(iso_lo, wedge_map, field)
        if not maps_equal(lhs, rhs, len(wc.basis(hi))):
            ok = False
    return ok
