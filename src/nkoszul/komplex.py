"""Bimodule N-complexes over a truncated filtered algebra.

Given a presentation whose filtration oracle passes up to a bound D, the
algebra U is represented on the monomial coset basis carved out by the
oracle's reduced rows: the basis of each filtration level consists of the
(word, g) coordinates that are not pivots of the ideal rows.  Right and
left multiplications by generators and group elements are cached sparse
operators on that basis.

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
and each windowed map of the contracted complex is eliminated once.
Products by one are skipped wherever a factor is the ``field.one`` object,
as every cached one-step product stores its entries equal to one.
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
    express,
    pivot_index,
)
from .filtered import FilteredPresentation, build_phi
from .grouppres import wedge_apply
from .homogeneous import w_rows, zeta_degrees
from .scalar import DimensionMismatch, Scalar, to_raw
from .smashtensor import alternating_sum_terms


class UnsupportedStructure(ValueError):
    """The truncated algebra lacks the structure a construction needs."""


def _mul(field, a, b):
    """a * b, without a field product when a factor is the ``field.one`` object."""
    one = field.one
    if a is one:
        return b
    if b is one:
        return a
    return field.mul(a, b)


class TruncatedU:
    """U = T(V)#Gamma / I(P) on a monomial coset basis up to degree D.

    Coordinates and products are those of the oracle's descending layout,
    ``engine.layout``; a product is reduced by the oracle's eliminator.
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
        self.engine = engine
        ctx = pres.ctx
        self.ctx = ctx
        layout = engine.layout
        # basis: non-pivot coordinates, grouped by degree ascending
        pivots = engine.elim.pivot_rows
        self.basis: list[tuple[int, tuple[int, ...], int]] = []
        self.index_of_coord: dict[int, int] = {}
        self.dims_by_degree: list[int] = []
        for d in range(bound + 1):
            start = layout.start[d]
            count = 0
            for local in range(ctx.component_dim(d)):
                if start + local not in pivots:
                    word, g = ctx.word_of(local, d)
                    self.index_of_coord[start + local] = len(self.basis)
                    self.basis.append((d, word, g))
                    count += 1
            self.dims_by_degree.append(count)
        self._products: dict[tuple, list] = {}
        self._b0: Optional[list] = None
        self._b0_index: Optional[dict] = None

    @property
    def field(self):
        return self.ctx.field

    def dim_filtration(self, n: int) -> int:
        return sum(self.dims_by_degree[: n + 1])

    def _reduce_coord_vec(self, vec: dict) -> dict:
        """Reduce a vector in the oracle's layout onto the basis."""
        red = self.engine.elim.reduce(vec)
        return {self.index_of_coord[c]: v for c, v in red.items()}

    def reduce_terms(self, terms: dict) -> dict:
        """Normal form of a term dict as a sparse vector over the basis."""
        vec: dict = {}
        field = self.field
        for (word, g), c in terms.items():
            if len(word) > self.bound:
                raise DimensionMismatch("term exceeds the truncation bound")
            accumulate(field, vec, self.engine.layout.coord(word, g), to_raw(field, c))
        return self._reduce_coord_vec(vec)

    # -- cached one-step multiplications --------------------------------

    def _product(self, side: str, idx: int, letter, g: int) -> list:
        """Basis monomial idx times e_letter ⊗ g (1 ⊗ g when ``letter`` is
        None) on the given side, reduced onto the basis."""
        key = (side, idx, letter, g)
        got = self._products.get(key)
        if got is None:
            d, word, g0 = self.basis[idx]
            if letter is not None and d + 1 > self.bound:
                raise DimensionMismatch("product exceeds the truncation bound")
            layout = self.engine.layout
            mul = layout.right_mul if side == "right" else layout.left_mul
            field = self.field
            one = field.one
            prod = mul({layout.coord(word, g0): one}, letter, g, layout)
            # entries equal to one are stored as ``field.one`` itself, so
            # products with them can be skipped by identity
            got = self._products[key] = [
                (i, one if field.is_one(v) else v)
                for i, v in sorted(self._reduce_coord_vec(prod).items())
            ]
        return got

    def right_mult_letter(self, idx: int, letter: int) -> list:
        return self._product("right", idx, letter, 0)

    def left_mult_letter(self, idx: int, letter: int) -> list:
        return self._product("left", idx, letter, 0)

    def left_mult_group(self, idx: int, g: int) -> list:
        return self._product("left", idx, None, g)

    def right_mult_group(self, idx: int, g: int) -> list:
        return self._product("right", idx, None, g)

    def apply_linear(self, vec: dict, step) -> dict:
        field = self.field
        out: dict = {}
        for idx, c in vec.items():
            for idx2, c2 in step(idx):
                accumulate(field, out, idx2, _mul(field, c, c2))
        return out

    def multiply_basis(self, left_idx: int, right_idx: int) -> dict:
        """Product of two basis monomials as a sparse basis vector."""
        d1, _, _ = self.basis[left_idx]
        d2, word2, g2 = self.basis[right_idx]
        if d1 + d2 > self.bound:
            raise DimensionMismatch("product exceeds the truncation bound")
        vec = {left_idx: self.field.one}
        for letter in word2:
            vec = self.apply_linear(vec, lambda i, l=letter: self.right_mult_letter(i, l))
        if g2 != 0:
            vec = self.apply_linear(vec, lambda i: self.right_mult_group(i, g2))
        return vec

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
        order = self.ctx.order
        by_word: dict[tuple[int, tuple[int, ...]], list] = {}
        for idx, (d, word, g) in enumerate(self.basis):
            by_word.setdefault((d, word), []).append((g, idx))
        b0 = []
        decomposition = {}
        for (d, word), entries in by_word.items():
            if len(entries) != order:
                raise UnsupportedStructure(
                    "coset monomials are not orbit-pure over the group; "
                    "the collapsed tensor representation is unavailable"
                )
        for idx, (d, word, g) in enumerate(self.basis):
            if g == 0:
                b0.append(idx)
        b0_pos = {idx: pos for pos, idx in enumerate(b0)}
        for idx, (d, word, g) in enumerate(self.basis):
            e_idx = self.index_of_coord[self.engine.layout.coord(word, 0)]
            decomposition[idx] = (b0_pos[e_idx], g)
        self._b0 = b0
        self._b0_index = decomposition
        return b0, decomposition


# -- the right tensor factor W_n (x)_K U ------------------------------------


class _XSpace:
    """W_n (x)_K U^{<= D-n} embedded in V^{(x)n} (x) U.

    Coordinates are pairs (word number, U-basis index) ordered with the
    U-degree descending first, so a row's pivot block is its filtration
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
        # coordinate order: U-degree descending, then word number, then index
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

    def _push_left(self, u_vec: dict, x_combo: list, n_low: int, out: dict, scale) -> None:
        """Accumulate sum u (x) x with u expanded over b0 · Gamma."""
        field = self.ctx.field
        x_low = self.x_space(n_low)
        self.basis(n_low)
        index = self._slice_index[n_low]
        act_cache: dict[tuple[int, int], list] = self._act_cache.setdefault(n_low, {})
        for b_idx, cu in u_vec.items():
            pos, g = self.b_decomp[b_idx]
            for t, cx in x_combo:
                if g == 0:
                    targets = [(t, field.one)]
                else:
                    key = (g, t)
                    targets = act_cache.get(key)
                    if targets is None:
                        targets = x_low.group_action(g, t)
                        act_cache[key] = targets
                for t2, c2 in targets:
                    term = _mul(field, scale, _mul(field, cu, _mul(field, cx, c2)))
                    _emit_to_slice(field, out, index, (pos, t2), term)

    def d_left(self, n: int) -> dict:
        """Columns of d_l : slice n -> slice n-1."""
        if n in self._dl:
            return self._dl[n]
        if n < 1:
            raise ValueError("d_l needs a positive tensor degree")
        field = self.ctx.field
        x_hi = self.x_space(n)
        x_lo = self.x_space(n - 1)
        self.basis(n - 1)
        splits = [x_hi.first_letter_split(t, x_lo) for t in range(x_hi.dim)]
        cols: dict = {}
        for src, (pos, t) in enumerate(self.basis(n)):
            b0_idx = self.b0[pos]
            out: dict = {}
            for j, combo in splits[t].items():
                u_vec = dict(self.tu.right_mult_letter(b0_idx, j))
                self._push_left(u_vec, combo, n - 1, out, field.one)
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

    def _phi_K_values(self) -> list:
        """phi(r_t) as lists of (group element, raw coefficient).

        phi is concentrated in degree zero, so its coordinates are group slots.
        """
        return [list(row.items()) for row in self.phi.rows]

    def _w_split(self, n: int, r_first: bool) -> list:
        """W_n rows over products of R rows r_t and W_{n-N} rows w_kappa.

        Lists of ((t, kappa), coeff) over r_t · w_kappa when ``r_first``,
        else of ((kappa, t), coeff) over w_kappa · r_t.
        """
        ctx = self.ctx
        N = self.N
        r_rows = self._alg.R.basis_sparse()
        low = w_rows(self._alg, n - N, self._alg.w_cache)
        if r_first:
            tags = [(t, k) for t in range(len(r_rows)) for k in range(len(low))]
            gens = [ctx.row_product(r_rows[t], low[k], n - N) for t, k in tags]
        else:
            tags = [(k, t) for k in range(len(low)) for t in range(len(r_rows))]
            gens = [ctx.row_product(low[k], r_rows[t], N) for k, t in tags]
        solver = TaggedRows(ctx.field, gens, ctx.component_dim(n))
        return [[(tags[i], c) for i, c in solver.solve(w)] for w in w_rows(self._alg, n, self._alg.w_cache)]

    def phi_left(self, n: int) -> dict:
        """Columns of 1 (x) phi^{1,N} (x) 1 : slice n -> slice n-N."""
        field = self.ctx.field
        ctx = self.ctx
        x_hi = self.x_space(n)
        x_lo = self.x_space(n - self.N)
        self.basis(n - self.N)
        index = self._slice_index[n - self.N]
        phi_vals = self._phi_K_values()
        left_split = self._w_split(n, r_first=True)
        w_low = w_rows(self._alg, n - self.N, self._alg.w_cache)
        low_index = pivot_index(w_low)

        def act_on_w(g: int, kappa: int) -> list:
            """g · w_kappa over the low W rows."""
            img = ctx.left_action_sparse(g, w_low[kappa], n - self.N)
            return express(field, w_low, low_index, img)

        cols: dict = {}
        for src, (pos, t) in enumerate(self.basis(n)):
            out: dict = {}
            for (gt, b_idx), cg in x_hi.generator_expression(t):
                for (s, kappa), c2 in left_split[gt]:
                    for g, c3 in phi_vals[s]:
                        scale = field.mul(cg, field.mul(c2, c3))
                        for kappa2, c4 in act_on_w(g, kappa):
                            vec = x_lo.embed_generator(kappa2, b_idx)
                            for t2, c5 in x_lo.express(vec):
                                term = field.mul(scale, field.mul(c4, c5))
                                _emit_to_slice(field, out, index, (pos, t2), term)
            cols[src] = out
        return cols

    def phi_right(self, n: int) -> dict:
        """Columns of 1 (x) phi^{n-N+1,n} (x) 1 : slice n -> slice n-N."""
        field = self.ctx.field
        x_hi = self.x_space(n)
        x_lo = self.x_space(n - self.N)
        self.basis(n - self.N)
        index = self._slice_index[n - self.N]
        phi_vals = self._phi_K_values()
        right_split = self._w_split(n, r_first=False)
        cols: dict = {}
        for src, (pos, t) in enumerate(self.basis(n)):
            out: dict = {}
            for (gt, b_idx), cg in x_hi.generator_expression(t):
                for (kappa, s), c2 in right_split[gt]:
                    for g, c3 in phi_vals[s]:
                        for b2, c4 in self.tu.left_mult_group(b_idx, g):
                            vec = x_lo.embed_generator(kappa, b2)
                            scale = field.mul(cg, field.mul(c2, c3))
                            for t2, c5 in x_lo.express(vec):
                                term = field.mul(scale, field.mul(c4, c5))
                                _emit_to_slice(field, out, index, (pos, t2), term)
            cols[src] = out
        return cols

    # -- assembled maps ---------------------------------------------------

    def d_twisted(self, n: int, q: Scalar) -> dict:
        """d = d_l - q^{n-1} d_r at slice n."""
        field = self.ctx.field
        qn = (q ** (n - 1)).raw
        return add_maps(field, self.d_left(n), self.d_right(n), field.neg(qn), self.slice_dim(n))

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


def compose_maps(outer: dict, inner: dict, field) -> dict:
    """Columns of outer ∘ inner for sparse column maps."""
    cols = {}
    for src, vec in inner.items():
        out: dict = {}
        for mid, c in vec.items():
            add_scaled(field, out, outer.get(mid, {}), c)
        cols[src] = out
    return cols


def map_difference(a: dict, b: dict, field, n_cols: int) -> dict:
    return add_maps(field, a, b, field.minus_one, n_cols)


def map_is_zero(cols: dict) -> bool:
    return all(not vec for vec in cols.values())


def maps_equal(a: dict, b: dict, field, n_cols: int) -> bool:
    return map_is_zero(map_difference(a, b, field, n_cols))


def check_dN_zero(slice_family: NComplexSlice, q: Scalar) -> list[tuple[int, bool]]:
    """d^N = 0 on every slice where N successive maps are defined."""
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
        comp = slice_family.d_twisted(n, q)
        for step in range(1, N):
            comp = compose_maps(slice_family.d_twisted(n - step, q), comp, field)
        results.append((n, map_is_zero(comp)))
    return results


def factorization_identity_holds(slice_family: NComplexSlice, q: Scalar, n: int) -> bool:
    """Product of the twisted maps vs d_l^N - d_r^N vs the phi correction."""
    field = slice_family.ctx.field
    N = slice_family.N
    comp = slice_family.d_twisted(n, q)
    for step in range(1, N):
        comp = compose_maps(slice_family.d_twisted(n - step, q), comp, field)
    dl = slice_family.d_left(n)
    dr = slice_family.d_right(n)
    dl_pow = dl
    dr_pow = dr
    for step in range(1, N):
        dl_pow = compose_maps(slice_family.d_left(n - step), dl_pow, field)
        dr_pow = compose_maps(slice_family.d_right(n - step), dr_pow, field)
    ncols = slice_family.slice_dim(n)
    lhs_eq = maps_equal(comp, map_difference(dl_pow, dr_pow, field, ncols), field, ncols)
    phi_diff = map_difference(
        slice_family.phi_left(n), slice_family.phi_right(n), field, ncols
    )
    rhs_eq = maps_equal(map_difference(dl_pow, dr_pow, field, ncols), phi_diff, field, ncols)
    return lhs_eq and rhs_eq


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
    # homological positions i with zeta(i) <= bound and nonzero slices
    zs = zeta_degrees(N, fam.bound)
    maps = {}
    for i in range(1, len(zs)):
        hi = zs[i]
        if fam.slice_dim(hi) == 0:
            maps[i] = {}
            continue
        maps[i] = _contraction_map(fam, i, zs, field)
    mu = fam.mu_matrix()

    def restricted_rank(cols: dict, src_n: int) -> int:
        elim = SparseEliminator(field)
        basis = fam.basis(src_n)
        for src, vec in cols.items():
            if fam.total_degree(src_n, basis[src]) <= window:
                elim.add(dict(vec))
        return elim.rank

    ranks: dict[int, int] = {}

    def rank_out_of(i: int) -> int:
        """Windowed rank of the map out of position i, eliminated once."""
        if i >= len(zs) or fam.slice_dim(zs[i]) == 0:
            return 0
        if i not in ranks:
            ranks[i] = restricted_rank(maps[i], zs[i])
        return ranks[i]

    def windowed_dim(n: int) -> int:
        basis = fam.basis(n)
        return sum(1 for key in basis if fam.total_degree(n, key) <= window)

    positions = []
    comp_zero = True
    exact_all = True
    # position 0: exactness of (U (x) U) -> U at the window
    rank_mu = restricted_rank(mu, 0)
    rank1 = rank_out_of(1)
    dim0 = windowed_dim(0)
    exact0 = rank_mu + rank1 == dim0
    onto = rank_mu == fam.tu.dim_filtration(window)
    positions.append(
        {
            "i": 0,
            "zeta": 0,
            "dim_total": fam.slice_dim(0),
            "dim_window": dim0,
            "rank_in": rank1,
            "rank_out": rank_mu,
            "exact": exact0 and onto,
        }
    )
    exact_all = exact_all and exact0 and onto
    for i in range(1, len(zs)):
        if fam.slice_dim(zs[i]) == 0:
            break
        rank_out = rank_out_of(i)
        rank_in = rank_out_of(i + 1)
        dim_i = windowed_dim(zs[i])
        ok = rank_out + rank_in == dim_i
        positions.append(
            {
                "i": i,
                "zeta": zs[i],
                "dim_total": fam.slice_dim(zs[i]),
                "dim_window": dim_i,
                "rank_in": rank_in,
                "rank_out": rank_out,
                "exact": ok,
            }
        )
        exact_all = exact_all and ok
        # composition zero of consecutive maps on the full slices
        if i + 1 < len(zs) and fam.slice_dim(zs[i + 1]) > 0:
            comp = compose_maps(maps[i], maps[i + 1], field)
            if not map_is_zero(comp):
                comp_zero = False
    comp_mu = compose_maps(mu, maps[1], field) if len(zs) > 1 else {}
    if not map_is_zero(comp_mu):
        comp_zero = False
    return ContractionReport(
        bound=fam.bound,
        window=window,
        positions=positions,
        composition_zero=comp_zero,
        exact_in_window=exact_all,
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


def _contraction_map(fam: NComplexSlice, i: int, zs: list, field) -> dict:
    """Map out of homological position i: d when i is odd, d^{N-1} when even."""
    hi = zs[i]
    ncols = fam.slice_dim(hi)
    if i % 2 == 1:
        return map_difference(fam.d_left(hi), fam.d_right(hi), field, ncols)
    return alternating_step_sum(fam.d_left, fam.d_right, hi, fam.N - 1, field)


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
                expansion = wedge_apply(self.ctx.group.matrices[g], combo)
                for combo2, cw in expansion.items():
                    raw_cw = to_raw(field, cw)
                    for b3, c3 in self.tu.left_mult_group(b_idx, g):
                        self._emit(
                            out,
                            m_low,
                            pos2,
                            combo2,
                            b3,
                            _mul(field, coeff, _mul(field, raw_cw, c3)),
                        )

    def differential(self, m: int, parity: str) -> dict:
        """The explicit wedge formula at wedge size m.

        parity "odd" gives the single-step alternating map (the contraction
        map out of odd homological positions); parity "even" gives the
        (p-1)-fold sum used out of even positions.
        """
        if parity == "odd":
            return self._odd_map(m)
        if parity == "even":
            return self._even_map(m)
        raise ValueError("parity must be 'odd' or 'even'")

    def _odd_map(self, m: int) -> dict:
        """The left step minus the right step."""
        field = self.ctx.field
        return map_difference(self._left_step(m), self._right_step(m), field, len(self.basis(m)))

    def _even_map(self, m: int) -> dict:
        """Sum over a + b = p - 1 of a left-steps and b right-steps."""
        return alternating_step_sum(self._left_step, self._right_step, m, self.family.N - 1, self.ctx.field)

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


def wedge_differentials(family: NComplexSlice, parity: str, m: int) -> dict:
    """Explicit wedge-formula matrix at wedge size m for the given parity,
    over the family's group with p = N."""
    wc = WedgeComplex(family)
    return wc.differential(m, parity)


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
        generic = _contraction_map(family, i, zs, field)
        iso_hi = wc.iso_to_generic(hi)
        iso_lo = wc.iso_to_generic(lo)
        lhs = compose_maps(generic, iso_hi, field)
        rhs = compose_maps(iso_lo, wedge_map, field)
        if not maps_equal(lhs, rhs, field, len(wc.basis(hi))):
            ok = False
    return ok
