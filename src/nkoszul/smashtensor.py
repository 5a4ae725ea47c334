"""Finite groups acting on V and the smash tensor algebra T(V)#Gamma.

A finite group Gamma < GL(V) with group algebra K = k[Gamma] turns the
tensor algebra over K into the smash product T(V)#Gamma, whose degree-n
component has canonical k-basis (word, g) with word in {1..dimV}^n and g a
group element; the product rule is (v (x) g)(w (x) h) = v (x) g(w) (x) gh.
This module provides that algebra's graded components, sub-bimodules in
canonical subspace form, products EF, and the placements of R and
intersections W_n that drive every homological check downstream.

Basis order is fixed once and for all: words lexicographic with slot 1 most
significant, group index innermost.  All outputs are canonical, so reports
are reproducible bit for bit.

The filtration F^n = (+)_{i<=n} V^{⊗i}⊗K has one layout owner,
``Filtration``: block starts, coordinates, and the letter and group
multiplications of rows of F^n.  Its blocks run top degree first, as the
paper reads a filtered element, so a canonical row leads in its top
degree: P, PE + EP, the filtration oracle's J^n and the values of phi all
share it, F^level is cut off by pivot, and a degree-n component is the
leading block of F^n.  One class holds every sub-bimodule:
``FilteredSubspace`` is a sub-bimodule of F^n in that layout, with one
closure, one closedness check and one equality, and ``Subbimodule`` is its
one-degree case, whose rows lie in the leading block; R, the placements
and W_n are such rows.  The term-dict product ``smash_mul_terms`` is the
reference the sparse row operations are tested against.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

from .cyclo import get_field
from .elim import SparseEliminator, TaggedRows, accumulate, add_scaled, compose_maps, generators, times
from .scalar import DimensionMismatch, MatrixS, Scalar, Subspace, to_raw

Terms = dict  # {(word tuple, g index): Scalar}


def terms_to_json(terms: Terms) -> list:
    """Terms as JSON objects in sorted order, with 1-based letters."""
    return [
        {"coeff": str(c), "word": [i + 1 for i in word], "g": g}
        for (word, g), c in sorted(terms.items())
    ]


class GroupData:
    """A finite matrix group: elements, Cayley table, inverses, classes.

    Element 0 is the identity.  ``maps[i]`` is the action of element i on V
    as a sparse column map over ``field``: ``maps[i][l]`` is rho(i) e_l as a
    sparse raw vector.  ``generators``
    records the indices used to build the group; the identity-only group
    has no generators.
    """

    def __init__(self, maps, mult_table, inverses, conj_classes, generators, field):
        self.maps: tuple[dict, ...] = tuple(maps)
        self.field = field
        self.mult_table: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in mult_table)
        self.inverses: tuple[int, ...] = tuple(inverses)
        self.conj_classes: tuple[tuple[int, ...], ...] = tuple(tuple(c) for c in conj_classes)
        self.generators: tuple[int, ...] = tuple(generators)

    @property
    def order(self) -> int:
        return len(self.maps)

    @property
    def dimV(self) -> int:
        return len(self.maps[0])

    @property
    def conductor(self) -> int:
        return self.field.conductor

    def mult(self, i: int, j: int) -> int:
        return self.mult_table[i][j]

    @staticmethod
    def trivial(dimV: int, conductor: int = 1) -> "GroupData":
        field = get_field(conductor)
        ident = {l: {l: field.one} for l in range(dimV)}
        return GroupData([ident], [[0]], [0], [(0,)], [], field)

    @staticmethod
    def from_generators(mats: Sequence[MatrixS], order_cap: int = 1024) -> "GroupData":
        """Enumerate the group generated by invertible matrices.

        Elements are numbered in breadth-first order of right products by
        the generators.  Raises ``ValueError`` on a non-invertible generator
        or when the closure exceeds ``order_cap`` (which also catches
        infinite-order generators).
        """
        if not mats:
            raise ValueError("at least one generator (or use GroupData.trivial)")
        n = mats[0].rows
        conductor = max(m.conductor for m in mats)
        field = get_field(conductor)
        one = field.one

        gens = []
        for m in mats:
            if m.rows != n or m.cols != n:
                raise DimensionMismatch("generators must be square of equal size")
            if m.conductor not in (1, conductor):
                raise DimensionMismatch("mixed conductors in matrix")
            cols = m.sparse_columns(field)
            if TaggedRows(field, cols, n).kernel_rows():
                raise ValueError("non-invertible generator")
            gens.append(dict(enumerate(cols)))

        def key(g: dict):
            return tuple(frozenset(col.items()) for col in g.values())

        elements = [{l: {l: one} for l in range(n)}]
        index = {key(elements[0]): 0}
        # elements doubles as the breadth-first queue
        for cur in elements:
            for g in gens:
                prod = compose_maps(cur, g, field)
                k = key(prod)
                if k not in index:
                    if len(elements) >= order_cap:
                        raise ValueError(f"group closure exceeds order cap {order_cap}")
                    index[k] = len(elements)
                    elements.append(prod)
        order = len(elements)
        table = [[index[key(compose_maps(a, b, field))] for b in elements] for a in elements]
        inverses = [row.index(0) for row in table]
        # conjugacy classes: orbit of each element under g . x . g^-1
        seen = set()
        classes = []
        for i in range(order):
            if i in seen:
                continue
            orbit = {table[table[g][i]][inverses[g]] for g in range(order)}
            classes.append(tuple(sorted(orbit)))
            seen |= orbit
        classes.sort(key=min)
        gen_indices = []
        for g in gens:
            gi = index[key(g)]
            if gi not in gen_indices:
                gen_indices.append(gi)
        return GroupData(elements, table, inverses, classes, gen_indices, field)

    def over(self, field) -> "GroupData":
        """The group with its maps over ``field``: itself when that is its
        own field; a group over Q has its maps lifted once."""
        if field is self.field:
            return self
        if self.conductor != 1:
            raise DimensionMismatch("group matrix entries do not lie in the declared field")
        q = self.field
        maps = [
            {l: {i: field.from_fraction(q.to_coeffs(x)[0]) for i, x in col.items()} for l, col in g.items()}
            for g in self.maps
        ]
        return GroupData(maps, self.mult_table, self.inverses, self.conj_classes, self.generators, field)


class TensorContext:
    """V, the acting group, and the coefficient field: the ambient algebra."""

    def __init__(self, dimV: int, group: GroupData | None = None, conductor: int = 1):
        if dimV < 1:
            raise ValueError("dimV must be at least 1")
        if group is None:
            group = GroupData.trivial(dimV, conductor)
        if group.dimV != dimV:
            raise DimensionMismatch("group matrices do not act on V")
        self.dimV = dimV
        self.group = group
        self.conductor = conductor
        self.field = get_field(conductor)
        # columns[g][l] is rho(g) e_l as a sparse raw vector over the field
        self.columns = group.over(self.field).maps

    @property
    def order(self) -> int:
        return self.group.order

    def component_dim(self, n: int) -> int:
        return self.dimV**n * self.order

    def word_num(self, word: tuple[int, ...]) -> int:
        """Lexicographic number of a word, slot 1 most significant."""
        num = 0
        for letter in word:
            num = num * self.dimV + letter
        return num

    def num_word(self, num: int, length: int) -> tuple[int, ...]:
        """The word of the given length numbered ``num``; inverse of word_num."""
        word = []
        for _ in range(length):
            num, letter = divmod(num, self.dimV)
            word.append(letter)
        return tuple(reversed(word))

    def coord(self, word: tuple[int, ...], g: int) -> int:
        return self.word_num(word) * self.order + g

    def word_of(self, coord: int, degree: int) -> tuple[tuple[int, ...], int]:
        num, g = divmod(coord, self.order)
        return self.num_word(num, degree), g

    # -- term-level operations ---------------------------------------

    def apply_group_to_word(self, g: int, word: tuple[int, ...]):
        """Expansion of rho(g) applied to each slot of a pure word.

        Yields (word, raw coefficient) pairs.
        """
        field = self.field
        cols = self.columns[g]
        partial = [((), field.one)]
        for letter in word:
            partial = [(pw + (i,), times(field, c, raw)) for pw, c in partial for i, raw in cols[letter].items()]
        return partial

    def smash_mul_terms(self, a: Terms, b: Terms) -> Terms:
        """Bilinear product of term dicts: (v⊗g)(w⊗h) = v⊗g(w)⊗gh."""
        field = self.field
        out: dict = {}
        for (w1, g), ca in a.items():
            if ca.is_zero():
                continue
            for (w2, h), cb in b.items():
                if cb.is_zero():
                    continue
                coeff = ca * cb
                gh = self.group.mult(g, h)
                for tw, raw in self.apply_group_to_word(g, w2):
                    key = (w1 + tw, gh)
                    add = coeff * Scalar(field, raw)
                    cur = out.get(key)
                    tot = add if cur is None else cur + add
                    if tot.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = tot
        return out

    # -- sparse vector forms ------------------------------------------

    def check_term(self, word: tuple[int, ...], g: int) -> None:
        """Refuse a term key with a letter outside V's basis or a group
        index outside Gamma, which a coordinate would read as another word."""
        if not 0 <= g < self.order or any(not 0 <= letter < self.dimV for letter in word):
            raise DimensionMismatch(
                f"term ({list(word)}, {g}) needs letters in 0..{self.dimV - 1}"
                f" and a group index in 0..{self.order - 1}"
            )

    def terms_to_sparse(self, terms: Terms) -> dict:
        field = self.field
        out = {}
        for (word, g), c in terms.items():
            self.check_term(word, g)
            accumulate(field, out, self.coord(word, g), to_raw(field, c))
        return out

    def left_action_sparse(self, g: int, row: dict, degree: int) -> dict:
        """g . (word ⊗ h) = rho(g)(word) ⊗ gh on a sparse degree-n vector."""
        field = self.field
        mult_row = self.group.mult_table[g]
        out: dict = {}
        for coord, raw in row.items():
            word, h = self.word_of(coord, degree)
            gh = mult_row[h]
            for tw, c in self.apply_group_to_word(g, word):
                accumulate(field, out, self.coord(tw, gh), times(field, raw, c))
        return out

    def append_letter(self, row: dict, letter: int) -> dict:
        """row · (e_letter ⊗ 1) on a sparse component row, one degree up.

        (w ⊗ g)(e_l ⊗ 1) = w ⊗ rho(g) e_l ⊗ g.
        """
        field = self.field
        order = self.order
        dimV = self.dimV
        out: dict = {}
        for coord, raw in row.items():
            wnum, g = divmod(coord, order)
            for i, c in self.columns[g][letter].items():
                accumulate(field, out, (wnum * dimV + i) * order + g, times(field, raw, c))
        return out

    def row_product(self, row1: dict, row2: dict, degree2: int) -> dict:
        """Smash product of a sparse component row with one of degree ``degree2``.

        (w1 ⊗ g)(w2 ⊗ h) = w1 ⊗ g.(w2 ⊗ h), so each group slot g of row1
        prepends its word to the left action of g on row2.
        """
        order = self.order
        shift = self.dimV**degree2 * order
        acted: dict[int, dict] = {}
        out: dict = {}
        for c1, v1 in row1.items():
            wnum, g = divmod(c1, order)
            img = acted.get(g)
            if img is None:
                img = acted[g] = self.left_action_sparse(g, row2, degree2)
            base = wnum * shift
            add_scaled(self.field, out, {base + c2: v2 for c2, v2 in img.items()}, v1)
        return out

    def right_action_sparse(self, row: dict, g: int) -> dict:
        """(word ⊗ h) . g = word ⊗ hg; a permutation of coordinates."""
        order = self.order
        table = self.group.mult_table
        out = {}
        for coord, raw in row.items():
            h = coord % order
            out[(coord - h) + table[h][g]] = raw
        return out

    def prefix(self, row: dict, wnum: int, degree: int) -> dict:
        """The word numbered ``wnum`` placed in front of a degree-``degree`` row."""
        base = wnum * self.component_dim(degree)
        return {base + c: v for c, v in row.items()}


class Filtration:
    """Block layout of F^top = (+)_{d<=top} V^{⊗d}⊗K: the one owner of
    filtration coordinates.

    Block d holds the degree-d component in its (word, g) order and starts
    at ``start[d]``; blocks run top, ..., 0, so a row's leading coordinate
    lies in its top degree.  A canonical row lies in F^level exactly when
    its pivot is at least ``start[level]``, and F^n sits in F^m, m >= n, as
    the trailing coordinates, shifted by ``Filtration(ctx, m).start[n]``.
    """

    def __init__(self, ctx: TensorContext, top: int):
        self.ctx = ctx
        self.top = top
        self._sizes = [ctx.component_dim(d) for d in range(top + 1)]
        self.start = [0] * (top + 1)
        pos = 0
        for d in range(top, -1, -1):
            self.start[d] = pos
            pos += self._sizes[d]
        self._starts = self.start[::-1]  # the block starts in coordinate order
        self.dim = pos

    def block_of(self, coord: int) -> int:
        return self.top + 1 - bisect_right(self._starts, coord)

    def coord(self, word: tuple[int, ...], g: int) -> int:
        return self.start[len(word)] + self.ctx.coord(word, g)

    def decode(self, coord: int) -> tuple[tuple[int, ...], int]:
        d = self.block_of(coord)
        return self.ctx.word_of(coord - self.start[d], d)

    def block(self, row: dict, d: int) -> dict:
        """The degree-d block of a row, as a component-d row."""
        lo = self.start[d]
        hi = lo + self._sizes[d]
        return {c - lo: v for c, v in row.items() if lo <= c < hi}

    def below(self, rows: list[dict], level: int) -> list[dict]:
        """The canonical rows inside F^level, those pivoting at or past
        ``start[level]``; they are the canonical rows of the span's
        intersection with F^level."""
        cut = self.start[level]
        return [row for row in rows if min(row) >= cut]

    def map_blocks(self, row: dict, step, target: "Filtration") -> dict:
        """Apply ``step(block, d) -> (d2, block2)`` to each block of ``row``.

        The images are laid out in ``target``; distinct blocks must go to
        distinct blocks.
        """
        blocks: dict[int, dict] = {}
        for coord, raw in row.items():
            d = self.block_of(coord)
            blocks.setdefault(d, {})[coord - self.start[d]] = raw
        out: dict = {}
        for d, block in blocks.items():
            d2, image = step(block, d)
            base = target.start[d2]
            out.update((base + c, v) for c, v in image.items())
        return out

    def right_mul(self, row: dict, letter, g: int, target: "Filtration") -> dict:
        """row · (e_letter ⊗ g), or row · (1 ⊗ g) when ``letter`` is None."""
        ctx = self.ctx

        def step(block, d):
            if letter is not None:
                block, d = ctx.append_letter(block, letter), d + 1
            return d, (ctx.right_action_sparse(block, g) if g else block)

        return self.map_blocks(row, step, target)

    def left_mul(self, row: dict, letter, g: int, target: "Filtration") -> dict:
        """(e_letter ⊗ g) · row, or (1 ⊗ g) · row when ``letter`` is None."""
        if g:
            ctx = self.ctx
            row = self.map_blocks(row, lambda block, d: (d, ctx.left_action_sparse(g, block, d)), self)
        if letter is None:
            return row
        # a prefix moves each coordinate on its own, from block d to block d + 1
        out = {}
        for c, v in row.items():
            d = self.block_of(c)
            out[target.start[d + 1] + letter * self._sizes[d] + c - self.start[d]] = v
        return out


# -- sub-bimodules -------------------------------------------------------


def _span_rows(field, rows, actions=()) -> list[dict]:
    """Canonical rows of the smallest subspace containing ``rows`` and
    stable under every map in ``actions``."""
    elim = SparseEliminator(field)
    work = [r for r in rows if elim.add(r) is not None]
    while work and actions:
        row = work.pop()
        for act in actions:
            red = elim.reduce(act(row))
            if red:
                elim.add(red)
                work.append(red)
    return elim.rows_canonical()


class FilteredSubspace:
    """A sub-bimodule of F^n = (+)_{i<=n} V^{⊗i}⊗K in the block coordinates
    of ``layout = Filtration(ctx, n)``, top degree first.

    Its canonical rows lead in their top degree, so the rows inside F^level
    are those pivoting at or past ``layout.start[level]``, and re-embedding
    into F^m shifts every coordinate by the same amount.  ``from_rows`` and
    ``_of_rows`` build an instance of the class they are called on.
    """

    def __init__(self, ctx: TensorContext, top_degree: int, space: Subspace):
        self.ctx = ctx
        self.top_degree = top_degree
        self.space = space
        self.layout = Filtration(ctx, top_degree)

    @property
    def dim(self) -> int:
        return self.space.dim

    @staticmethod
    def terms_to_sparse(ctx: TensorContext, top_degree: int, terms: Terms) -> dict:
        layout = Filtration(ctx, top_degree)
        field = ctx.field
        out: dict = {}
        for (word, g), c in terms.items():
            if len(word) > top_degree:
                raise DimensionMismatch("term exceeds the filtration level")
            ctx.check_term(word, g)
            accumulate(field, out, layout.coord(word, g), to_raw(field, c))
        return out

    @staticmethod
    def from_elements(ctx: TensorContext, top_degree: int, elements: Iterable[Terms], close: bool = True) -> "FilteredSubspace":
        rows = [FilteredSubspace.terms_to_sparse(ctx, top_degree, t) for t in elements]
        return FilteredSubspace.from_rows(ctx, top_degree, rows, close)

    @classmethod
    def from_rows(cls, ctx: TensorContext, top_degree: int, rows: list[dict], close: bool = True) -> "FilteredSubspace":
        """Bimodule closure of rows of F^top_degree, or with ``close=False``
        their span, which must already be closed."""
        actions = _actions(Filtration(ctx, top_degree)) if close else ()
        out = cls._of_rows(ctx, top_degree, _span_rows(ctx.field, rows, actions))
        if not close and not out.is_closed():
            raise ValueError("spanning set is not closed under the bimodule actions")
        return out

    @classmethod
    def _of_rows(cls, ctx: TensorContext, top_degree: int, rows: list[dict]) -> "FilteredSubspace":
        """Wrap canonical rows of F^top_degree."""
        return cls(ctx, top_degree, Subspace(Filtration(ctx, top_degree).dim, rows, ctx.conductor))

    def basis_sparse(self) -> list[dict]:
        """The canonical rows themselves; callers must not mutate them."""
        return self.space.rows

    def is_closed(self) -> bool:
        rows = self.space.rows
        return _span_rows(self.ctx.field, rows, _actions(self.layout)) == rows

    def block_projection(self, degree: int) -> Subspace:
        """Image of the subspace in the degree-``degree`` graded block."""
        rows = [self.layout.block(row, degree) for row in self.space.rows]
        return Subspace.from_rows(self.ctx.component_dim(degree), rows, self.ctx.conductor)

    def extend_top(self, new_top: int) -> "FilteredSubspace":
        """Re-embed into the larger filtration level F^new_top."""
        if new_top < self.top_degree:
            raise DimensionMismatch("cannot shrink the filtration level")
        if new_top == self.top_degree:
            return self
        shift = Filtration(self.ctx, new_top).start[self.top_degree]
        rows = [{c + shift: v for c, v in row.items()} for row in self.space.rows]
        return FilteredSubspace._of_rows(self.ctx, new_top, rows)

    def mul_E(self, side: str) -> "FilteredSubspace":
        """P·E (side='right') or E·P (side='left'), one degree up.

        Only P's right K-generators (for 'right') or left K-generators (for
        'left') are multiplied, kept by ``elim.generators``: P is a
        K-sub-bimodule, so r·h·(e_l ⊗ g) = r·(h(e_l) ⊗ hg) and
        (e_l ⊗ g)·h·r = (e_l ⊗ gh)·r, and the translates of the kept rows
        span P.  The span, and so the canonical rows, are P·E's (E·P's).
        """
        ctx = self.ctx
        layout = self.layout
        target = Filtration(ctx, self.top_degree + 1)
        if side == "right":
            # every block starts at a multiple of |Gamma|, so the right
            # action reads a layout row as it reads a component row
            mul, act = layout.right_mul, ctx.right_action_sparse
        else:
            mul, act = layout.left_mul, lambda row, g: layout.left_mul(row, None, g, layout)
        p_rows = self.space.rows
        rows = [
            mul(p_rows[t], letter, g, target)
            for t in generators(ctx.field, p_rows, act, ctx.order)
            for letter in range(ctx.dimV)
            for g in range(ctx.order)
        ]
        return FilteredSubspace.from_rows(ctx, target.top, rows, close=False)

    def truncate_intersection(self, level: int) -> "FilteredSubspace":
        """Intersection with F^level, returned inside F^level.

        A combination of canonical rows leads at its smallest pivot, so it
        lies in F^level only if every row it uses pivots there: the
        intersection's canonical rows are those rows, shifted down.
        """
        if level >= self.top_degree:
            return self.extend_top(level)
        cut = self.layout.start[level]
        rows = [{c - cut: v for c, v in row.items()} for row in self.layout.below(self.space.rows, level)]
        return FilteredSubspace._of_rows(self.ctx, level, rows)

    def contains(self, other: "FilteredSubspace") -> bool:
        o = other.extend_top(self.top_degree)
        return self.space.contains_subspace(o.space)

    def __eq__(self, other):
        if not isinstance(other, FilteredSubspace):
            return NotImplemented
        return self.top_degree == other.top_degree and self.space == other.space

    def __hash__(self):
        return hash((self.top_degree, self.space))

    def __repr__(self):
        return f"{type(self).__name__}(top={self.top_degree}, dim={self.dim})"


class Subbimodule(FilteredSubspace):
    """A sub-bimodule of the degree-n component V^{⊗n}⊗K: a filtered
    subspace of F^n whose rows lie in the leading block, where a coordinate
    of F^n is the component's own (word, g) coordinate."""

    @property
    def degree(self) -> int:
        return self.top_degree

    @staticmethod
    def zero(ctx: TensorContext, degree: int) -> "Subbimodule":
        return Subbimodule._of_rows(ctx, degree, [])

    @staticmethod
    def full(ctx: TensorContext, degree: int) -> "Subbimodule":
        one = ctx.field.one
        return Subbimodule._of_rows(ctx, degree, [{i: one} for i in range(ctx.component_dim(degree))])

    @staticmethod
    def from_elements(ctx: TensorContext, degree: int, elements: Iterable[Terms], close: bool = True) -> "Subbimodule":
        elements = list(elements)
        field = ctx.field
        for t in elements:
            if any(len(w) != degree and not field.is_zero(to_raw(field, c)) for (w, _), c in t.items()):
                raise DimensionMismatch("element does not live in the stated degree")
        rows = [ctx.terms_to_sparse(t) for t in elements]
        return Subbimodule.from_rows(ctx, degree, rows, close)

    def sum(self, other: "Subbimodule") -> "Subbimodule":
        self._check_compatible(other)
        return Subbimodule(self.ctx, self.degree, self.space.sum(other.space))

    def intersect(self, other: "Subbimodule") -> "Subbimodule":
        self._check_compatible(other)
        return Subbimodule(self.ctx, self.degree, self.space.intersect(other.space))

    def _check_compatible(self, other: "Subbimodule"):
        _check_same_ctx(self.ctx, other.ctx)
        if other.degree != self.degree:
            raise DimensionMismatch("degree mismatch")


def _actions(layout: Filtration) -> list:
    """Left and right actions of each group generator on rows of F^top,
    block by block; a degree-n component is the leading block of F^n."""
    out = []
    for g in layout.ctx.group.generators:
        out.append(lambda row, g=g: layout.left_mul(row, None, g, layout))
        out.append(lambda row, g=g: layout.right_mul(row, None, g, layout))
    return out


def _check_same_ctx(a: TensorContext, b: TensorContext) -> None:
    if a is not b and (
        a.dimV != b.dimV or a.conductor != b.conductor or a.group.mult_table != b.group.mult_table
    ):
        raise DimensionMismatch("context mismatch")


def _span(ctx: TensorContext, degree: int, rows) -> Subbimodule:
    """Span of rows known to form a sub-bimodule."""
    return Subbimodule._of_rows(ctx, degree, _span_rows(ctx.field, rows))


def product_EF(E: Subbimodule, F: Subbimodule) -> Subbimodule:
    """Span of the smash products of basis elements; again a sub-bimodule."""
    _check_same_ctx(E.ctx, F.ctx)
    ctx = E.ctx
    rows = [ctx.row_product(e, f, F.degree) for e in E.space.rows for f in F.space.rows]
    return _span(ctx, E.degree + F.degree, rows)


def placement_rows(R: Subbimodule, i: int, j: int) -> list[dict]:
    """Sparse spanning rows of V^{⊗i} R V^{⊗j}.

    For a bimodule R the full space multiplies in letter by letter on the
    right, and on the left as plain word prefixes.
    """
    ctx = R.ctx
    rows = R.space.rows
    for _ in range(j):
        rows = [ctx.append_letter(r, letter) for r in rows for letter in range(ctx.dimV)]
    return [ctx.prefix(r, wnum, R.degree + j) for wnum in range(ctx.dimV**i) for r in rows]


def placement(R: Subbimodule, i: int, j: int) -> Subbimodule:
    """V^{⊗i} R V^{⊗j} as a sub-bimodule of degree i + N + j."""
    return _span(R.ctx, R.degree + i + j, placement_rows(R, i, j))


def W(R: Subbimodule, n: int) -> Subbimodule:
    """Intersection of all degree-n placements of R.

    Computed as a left fold of pairwise intersections in the fixed order
    i = 0, 1, ..., n - N.
    """
    N = R.degree
    if n < N:
        raise ValueError("W is defined for degrees >= the relation degree")
    out = placement(R, 0, n - N)
    for i in range(1, n - N + 1):
        out = out.intersect(placement(R, i, n - N - i))
    return out


def alternating_sum_terms(ctx: TensorContext, letters: tuple[int, ...]) -> Terms:
    """Antisymmetrization of the pure tensor on the given letters (group e)."""
    from itertools import permutations

    one = Scalar.one(ctx.conductor)
    out: Terms = {}
    p = len(letters)
    for perm in permutations(range(p)):
        sign = 1
        for i in range(p):
            for j in range(i + 1, p):
                if perm[i] > perm[j]:
                    sign = -sign
        word = tuple(letters[perm[i]] for i in range(p))
        out[(word, 0)] = one if sign > 0 else -one
    return out


def antisymmetrizer_subbimodule(ctx: TensorContext, p: int) -> Subbimodule:
    """Bimodule closure of the antisymmetrized p-tensors on basis letters."""
    from itertools import combinations

    if not 2 <= p <= ctx.dimV:
        raise ValueError("p must lie between 2 and dimV")
    elems = [alternating_sum_terms(ctx, combo) for combo in combinations(range(ctx.dimV), p)]
    return Subbimodule.from_elements(ctx, p, elems, close=True)
