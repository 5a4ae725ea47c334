"""Row reduction on sparse raw-valued rows: the one elimination engine.

Rows are dicts mapping column index to a nonzero raw field element.  The
engine keeps echelon rows keyed by pivot: a row's pivot is its first
column, where its entry is ``field.one``, and it need not vanish at the
other pivots.  An insert (``echelon_add``; ``SparseEliminator.add`` on a
copy) reduces a row only until its first column is not a pivot, and so
decides membership too: only a row of the span reduces to zero.  No
caller needs more between inserts.  Rows read as a basis are swept once,
after the last insert (``back_substitute``), into the canonical RREF
basis of the span, which insertion order does not change.  Normal forms
against swept rows follow from one rule, ``normal_form``: the
coefficient of a swept row in a vector is the vector's entry at that
row's pivot.  ``rank`` keeps no basis and pivots on the last column, for
the reason its docstring gives.

Every subspace in the package is held as such canonical rows (``Subspace``
in ``scalar``), and the row operations built on the engine live here:
adding one value into a sparse row (``accumulate``), adding a scaled row
(``add_scaled``, the one scaled-row loop, and ``add_shifted``, the same
loop onto columns moved by a constant) or a scaled column map
(``add_maps``), composing and comparing column maps (``compose_maps``,
``maps_equal``; ``add_maps`` and ``compose_maps`` share one kernel with
``add_scaled``'s loop inlined), expressing a vector over fully reduced
rows, solving over tagged generators, the kernel of a combination
matrix, the rank of a span (``rank``, the one rank entry point), the
Zassenhaus intersection, and the rows of a module kept as generators
under a group's translates (``generators``).  A column map is a dict
from source column to sparse column: the N-complex maps and the group
elements' actions on V are held so.  Code elsewhere builds its sparse
vectors and maps through these helpers rather than repeating the
drop-on-cancel step.
"""

from __future__ import annotations


class SparseEliminator:
    """Echelon rows of a growing row space, keyed by pivot, swept when read."""

    def __init__(self, field):
        self.field = field
        self.pivot_rows: dict[int, dict] = {}

    def reduce(self, row: dict) -> dict:
        """``row`` reduced until its first column is not a pivot (input
        unchanged): empty exactly when ``row`` lies in the span."""
        row = dict(row)
        _reduce_lead(self.field, self.pivot_rows, row)
        return row

    def add(self, row: dict) -> int | None:
        """Insert a copy of ``row``; returns the new pivot column or None if dependent."""
        return echelon_add(self.field, self.pivot_rows, dict(row))

    def add_all(self, rows) -> None:
        for r in rows:
            self.add(r)

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def rows_canonical(self) -> list[dict]:
        """The canonical RREF rows of the span, by one sweep of the kept rows."""
        back_substitute(self.field, self.pivot_rows)
        return [dict(self.pivot_rows[p]) for p in sorted(self.pivot_rows)]


def normal_form(field, rows: dict, vec: dict) -> dict:
    """Normal form of ``vec`` against fully reduced rows keyed by pivot (input unchanged).

    The coefficient c of pivot row p is the entry of ``vec`` at p: pivot
    rows vanish at every other pivot, so subtracting one multiple never
    changes the entry another pivot row is read at.  Row p's own entry at
    p is one, so that entry cancels by construction: it is dropped and
    only c times the rest of the row is subtracted.
    """
    out = dict(vec)
    for p, c in vec.items():
        prow = rows.get(p)
        if prow is not None:
            del out[p]
            add_scaled(field, out, prow, negated(field, c), skip=p)
    return out


def negated(field, c):
    """-c, without a field operation when c is a sign."""
    if c is field.one:
        return field.minus_one
    if c is field.minus_one:
        return field.one
    return field.neg(c)


def canonical_rows(field, rows) -> list[dict]:
    """Canonical RREF rows of the span of ``rows``."""
    elim = SparseEliminator(field)
    elim.add_all(rows)
    return elim.rows_canonical()


def generators(field, rows, act, order: int) -> list[int]:
    """Indices of the rows kept as generators under the translates ``act``.

    A row is kept when it lies outside the span of the translates
    act(row', g), g < ``order``, of the rows row' kept before it, in input
    order; one eliminator holds that span.
    For a K-sub-bimodule X of T(V)#Gamma, K = k[Gamma], and ``act`` the
    right action of Gamma, the kept rows x give all of X·Y for any right
    K-module Y: x·h·y = x·(h·y) and h·y lies in Y.  So a product X·Y, a
    tensor product X ⊗_K Y or a quotient tower's relation rows need only
    the kept rows, up to |Gamma| times fewer than X's canonical rows.
    The left action gives the mirror statement for Y·X.  Over the trivial
    group every row of a basis is kept.
    """
    elim = SparseEliminator(field)
    kept = []
    for t, row in enumerate(rows):
        if not elim.contains(row):
            kept.append(t)
            elim.add_all(act(row, g) for g in range(order))
    return kept


def rank(field, rows) -> int:
    """Rank of the span of sparse raw-valued ``rows``, by echelon inserts only.

    Each row is reduced until its leading entry, the one in its last
    column, is a new pivot; then the rest of it is kept.  A kept row changes
    at most once, when a later row first meets its pivot: it is scaled then
    so that its pivot entry is one, and a row no later row meets costs no
    inversion.  The rank needs no fully reduced basis, so there is no
    back-substitution and no column index.  Pivots are taken from the last
    column because the bases of the N-complex slices list low filtration
    degree first, and the maps are nearly triangular in their top degree:
    on the S3 Cherednik contraction at D=6 the first column made seven
    times the row operations.
    """
    tails: dict = {}
    leads: dict = {}  # pivot -> its entry, while that entry is not one
    for row in rows:
        row = dict(row)
        while row:
            col = max(row)
            c = row.pop(col)
            tail = tails.get(col)
            if tail is None:
                tails[col] = row
                if c is not field.one:
                    leads[col] = c
                break
            lead = leads.pop(col, None)
            if lead is not None:
                scaled: dict = {}
                add_scaled(field, scaled, tail, field.inv(lead))
                tails[col] = tail = scaled
            add_scaled(field, row, tail, negated(field, c))
    return len(tails)


def echelon_add(field, rows: dict, row: dict) -> int | None:
    """Insert ``row`` (consumed) into echelon ``rows`` keyed by pivot; the new pivot or None.

    The row is reduced only until its first column is not a pivot, then
    scaled so that its entry there is one, and kept from there.  That column
    is the pivot a fully reduced basis gives the same row: the fully reduced
    row differs from this one by an element of the span, whose first column
    is a pivot, and vanishes at every pivot, so the two agree up to that
    column.  So the pivots, and which rows are dependent, are the same.
    """
    piv = _reduce_lead(field, rows, row)
    if piv is None:
        return None
    lead = row[piv]
    if lead is not field.one:
        scaled: dict = {}
        add_scaled(field, scaled, row, field.inv(lead))
        row = scaled
    row[piv] = field.one
    rows[piv] = row
    return piv


def _reduce_lead(field, rows: dict, row: dict) -> int | None:
    """Reduce ``row`` in place against echelon ``rows`` until its first column
    is not a pivot: that column, or None once the row is zero; the one
    reduction loop of ``echelon_add`` and ``SparseEliminator.reduce``."""
    while row:
        piv = min(row)
        prow = rows.get(piv)
        if prow is None:
            return piv
        add_scaled(field, row, prow, negated(field, row.pop(piv)), skip=piv)
    return None


def reduced_row(field, rows: dict, piv: int) -> dict:
    """The fully reduced row of pivot ``piv`` among echelon ``rows``.

    Row ``piv`` less, in turn, the multiple of the row of its first entry
    at another pivot: that row starts there, so the entries at lower pivots
    stay cleared.  This is row ``piv`` of the canonical rows of the span,
    as ``back_substitute`` makes it, with no other row changed.
    """
    row = dict(rows[piv])
    while hits := [q for q in row if q != piv and q in rows]:
        q = min(hits)
        add_scaled(field, row, rows[q], negated(field, row.pop(q)), skip=q)
    return row


def back_substitute(field, rows: dict) -> None:
    """Make echelon ``rows`` keyed by pivot fully reduced, in place: the canonical rows.

    The ``normal_form`` of each row's tail, pivots descending, against the
    rows above it, which are fully reduced by then: row p has entries only
    from p on, so it meets no pivot below p, and the rows it meets vanish
    at every other pivot.  The result is the reduced echelon basis of the
    span, which is unique, so it equals ``canonical_rows`` of the rows
    inserted, whatever their order.
    """
    for p in sorted(rows, reverse=True):
        row = rows[p]
        for q, c in [(q, c) for q, c in row.items() if q != p and q in rows]:
            del row[q]
            add_scaled(field, row, rows[q], negated(field, c), skip=q)


def accumulate(field, out: dict, key, value) -> None:
    """In place ``out[key] += value``, dropping the key when the sum is zero."""
    cur = out.get(key)
    nv = value if cur is None else field.add(cur, value)
    if field.is_zero(nv):
        out.pop(key, None)
    else:
        out[key] = nv


def add_scaled(field, out: dict, row: dict, c, skip=None) -> None:
    """In place ``out += c * row`` on sparse rows, dropping zero entries.

    Most coefficients in the complexes are signs, so c = 1 and c = -1 add
    or subtract the entries without a field multiplication; so does an
    entry that is a sign, as every pivot entry is, which gives c or -c.
    Column ``skip`` of ``row`` is left out: a pivot entry the caller
    cancels.
    """
    one, minus_one = field.one, field.minus_one
    unit = c is one
    minus = not unit and c is minus_one
    for col, v in row.items():
        if col == skip:
            continue
        cur = out.get(col)
        if minus:
            if cur is not None:
                nv = field.sub(cur, v)
            else:
                nv = minus_one if v is one else one if v is minus_one else field.neg(v)
        else:
            term = v if unit else c if v is one else field.neg(c) if v is minus_one else field.mul(c, v)
            nv = term if cur is None else field.add(cur, term)
        if field.is_zero(nv):
            out.pop(col, None)
        else:
            out[col] = nv


def add_shifted(field, out: dict, row: dict, c, shift: int, stop: int) -> bool:
    """``add_scaled`` of the entries of ``row`` below column ``stop``, each
    moved to column + ``shift``; whether ``row`` had no other entries.

    The loop is ``add_scaled``'s, with its sign and ``field.one`` paths, so
    the shifted copy of ``row`` that ``add_scaled`` would read is never built.
    """
    one, minus_one = field.one, field.minus_one
    unit = c is one
    minus = not unit and c is minus_one
    skipped = False
    for col, v in row.items():
        if col >= stop:
            skipped = True
            continue
        col += shift
        cur = out.get(col)
        if minus:
            if cur is not None:
                nv = field.sub(cur, v)
            else:
                nv = minus_one if v is one else one if v is minus_one else field.neg(v)
        else:
            term = v if unit else c if v is one else field.neg(c) if v is minus_one else field.mul(c, v)
            nv = term if cur is None else field.add(cur, term)
        if field.is_zero(nv):
            out.pop(col, None)
        else:
            out[col] = nv
    return not skipped


def add_maps(field, a: dict, b: dict, c, n_cols: int) -> dict:
    """Columns of ``a + c * b`` for sparse column maps on columns 0..n_cols-1."""
    empty: dict = {}
    return _combine_columns(
        field, ((src, ((a.get(src, empty), field.one), (b.get(src, empty), c))) for src in range(n_cols))
    )


def compose_maps(outer: dict, inner: dict, field) -> dict:
    """Columns of outer ∘ inner for sparse column maps."""
    empty: dict = {}
    return _combine_columns(
        field, ((src, ((outer.get(mid, empty), c) for mid, c in vec.items())) for src, vec in inner.items())
    )


def _combine_columns(field, columns) -> dict:
    """The column sum of c * col over the terms (col, c), for each pair
    (src, terms) of ``columns``; the one loop of ``add_maps`` and
    ``compose_maps``.

    Each column starts as a copy of its first term's column, a plain one
    when c = 1, so composing with a map of one entry per column (the wedge
    isomorphisms) copies dicts.  Map entries and coefficients are nonzero,
    as every map stores them, so a copied entry needs no zero test.  The other
    terms are added in place with ``add_scaled``'s field operations, sign
    paths and drop-on-cancel, inlined so that no call is made per term;
    the result equals repeated ``add_scaled`` calls, key order and sign
    objects included.
    """
    one, minus_one = field.one, field.minus_one
    add, sub, neg, mul, is_zero = field.add, field.sub, field.neg, field.mul, field.is_zero
    cols = {}
    for src, terms in columns:
        out = None
        for col, c in terms:
            if out is None:
                if c is one:
                    out = dict(col)
                elif c is minus_one:
                    out = {k: minus_one if v is one else one if v is minus_one else neg(v) for k, v in col.items()}
                else:
                    out = {k: c if v is one else neg(c) if v is minus_one else mul(c, v) for k, v in col.items()}
            elif c is one:
                for k, v in col.items():
                    cur = out.get(k)
                    if cur is None:
                        out[k] = v
                    elif is_zero(nv := add(cur, v)):
                        del out[k]
                    else:
                        out[k] = nv
            elif c is minus_one:
                for k, v in col.items():
                    cur = out.get(k)
                    if cur is None:
                        out[k] = minus_one if v is one else one if v is minus_one else neg(v)
                    elif is_zero(nv := sub(cur, v)):
                        del out[k]
                    else:
                        out[k] = nv
            else:
                for k, v in col.items():
                    term = c if v is one else neg(c) if v is minus_one else mul(c, v)
                    cur = out.get(k)
                    if cur is None:
                        out[k] = term
                    elif is_zero(nv := add(cur, term)):
                        del out[k]
                    else:
                        out[k] = nv
        cols[src] = {} if out is None else out
    return cols


def maps_equal(a: dict, b: dict, n_cols: int) -> bool:
    """Whether columns 0..n_cols-1 agree, a missing column read as empty.

    Compared in place: raw values are canonical and maps store no zero
    entries, so equal maps have equal column dicts.
    """
    empty: dict = {}
    return all(a.get(src, empty) == b.get(src, empty) for src in range(n_cols))


def combine(field, rows: list[dict], coeffs) -> dict:
    """The combination sum of c * rows[i] over the pairs (i, c) in ``coeffs``."""
    out: dict = {}
    for i, c in coeffs:
        add_scaled(field, out, rows[i], c)
    return out


def pivot_index(rows: list[dict]) -> dict[int, int]:
    """Pivot column -> position, for fully reduced rows."""
    return {min(r): t for t, r in enumerate(rows)}


def express(field, rows: list[dict], index: dict[int, int], vec: dict) -> list:
    """Coefficients (t, c) of ``vec`` over fully reduced rows, t ascending.

    ``index`` is ``pivot_index(rows)``.  Row t is the only row with an entry
    at its pivot, where that entry is one, so the coefficient of row t is
    the pivot entry of ``vec``, and subtracting c times the rest of row t
    clears that pivot, as in ``normal_form``.  The residual must vanish;
    otherwise ``vec`` lies outside the span and ValueError is raised.
    """
    coeffs = []
    residual = dict(vec)
    for col, c in vec.items():
        t = index.get(col)
        if t is not None:
            coeffs.append((t, c))
            del residual[col]
            add_scaled(field, residual, rows[t], negated(field, c), skip=col)
    if residual:
        raise ValueError("vector does not lie in the span of the rows")
    return sorted(coeffs)


class TaggedRows:
    """Generator rows eliminated together with one tag column each.

    Generator i is inserted as its row plus a one in column ``ambient + i``,
    with ``ambient`` beyond every generator column, and the rows are swept
    once after the last insert.  The canonical rows then split at
    ``ambient``: those with an earlier pivot restrict to the
    canonical rows of the generators' span, and those with a pivot at a tag
    are the canonical rows of the kernel of the combination matrix, the
    coefficient vectors c with sum c_i g_i = 0.
    """

    def __init__(self, field, generators, ambient: int):
        self.field = field
        self.ambient = ambient
        self.elim = SparseEliminator(field)
        for i, gen in enumerate(generators):
            row = dict(gen)
            row[ambient + i] = field.one
            self.elim.add(row)
        back_substitute(field, self.elim.pivot_rows)

    def span_rows(self) -> list[dict]:
        amb = self.ambient
        rows = self.elim.pivot_rows
        return [
            {c: v for c, v in rows[p].items() if c < amb} for p in sorted(rows) if p < amb
        ]

    def kernel_rows(self) -> list[dict]:
        amb = self.ambient
        rows = self.elim.pivot_rows
        return [{c - amb: v for c, v in rows[p].items()} for p in sorted(rows) if p >= amb]

    def solve(self, vec: dict) -> list:
        """Pairs (i, c), i ascending, with sum c * generator_i = vec.

        Raises ValueError when ``vec`` is outside the generators' span.
        """
        field = self.field
        amb = self.ambient
        residual = normal_form(field, self.elim.pivot_rows, vec)
        if any(c < amb for c in residual):
            raise ValueError("vector does not lie in the span of the generators")
        return sorted((c - amb, field.neg(v)) for c, v in residual.items())


def intersection(field, rows_a, rows_b, ambient: int) -> list[dict]:
    """Canonical RREF rows of span(rows_a) ∩ span(rows_b) in k^ambient.

    The Zassenhaus construction: the rows (a | a) and (b | 0) are eliminated
    together and swept once, and the canonical rows with a pivot in the
    second half vanish on the first half and are the canonical rows of the
    intersection.  The kernel of the combination matrix
    (``Subspace.intersect_via_kernel``) is the independent oracle the tests
    compare it with.
    """
    elim = SparseEliminator(field)
    for r in rows_a:
        block = dict(r)
        block.update((ambient + j, x) for j, x in r.items())
        elim.add(block)
    elim.add_all(rows_b)
    rows = elim.pivot_rows
    back_substitute(field, rows)
    return [{j - ambient: x for j, x in rows[p].items()} for p in sorted(rows) if p >= ambient]
