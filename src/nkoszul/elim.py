"""Incremental row reduction on sparse raw-valued rows: the one elimination engine.

Rows are dicts mapping column index to a nonzero raw field element.  The
eliminator keeps a fully reduced basis (each pivot column appears in exactly
one row, with coefficient one), so reduction against it yields unique normal
forms.  Insertion order never changes the resulting row space, and the
stored basis equals the canonical RREF basis of that space.

Every subspace in the package is held as such canonical rows (``Subspace``
in ``scalar`` builds its dense views from them on demand), and the row
operations built on the engine live here: adding one value into a sparse
row (``accumulate``), adding a scaled row (``add_scaled``) or a scaled
column map (``add_maps``), expressing a vector over fully reduced rows,
solving over tagged generators, the kernel of a combination matrix, and
intersections.  Code elsewhere builds its sparse vectors and maps through
these helpers rather than repeating the drop-on-cancel step.
"""

from __future__ import annotations

import heapq


class SparseEliminator:
    """Maintains the RREF of a growing row space over a cyclotomic field."""

    def __init__(self, field):
        self.field = field
        self.pivot_rows: dict[int, dict] = {}
        self._col_index: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict) -> dict:
        """Normal form of a row against the current basis (input unchanged).

        Eliminating a pivot column only ever introduces larger column
        indices (pivot rows have their pivot as least index), so a single
        heap sweep visits every column that can need elimination.
        """
        field = self.field
        out = dict(row)
        pivot_rows = self.pivot_rows
        heap = list(out)
        heapq.heapify(heap)
        seen = set(heap)
        while heap:
            col = heapq.heappop(heap)
            seen.discard(col)
            if col not in out:
                continue
            prow = pivot_rows.get(col)
            if prow is None:
                continue
            c = out.pop(col)
            # out -= c * prow; a coefficient of -1 adds the row, one of 1
            # subtracts it, without a field multiplication
            unit = field.is_one(c)
            plus = not unit and field.is_one(field.neg(c))
            for j, v in prow.items():
                if j == col:
                    continue
                cur = out.get(j)
                if plus:
                    nv = v if cur is None else field.add(cur, v)
                else:
                    term = v if unit else field.mul(c, v)
                    nv = field.neg(term) if cur is None else field.sub(cur, term)
                if field.is_zero(nv):
                    out.pop(j, None)
                else:
                    out[j] = nv
                    if j not in seen:
                        seen.add(j)
                        heapq.heappush(heap, j)
        return out

    def add(self, row: dict) -> int | None:
        """Insert a row; returns the new pivot column or None if dependent."""
        field = self.field
        red = self.reduce(row)
        if not red:
            return None
        piv = min(red)
        lead = red[piv]
        if not field.is_one(lead):
            inv = field.inv(lead)
            red = {j: field.mul(inv, v) for j, v in red.items()}
        red[piv] = field.one
        # Back-substitute into existing rows so the basis stays fully reduced.
        holders = self._col_index.get(piv)
        if holders:
            for hp in list(holders):
                hrow = self.pivot_rows[hp]
                c = hrow.get(piv)
                if c is None:
                    continue
                unit = field.is_one(c)
                plus = not unit and field.is_one(field.neg(c))
                for j, v in red.items():
                    if j == piv:
                        continue
                    cur = hrow.get(j)
                    if plus:
                        nv = v if cur is None else field.add(cur, v)
                    else:
                        term = v if unit else field.mul(c, v)
                        nv = field.neg(term) if cur is None else field.sub(cur, term)
                    if field.is_zero(nv):
                        if cur is not None:
                            del hrow[j]
                            self._discard_index(j, hp)
                    else:
                        if cur is None:
                            self._col_index.setdefault(j, set()).add(hp)
                        hrow[j] = nv
                del hrow[piv]
            holders.clear()
        self.pivot_rows[piv] = red
        for j in red:
            if j != piv:
                self._col_index.setdefault(j, set()).add(piv)
        return piv

    def _discard_index(self, col: int, pivot: int) -> None:
        s = self._col_index.get(col)
        if s is not None:
            s.discard(pivot)
            if not s:
                del self._col_index[col]

    def add_all(self, rows) -> int:
        added = 0
        for r in rows:
            if self.add(r) is not None:
                added += 1
        return added

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def rows_canonical(self) -> list[dict]:
        return [dict(self.pivot_rows[p]) for p in sorted(self.pivot_rows)]


def canonical_rows(field, rows) -> list[dict]:
    """Canonical RREF rows of the span of ``rows``."""
    elim = SparseEliminator(field)
    elim.add_all(rows)
    return elim.rows_canonical()


def accumulate(field, out: dict, key, value) -> None:
    """In place ``out[key] += value``, dropping the key when the sum is zero."""
    cur = out.get(key)
    nv = value if cur is None else field.add(cur, value)
    if field.is_zero(nv):
        out.pop(key, None)
    else:
        out[key] = nv


def add_scaled(field, out: dict, row: dict, c) -> None:
    """In place ``out += c * row`` on sparse rows, dropping zero entries.

    Most coefficients in the complexes are signs, so c = 1 and c = -1 add
    or subtract the entries without a field multiplication.
    """
    unit = field.is_one(c)
    negated = not unit and field.is_one(field.neg(c))
    for col, v in row.items():
        cur = out.get(col)
        if negated:
            nv = field.neg(v) if cur is None else field.sub(cur, v)
        else:
            term = v if unit else field.mul(c, v)
            nv = term if cur is None else field.add(cur, term)
        if field.is_zero(nv):
            out.pop(col, None)
        else:
            out[col] = nv


def add_maps(field, a: dict, b: dict, c, n_cols: int) -> dict:
    """Columns of ``a + c * b`` for sparse column maps on columns 0..n_cols-1."""
    cols = {}
    for src in range(n_cols):
        out = dict(a.get(src, {}))
        add_scaled(field, out, b.get(src, {}), c)
        cols[src] = out
    return cols


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
    the pivot entry of ``vec``.  The residual after subtracting the
    combination must vanish; otherwise ``vec`` lies outside the span and
    ValueError is raised.
    """
    coeffs = sorted((index[col], v) for col, v in vec.items() if col in index)
    residual = dict(vec)
    for t, c in coeffs:
        add_scaled(field, residual, rows[t], field.neg(c))
    if residual:
        raise ValueError("vector does not lie in the span of the rows")
    return coeffs


class TaggedRows:
    """Generator rows eliminated together with one tag column each.

    Generator i is inserted as its row plus a one in column ``ambient + i``,
    with ``ambient`` beyond every generator column.  The canonical rows then
    split at ``ambient``: those with an earlier pivot restrict to the
    canonical rows of the generators' span, and those with a pivot at a tag
    are the canonical rows of the kernel of the combination matrix, the
    coefficient vectors c with sum c_i g_i = 0.
    """

    def __init__(self, field, generators, ambient: int | None = None):
        generators = list(generators)
        if ambient is None:
            ambient = 1 + max((c for g in generators for c in g), default=-1)
        self.field = field
        self.ambient = ambient
        self.elim = SparseEliminator(field)
        for i, gen in enumerate(generators):
            row = dict(gen)
            row[ambient + i] = field.one
            self.elim.add(row)

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
        residual = self.elim.reduce(vec)
        if any(c < amb for c in residual):
            raise ValueError("vector does not lie in the span of the generators")
        return sorted((c - amb, field.neg(v)) for c, v in residual.items())


def sparse_span_equal(field, rows_a, rows_b) -> bool:
    return canonical_rows(field, rows_a) == canonical_rows(field, rows_b)


def sparse_intersection(field, rows_a, rows_b) -> list[dict]:
    """Canonical RREF rows of span(rows_a) ∩ span(rows_b).

    The combinations of the A-rows whose residuals against the B-span
    cancel, the kernel of the residual combination matrix, give the
    intersection.
    """
    basis_a = canonical_rows(field, rows_a)
    eb = SparseEliminator(field)
    eb.add_all(rows_b)
    residuals = TaggedRows(field, [eb.reduce(r) for r in basis_a])
    return canonical_rows(
        field, [combine(field, basis_a, k.items()) for k in residuals.kernel_rows()]
    )
