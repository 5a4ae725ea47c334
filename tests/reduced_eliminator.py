"""A fully reduced incremental eliminator: the reference for the echelon engine.

``nkoszul.elim.SparseEliminator`` keeps echelon rows and back-substitutes
once, when its rows are read.  This class keeps the canonical RREF basis
after every insert instead: each pivot column appears in exactly one row,
with the entry ``field.one``, and a column index finds the rows a new pivot
must be cleared from.  The oracles that read ``pivot_rows`` after each
insert, and the tests that compare the echelon engine with a fully reduced
one, use it.
"""

from __future__ import annotations

from nkoszul.elim import add_scaled, negated, normal_form


class ReducedEliminator:
    """Maintains the RREF of a growing row space over a cyclotomic field."""

    def __init__(self, field):
        self.field = field
        self.pivot_rows: dict[int, dict] = {}
        # column -> pivots of the other rows with an entry in that column
        self._col_index: dict[int, set[int]] = {}

    def reduce(self, row: dict) -> dict:
        """Normal form of a row against the current basis (input unchanged)."""
        return normal_form(self.field, self.pivot_rows, row)

    def add(self, row: dict) -> int | None:
        """Insert a row; returns the new pivot column or None if dependent."""
        field = self.field
        red = self.reduce(row)
        if not red:
            return None
        piv = min(red)
        lead = red[piv]
        if lead is not field.one:
            scaled: dict = {}
            add_scaled(field, scaled, red, field.inv(lead))
            red = scaled
        red[piv] = field.one
        # Back-substitute into the rows holding the new pivot column, so the
        # basis stays fully reduced.  Their entry there cancels by
        # construction, so it is dropped and only the tail is added.
        tail = {j: v for j, v in red.items() if j != piv}
        for hp in self._col_index.pop(piv, ()):
            hrow = self.pivot_rows[hp]
            add_scaled(field, hrow, tail, negated(field, hrow.pop(piv)))
            self._index(tail, hrow, hp)
        self.pivot_rows[piv] = red
        self._index(tail, red, piv)
        return piv

    def _index(self, cols, row: dict, pivot: int) -> None:
        """Bring ``_col_index`` up to date on ``cols`` for the row with this pivot."""
        index = self._col_index
        for j in cols:
            if j not in row:
                holders = index[j]
                holders.discard(pivot)
                if not holders:
                    del index[j]
            elif j in index:
                index[j].add(pivot)
            else:
                index[j] = {pivot}

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
