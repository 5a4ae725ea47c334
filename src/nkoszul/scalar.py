"""Scalars over Q(zeta_m) and deterministic exact linear algebra.

Everything downstream rests on three types:

* ``Scalar`` -- an element of Q(zeta_m), exact and canonical,
* ``MatrixS`` -- a dense row-major matrix of scalars, holding the group's
  generators and forms as the input gives them; nothing multiplies or
  transposes it: ``kernel``, ``image`` and the group closure read its
  sparse raw columns (``MatrixS.sparse_columns``), and ``rref`` and
  ``rank`` its sparse rows,
* ``Subspace`` -- a subspace of k^n held by the canonical sparse RREF rows
  of ``elim.SparseEliminator``, so that equal subspaces have identical rows
  entry for entry.

The subspace operations (sum, intersection, kernel, image, membership) run
on the sparse engine, are pure functions of their inputs and always return
canonical objects.  Operands must share one field: mixing conductors raises
``DimensionMismatch``.  Intersections use the Zassenhaus construction
(``elim.intersection``); the kernel of the combination matrix
(``Subspace.intersect_via_kernel``) is kept as the independent oracle the
tests compare it with.  ``rref_raw`` is a dense-row wrapper over the
engine; nothing in the package calls it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .cyclo import get_field
from .elim import TaggedRows, canonical_rows, combine, express, intersection, pivot_index


class DimensionMismatch(ValueError):
    """Raised when operands live in incompatible ambient spaces."""


def _coerce_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Scalar:
    """An element of the cyclotomic field Q(zeta_m) in reduced form.

    ``conductor`` is m and ``coeffs`` the coefficient vector of length
    phi(m) on the basis 1, zeta, ..., zeta^(phi(m)-1), reduced modulo the
    m-th cyclotomic polynomial.
    """

    __slots__ = ("field", "raw")

    def __init__(self, field, raw):
        self.field = field
        self.raw = raw

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(value, conductor: int = 1) -> "Scalar":
        field = get_field(conductor)
        return Scalar(field, field.from_fraction(_coerce_fraction(value)))

    @staticmethod
    def zero(conductor: int = 1) -> "Scalar":
        field = get_field(conductor)
        return Scalar(field, field.zero)

    @staticmethod
    def one(conductor: int = 1) -> "Scalar":
        field = get_field(conductor)
        return Scalar(field, field.one)

    @staticmethod
    def zeta(conductor: int, power: int = 1) -> "Scalar":
        field = get_field(conductor)
        return Scalar(field, field.zeta_power(power))

    @staticmethod
    def from_coeffs(coeffs: Sequence, conductor: int) -> "Scalar":
        field = get_field(conductor)
        return Scalar(field, field.from_coeffs([_coerce_fraction(c) for c in coeffs]))

    # -- properties ----------------------------------------------------

    @property
    def conductor(self) -> int:
        return self.field.conductor

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self.field.to_coeffs(self.raw)

    def is_zero(self) -> bool:
        return self.field.is_zero(self.raw)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------

    def _coerced(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field is self.field:
                return other
            if other.conductor == 1:
                return Scalar(self.field, self.field.from_fraction(other.coeffs[0]))
            if self.conductor == 1:
                raise DimensionMismatch("cannot mix conductors implicitly")
            raise DimensionMismatch(
                f"conductor mismatch: {self.conductor} vs {other.conductor}"
            )
        return Scalar(self.field, self.field.from_fraction(_coerce_fraction(other)))

    def __add__(self, other):
        other = self._coerced(other)
        return Scalar(self.field, self.field.add(self.raw, other.raw))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerced(other)
        return Scalar(self.field, self.field.sub(self.raw, other.raw))

    def __rsub__(self, other):
        return self._coerced(other).__sub__(self)

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.raw))

    def __mul__(self, other):
        other = self._coerced(other)
        return Scalar(self.field, self.field.mul(self.raw, other.raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerced(other)
        return Scalar(self.field, self.field.div(self.raw, other.raw))

    def __rtruediv__(self, other):
        return self._coerced(other).__truediv__(self)

    def __pow__(self, n: int):
        if n < 0:
            return Scalar(self.field, self.field.inv(self.raw)) ** (-n)
        out = Scalar.one(self.conductor)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.raw))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, str)):
            try:
                other = self._coerced(other)
            except (TypeError, ValueError):
                return NotImplemented
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.conductor != self.conductor:
            if other.is_rational() and self.is_rational():
                return other.coeffs[0] == self.coeffs[0]
            return False
        return self.raw == other.raw

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.conductor, self.coeffs))

    def __repr__(self):
        return f"Scalar({self}, m={self.conductor})"

    def __str__(self):
        return format_scalar(self)


# -- scalar literal syntax ---------------------------------------------

_TOKEN = re.compile(r"\s*(zeta|\^|\*|\+|-|/|\d+)")


def parse_scalar(text: str, conductor: int) -> Scalar:
    """Parse literals like ``"3/2"`` or ``"zeta^2 - 1/3"``.

    The grammar is a signed sum of terms ``coeff``, ``coeff*zeta^k``, or
    ``zeta^k``; ``zeta`` denotes the canonical primitive m-th root.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad scalar literal {text!r} at position {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ValueError("empty scalar literal")

    result = Scalar.zero(conductor)
    i = 0
    sign = 1
    first = True
    while i < len(tokens):
        tok = tokens[i]
        if tok in "+-":
            sign = 1 if tok == "+" else -1
            i += 1
            if i >= len(tokens):
                raise ValueError(f"dangling sign in {text!r}")
        elif not first:
            raise ValueError(f"expected '+' or '-' in {text!r}")
        coeff = Fraction(1)
        have_coeff = False
        if i < len(tokens) and tokens[i].isdigit():
            num = int(tokens[i])
            i += 1
            if i < len(tokens) and tokens[i] == "/":
                i += 1
                if i >= len(tokens) or not tokens[i].isdigit():
                    raise ValueError(f"bad fraction in {text!r}")
                if int(tokens[i]) == 0:
                    raise ValueError(f"zero denominator in {text!r}")
                coeff = Fraction(num, int(tokens[i]))
                i += 1
            else:
                coeff = Fraction(num)
            have_coeff = True
        if i < len(tokens) and tokens[i] == "*":
            i += 1
            if i >= len(tokens) or tokens[i] != "zeta":
                raise ValueError(f"expected zeta after '*' in {text!r}")
        if i < len(tokens) and tokens[i] == "zeta":
            if conductor == 1:
                raise ValueError("zeta literals need a conductor greater than 1")
            i += 1
            power = 1
            if i < len(tokens) and tokens[i] == "^":
                i += 1
                if i >= len(tokens) or not tokens[i].isdigit():
                    raise ValueError(f"bad zeta power in {text!r}")
                power = int(tokens[i])
                i += 1
            term = Scalar.zeta(conductor, power) * Scalar.rational(coeff, conductor)
        elif have_coeff:
            term = Scalar.rational(coeff, conductor)
        else:
            raise ValueError(f"expected a term in {text!r}")
        result = result + term * sign
        sign = 1
        first = False
    return result


def format_scalar(s: Scalar) -> str:
    """Canonical literal form; ``parse_scalar(format_scalar(s), m) == s``."""
    coeffs = s.coeffs
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        else:
            zeta = "zeta" if k == 1 else f"zeta^{k}"
            body = zeta if mag == 1 else f"{mag}*{zeta}"
        parts.append((sign, body))
    if not parts:
        return "0"
    head_sign, head = parts[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# -- matrices ----------------------------------------------------------


class MatrixS:
    """Dense row-major matrix of scalars over a fixed conductor."""

    __slots__ = ("rows", "cols", "entries", "conductor")

    def __init__(self, rows: int, cols: int, entries: Sequence[Scalar], conductor: int | None = None):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch("entry count does not match shape")
        if conductor is None:
            conductor = entries[0].conductor if entries else 1
        field = get_field(conductor)
        fixed = []
        for e in entries:
            if not isinstance(e, Scalar):
                e = Scalar.rational(e, conductor)
            elif e.conductor != conductor:
                if e.conductor == 1:
                    e = Scalar(field, field.from_fraction(e.coeffs[0]))
                else:
                    raise DimensionMismatch("mixed conductors in matrix")
            fixed.append(e)
        self.rows = rows
        self.cols = cols
        self.entries = tuple(fixed)
        self.conductor = conductor

    @staticmethod
    def from_rows(rows: Sequence[Sequence], conductor: int = 1) -> "MatrixS":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Scalar] = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            for x in r:
                flat.append(x if isinstance(x, Scalar) else Scalar.rational(x, conductor))
        return MatrixS(nrows, ncols, flat, conductor)

    def sparse_columns(self, field) -> list[dict]:
        """The columns as sparse raw vectors over ``field``, which must hold
        the entries."""
        out = []
        for j in range(self.cols):
            col = {}
            for i in range(self.rows):
                raw = to_raw(field, self.entries[i * self.cols + j])
                if not field.is_zero(raw):
                    col[i] = raw
            out.append(col)
        return out

    def __eq__(self, other):
        if not isinstance(other, MatrixS):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        c = self.cols
        body = "; ".join(
            " ".join(str(x) for x in self.entries[i * c : (i + 1) * c]) for i in range(self.rows)
        )
        return f"MatrixS[{self.rows}x{self.cols}: {body}]"


# -- row echelon views over the sparse engine ---------------------------


def _sparse(field, vec) -> dict:
    return {j: x for j, x in enumerate(vec) if not field.is_zero(x)}


def _dense(field, row: dict, n: int) -> list:
    out = [field.zero] * n
    for j, x in row.items():
        out[j] = x
    return out


def rref_raw(field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of dense raw-valued rows.  Returns (rows, pivots).

    A dense view of the canonical rows of ``SparseEliminator``.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    canon = canonical_rows(field, [_sparse(field, r) for r in rows])
    return [_dense(field, r, ncols) for r in canon], [min(r) for r in canon]


class Subspace:
    """A subspace of k^n held by its canonical RREF rows.

    ``rows`` are the sparse canonical rows of ``SparseEliminator`` (column to
    raw value, sorted by pivot, pivot entry one, each pivot column zero in
    every other row); callers must not mutate them.
    """

    __slots__ = ("ambient_dim", "rows", "conductor")

    def __init__(self, ambient_dim: int, rows: list[dict], conductor: int = 1):
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.conductor = conductor

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def field(self):
        return get_field(self.conductor)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(min(r) for r in self.rows)

    @staticmethod
    def from_rows(ambient_dim: int, rows, conductor: int = 1) -> "Subspace":
        """Span of sparse raw-valued rows over Q(zeta_conductor)."""
        return Subspace(ambient_dim, canonical_rows(get_field(conductor), rows), conductor)

    @staticmethod
    def zero(ambient_dim: int, conductor: int = 1) -> "Subspace":
        return Subspace(ambient_dim, [], conductor)

    @staticmethod
    def full(ambient_dim: int, conductor: int = 1) -> "Subspace":
        one = get_field(conductor).one
        return Subspace(ambient_dim, [{i: one} for i in range(ambient_dim)], conductor)

    def _common(self, other: "Subspace", what: str) -> int:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(f"{what} needs equal ambient dimensions")
        if self.conductor != other.conductor:
            raise DimensionMismatch(f"{what} needs subspaces over one field")
        return self.conductor

    def sum(self, other: "Subspace") -> "Subspace":
        m = self._common(other, "subspace sum")
        return Subspace.from_rows(self.ambient_dim, self.rows + other.rows, m)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection by the Zassenhaus construction (``elim.intersection``)."""
        m = self._common(other, "intersection")
        n = self.ambient_dim
        return Subspace(n, intersection(self.field, self.rows, other.rows, n), m)

    def intersect_via_kernel(self, other: "Subspace") -> "Subspace":
        """Intersection through the kernel of the combination matrix [basis(self); basis(other)].

        A kernel vector (c, d) with sum c_i a_i + sum d_j b_j = 0 gives the
        common vector sum c_i a_i.  The tests' independent oracle for
        ``intersect``.
        """
        m = self._common(other, "intersection")
        field = get_field(m)
        a = self.rows
        if not a or not other.rows:
            return Subspace.zero(self.ambient_dim, m)
        combos = TaggedRows(field, a + other.rows, self.ambient_dim).kernel_rows()
        vecs = [combine(field, a, [(i, c) for i, c in k.items() if i < len(a)]) for k in combos]
        return Subspace.from_rows(self.ambient_dim, vecs, m)

    def contains(self, vector: Sequence[Scalar]) -> bool:
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch("vector length differs from ambient dimension")
        field = self.field
        return self._contains_rows([_sparse(field, [to_raw(field, x) for x in vector])])

    def contains_subspace(self, other: "Subspace") -> bool:
        self._common(other, "containment")
        return self._contains_rows(other.rows)

    def _contains_rows(self, rows: list[dict]) -> bool:
        index = pivot_index(self.rows)
        try:
            for r in rows:
                express(self.field, self.rows, index, r)
        except ValueError:
            return False
        return True

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            return False
        self._common(other, "comparison")
        return self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, self.pivots))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def to_raw(field, x):
    """Raw value of a Scalar or rational literal in ``field``."""
    if isinstance(x, Scalar):
        return x.raw if x.field is field else field.from_fraction(x.as_fraction())
    return field.from_fraction(_coerce_fraction(x))


def rref(matrix: MatrixS) -> Subspace:
    """Row space of a matrix in canonical reduced row echelon form."""
    field = get_field(matrix.conductor)
    c = matrix.cols
    rows = [
        _sparse(field, [to_raw(field, x) for x in matrix.entries[i * c : (i + 1) * c]])
        for i in range(matrix.rows)
    ]
    return Subspace.from_rows(c, rows, matrix.conductor)


def kernel(matrix: MatrixS) -> Subspace:
    """Exact right kernel {x : M x = 0} as a canonical subspace of k^cols.

    The kernel of M is the kernel of the combination matrix of its columns.
    """
    field = get_field(matrix.conductor)
    rows = TaggedRows(field, matrix.sparse_columns(field), matrix.rows).kernel_rows()
    return Subspace(matrix.cols, rows, matrix.conductor)


def image(matrix: MatrixS) -> Subspace:
    """Column space of a matrix as a canonical subspace of k^rows."""
    field = get_field(matrix.conductor)
    return Subspace.from_rows(matrix.rows, matrix.sparse_columns(field), matrix.conductor)


def rank(matrix: MatrixS) -> int:
    return rref(matrix).dim
