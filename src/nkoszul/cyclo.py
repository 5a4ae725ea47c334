"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element of Q(zeta_m) is a polynomial in zeta_m of degree below
d = phi(m), reduced modulo the m-th cyclotomic polynomial Phi_m.  Its raw
value is a flat tuple of ints: the numerators of the coefficients of
1, zeta, ..., zeta^(d-1) over one common denominator, then that
denominator, the usual number-field representation (Cohen, *A Course in
Computational Algebraic Number Theory*, 4.2):

* for m = 1 the raw value is ``(num, den)`` (plain rationals),
* for m > 1 the raw value is ``(n_0, ..., n_{d-1}, den)``.

Raw values are canonical: den > 0 and the gcd of all entries is one, so
equal elements have equal raw values, and ``==`` and hashing work on them
directly.  Signs are the field's own objects: every constructor and
operation returns ``field.one`` or ``field.minus_one`` itself for a result
equal to 1 or -1 (``_sign(t, t)`` on every result), so code elsewhere
skips a product by a sign with an ``is`` test and never restores the
objects.  Phi_m is monic, so
the reduction modulo Phi_m stays integral and a product is normalized
once; sums and products of integral elements (den = 1, nearly all of
them) need no gcd at all.

All field operations go through a field object obtained from ``get_field(m)``
so that hot loops elsewhere can work on raw values without wrapper overhead.
``from_fraction``, ``from_coeffs`` and ``to_coeffs`` convert to and from
``Fraction`` coefficients.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add as _add, neg as _neg, sub as _sub


def _poly_divmod_int(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Exact division of integer polynomials with monic-up-to-sign divisor.
    num_l = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quo = [0] * (len(num) - dn) if len(num) > dn else [0]
    for k in range(len(num_l) - 1, dn - 1, -1):
        c = num_l[k]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r != 0:
            raise ArithmeticError("non-exact integer polynomial division")
        quo[k - dn] = q
        for i in range(dn + 1):
            num_l[k - dn + i] -= q * den[i]
    while len(num_l) > 1 and num_l[-1] == 0:
        num_l.pop()
    return tuple(quo), tuple(num_l)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, constant term first, monic."""
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    if m == 1:
        return (-1, 1)
    # Phi_m = (x^m - 1) / prod_{d | m, d < m} Phi_d
    poly: tuple[int, ...] = tuple([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            quo, rem = _poly_divmod_int(poly, cyclotomic_polynomial(d))
            if any(rem[i] for i in range(len(rem))):
                raise ArithmeticError("cyclotomic division left a remainder")
            poly = quo
    return poly


def _normalized(out: list):
    """Canonical raw value of numerators over the positive denominator ``out[-1]``."""
    g = gcd(*out)
    if g != 1:
        out = [x // g for x in out]
    return tuple(out)


class RationalField:
    """Field operations for Q.  Raw values are pairs ``(num, den)``."""

    conductor = 1
    degree = 1

    def __init__(self) -> None:
        self.zero = (0, 1)
        self.one = (1, 1)
        self.minus_one = (-1, 1)
        self._sign = {self.one: self.one, self.minus_one: self.minus_one}.get

    def from_fraction(self, q: Fraction):
        q = Fraction(q)
        t = (q.numerator, q.denominator)
        return self._sign(t, t)

    def add(self, a, b):
        an, ad = a
        bn, bd = b
        t = (an + bn, 1) if ad == 1 and bd == 1 else _normalized([an * bd + bn * ad, ad * bd])
        return self._sign(t, t)

    def sub(self, a, b):
        an, ad = a
        bn, bd = b
        t = (an - bn, 1) if ad == 1 and bd == 1 else _normalized([an * bd - bn * ad, ad * bd])
        return self._sign(t, t)

    def neg(self, a):
        t = (-a[0], a[1])
        return self._sign(t, t)

    def mul(self, a, b):
        an, ad = a
        bn, bd = b
        if ad == 1 and bd == 1:
            t = (an * bn, 1)
        else:
            g1 = gcd(an, bd)
            g2 = gcd(bn, ad)
            t = ((an // g1) * (bn // g2), (ad // g2) * (bd // g1))
        return self._sign(t, t)

    def inv(self, a):
        n, d = a
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        t = (d, n) if n > 0 else (-d, -n)
        return self._sign(t, t)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a[0] == 0

    def to_coeffs(self, a) -> tuple[Fraction, ...]:
        return (Fraction(a[0], a[1]),)

    def from_coeffs(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 1:
            raise ValueError("rational scalar takes exactly one coefficient")
        return self.from_fraction(coeffs[0])

    def zeta_power(self, k: int):
        return self.one


class CyclotomicField:
    """Field operations for Q(zeta_m), m > 1.

    Raw values are tuples ``(n_0, ..., n_{d-1}, den)`` of ints, d = phi(m):
    the element sum n_i zeta^i / den, with den > 0 and the gcd of all
    d + 1 entries equal to one.
    """

    def __init__(self, m: int) -> None:
        self.conductor = m
        phi = cyclotomic_polynomial(m)
        self.degree = d = len(phi) - 1
        self.zero = (0,) * d + (1,)
        self.one = (1,) + (0,) * (d - 1) + (1,)
        self.minus_one = (-1,) + (0,) * (d - 1) + (1,)
        self._sign = {self.one: self.one, self.minus_one: self.minus_one}.get
        self._phi = phi
        # Reduction table: zeta^(d+k) on 1, zeta, ..., zeta^(d-1).  Phi_m is
        # monic, so every entry is an integer.
        table = [[-c for c in phi[:d]]]
        for _ in range(d - 2):
            prev = table[-1]
            table.append([0] + prev[:-1])
            top = prev[-1]
            if top:
                table[-1] = [x + top * y for x, y in zip(table[-1], table[0])]
        self._top = tuple(table[0])  # zeta^d
        self._red = [[(i, c) for i, c in enumerate(row) if c] for row in table]

    def from_fraction(self, q: Fraction):
        q = Fraction(q)
        t = (q.numerator,) + self.zero[1:-1] + (q.denominator,)
        return self._sign(t, t)

    def add(self, a, b):
        da = a[-1]
        db = b[-1]
        if da == 1 and db == 1:
            t = (*map(_add, a[:-1], b), 1)
        else:
            out = [x * db + y * da for x, y in zip(a, b)]
            out[-1] = da * db
            t = _normalized(out)
        return self._sign(t, t)

    def sub(self, a, b):
        da = a[-1]
        db = b[-1]
        if da == 1 and db == 1:
            t = (*map(_sub, a[:-1], b), 1)
        else:
            out = [x * db - y * da for x, y in zip(a, b)]
            out[-1] = da * db
            t = _normalized(out)
        return self._sign(t, t)

    def neg(self, a):
        t = (*map(_neg, a[:-1]), a[-1])
        return self._sign(t, t)

    def mul(self, a, b):
        d = self.degree
        if d == 2:
            # Q(zeta_3), Q(zeta_4), Q(zeta_6): the product in closed form,
            # with zeta^2 = r0 + r1 zeta
            a0, a1, da = a
            b0, b1, db = b
            t = a1 * b1
            r0, r1 = self._top
            out = [a0 * b0 + r0 * t, a0 * b1 + a1 * b0 + r1 * t, da * db]
        else:
            out = [0] * (2 * d)
            for i in range(d):
                ai = a[i]
                if ai:
                    for j in range(d):
                        bj = b[j]
                        if bj:
                            out[i + j] += ai * bj
            for k in range(d, 2 * d - 1):
                c = out[k]
                if c:
                    for i, r in self._red[k - d]:
                        out[i] += c * r
            del out[d + 1 :]
            out[d] = a[d] * b[d]
        t = tuple(out) if out[d] == 1 else _normalized(out)
        return self._sign(t, t)

    def inv(self, a):
        d = self.degree
        r1 = list(a[:d])
        while r1 and r1[-1] == 0:
            r1.pop()
        if not r1:
            raise ZeroDivisionError("division by zero scalar")
        # Fraction-free extended Euclid against Phi_m (irreducible over Q):
        # keep r_i = s_i * num(a) mod Phi_m up to a common integer factor,
        # pseudo-dividing with the leading coefficient, until r_i is a
        # nonzero constant c.  Then 1/a = den * s_i / c.
        r0 = list(self._phi)
        s0: list[int] = [0]
        s1: list[int] = [1]
        while len(r1) > 1:
            lead = r1[-1]
            rem = r0
            quo = [0] * (len(r0) - len(r1) + 1)
            scale = 1
            while len(rem) >= len(r1):
                c = rem[-1]
                shift = len(rem) - len(r1)
                rem = [lead * x for x in rem]
                quo = [lead * x for x in quo]
                for i, y in enumerate(r1):
                    rem[shift + i] -= c * y
                quo[shift] += c
                scale *= lead
                rem.pop()
                while rem and rem[-1] == 0:
                    rem.pop()
            s_new = [scale * x for x in s0] + [0] * max(0, len(quo) + len(s1) - 1 - len(s0))
            for i, q in enumerate(quo):
                if q:
                    for j, s in enumerate(s1):
                        s_new[i + j] -= q * s
            while len(s_new) > 1 and s_new[-1] == 0:
                s_new.pop()
            g = gcd(*rem, *s_new)
            r0, r1 = r1, [x // g for x in rem]
            s0, s1 = s1, [x // g for x in s_new]
        c = r1[0]
        den = a[d]
        if c < 0:
            c, den = -c, -den
        t = _normalized([den * x for x in s1] + [0] * (d - len(s1)) + [c])
        return self._sign(t, t)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    def to_coeffs(self, a) -> tuple[Fraction, ...]:
        den = a[-1]
        return tuple(Fraction(x, den) for x in a[:-1])

    def from_coeffs(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != self.degree:
            raise ValueError(
                f"scalar over conductor {self.conductor} takes {self.degree} coefficients"
            )
        # Over the lcm of reduced denominators the numerators and the lcm
        # are already coprime.
        den = lcm(*(c.denominator for c in coeffs))
        t = tuple(c.numerator * (den // c.denominator) for c in coeffs) + (den,)
        return self._sign(t, t)

    def zeta_power(self, k: int):
        d = self.degree
        k %= self.conductor
        if k < d:
            t = self.zero[:k] + (1,) + self.zero[k + 1 :]
            return self._sign(t, t)
        out = self._top + (1,)
        zeta = self.zeta_power(1) if d >= 2 else out
        for _ in range(k - d):
            out = self.mul(out, zeta)
        return self._sign(out, out)


@lru_cache(maxsize=None)
def get_field(m: int):
    """Field object for Q(zeta_m); m = 1 gives plain rationals."""
    if m == 1:
        return RationalField()
    return CyclotomicField(m)
