"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element of Q(zeta_m) is a polynomial in zeta_m reduced modulo the m-th
cyclotomic polynomial Phi_m, stored as a coefficient vector of Fractions of
length deg(Phi_m) = phi(m).  Two internal representations are used:

* for m = 1 the raw value is a single ``Fraction`` (plain rationals),
* for m > 1 the raw value is a tuple of ``Fraction`` of length phi(m).

All field operations go through a field object obtained from ``get_field(m)``
so that hot loops elsewhere can work on raw values without wrapper overhead.
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

_ZERO = Fraction(0)
_ONE = Fraction(1)


def euler_phi(m: int) -> int:
    """Euler totient of a positive integer."""
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


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


class RationalField:
    """Field operations for Q.  Raw values are ``Fraction`` instances."""

    conductor = 1
    degree = 1

    def __init__(self) -> None:
        self.zero = _ZERO
        self.one = _ONE

    def from_fraction(self, q: Fraction):
        return Fraction(q)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero scalar")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero scalar")
        return a / b

    def is_zero(self, a) -> bool:
        return a == 0

    def is_one(self, a) -> bool:
        return a == 1

    def to_coeffs(self, a) -> tuple[Fraction, ...]:
        return (a,)

    def from_coeffs(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 1:
            raise ValueError("rational scalar takes exactly one coefficient")
        return Fraction(coeffs[0])

    def zeta_power(self, k: int):
        return _ONE


class CyclotomicField:
    """Field operations for Q(zeta_m), m > 1.

    Raw values are tuples of Fractions of length phi(m), coefficient of
    zeta^0 first.
    """

    def __init__(self, m: int) -> None:
        self.conductor = m
        phi = cyclotomic_polynomial(m)
        self.degree = len(phi) - 1
        d = self.degree
        self.zero = tuple([_ZERO] * d)
        self.one = tuple([_ONE] + [_ZERO] * (d - 1))
        self._phi = tuple(Fraction(c) for c in phi)
        # Reduction table: zeta^(d+k) expressed on 1, zeta, ..., zeta^(d-1).
        table = []
        prev = [-self._phi[i] for i in range(d)]  # zeta^d
        table.append(tuple(prev))
        for _ in range(d - 2):
            shifted = [_ZERO] + prev[: d - 1]
            top = prev[d - 1]
            if top:
                for i in range(d):
                    shifted[i] += top * table[0][i]
            prev = shifted
            table.append(tuple(prev))
        self._red = table

    def from_fraction(self, q: Fraction):
        d = self.degree
        return tuple([Fraction(q)] + [_ZERO] * (d - 1))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        d = self.degree
        conv = [_ZERO] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = self._red[k - d]
                for i in range(d):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(out)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("division by zero scalar")
        # Extended Euclid in Q[x] against Phi_m (irreducible over Q).
        r0 = list(self._phi)
        r1 = list(a)
        while len(r1) > 1 and r1[-1] == 0:
            r1.pop()
        s0: list[Fraction] = [_ZERO]
        s1: list[Fraction] = [_ONE]
        while True:
            if len(r1) == 1:
                c = r1[0]
                return self._pad([x / c for x in s1])
            # divide r0 by r1
            quo = [_ZERO] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            for k in range(len(rem) - 1, len(r1) - 2, -1):
                c = rem[k]
                if c == 0:
                    continue
                q = c / r1[-1]
                quo[k - (len(r1) - 1)] = q
                for i in range(len(r1)):
                    rem[k - (len(r1) - 1) + i] -= q * r1[i]
            while len(rem) > 1 and rem[-1] == 0:
                rem.pop()
            # s_new = s0 - quo * s1
            prod = [_ZERO] * (len(quo) + len(s1) - 1)
            for i, qi in enumerate(quo):
                if qi:
                    for j, sj in enumerate(s1):
                        prod[i + j] += qi * sj
            s_new = [_ZERO] * max(len(s0), len(prod))
            for i, x in enumerate(s0):
                s_new[i] += x
            for i, x in enumerate(prod):
                s_new[i] -= x
            r0, r1 = r1, rem
            s0, s1 = s1, s_new

    def _pad(self, coeffs: list[Fraction]):
        d = self.degree
        out = list(coeffs[:d]) + [_ZERO] * max(0, d - len(coeffs))
        # coeffs may exceed degree after multiplication; reduce.
        for k in range(d, len(coeffs)):
            c = coeffs[k]
            if c:
                row = self._red[k - d]
                for i in range(d):
                    out[i] += c * row[i]
        return tuple(out)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)

    def is_one(self, a) -> bool:
        return a[0] == 1 and all(x == 0 for x in a[1:])

    def to_coeffs(self, a) -> tuple[Fraction, ...]:
        return tuple(a)

    def from_coeffs(self, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != self.degree:
            raise ValueError(
                f"scalar over conductor {self.conductor} takes {self.degree} coefficients"
            )
        return coeffs

    def zeta_power(self, k: int):
        d = self.degree
        k %= self.conductor
        if k < d:
            coeffs = [_ZERO] * d
            coeffs[k] = _ONE
            return tuple(coeffs)
        zeta = self.zeta_power(1) if d >= 2 else tuple(self._red[0])
        out = tuple(self._red[0])  # zeta^d reduced
        for _ in range(k - d):
            out = self.mul(out, zeta)
        return out


@lru_cache(maxsize=None)
def get_field(m: int):
    """Field object for Q(zeta_m); m = 1 gives plain rationals."""
    if m == 1:
        return RationalField()
    return CyclotomicField(m)
