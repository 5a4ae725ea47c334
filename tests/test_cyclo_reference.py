"""The field on int tuples against the Fraction-valued field it replaced.

``FractionRationalField`` and ``FractionCyclotomicField`` below are the
previous implementation of ``cyclo``: every coefficient a ``Fraction``, one
per power of zeta.  They are kept here as the reference oracle.  On seeded
operands, integral and not, for several conductors, every field operation
of ``get_field(m)`` must agree with them coefficient for coefficient, and
every raw value must be in canonical form: a flat tuple of ints, numerators
first, over a positive denominator, with gcd one.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from nkoszul.cyclo import cyclotomic_polynomial, get_field

_ZERO = Fraction(0)
_ONE = Fraction(1)

CONDUCTORS = [1, 3, 4, 5, 6, 8, 12]



class FractionRationalField:
    """Q with ``Fraction`` raw values."""

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


class FractionCyclotomicField:
    """Q(zeta_m), m > 1, with tuples of phi(m) Fractions as raw values,
    coefficient of zeta^0 first."""

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


def reference_field(m):
    return FractionRationalField() if m == 1 else FractionCyclotomicField(m)


def ref_coeffs(ref, raw):
    return (raw,) if ref.conductor == 1 else tuple(raw)


def assert_canonical(field, raw):
    assert type(raw) is tuple and len(raw) == field.degree + 1
    assert all(type(x) is int for x in raw)
    assert raw[-1] > 0
    assert gcd(*raw) == 1


def operands(field, rng, count):
    """Zero, one, minus one, every power of zeta, then seeded elements."""
    out = [field.zero, field.one, field.neg(field.one)]
    out += [field.zeta_power(k) for k in range(field.conductor)]
    for i in range(count):
        # a third integral with small entries, the rest over mixed denominators
        if i % 3 == 0:
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(field.degree)]
        else:
            coeffs = [
                Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 9, 25)))
                for _ in range(field.degree)
            ]
        out.append(field.from_coeffs(coeffs))
    return out


@pytest.mark.parametrize("m", CONDUCTORS)
def test_every_operation_matches_the_fraction_field(m):
    field = get_field(m)
    ref = reference_field(m)
    rng = random.Random(f"cyclo:{m}")
    elems = operands(field, rng, 40)

    def to_ref(raw):
        return ref.from_coeffs(field.to_coeffs(raw))

    def same(raw, ref_raw):
        assert_canonical(field, raw)
        assert field.to_coeffs(raw) == ref_coeffs(ref, ref_raw)

    same(field.zero, ref.zero)
    same(field.one, ref.one)
    for k in range(-m, 2 * m + 1):
        same(field.zeta_power(k), ref.zeta_power(k))
    for a in elems:
        ra = to_ref(a)
        same(a, ra)
        assert field.from_coeffs(field.to_coeffs(a)) == a
        same(field.neg(a), ref.neg(ra))
        assert field.is_zero(a) == ref.is_zero(ra)
        assert (a is field.one) == ref.is_one(ra)
        if not field.is_zero(a):
            same(field.inv(a), ref.inv(ra))
        else:
            with pytest.raises(ZeroDivisionError):
                field.inv(a)
    for _ in range(400):
        a, b = rng.choice(elems), rng.choice(elems)
        ra, rb = to_ref(a), to_ref(b)
        same(field.add(a, b), ref.add(ra, rb))
        same(field.sub(a, b), ref.sub(ra, rb))
        same(field.mul(a, b), ref.mul(ra, rb))
        if not field.is_zero(b):
            same(field.div(a, b), ref.div(ra, rb))


@pytest.mark.parametrize("m", CONDUCTORS)
def test_equal_elements_have_equal_raw_values(m):
    field = get_field(m)
    rng = random.Random(f"canonical:{m}")
    for a in operands(field, rng, 20):
        # the same element reached by different routes
        routes = [
            field.sub(field.add(a, field.one), field.one),
            field.mul(field.mul(a, field.from_fraction(Fraction(3, 2))), field.from_fraction(Fraction(2, 3))),
            field.neg(field.neg(a)),
        ]
        if not field.is_zero(a):
            routes.append(field.inv(field.inv(a)))
        for r in routes:
            assert r == a and hash(r) == hash(a)
            assert_canonical(field, r)


@pytest.mark.parametrize("m", CONDUCTORS)
def test_minus_one_is_the_negated_one(m):
    # add_scaled tests a coefficient against minus_one to take its sign path
    field = get_field(m)
    assert field.minus_one == field.neg(field.one)
    assert_canonical(field, field.minus_one)
    assert field.is_zero(field.add(field.minus_one, field.one))
    assert field.mul(field.minus_one, field.minus_one) == field.one


def assert_sign_objects(field, results) -> list:
    """Every (name, value) result equal to 1 or -1 is ``field.one`` or
    ``field.minus_one`` itself; returns the names of those results."""
    names = []
    for name, r in results:
        for sign in (field.one, field.minus_one):
            if r == sign:
                assert r is sign, f"{name} returned a fresh tuple equal to {sign}"
                names.append(name)
    return names


@pytest.mark.parametrize("m", CONDUCTORS)
def test_every_result_equal_to_a_sign_is_the_sign_object(m):
    field = get_field(m)
    rng = random.Random(f"signs:{m}")
    elems = operands(field, rng, 30)
    zeros = [Fraction(0)] * (field.degree - 1)
    # equal to a sign but not the object: operands must not need the objects
    fresh = [tuple(list(field.one)), tuple(list(field.minus_one))]
    results = [
        ("from_fraction", field.from_fraction(Fraction(3, 3))),
        ("from_fraction", field.from_fraction(Fraction(-1))),
        ("from_coeffs", field.from_coeffs([Fraction(2, 2)] + zeros)),
        ("from_coeffs", field.from_coeffs([Fraction(-1)] + zeros)),
    ]
    results += [("zeta_power", field.zeta_power(k)) for k in range(-m, 2 * m + 1)]
    for s in fresh:
        results += [("neg", field.neg(s)), ("inv", field.inv(s))]
        results += [("mul", field.mul(s, s)), ("div", field.div(s, s))]
    for a in elems:
        for s in fresh:
            rest = field.sub(s, a)
            results += [
                ("add", field.add(a, rest)),
                ("add", field.add(rest, a)),
                ("sub", field.sub(field.add(a, s), a)),
                ("neg", field.neg(field.sub(a, field.add(a, s)))),
            ]
            if not field.is_zero(a):
                scaled = field.mul(s, field.inv(a))
                results += [("mul", field.mul(a, scaled)), ("div", field.div(a, field.mul(s, a)))]
                results += [("inv", field.inv(field.mul(a, field.inv(field.mul(s, a)))))]
    for _ in range(300):
        a, b = rng.choice(elems + fresh), rng.choice(elems + fresh)
        results += [("add", field.add(a, b)), ("sub", field.sub(a, b)), ("mul", field.mul(a, b))]
        if not field.is_zero(b):
            results.append(("div", field.div(a, b)))
    names = assert_sign_objects(field, results)
    assert len(names) > 8 * len(elems)
    operations = {"from_fraction", "from_coeffs", "zeta_power", "add", "sub", "neg", "mul", "inv", "div"}
    assert set(names) == operations


def test_the_reference_reduces_by_the_same_polynomials():
    # guards the oracle itself: zeta is a root of Phi_m in both fields
    for m in CONDUCTORS[1:]:
        ref = reference_field(m)
        acc = ref.zero
        for k, c in enumerate(cyclotomic_polynomial(m)):
            acc = ref.add(acc, ref.mul(ref.zeta_power(k), ref.from_fraction(Fraction(c))))
        assert ref.is_zero(acc)
