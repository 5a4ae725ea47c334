"""Tests for exact cyclotomic scalars, matrices and canonical subspaces."""

import random
from fractions import Fraction

import pytest

from nkoszul.cyclo import cyclotomic_polynomial
from nkoszul.scalar import (
    DimensionMismatch,
    MatrixS,
    Scalar,
    Subspace,
    format_scalar,
    image,
    kernel,
    parse_scalar,
    rank,
    rref,
)


def S(x):
    return Scalar.rational(x)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 12])
def test_zeta_is_root_of_its_cyclotomic_polynomial(m):
    z = Scalar.zeta(m)
    phi = cyclotomic_polynomial(m)
    acc = Scalar.zero(m)
    for k, c in enumerate(phi):
        acc = acc + z**k * c
    assert acc.is_zero()


def test_rational_case_matches_fraction_arithmetic():
    a = Scalar.rational(Fraction(3, 2))
    b = Scalar.rational(Fraction(-1, 3))
    assert (a + b).as_fraction() == Fraction(7, 6)
    assert (a * b).as_fraction() == Fraction(-1, 2)
    assert (a / b).as_fraction() == Fraction(-9, 2)
    assert (a - a).is_zero()


def test_scalar_coeffs_are_reduced_fractions():
    s = Scalar.rational(Fraction(4, 6))
    (c,) = s.coeffs
    assert c.numerator == 2 and c.denominator == 3


def test_field_inverse_random_cyclotomic():
    rng = random.Random(7)
    for m in (3, 4, 5, 8):
        deg = len(cyclotomic_polynomial(m)) - 1
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)]
            s = Scalar.from_coeffs(coeffs, m)
            if s.is_zero():
                continue
            assert (s * s.inverse()) == Scalar.one(m)


def test_scalar_literal_round_trip():
    cases = ["3/2", "zeta^2 - 1/3", "-zeta + 2", "0", "5", "-2/7", "zeta"]
    for text in cases:
        s = parse_scalar(text, 5)
        again = parse_scalar(format_scalar(s), 5)
        assert s == again


def test_scalar_literal_canonical_form():
    assert format_scalar(parse_scalar("3/2", 1)) == "3/2"
    assert format_scalar(parse_scalar("zeta^2-1/3", 5)) == "zeta^2 - 1/3"
    # zeta^2 reduces to -1 - zeta mod 1 + x + x^2 over conductor 3
    assert format_scalar(parse_scalar("zeta^2", 3)) == "-zeta - 1"
    assert format_scalar(parse_scalar("zeta^2 + zeta", 3)) == "-1"
    assert parse_scalar("2*zeta^3", 4) == -2 * Scalar.zeta(4)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("zeta^", 3)
    with pytest.raises(ValueError):
        parse_scalar("1 + + 2", 1)
    with pytest.raises(ValueError):
        parse_scalar("x", 1)


# -- rref ---------------------------------------------------------------


def test_rref_full_rank_diagonal():
    m = MatrixS.from_rows([[2, 0], [0, 3]])
    s = rref(m)
    assert s.rows == [{0: S(1).raw}, {1: S(1).raw}]
    assert s.pivots == (0, 1)


def test_rref_proportional_rows():
    m = MatrixS.from_rows([[1, 2], [2, 4]])
    s = rref(m)
    assert s.dim == 1
    assert s.rows == [{0: S(1).raw, 1: S(2).raw}]


def test_rref_cyclotomic_row_scaling():
    # [zeta, zeta^2 + zeta] = [zeta, -1]; scaling by zeta^-1 = zeta^2
    # gives the canonical basis row [1, -zeta^2].
    z = Scalar.zeta(3)
    m = MatrixS.from_rows([[z, z * z + z]], conductor=3)
    s = rref(m)
    assert s.dim == 1
    assert s.rows == [{0: Scalar.one(3).raw, 1: (-(z * z)).raw}]


def test_rref_is_a_projection():
    rng = random.Random(11)
    for _ in range(15):
        rows = [[S(rng.randint(-3, 3)) for _ in range(4)] for _ in range(3)]
        m = MatrixS.from_rows(rows)
        once = rref(m)
        twice = Subspace.from_rows(4, once.rows)
        assert once.rows == twice.rows


# -- sum / intersection ----------------------------------------------------


def test_sum_of_axes_is_plane():
    e1 = rref(MatrixS.from_rows([[S(1), S(0)]]))
    e2 = rref(MatrixS.from_rows([[S(0), S(1)]]))
    assert e1.sum(e2) == Subspace.full(2)


def test_sum_idempotent():
    s = rref(MatrixS.from_rows([[S(1), S(2), S(0)]]))
    assert s.sum(s) == s


def test_sum_diagonal_antidiagonal():
    a = rref(MatrixS.from_rows([[S(1), S(1), S(0)]]))
    b = rref(MatrixS.from_rows([[S(1), S(-1), S(0)]]))
    expect = rref(MatrixS.from_rows([[S(1), S(0), S(0)], [S(0), S(1), S(0)]]))
    assert a.sum(b) == expect


def test_intersection_of_coordinate_planes():
    s = rref(MatrixS.from_rows([[1, 0, 0], [0, 1, 0]]))
    t = rref(MatrixS.from_rows([[0, 1, 0], [0, 0, 1]]))
    expect = rref(MatrixS.from_rows([[0, 1, 0]]))
    assert s.intersect(t) == expect
    assert s.intersect_via_kernel(t) == expect


def test_intersection_with_zero():
    s = rref(MatrixS.from_rows([[1, 2]]))
    z = Subspace.zero(2)
    assert s.intersect(z) == z


def _random_subspace(rng, ambient, nrows):
    rows = [[S(rng.randint(-2, 2)) for _ in range(ambient)] for _ in range(nrows)]
    return rref(MatrixS(nrows, ambient, [x for row in rows for x in row]))


def test_modularity_and_intersection_cross_check():
    rng = random.Random(23)
    for _ in range(25):
        ambient = rng.randint(2, 6)
        s = _random_subspace(rng, ambient, rng.randint(0, ambient))
        t = _random_subspace(rng, ambient, rng.randint(0, ambient))
        inter = s.intersect(t)
        assert inter == s.intersect_via_kernel(t)
        assert s.sum(t).dim + inter.dim == s.dim + t.dim
        assert s.contains_subspace(inter) and t.contains_subspace(inter)


def test_dimension_mismatch_raises():
    s = rref(MatrixS.from_rows([[1, 0]]))
    t = rref(MatrixS.from_rows([[1, 0, 0]]))
    with pytest.raises(DimensionMismatch):
        s.sum(t)
    with pytest.raises(DimensionMismatch):
        s.intersect(t)
    # operands over different fields
    u = rref(MatrixS.from_rows([[1, 0]], 3))
    for op in (s.sum, s.intersect, s.intersect_via_kernel, s.contains_subspace, s.__eq__):
        with pytest.raises(DimensionMismatch):
            op(u)


# -- kernel / image ---------------------------------------------------------


def test_kernel_of_zero_map_is_everything():
    m = MatrixS.from_rows([[0, 0, 0]])
    assert kernel(m) == Subspace.full(3)


def test_kernel_of_sum_functional():
    m = MatrixS.from_rows([[1, 1]])
    expect = rref(MatrixS.from_rows([[S(1), S(-1)]]))
    assert kernel(m) == expect


def test_rank_nullity_random():
    rng = random.Random(5)
    for _ in range(25):
        r = rng.randint(1, 4)
        c = rng.randint(1, 5)
        m = MatrixS.from_rows([[S(rng.randint(-2, 2)) for _ in range(c)] for _ in range(r)])
        assert rank(m) + kernel(m).dim == c


def test_image_is_column_space():
    m = MatrixS.from_rows([[1, 0], [2, 0], [0, 0]])
    expect = rref(MatrixS.from_rows([[S(1), S(2), S(0)]]))
    assert image(m) == expect


def test_subspace_equality_is_canonical():
    # Same plane presented by different spanning sets.
    a = rref(MatrixS.from_rows([[1, 1, 0], [0, 2, 0]]))
    b = rref(MatrixS.from_rows([[3, 0, 0], [5, 7, 0]]))
    assert a == b
    assert hash(a) == hash(b)
