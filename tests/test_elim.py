"""The sparse engine, its row operations, and the word and letter operations
of TensorContext."""

import random
from fractions import Fraction

import pytest

from nkoszul.cyclo import get_field
from nkoszul.elim import (
    SparseEliminator,
    TaggedRows,
    accumulate,
    add_maps,
    add_scaled,
    add_shifted,
    back_substitute,
    canonical_rows,
    combine,
    compose_maps,
    echelon_add,
    express,
    intersection,
    negated,
    normal_form,
    pivot_index,
    rank,
    reduced_row,
)
from nkoszul.scalar import MatrixS, Scalar, Subspace, rref, rref_raw
from nkoszul.smashtensor import GroupData, TensorContext
from reduced_eliminator import ReducedEliminator

Q = get_field(1)


def F(*args):
    """The raw value in Q of ``Fraction(*args)``."""
    return Q.from_fraction(Fraction(*args))


def random_rows(rng, count, width=4):
    """Sparse rows over Q with small entries and no stored zeros."""
    rows = []
    for _ in range(count):
        cols = rng.sample(range(width), rng.randint(1, width))
        rows.append({c: F(v) for c in cols if (v := rng.randint(-3, 3))})
    return rows


def test_add_scaled_and_combine_drop_cancelled_entries():
    out = {0: F(1), 1: F(2)}
    add_scaled(Q, out, {1: F(1), 2: F(3)}, F(-2))
    assert out == {0: F(1), 2: F(-6)}
    rows = [{0: F(1), 1: F(1)}, {1: F(1)}]
    assert combine(Q, rows, [(0, F(2)), (1, F(-2))]) == {0: F(2)}


def test_add_scaled_by_a_sign_matches_the_general_product():
    for field in (Q, get_field(3)):
        z = Scalar.zeta(3).raw if field is not Q else F(2)
        row = {0: field.one, 2: z}
        for c in (field.one, field.neg(field.one), z):
            out = {0: field.one, 1: z}
            add_scaled(field, out, row, c)
            expected = {0: field.add(field.one, field.mul(c, field.one)), 1: z, 2: field.mul(c, z)}
            assert out == {k: v for k, v in expected.items() if not field.is_zero(v)}
        out = dict(row)
        add_scaled(field, out, row, field.neg(field.one))
        assert out == {}


class CountingField:
    """A field whose arithmetic counts its calls by name."""

    def __init__(self, field):
        self.field = field
        self.zero = field.zero
        self.one = field.one
        self.minus_one = field.minus_one
        self.calls: dict = {}

    def __getattr__(self, name):
        method = getattr(self.field, name)

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args)

        return counted


def test_normal_form_cancels_the_pivot_entry_without_arithmetic():
    rows = {0: {0: Q.one, 2: F(3)}, 1: {1: Q.one, 2: F(2)}}
    vec = {0: F(1), 1: F(2), 3: F(5)}
    field = CountingField(Q)
    out = normal_form(field, rows, vec)
    assert out == {2: F(-7), 3: F(5)}
    assert vec == {0: F(1), 1: F(2), 3: F(5)}
    # coefficient 1 is a sign: its tail entry 3 is negated, no product;
    # coefficient 2 is negated once, then one product and one addition
    # into column 2; the pivot columns 0 and 1 cost no arithmetic
    assert field.calls == {"neg": 2, "mul": 1, "add": 1, "is_zero": 2}
    eliminator = ReducedEliminator(Q)
    eliminator.add_all(rows.values())
    assert eliminator.reduce(vec) == out
    # express reads the same coefficients and clears the pivots the same way
    field.calls.clear()
    canonical = [rows[0], rows[1]]
    assert express(field, canonical, pivot_index(canonical), {0: F(1), 1: F(2), 2: F(7)}) == [
        (0, F(1)),
        (1, F(2)),
    ]
    assert field.calls == {"sub": 1, "neg": 1, "mul": 1, "add": 1, "is_zero": 2}


def test_normal_form_takes_a_sign_row_entry_without_a_product():
    # F(-1) is the field's minus_one object, so the tail entry of row 1
    # turns its coefficient's negation, -2, back into 2 by one more neg
    rows = {0: {0: Q.one, 2: F(3)}, 1: {1: Q.one, 2: F(-1)}}
    assert rows[1][2] is Q.minus_one
    vec = {0: F(1), 1: F(2), 3: F(5)}
    field = CountingField(Q)
    assert normal_form(field, rows, vec) == {2: F(-1), 3: F(5)}
    assert field.calls == {"neg": 3, "add": 1, "is_zero": 2}


def test_negated_takes_signs_without_arithmetic():
    for field in (Q, get_field(3)):
        counting = CountingField(field)
        assert negated(counting, field.one) is field.minus_one
        assert negated(counting, field.minus_one) is field.one
        assert counting.calls == {}
        z = field.add(field.one, field.one)
        assert negated(counting, z) == field.neg(z)


def test_add_scaled_leaves_out_the_skipped_column():
    out = {0: F(1)}
    add_scaled(Q, out, {0: F(1), 1: F(2)}, F(3), skip=0)
    assert out == {0: F(1), 1: F(6)}


def test_add_shifted_is_add_scaled_of_the_moved_columns():
    """Same keys in the same order, same values and the same arithmetic;
    columns at or past ``stop`` are left out and reported."""
    for field in (Q, get_field(3)):
        z = field.add(field.one, field.one)
        row = {4: field.one, 0: z, 9: field.minus_one, 2: field.neg(z)}
        for c in (field.one, field.minus_one, z):
            shifted, scaled = CountingField(field), CountingField(field)
            got = {10: field.one, 12: z}
            assert add_shifted(shifted, got, row, c, 10, 9) is False
            expected = {10: field.one, 12: z}
            add_scaled(scaled, expected, {k + 10: v for k, v in row.items() if k < 9}, c)
            assert list(got.items()) == list(expected.items())
            assert shifted.calls == scaled.calls
        out: dict = {}
        assert add_shifted(field, out, {0: z, 1: z}, field.one, 3, 9) is True
        assert out == {3: z, 4: z}


def test_subtracting_a_sign_entry_gives_the_other_sign_object():
    """c = -1 onto a missing key turns ``field.one`` into ``field.minus_one``
    and back, the objects themselves and with no ``neg``, so later
    ``v is one`` tests still see them."""
    for field in (Q, get_field(3)):
        z = field.add(field.one, field.one)
        row = {0: field.one, 1: field.minus_one, 2: z}
        scaled, shifted = CountingField(field), CountingField(field)
        out: dict = {}
        add_scaled(scaled, out, row, field.minus_one)
        assert out[0] is field.minus_one and out[1] is field.one and out[2] == field.neg(z)
        moved: dict = {}
        assert add_shifted(shifted, moved, row, field.minus_one, 5, 9) is True
        assert moved[5] is field.minus_one and moved[6] is field.one and moved[7] == field.neg(z)
        assert scaled.calls == shifted.calls == {"neg": 1, "is_zero": 3}


def test_a_minus_one_entry_scales_to_minus_c_without_a_product():
    """c times a ``field.minus_one`` entry is -c, one ``neg`` and no ``mul``,
    in ``add_scaled`` and in ``add_shifted`` alike."""
    for field in (Q, get_field(3)):
        z = field.add(field.one, field.one)
        row = {0: field.one, 1: field.minus_one, 2: z}
        scaled, shifted = CountingField(field), CountingField(field)
        out: dict = {}
        add_scaled(scaled, out, row, z)
        assert out == {0: z, 1: field.neg(z), 2: field.mul(z, z)}
        moved: dict = {}
        assert add_shifted(shifted, moved, row, z, 5, 9) is True
        assert moved == {5: z, 6: field.neg(z), 7: field.mul(z, z)}
        # one product, for the entry z; the sign entries cost none
        assert scaled.calls == shifted.calls == {"neg": 1, "mul": 1, "is_zero": 3}


def test_accumulate_drops_a_cancelled_key_and_keeps_the_rest():
    out = {0: F(1), 1: F(2)}
    accumulate(Q, out, 1, F(-2))
    assert out == {0: F(1)}
    accumulate(Q, out, 0, F(1, 2))
    accumulate(Q, out, 3, F(5))
    assert out == {0: F(3, 2), 3: F(5)}
    accumulate(Q, out, 4, F(0))
    assert out == {0: F(3, 2), 3: F(5)}


def test_add_maps_cancels_columns_and_keeps_one_sided_ones():
    a = {0: {0: F(1), 1: F(2)}, 1: {2: F(1)}}
    b = {0: {0: F(1, 2), 1: F(1)}, 2: {0: F(3)}}
    # column 0 cancels to empty, column 1 is only in a, column 2 only in b
    assert add_maps(Q, a, b, F(-2), 3) == {0: {}, 1: {2: F(1)}, 2: {0: F(-6)}}
    assert a == {0: {0: F(1), 1: F(2)}, 1: {2: F(1)}}


# -- the map kernels against the add_scaled loops they inline ------------------


def compose_maps_by_add_scaled(outer, inner, field):
    """The old composition: one ``add_scaled`` call per inner entry."""
    cols = {}
    for src, vec in inner.items():
        out: dict = {}
        for mid, c in vec.items():
            add_scaled(field, out, outer.get(mid, {}), c)
        cols[src] = out
    return cols


def add_maps_by_add_scaled(field, a, b, c, n_cols):
    """The old sum: a copy of each column of ``a`` and one ``add_scaled`` call."""
    cols = {}
    for src in range(n_cols):
        out = dict(a.get(src, {}))
        add_scaled(field, out, b.get(src, {}), c)
        cols[src] = out
    return cols


def kernel_values(field, rng):
    """Sign objects, signs as fresh tuples, zeta powers and small fractions."""
    values = [field.one, field.minus_one, tuple(list(field.one)), tuple(list(field.minus_one))]
    values += [field.zeta_power(k) for k in range(1, field.conductor)]
    values += [field.from_fraction(Fraction(rng.choice((-3, -2, 2, 5)), rng.choice((1, 1, 2, 3)))) for _ in range(4)]
    return values


def random_kernel_map(rng, field, ncols, nrows, values):
    """A column map with empty and missing columns and no stored zeros."""
    cols = {}
    for src in range(ncols):
        kind = rng.random()
        if kind < 0.15:
            continue  # a missing column
        if kind < 0.25:
            cols[src] = {}
            continue
        rows = rng.sample(range(nrows), rng.randint(1, min(4, nrows)))
        cols[src] = {r: rng.choice(values) for r in rows}
    return cols


def assert_same_map(got, want, field):
    """Equal dicts, the same key order, and sign objects where the oracle has them."""
    assert got == want
    assert list(got) == list(want)
    for src in want:
        assert list(got[src]) == list(want[src])
        for key, w in want[src].items():
            g = got[src][key]
            assert (g is field.one) == (w is field.one)
            assert (g is field.minus_one) == (w is field.minus_one)


def assert_same_arithmetic(counting, oracle):
    """The same field operations as the oracle; only zero tests of entries
    that cannot vanish, a copied one or a first one, are left out."""
    ops = {k: v for k, v in counting.calls.items() if k != "is_zero"}
    assert ops == {k: v for k, v in oracle.calls.items() if k != "is_zero"}
    assert counting.calls.get("is_zero", 0) <= oracle.calls.get("is_zero", 0)


@pytest.mark.parametrize("conductor", [1, 3, 6])
def test_compose_maps_matches_the_add_scaled_composition(conductor):
    field = get_field(conductor)
    rng = random.Random(f"compose:{conductor}")
    values = kernel_values(field, rng)
    for _ in range(40):
        n_in, n_mid, n_out = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        outer = random_kernel_map(rng, field, n_mid, n_out, values)
        inner = random_kernel_map(rng, field, n_in, n_mid, values)
        # a column whose terms cancel: outer columns a and -a with equal coefficients
        if n_mid >= 2:
            a = {r: rng.choice(values) for r in rng.sample(range(n_out), min(2, n_out))}
            outer[0] = a
            outer[1] = {r: field.neg(v) for r, v in a.items()}
            c = rng.choice(values)
            inner[n_in] = {0: c, 1: c}
        # one entry per column, as in the wedge isomorphisms
        inner[n_in + 1] = {rng.randrange(n_mid): rng.choice(values)}
        counting, oracle = CountingField(field), CountingField(field)
        got = compose_maps(outer, inner, counting)
        want = compose_maps_by_add_scaled(outer, inner, oracle)
        assert_same_map(got, want, field)
        assert_same_arithmetic(counting, oracle)
        if n_mid >= 2:
            assert got[n_in] == {}


@pytest.mark.parametrize("conductor", [1, 3, 6])
def test_add_maps_matches_the_add_scaled_sum(conductor):
    field = get_field(conductor)
    rng = random.Random(f"add-maps:{conductor}")
    values = kernel_values(field, rng)
    for _ in range(40):
        ncols, nrows = rng.randint(1, 6), rng.randint(1, 6)
        a = random_kernel_map(rng, field, ncols, nrows, values)
        b = random_kernel_map(rng, field, ncols, nrows, values)
        c = rng.choice(values)
        # column 0 cancels: b's column 0 is -a's column 0 over c
        a[0] = {r: rng.choice(values) for r in rng.sample(range(nrows), min(2, nrows))}
        b[0] = {r: field.neg(field.div(v, c)) for r, v in a[0].items()}
        counting, oracle = CountingField(field), CountingField(field)
        got = add_maps(counting, a, b, c, ncols + 1)
        want = add_maps_by_add_scaled(oracle, a, b, c, ncols + 1)
        assert_same_map(got, want, field)
        assert_same_arithmetic(counting, oracle)
        assert got[0] == {} and got[ncols] == {}


def test_express_reads_coefficients_off_the_pivots():
    rows = canonical_rows(Q, [{0: F(2), 2: F(4)}, {1: F(1), 2: F(-1)}, {0: F(1), 1: F(1)}])
    index = pivot_index(rows)
    assert index == {min(r): t for t, r in enumerate(rows)}
    vec = combine(Q, rows, [(0, F(3)), (1, F(-5, 2))])
    assert express(Q, rows, index, vec) == [(0, F(3)), (1, F(-5, 2))]
    assert express(Q, rows, index, {}) == []


def test_express_rejects_a_vector_outside_the_span():
    rows = canonical_rows(Q, [{0: F(1), 2: F(1)}])
    with pytest.raises(ValueError):
        # right pivot entry, wrong tail
        express(Q, rows, pivot_index(rows), {0: F(1), 2: F(2)})
    with pytest.raises(ValueError):
        express(Q, rows, pivot_index(rows), {1: F(1)})


def test_express_over_a_cyclotomic_field():
    K = get_field(3)
    z = Scalar.zeta(3).raw
    rows = canonical_rows(K, [{0: K.one, 1: z}, {1: K.one, 2: K.mul(z, z)}])
    vec = combine(K, rows, [(0, z), (1, K.one)])
    assert express(K, rows, pivot_index(rows), vec) == [(0, z), (1, K.one)]


def test_tagged_rows_span_kernel_and_solve():
    rng = random.Random(3)
    for _ in range(20):
        gens = random_rows(rng, rng.randint(1, 6))
        tagged = TaggedRows(Q, gens, 4)
        span = tagged.span_rows()
        assert span == canonical_rows(Q, gens)
        kernel = tagged.kernel_rows()
        assert len(kernel) == len(gens) - len(span)
        for k in kernel:
            assert combine(Q, gens, k.items()) == {}
        assert kernel == canonical_rows(Q, kernel)
        target = combine(Q, gens, [(i, F(rng.randint(-2, 2))) for i in range(len(gens))])
        assert combine(Q, gens, tagged.solve(target)) == target


def test_tagged_rows_solve_rejects_a_vector_outside_the_span():
    tagged = TaggedRows(Q, [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}], 2)
    assert tagged.ambient == 2
    assert tagged.kernel_rows() == [{0: F(1), 1: F(-1, 2)}]
    with pytest.raises(ValueError):
        tagged.solve({0: F(1)})


def test_intersection_matches_the_kernel_oracle():
    rng = random.Random(9)
    for _ in range(20):
        a = random_rows(rng, rng.randint(0, 3))
        b = random_rows(rng, rng.randint(0, 3))
        oracle = Subspace.from_rows(4, a).intersect_via_kernel(Subspace.from_rows(4, b))
        assert intersection(Q, a, b, 4) == oracle.rows


def random_entry(rng, field):
    """A small nonzero element: an integer or half-integer over Q, a + b·ζ over Q(ζ3)."""
    while True:
        x = field.from_fraction(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))))
        if field is not Q:
            b = field.from_fraction(Fraction(rng.randint(-2, 2)))
            x = field.add(x, field.mul(b, Scalar.zeta(3).raw))
        if not field.is_zero(x):
            return x


def random_field_rows(rng, field, count, width):
    """Sparse rows over ``field`` with small coefficients, some denominators,
    and about a third of them combinations of earlier rows, so ranks drop."""

    def small():
        return field.from_coeffs(
            [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3))) for _ in range(field.degree)]
        )

    rows = []
    for _ in range(count):
        if len(rows) >= 2 and rng.random() < 0.35:
            rows.append(combine(field, rows, [(i, small()) for i in rng.sample(range(len(rows)), 2)]))
            continue
        cols = rng.sample(range(width), rng.randint(1, min(4, width)))
        rows.append({c: v for c in cols if not field.is_zero(v := small())})
    return rows


def eliminated_rank(field, rows) -> int:
    """The rank by the fully reduced engine, the oracle for ``rank``."""
    eliminator = ReducedEliminator(field)
    eliminator.add_all(rows)
    return len(eliminator.pivot_rows)


@pytest.mark.parametrize("conductor", [1, 3, 4, 6])
def test_echelon_rank_matches_the_eliminator(conductor):
    field = get_field(conductor)
    rng = random.Random(conductor)
    for _ in range(40):
        rows = random_field_rows(rng, field, rng.randint(0, 9), rng.randint(1, 8))
        copies = [dict(r) for r in rows]
        expected = eliminated_rank(field, rows)
        assert rank(field, rows) == expected
        assert rank(field, iter(rows)) == expected
        assert rows == copies


@pytest.mark.parametrize("conductor", [1, 3])
def test_the_level_builder_matches_the_eliminator(conductor):
    """Echelon inserts, a pivot's reduced row on demand and one sweep at the
    end, and ``SparseEliminator`` asked for membership between inserts,
    against the fully reduced ``ReducedEliminator`` fed the same rows in the
    same order."""
    field = get_field(conductor)
    rng = random.Random(40 + conductor)
    probes = random.Random(60 + conductor)
    dependent = unreduced = inside = outside = 0
    for _ in range(60):
        rows = random_field_rows(rng, field, rng.randint(1, 10), rng.randint(2, 9))
        rng.shuffle(rows)
        copies = [dict(r) for r in rows]
        ref = ReducedEliminator(field)
        elim = SparseEliminator(field)
        echelon: dict = {}
        for k, row in enumerate(rows):
            piv = echelon_add(field, echelon, dict(row))
            assert piv == ref.add(row) == elim.add(row)
            dependent += piv is None
            if piv is not None:
                assert min(echelon[piv]) == piv and echelon[piv][piv] is field.one
                assert reduced_row(field, echelon, piv) == ref.pivot_rows[piv]
            assert elim.pivot_rows == echelon
            # a combination of the rows so far, and a row that may come later
            combo = combine(field, rows, [(i, random_entry(probes, field)) for i in range(k + 1)])
            for vec in (combo, probes.choice(rows)):
                red = elim.reduce(vec)
                assert elim.contains(vec) == (not red) == ref.contains(vec)
                if red:
                    outside += 1
                    assert min(red) not in echelon and ref.reduce(red) == ref.reduce(vec)
                else:
                    inside += 1
        unreduced += echelon != ref.pivot_rows
        assert elim.rows_canonical() == ref.rows_canonical()
        back_substitute(field, echelon)
        assert echelon == ref.pivot_rows
        assert [echelon[p] for p in sorted(echelon)] == canonical_rows(field, rows)
        assert rows == copies
    # rows that reduce to zero, levels that the sweep changes, and both
    # membership answers
    assert dependent >= 20 and unreduced >= 20 and inside >= 100 and outside >= 50


@pytest.mark.parametrize("conductor", [1, 3])
def test_tagged_rows_and_intersection_sweep_to_the_reference(conductor):
    """``TaggedRows`` and ``intersection`` sweep once after their last
    insert: the split rows and the solutions equal those read off the fully
    reduced tagged rows, and the intersection equals the kernel oracle."""
    field = get_field(conductor)
    rng = random.Random(80 + conductor)
    raised = 0
    for _ in range(40):
        width = rng.randint(1, 7)
        gens = random_field_rows(rng, field, rng.randint(0, 8), width)
        tagged = TaggedRows(field, gens, width)
        ref = ReducedEliminator(field)
        for i, gen in enumerate(gens):
            ref.add({**gen, width + i: field.one})
        rows = ref.pivot_rows
        assert tagged.span_rows() == [
            {c: v for c, v in rows[p].items() if c < width} for p in sorted(rows) if p < width
        ]
        kernel = tagged.kernel_rows()
        assert kernel == [{c - width: v for c, v in rows[p].items()} for p in sorted(rows) if p >= width]
        assert all(combine(field, gens, k.items()) == {} for k in kernel)
        combo = combine(field, gens, [(i, random_entry(rng, field)) for i in range(len(gens))])
        other = random_field_rows(rng, field, 1, width)[0]
        for vec in (combo, other):
            residual = ref.reduce(vec)
            if any(c < width for c in residual):
                raised += 1
                with pytest.raises(ValueError):
                    tagged.solve(vec)
            else:
                solution = tagged.solve(vec)
                assert solution == sorted((c - width, field.neg(v)) for c, v in residual.items())
                assert combine(field, gens, solution) == vec
        cut = rng.randint(0, len(gens))
        a, b = gens[:cut], gens[cut:]
        spans = [Subspace.from_rows(width, part, conductor) for part in (a, b)]
        assert intersection(field, a, b, width) == spans[0].intersect_via_kernel(spans[1]).rows
    assert raised >= 5


def test_rref_raw_is_the_dense_view_of_the_canonical_rows():
    rows = [[F(0), F(2), F(4)], [F(1), F(1), F(0)], [F(1), F(2), F(2)]]
    red, pivots = rref_raw(Q, rows)
    assert pivots == [0, 1]
    assert red == [[F(1), F(0), F(-2)], [F(0), F(1), F(2)]]
    assert rref_raw(Q, []) == ([], [])


def test_subspace_keeps_sparse_rows():
    s = rref(MatrixS.from_rows([[2, 0, 4], [0, 0, 0]]))
    assert s.rows == [{0: F(1), 2: F(2)}]
    assert s.pivots == (0,)


def symplectic_ctx():
    neg = MatrixS.from_rows([[-1, 0], [0, -1]])
    return TensorContext(2, GroupData.from_generators([neg]))


def test_words_and_numbers_round_trip():
    ctx = symplectic_ctx()
    for length in range(4):
        for num in range(ctx.dimV**length):
            word = ctx.num_word(num, length)
            assert len(word) == length and ctx.word_num(word) == num
            for g in range(ctx.order):
                assert ctx.word_of(ctx.coord(word, g), length) == (word, g)


def as_terms(ctx, row: dict, degree: int) -> dict:
    """A sparse degree-``degree`` row as a term dict."""
    return {ctx.word_of(coord, degree): Scalar(ctx.field, raw) for coord, raw in row.items()}


def test_append_letter_and_row_product_match_the_term_product():
    ctx = symplectic_ctx()
    one = Scalar.one()
    rng = random.Random(4)
    for _ in range(10):
        row = {ctx.coord(ctx.num_word(rng.randrange(4), 2), rng.randrange(2)): F(rng.randint(1, 3))}
        row2 = {rng.randrange(4): F(rng.randint(-2, 2) or 1), rng.randrange(4): F(1)}
        terms = as_terms(ctx, row, 2)
        for letter in range(2):
            expect = ctx.smash_mul_terms(terms, {((letter,), 0): one})
            assert ctx.append_letter(row, letter) == ctx.terms_to_sparse(expect)
        expect = ctx.smash_mul_terms(terms, as_terms(ctx, row2, 1))
        assert ctx.row_product(row, row2, 1) == ctx.terms_to_sparse(expect)
