"""The oracle's quotient levels against the full-space elimination of J^D.

``reference(pres, D)`` row-reduces J^D in F^D = ``Filtration(ctx, D)``, the
way the oracle did before it built F^nU level by level.  The oracle itself
never lays out F^D: its tower builds every level up to D, each once, by
one rule (P times basis monomials).  Past the first failing degree n0 a
level also starts from the rows that collapsed one level down, the
lower-degree elements that vanished there, and from V times them.  On
inputs that satisfy the equalities the tower must give the reference's
dimensions, its standard monomials (the non-pivot coordinates of the
reference) and its products in the truncated algebra; on inputs that do
not, the tower must fail at the reference's first failing degree, give the
same dimensions and equalities at every degree, and its witness must be a
valid element written over the standard monomials.  A witness is one
representative, not a canonical one, so it is checked against what it
must be, not against the reference's.
"""

import gc
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from nkoszul import homogeneous
from nkoszul.filtered import (
    FilteredPresentation,
    OracleEngine,
    build_down_up,
    build_lie,
    oracle_pbw,
    pbw_verdict,
)
from nkoszul.grouppres import PsiMap, build_H_psi
from nkoszul.homogeneous import _Tower
from nkoszul.jsonio import load_input
from nkoszul.komplex import NComplexSlice, TruncatedU
from nkoszul.scalar import MatrixS, Scalar
from nkoszul.smashtensor import Filtration, FilteredSubspace, GroupData, TensorContext, terms_to_json
from reduced_eliminator import ReducedEliminator

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def sl2():
    return build_lie({(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})


def non_jacobi():
    return build_lie({(1, 3): {1: 1}, (2, 3): {3: 1}}, dimV=3)


def fixture(name):
    pres, _ = load_input(str(FIXTURES / f"{name}.json"))
    return pres


def reference(pres, D):
    """Row-reduce J^D in F^D: the equalities and dimensions up to D, and the
    first failing equality's witness as a row of ``layout``.

    J^n is spanned by J^{n-1}, V·J^{n-1} and P·V^{⊗(n-N)}; only the rows
    new at the previous degree need the letter in front.  Rows of J^n lie
    in F^n, and a new pivot inside F^{n-1} is a witness that the equality
    at degree n fails.
    """
    ctx = pres.ctx
    layout = Filtration(ctx, D)
    elim = ReducedEliminator(ctx.field)
    ref = SimpleNamespace(ctx=ctx, D=D, layout=layout, elim=elim, j_dims={}, equalities={}, witness=None)
    p_rows = pres.P.extend_top(D).basis_sparse()
    pv_rows = p_rows  # P · V^{⊗m}, advanced each degree
    t_hat = []
    for n in range(pres.N, D + 1):
        if n == pres.N:
            new_rows = list(p_rows)
        else:
            new_rows = [layout.left_mul(r, letter, 0, layout) for r in t_hat for letter in range(ctx.dimV)]
            pv_rows = [layout.right_mul(r, letter, 0, layout) for r in pv_rows for letter in range(ctx.dimV)]
            new_rows.extend(pv_rows)
        t_hat = []
        holds = True
        for row in new_rows:
            piv = elim.add(row)
            if piv is None:
                continue
            t_hat.append(dict(elim.pivot_rows[piv]))
            if piv >= layout.start[n - 1]:
                if ref.witness is None:
                    ref.witness = (n, dict(elim.pivot_rows[piv]))
                holds = False
        ref.j_dims[n] = len(elim.pivot_rows)
        ref.equalities[n] = holds
    return ref


def reference_std(ref):
    """The non-pivot coordinates of each block of the full-space rows."""
    layout = ref.layout
    pivots = ref.elim.pivot_rows
    return [
        [c for c in range(layout.start[d], layout.start[d] + ref.ctx.component_dim(d)) if c not in pivots]
        for d in range(ref.D + 1)
    ]


def reference_gr_dims(ref):
    """dim F^nU − dim F^{n−1}U for n ≤ D, where dim F^nU = dim F^n − dim J^n
    and J^n = 0 below N."""
    fu = [
        sum(ref.ctx.component_dim(d) for d in range(n + 1)) - ref.j_dims.get(n, 0)
        for n in range(ref.D + 1)
    ]
    return [top - below for below, top in zip([0] + fu, fu)]


def tower_std(engine, layout):
    """The tower's standard monomials of each degree, as layout coordinates."""
    return [[layout.coord(w, g) for w, g in engine.tower.reps(d)] for d in range(engine.D + 1)]


def first_failure(engine):
    return min((n for n, ok in engine.equalities.items() if not ok), default=None)


@pytest.mark.parametrize(
    "build, D",
    [
        (sl2, 8),
        (lambda: build_down_up(2, -1, 1), 10),
        (lambda: fixture("sr_z6"), 6),
        (lambda: fixture("cubic_z3"), 6),
    ],
    ids=["sl2", "down_up", "sr_z6", "cubic_z3"],
)
def test_tower_matches_the_full_space_elimination(build, D):
    pres = build()
    engine = OracleEngine(pres, D)
    assert engine.tower.ensure(D) is None
    engine.run()
    ref = reference(pres, D)
    assert engine.j_dims == ref.j_dims
    assert engine.equalities == ref.equalities
    assert all(ref.equalities.values())
    assert tower_std(engine, ref.layout) == reference_std(ref)


def all_relations(pres):
    """Every canonical row of P as terms (word, g, raw): the oracle tower's
    relations before ``elim.generators`` keeps P's right K-generators."""
    layout = pres.P.layout
    return [[(*layout.decode(c), raw) for c, raw in row.items()] for row in pres.P.basis_sparse()]


def all_graded_relations(pres):
    """Every canonical row of R as terms: the graded tower's relations before pruning."""
    ctx = pres.ctx
    rows = pres.homogenization().R.basis_sparse()
    return [[(*ctx.word_of(c, pres.N), raw) for c, raw in row.items()] for row in rows]


def random_presentation(rng):
    """A small random filtered presentation: N in {2, 3}, 1-3 elements."""
    kind = rng.choice(["trivial2", "trivial3", "minus", "swap"])
    if kind.startswith("trivial"):
        dimV = int(kind[-1])
        group = GroupData.trivial(dimV)
    else:
        dimV = 2
        mat = [[-1, 0], [0, -1]] if kind == "minus" else [[0, 1], [1, 0]]
        group = GroupData.from_generators([MatrixS.from_rows(mat)])
    ctx = TensorContext(dimV, group)
    N = rng.choice([2, 3])
    elements = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            # the top degree most often, constants and lower degrees too
            degree = rng.choice([N, N, N, rng.randrange(N)])
            word = tuple(rng.randrange(dimV) for _ in range(degree))
            g = rng.randrange(group.order)
            terms[(word, g)] = Scalar.rational(Fraction(rng.randint(-2, 2)))
        elements.append(terms)
    P = FilteredSubspace.from_elements(ctx, N, elements, close=True)
    D = N + rng.randint(1, 3 if dimV == 2 else 2)
    return FilteredPresentation(ctx, N, P), D


def test_tower_agrees_with_the_full_space_on_random_presentations():
    rng = random.Random(12)
    outcomes = Counter()
    for _ in range(150):
        pres, D = random_presentation(rng)
        ref = reference(pres, D)
        engine = OracleEngine(pres, D)
        failed = engine.tower.ensure(D)
        assert failed == first_failure(ref)
        outcomes["pbw" if failed is None else "at N" if failed == pres.N else "above N"] += 1
        std = tower_std(engine, ref.layout) if failed is None else None
        engine.run()
        # failing inputs have their levels past the first failure too
        assert (engine.j_dims, engine.equalities) == (ref.j_dims, ref.equalities)
        assert engine.candidate_gr_dims == reference_gr_dims(ref)
        if failed is None:
            assert engine.witness is None
            assert std == reference_std(ref)
        else:
            assert engine.witness[0] == ref.witness[0] == failed
            assert_valid_witness(pres, engine)
            outcomes["continued"] += failed < D
    # passing and failing inputs, failures past the first level too, and
    # failures below D, so the tower has levels past the failure to build
    assert min(outcomes[k] for k in ("pbw", "at N", "above N", "continued")) >= 10


def placement_span(pres, top):
    """The span of words·P·words of degree at most ``top``, built term by
    term with the smash product, and the map from term dicts to its rows."""
    ctx = pres.ctx
    field = ctx.field
    one = Scalar.one(ctx.conductor)
    P = pres.P
    p_terms = [
        {P.layout.decode(c): Scalar(field, v) for c, v in row.items()} for row in P.basis_sparse()
    ]
    index: dict = {}

    def vector(terms):
        return {index.setdefault(key, len(index)): c.raw for key, c in terms.items() if not c.is_zero()}

    span = ReducedEliminator(field)
    for i in range(top - pres.N + 1):
        for j in range(top - pres.N - i + 1):
            for left in itertools.product(range(ctx.dimV), repeat=i):
                for right in itertools.product(range(ctx.dimV), repeat=j):
                    for p in p_terms:
                        elem = ctx.smash_mul_terms(ctx.smash_mul_terms({(left, 0): one}, p), {(right, 0): one})
                        span.add(vector(elem))
    return span, vector


def assert_valid_witness(pres, engine):
    """The witness lies in J^n0 ∩ F^(n0-1) and outside J^(n0-1)."""
    n0, row = engine.witness
    terms = {key: Scalar(pres.ctx.field, v) for key, v in row.items()}
    assert terms and max(len(word) for word, _ in terms) < n0
    upper, vector = placement_span(pres, n0)
    lower, lower_vector = placement_span(pres, n0 - 1)
    assert not upper.reduce(vector(terms))
    assert lower.reduce(lower_vector(terms))


def non_equivariant_h_psi():
    """h_psi for Z/3 = <diag(zeta, zeta)> over Q(zeta3): Λ²V carries det = zeta^2,
    so no psi supported on the group is equivariant."""
    z = Scalar.zeta(3)
    group = GroupData.from_generators([MatrixS.from_rows([[z, 0], [0, z]], 3)])
    for g in range(group.order):
        yield build_H_psi(group, PsiMap(2, 2, group.order, {g: {(0, 1): z}}, conductor=3))


def group_kind(ctx):
    if ctx.order == 1:
        return "explicit"
    return "minus" if ctx.group.maps[1][0].get(0) == ctx.group.field.minus_one else "swap"


def test_every_witness_is_a_valid_element():
    # a witness is one representative, not a canonical one: check what it
    # must be against placements built here, not against ``reference``
    cases = [(non_jacobi(), 5)] + [(pres, 4) for pres in non_equivariant_h_psi()]
    rng = random.Random(31)
    kinds = Counter()
    for _ in range(90):
        pres, D = random_presentation(rng)
        if pres.oracle(D).witness is not None:
            kinds[group_kind(pres.ctx)] += 1
            cases.append((pres, D))
    assert min(kinds[k] for k in ("explicit", "minus", "swap")) >= 5
    for pres, D in cases:
        assert_valid_witness(pres, pres.oracle(D))


@pytest.mark.parametrize(
    "build, D",
    [(sl2, 6), (lambda: fixture("sr_z6"), 5)],
    ids=["sl2", "sr_z6"],
)
def test_truncated_products_match_full_space_reductions(build, D):
    pres = build()
    tu = TruncatedU(pres, D)
    ref = reference(pres, D)
    layout = ref.layout
    ctx = pres.ctx
    one = ctx.field.one
    assert [(d, layout.coord(w, g)) for d, w, g in tu.basis] == [
        (d, c) for d, coords in enumerate(reference_std(ref)) for c in coords
    ]
    index_of_coord = {layout.coord(w, g): i for i, (_, w, g) in enumerate(tu.basis)}
    for idx, (d, word, g0) in enumerate(tu.basis):
        mono = {layout.coord(word, g0): one}
        steps = [(letter, 0) for letter in range(ctx.dimV)] if d < D else []
        steps += [(None, g) for g in range(ctx.order)]
        for side, mul in (("right", layout.right_mul), ("left", layout.left_mul)):
            for letter, g in steps:
                expected = {
                    index_of_coord[c]: v
                    for c, v in ref.elim.reduce(mul(mono, letter, g, layout)).items()
                }
                assert dict(tu._product(side, idx, letter, g)) == expected


def test_sl2_tower_holds_a_row_per_pivot_position():
    # F^8 of sl2: 9,841 coordinates, 165 standard monomials, and the tower's
    # 361 positions; the full-space engine held all 9,676 rows of J^8
    engine = sl2().oracle(8)
    assert sum(len(level.rows) for level in engine.tower.levels) == 196
    assert engine.j_dims[8] == 9676
    assert sum(level.adim for level in engine.tower.levels) == 165


# sha256 of the JSON list of [degree, terms] of the witnesses below, as the
# tower gave them when each level was one fully reduced eliminator
WITNESS_SHA256 = "9de6a432dfcaad2b85fb672a238a01d4d15c4f0d5bfcc9d2c11d113d93cd0a06"


def test_the_witness_is_written_over_the_standard_monomials():
    rng = random.Random(12)
    cases = [random_presentation(rng) for _ in range(150)] + [(pres, 4) for pres in non_equivariant_h_psi()]
    witnesses = []
    for pres, D in cases:
        engine = pres.oracle(D)
        if engine.witness is None:
            continue
        n0, terms = engine.witness
        witnesses.append([n0, terms_to_json({key: Scalar(pres.ctx.field, v) for key, v in terms.items()})])
        fresh = _Tower(pres.ctx, pres.N, all_relations(pres))
        assert terms
        for word, g in terms:
            assert len(word) < n0
            assert (word, g) in fresh.reps(len(word))
    # failing degrees 2 to 6, witnesses of up to 14 terms: each one exactly
    assert len(witnesses) == 95
    assert hashlib.sha256(json.dumps(witnesses).encode()).hexdigest() == WITNESS_SHA256
    # the Jacobiator value e_1, with coefficient 1 at its lowest monomial
    pres = non_jacobi()
    rep = oracle_pbw(pres, 12)
    assert pres.oracle(12).witness == (3, {((0,), 0): pres.ctx.field.one})
    assert rep.witness == {"terms": [{"coeff": "1", "word": [1], "g": 0}]}


def test_the_oracle_never_lays_out_the_top_degree(monkeypatch):
    tops = []
    original = Filtration.__init__

    def recording(self, ctx, top):
        tops.append(top)
        original(self, ctx, top)

    monkeypatch.setattr(Filtration, "__init__", recording)
    assert not oracle_pbw(non_jacobi(), 12).holds
    assert pbw_verdict(sl2(), 6).certified
    assert tops and max(tops) <= 3  # N + 1 for N = 2


def recording_levels(monkeypatch):
    """Record each ``_Level`` the tower builds from now on, as built."""
    built = []
    original = homogeneous._Level

    class Recording(original):
        __slots__ = ()

        def __init__(self, rows, positions):
            super().__init__(rows, positions)
            built.append(self)

    monkeypatch.setattr(homogeneous, "_Level", Recording)
    return built


def test_the_continuation_runs_only_when_an_equality_fails(monkeypatch):
    # the continuation is the collapse rows and their carried rows: levels
    # that hold a collapse row exist only past a failing equality
    built = recording_levels(monkeypatch)
    assert pbw_verdict(sl2(), 6).certified
    assert oracle_pbw(build_down_up(2, -1, 1), 8).holds
    NComplexSlice(fixture("sr_z6"), 4)
    assert built and all(level.collapsed == 0 for level in built)
    pres = non_jacobi()
    pres.homogenization().tower().ensure(5)  # the graded levels
    del built[:]
    # degrees 0 to 2 hold; degree 3 fails and degrees 4 and 5 carry it on
    rep = oracle_pbw(pres, 5)
    assert rep.witness_degree == 3 and not rep.equalities[3]
    assert [level.collapsed for level in built] == [0, 0, 0, 1, 4, 10]


def test_the_continuation_must_fail_where_the_tower_failed():
    # the first level with a collapse row is the tower's first failing
    # degree, and each equality is read off the collapsed counts
    for pres, D in [(non_jacobi(), 6)] + [(pres, 5) for pres in non_equivariant_h_psi()]:
        engine = pres.oracle(D)
        levels = engine.tower.levels
        failed = engine.tower.failed
        assert failed is not None and engine.witness[0] == failed
        assert next(n for n, level in enumerate(levels) if level.collapsed) == failed
        assert not engine.equalities[failed]
        for n in range(pres.N, D + 1):
            assert engine.equalities[n] == (levels[n].collapsed == levels[n - 1].collapsed)


def test_the_continuation_builds_only_the_levels_from_the_failure_on(monkeypatch):
    # a tower that stopped at its failure goes on from there: levels 4..8,
    # each once, and level 3 and the levels below stay as they were
    pres = non_jacobi()
    pres.homogenization().tower().ensure(8)  # the graded levels, recorded by no one
    engine = OracleEngine(pres, 8)
    assert engine.tower.ensure(3) == 3
    kept = list(engine.tower.levels)
    built = recording_levels(monkeypatch)
    engine.run()
    assert engine.tower.levels[:4] == kept
    assert built == engine.tower.levels[4:]
    # level 4 is V ⊗ T_3 with adim(3) = 10, and starts from level 3's collapse row
    assert built[0].positions == 3 * 10 and kept[3].collapsed == 1
    assert sorted(engine.equalities) == list(range(2, 9))


def test_the_tower_builds_every_level_once_past_the_failure(monkeypatch):
    built = []  # each level's number of positions
    original = homogeneous._Level

    class Recording(original):
        __slots__ = ()

        def __init__(self, rows, positions):
            built.append(positions)
            super().__init__(rows, positions)

    pres = non_jacobi()
    pres.homogenization().tower().ensure(8)  # the graded levels, recorded by no one
    monkeypatch.setattr(homogeneous, "_Level", Recording)
    engine = OracleEngine(pres, 8)
    engine.run()
    tower = engine.tower
    # levels 0..8, each once; the first failure stays the one reported
    assert len(built) == len(tower.levels) == 9
    assert tower.ensure(8) == 3 and len(built) == 9
    assert engine.witness == (3, {((0,), 0): engine.ctx.field.one})
    assert sorted(engine.equalities) == list(range(2, 9))


def test_the_tower_gives_the_levels_past_its_failure():
    # non-Jacobi fails at degree 3; its degree-4 level has 15 top positions
    pres = non_jacobi()
    tower = pres.oracle(5).tower
    assert tower.failed == 3
    assert tower.adim(4) == 15
    reps = tower.reps(4)
    assert len(reps) == 15 and all(len(word) == 4 for word, _ in reps)
    # a lower-degree element vanished at degree 3 and stays collapsed, with V times it
    assert [level.collapsed for level in tower.levels] == [0, 0, 0, 1, 4, 10]
    # the levels past 3 start from level 3's rows and leave them as they were
    fresh = _Tower(tower.ctx, tower.N, all_relations(pres))
    fresh.ensure(3)
    assert fresh.levels[3].rows == tower.levels[3].rows


def test_the_levels_past_the_failure_match_the_reference_at_larger_bounds():
    # two degrees more for dimV 2 and one for dimV 3: most failing inputs
    # continue for several degrees past their first failure
    rng = random.Random(7)
    continued = 0
    for _ in range(120):
        pres, D = random_presentation(rng)
        D += 2 if pres.ctx.dimV == 2 else 1
        engine = pres.oracle(D)
        ref = reference(pres, D)
        assert (engine.j_dims, engine.equalities) == (ref.j_dims, ref.equalities)
        assert engine.candidate_gr_dims == reference_gr_dims(ref)
        assert (engine.witness is None) == (ref.witness is None)
        if engine.witness is not None:
            assert engine.witness[0] == ref.witness[0]
            continued += engine.witness[0] < D
    assert continued >= 40


def test_the_continuation_leaves_no_reference_cycle():
    # the levels past the failure go by reference counting, not by the cyclic collector
    engine = OracleEngine(non_jacobi(), 8)
    gc.collect()
    gc.disable()
    try:
        engine.run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_continuation_over_a_group_matches_the_reference():
    # Z/3 over Q(zeta3): the tower fails at N = 2, so every level from N on is past the failure
    for pres in non_equivariant_h_psi():
        engine = pres.oracle(5)
        ref = reference(pres, 5)
        assert engine.witness[0] == pres.N == 2
        assert (engine.j_dims, engine.equalities) == (ref.j_dims, ref.equalities)


def test_non_jacobi_reaches_degree_twelve():
    # F^12 has 797,161 coordinates; the quotient levels never hold them
    rep = oracle_pbw(non_jacobi(), 12)
    assert rep.candidate_gr_dims == [1, 3, 6] + [3 * n for n in range(3, 13)]
    assert rep.equalities == {2: True, **{n: False for n in range(3, 13)}}
    assert rep.witness_degree == 3


def test_without_lower_degree_terms_the_oracle_builds_the_graded_tower():
    # psi = 0 leaves P = R: U's tower is A's, row for row
    group = fixture("sr_z6").ctx.group
    pres = build_H_psi(group, PsiMap(2, group.dimV, group.order, {}))
    tower = pres.oracle(6).tower
    graded = pres.homogenization().tower()
    assert isinstance(tower, _Tower) and tower is not graded
    for n in range(7):
        assert tower.levels[n].rows == graded.levels[n].rows
    ctx = pres.ctx
    for n in range(5):
        for word in itertools.product(range(ctx.dimV), repeat=n):
            for g in range(ctx.order):
                assert tower.nf(word, g) == graded.nf(word, g)


def test_each_group_image_is_computed_once_per_level(monkeypatch):
    engine = OracleEngine(fixture("sr_z6"), 6)
    ctx = engine.ctx
    original = ctx.apply_group_to_word
    calls = []

    def recording(g, word):
        calls.append((g, word))
        return original(g, word)

    monkeypatch.setattr(ctx, "apply_group_to_word", recording)
    for n in range(1, 7):
        calls.clear()
        assert engine.tower.ensure(n) is None
        assert len(calls) == len(set(calls))
        assert bool(calls) == (n >= engine.N)
