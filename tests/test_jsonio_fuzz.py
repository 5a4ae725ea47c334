"""Bounded fuzz of ``jsonio.load_input``: any input yields a presentation or InputError.

The inputs are lie, down_up and explicit-P presentation blocks over at most
three letters, with varied row arity, scalar literals (zero denominators
included) and missing keys; and h_psi blocks over group contexts: explicit
psi tables with in-range and bad group indices and wedge keys, both psi
builders with good and bad forms, phi tables and class factors, and group
generators drawn from a fixed list.  Runs are derandomized so the tests are
the same on every run.
"""

import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from nkoszul.filtered import FilteredPresentation
from nkoszul.jsonio import InputError, load_input

SCALARS = st.one_of(
    st.sampled_from(["1", "-2", "3/2", "0", "-1/3", 2]),
    st.sampled_from(["1/0", "0/0", "2/-3", "zeta", "x", "", None, [1]]),
)
LETTERS = st.one_of(st.integers(1, 3), st.sampled_from([-1, 0, 4, "1", "a", None]))


def block(required: dict, fields: dict):
    """Dicts with every field, or with any subset of ``fields``."""
    return st.one_of(
        st.fixed_dictionaries({**required, **fields}),
        st.fixed_dictionaries(required, optional=fields),
    )


ROW = st.one_of(
    st.tuples(LETTERS, LETTERS, LETTERS, SCALARS).map(list),
    st.lists(st.one_of(LETTERS, SCALARS), max_size=5),
)
LIE = block({"builder": st.just("lie")}, {"structure_constants": st.lists(ROW, max_size=3)})
DOWN_UP = block(
    {"builder": st.just("down_up")}, {"alpha": SCALARS, "beta": SCALARS, "gamma": SCALARS}
)
TERM = block({}, {"coeff": SCALARS, "word": st.lists(LETTERS, max_size=3), "g": st.integers(-1, 1)})
EXPLICIT = block(
    {}, {"N": st.integers(0, 3), "P": st.lists(st.lists(TERM, max_size=3), max_size=3)}
)
CONTEXT = st.fixed_dictionaries({"conductor": st.just(1), "dimV": st.integers(1, 3)})
INPUTS = block({"presentation": st.one_of(LIE, DOWN_UP, EXPLICIT)}, {"context": CONTEXT})

# generators of order 2 (-1 and the swap), weighted up, then junk: infinite
# order, singular, wrong size, not a matrix, a bad literal
MINUS, SWAP = ["-1", "0", "0", "-1"], ["0", "1", "1", "0"]
GENERATORS = st.sampled_from(
    [MINUS, SWAP] * 3 + [["1", "1", "0", "1"], ["0", "0", "0", "0"], ["1", "0"], 5, ["1", "0", "0", "y"]]
)
GROUP_CONTEXT = block(
    {"conductor": st.just(1), "dimV": st.sampled_from([2] * 4 + [1, 3])},
    {
        "group_generators": st.one_of(
            st.lists(GENERATORS, max_size=2), st.lists(GENERATORS, max_size=2), st.just(5)
        ),
        "order_cap": st.integers(1, 8),
    },
)
WEDGE_KEYS = st.sampled_from(["[1, 2]"] * 3 + ["[2, 1]", "[1, 5]", "[0, 2]", "[1]", "[1, 2, 3]", "x", "5"])
TABLE = st.one_of(
    st.dictionaries(WEDGE_KEYS, SCALARS, max_size=2),
    st.dictionaries(WEDGE_KEYS, SCALARS, max_size=2),
    st.sampled_from([5, [1], "x"]),
)
P = st.sampled_from([2] * 4 + [1, 3, "2", None])
PSI_ENTRY = block({}, {"g": st.integers(-1, 8), "values": TABLE})
EXPLICIT_PSI = block({}, {"p": P, "psi": st.one_of(st.lists(PSI_ENTRY, max_size=3), st.just(5))})
OMEGA = st.sampled_from(
    [[["0", "1"], ["-1", "0"]]] * 3
    + [
        [["0", "2"], ["-2", "0"]],
        [["1", "0"], ["0", "1"]],
        [["0", "0"], ["0", "0"]],
        [["0", "1"]],
        [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
        5,
    ]
)
# one factor per element of a group of order 1, 2 or 4, or a bad list
FACTORS = st.one_of(
    st.lists(SCALARS, min_size=1, max_size=4),
    st.sampled_from([["1"], ["1", "1/2"], ["1", "2", "2", "1"], 5, "1"]),
)
SYMPLECTIC = block({"builder": st.just("symplectic_reflection")}, {"omega": OMEGA, "m": FACTORS})
COROLLARY45 = block({"builder": st.just("corollary45")}, {"p": P, "phi": TABLE, "m": FACTORS})
H_PSI = st.one_of(
    st.fixed_dictionaries({"builder": st.just("h_psi"), "p": P, "psi": st.one_of(EXPLICIT_PSI, st.just([1]))}),
    st.fixed_dictionaries(
        {
            "builder": st.just("h_psi"),
            "p": P,
            "psi_builder": st.one_of(SYMPLECTIC, COROLLARY45, st.just({"builder": "nope"})),
        }
    ),
)
H_PSI_INPUTS = st.fixed_dictionaries({"presentation": H_PSI, "context": GROUP_CONTEXT})

FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(data=INPUTS)
def test_load_input_yields_a_presentation_or_an_input_error(data):
    load_or_refuse(data)


@FUZZ
@given(data=H_PSI_INPUTS)
def test_h_psi_input_yields_a_presentation_or_an_input_error(data):
    load_or_refuse(data)


def load_or_refuse(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        try:
            pres, _psi, _hpsi = load_input(path)
        except InputError:
            return
    assert isinstance(pres, FilteredPresentation)
