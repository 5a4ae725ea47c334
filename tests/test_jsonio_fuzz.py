"""Bounded fuzz of ``jsonio.load_input``: any input yields a presentation or InputError.

The inputs are lie, down_up and explicit-P presentation blocks over at most
three letters, with varied row arity, scalar literals (zero denominators
included) and missing keys.  Runs are derandomized so the test is the same
on every run.
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


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=INPUTS)
def test_load_input_yields_a_presentation_or_an_input_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        try:
            pres, _psi, _hpsi = load_input(path)
        except InputError:
            return
    assert isinstance(pres, FilteredPresentation)
