"""Bounded fuzz of ``cli.main``: tiny well-formed inputs never exit 3.

The inputs are explicit quadratic P over two letters, lie brackets on
three letters, down_up parameters, and h_psi over the order-2 groups
generated by -1 or by the swap of two letters, with psi from either
builder or an explicit table.  Bounds run from 2 to 4, and the checks
include ``tor3`` and ``pbw`` alone.  Whatever the verdict, the exit code
is 0, 1 or 2 and the report is JSON.  Runs are derandomized so the test
is the same on every run.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from nkoszul.cli import main

SCALARS = st.sampled_from(["1", "-1", "2", "1/2", "0"])
TERM = st.fixed_dictionaries(
    {"coeff": SCALARS, "word": st.lists(st.integers(1, 2), max_size=2), "g": st.just(0)}
)
EXPLICIT = st.fixed_dictionaries(
    {
        "context": st.just({"conductor": 1, "dimV": 2}),
        "presentation": st.fixed_dictionaries(
            {"N": st.just(2), "P": st.lists(st.lists(TERM, min_size=1, max_size=3), min_size=1, max_size=2)}
        ),
    }
)
BRACKET = st.tuples(st.sampled_from([(1, 2), (1, 3), (2, 3)]), st.integers(1, 3), SCALARS).map(
    lambda t: [t[0][0], t[0][1], t[1], t[2]]
)
LIE = st.fixed_dictionaries(
    {
        "presentation": st.fixed_dictionaries(
            {"builder": st.just("lie"), "structure_constants": st.lists(BRACKET, min_size=1, max_size=3)}
        )
    }
)
DOWN_UP = st.fixed_dictionaries(
    {
        "presentation": st.fixed_dictionaries(
            {"builder": st.just("down_up"), "alpha": SCALARS, "beta": SCALARS, "gamma": SCALARS}
        )
    }
)
MINUS, SWAP = ["-1", "0", "0", "-1"], ["0", "1", "1", "0"]
PSI = st.one_of(
    st.fixed_dictionaries(
        {
            "builder": st.just("symplectic_reflection"),
            "omega": st.just([["0", "1"], ["-1", "0"]]),
            "m": st.lists(SCALARS, min_size=2, max_size=2),
        }
    ),
    st.fixed_dictionaries(
        {
            "builder": st.just("corollary45"),
            "p": st.just(2),
            "phi": st.fixed_dictionaries({"[1, 2]": SCALARS}),
            "m": st.lists(SCALARS, min_size=2, max_size=2),
        }
    ),
    st.fixed_dictionaries(
        {
            "p": st.just(2),
            "psi": st.lists(
                st.fixed_dictionaries(
                    {"g": st.integers(0, 1), "values": st.fixed_dictionaries({"[1, 2]": SCALARS})}
                ),
                max_size=2,
            ),
        }
    ),
)
H_PSI = st.fixed_dictionaries(
    {
        "context": st.fixed_dictionaries(
            {
                "conductor": st.just(1),
                "dimV": st.just(2),
                "group_generators": st.sampled_from([[MINUS], [SWAP]]),
            }
        ),
        "presentation": st.fixed_dictionaries(
            {"builder": st.just("h_psi"), "p": st.just(2), "psi_builder": PSI}
        ),
    }
)
# 2N = 4 for every builder but down_up (N = 3); listed first, D = 4 is
# drawn most often
BOUNDS = st.sampled_from([4, 3, 2])
CHECKS = st.sampled_from(
    ["tor3", "pbw", "all", "ec,tor3,koszul_complex", "condition_I,condition_J", "oracle"]
)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.one_of(EXPLICIT, LIE, DOWN_UP, H_PSI), D=BOUNDS, checks=CHECKS)
def test_main_exits_0_1_or_2_with_a_json_report(tmp_path, data, D, checks):
    path = tmp_path / "input.json"
    out = tmp_path / "report.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = ["--input", str(path), "--degree-bound", str(D), "--checks", checks]
    code = main(argv + ["--format", "json", "--out", str(out)])
    assert code in (0, 1, 2)
    report = json.loads(out.read_text(encoding="utf-8"))
    if code == 2:
        assert "error" in report
    else:
        assert report["exit_code"] == code
