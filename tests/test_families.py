"""Known answers on the paper's family of symplectic reflection inputs.

The answers come from outside nkoszul (see ``families``): every check
passes with gr dimensions |Gamma| * C(n + dimV - 1, dimV - 1) when psi is
built from the form with class factors, and a psi that is not equivariant
fails Theorem 4.4 and the oracle, with a valid witness.
"""

import json
from math import comb

import pytest

from families import family_inputs, non_equivariant
from nkoszul.cli import RunConfig, run
from nkoszul.jsonio import parse_input
from test_oracle_tower import assert_valid_witness

INPUTS = family_inputs(seed=0)


def run_input(tmp_path, data: dict, D: int, checks: list):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return run(RunConfig(input_path=str(path), degree_bound=D, checks=checks, format="json"))


@pytest.mark.parametrize("name, data, D", INPUTS, ids=[name for name, _, _ in INPUTS])
def test_every_check_passes_with_the_pbw_dimensions(name, data, D, tmp_path):
    report, code = run_input(tmp_path, data, D, ["all"])
    assert code == 0
    assert {check: entry["ok"] for check, entry in report["checks"].items()} == {
        check: True for check in report["config"]["checks"]
    }
    order, dimV = report["input"]["group_order"], report["input"]["dimV"]
    expected = [order * comb(n + dimV - 1, dimV - 1) for n in range(D + 1)]
    assert report["checks"]["oracle"]["candidate_gr_dims"] == expected


NONABELIAN = [case for case in INPUTS if case[0] in ("q8", "s3")]


@pytest.mark.parametrize("name, data, D", NONABELIAN, ids=["q8", "s3"])
def test_a_psi_on_one_element_of_a_class_fails_theorem_44(name, data, D, tmp_path):
    bad = non_equivariant(data)
    report, code = run_input(tmp_path, bad, D, ["equivariance", "theorem44", "oracle"])
    assert code == 1
    assert report["failures"] == ["equivariance", "theorem44", "oracle"]
    pres, _ = parse_input(bad)
    engine = pres.oracle(D)
    assert engine.witness is not None
    assert_valid_witness(pres, engine)
