"""Known answers on the paper's family of symplectic reflection inputs.

The answers come from outside nkoszul (see ``families``): every check
passes with gr dimensions |Gamma| * C(n + dimV - 1, dimV - 1) when psi is
built from the form with class factors, and a psi that is not equivariant
fails Theorem 4.4 and the oracle, with a valid witness.  Each passing
report body is pinned by its sha256, so a faster path through any check
must give the same report byte for byte.  The quotient tower of the
N-symmetric algebra T(V)/(Λ^N V) over the trivial group must give the
dimensions of Berger's identity (``families.berger_dims``).
"""

import json
from math import comb

import pytest

from families import berger_dims, family_inputs, non_equivariant
from nkoszul.cli import RunConfig, run
from nkoszul.homogeneous import HomogeneousAlgebra
from nkoszul.jsonio import parse_input
from nkoszul.smashtensor import GroupData, TensorContext, antisymmetrizer_subbimodule
from test_bench_digest import load
from test_oracle_tower import assert_valid_witness

INPUTS = family_inputs(seed=0)

# sha256 of each report body (the report minus ``config``) under ``all``, as
# the full-slice N-complex checks gave it
BODY_SHA256 = {
    "z3": "3bc0427b339c0fdeffe4d9ef2f606c5c34e2b81ec6df0007dc0bb12ff9c53269",
    "z4": "e7d69cedf1f8c0a36be800e5e6c85f6a9c6d39232166b577b48f4d6527c2dada",
    "z5": "b1f8600a26dcff918d64b53993c964066a29f5e2daa6fdf858f4dc3d5c7d268d",
    "z6": "317f96bfb0dfa8980518aff6e36ffb6199c670d584253e4d8cdae48b20ee6cb8",
    "q8": "daf1337b0bc6ee607c0f3cb5d39a913071935988bfe3c0d487c72a384cd03b39",
    "bd12": "0aa467448848388608d62f9ce680fbc5584f4265d31482d71381b5a91206acde",
    "s3": "e3a97905c83d032cd7a5396f15721a8dd2b38927981e9f6d9ab421c4fe7c4478",
}

body_digest = load("check").body_digest


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
    assert body_digest(report) == BODY_SHA256[name]


NONABELIAN = [case for case in INPUTS if case[0] in ("q8", "bd12", "s3")]

# the oracle's witness on each non-equivariant input, an element of degree 0
# that vanishes in degree N = 2, as the tower gave it when each level was one
# fully reduced eliminator
WITNESS_TERMS = {
    "q8": [{"coeff": "1", "word": [], "g": 0}, {"coeff": "-1", "word": [], "g": 3}],
    "bd12": [{"coeff": "1", "word": [], "g": 0}, {"coeff": "-1", "word": [], "g": 8}],
    "s3": [{"coeff": "1", "word": [], "g": 0}],
}


@pytest.mark.parametrize("name, data, D", NONABELIAN, ids=[name for name, _, _ in NONABELIAN])
def test_a_psi_on_one_element_of_a_class_fails_theorem_44(name, data, D, tmp_path):
    bad = non_equivariant(data)
    report, code = run_input(tmp_path, bad, D, ["equivariance", "theorem44", "oracle"])
    assert code == 1
    assert report["failures"] == ["equivariance", "theorem44", "oracle"]
    oracle = report["checks"]["oracle"]
    assert oracle["witness_degree"] == 2 and oracle["witness"] == {"terms": WITNESS_TERMS[name]}
    pres, _ = parse_input(bad)
    engine = pres.oracle(D)
    assert engine.witness is not None
    assert_valid_witness(pres, engine)


@pytest.mark.parametrize("dimV, N, D", [(3, 3, 11), (4, 3, 9), (4, 4, 10), (5, 3, 7)])
def test_the_n_symmetric_algebra_has_berger_dimensions(dimV, N, D):
    ctx = TensorContext(dimV, GroupData.trivial(dimV), 1)
    tower = HomogeneousAlgebra(ctx, N, antisymmetrizer_subbimodule(ctx, N)).tower()
    assert [tower.adim(n) for n in range(D + 1)] == berger_dims(dimV, N, D)
