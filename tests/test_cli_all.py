"""``--checks all`` skips what does not apply and builds shared work once."""

import json
from pathlib import Path

from nkoszul import cli
from nkoszul.cli import RunConfig, run
from nkoszul.smashtensor import FilteredSubspace

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"

DOWN_UP = {
    "presentation": {"builder": "down_up", "alpha": "2", "beta": "-1", "gamma": "1"}
}

SL2 = {
    "presentation": {
        "builder": "lie",
        "structure_constants": [[1, 2, 2, "2"], [1, 3, 3, "-2"], [2, 3, 1, "1"]],
    }
}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_all_builds_the_slice_family_once(tmp_path, monkeypatch):
    built = []

    class CountingSlice(cli.NComplexSlice):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cli, "NComplexSlice", CountingSlice)
    report, code = run(RunConfig(input_path=write(tmp_path, "sl2.json", SL2), degree_bound=6))
    assert code == 0
    assert len(built) == 1
    # the failed build is reported the same way for both checks
    reasons = {report["checks"][c]["skipped"] for c in ("dN_zero", "contraction")}
    assert len(reasons) == 1
    assert all(report["checks"][c]["ok"] is None for c in ("dN_zero", "contraction"))


def test_all_on_down_up_skips_dN_zero(tmp_path):
    path = write(tmp_path, "du.json", DOWN_UP)
    report, code = run(RunConfig(input_path=path, degree_bound=6))
    assert code == 0
    entry = report["checks"]["dN_zero"]
    assert entry["ok"] is None and "conductor" in entry["skipped"]
    assert report["checks"]["pbw"]["ok"] is True


def test_all_below_2N_skips_tor3_and_pbw(tmp_path):
    path = write(tmp_path, "du.json", DOWN_UP)
    report, code = run(RunConfig(input_path=path, degree_bound=5))
    assert code == 0
    for name in ("tor3", "pbw"):
        entry = report["checks"][name]
        assert entry["ok"] is None and "2N = 6" in entry["skipped"]
    assert report["checks"]["oracle"]["ok"] is True


def test_all_skips_dN_zero_when_the_bound_admits_no_N_maps(tmp_path):
    # an empty P: no slice up to D = 4 carries N = 2 successive maps
    data = {"context": {"conductor": 1, "dimV": 2}, "presentation": {"N": 2, "P": []}}
    path = write(tmp_path, "free.json", data)
    report, code = run(RunConfig(input_path=path, degree_bound=4))
    assert code == 0
    entry = report["checks"]["dN_zero"]
    assert entry["ok"] is None and "bound too small" in entry["skipped"]
    report, code = run(RunConfig(input_path=path, degree_bound=4, checks=["dN_zero"]))
    assert code == 2 and "bound too small" in report["error"]


def test_all_computes_condition_J_once(tmp_path, monkeypatch):
    # the condition_J check and pbw read one report; each computation forms
    # P·E and E·P once
    sides = []
    original = FilteredSubspace.mul_E

    def counting_mul_E(self, side):
        sides.append(side)
        return original(self, side)

    monkeypatch.setattr(FilteredSubspace, "mul_E", counting_mul_E)
    report, code = run(RunConfig(input_path=write(tmp_path, "sl2.json", SL2), degree_bound=6))
    assert code == 0
    assert report["checks"]["condition_J"]["ok"] is True
    assert report["checks"]["pbw"]["condition_J"]["holds"] is True
    assert sorted(sides) == ["left", "right"]


def test_a_failure_above_the_window_still_refuses_the_slice_checks():
    # nonjacobi fails the oracle at degree 3, above D - N = 2 at D = 4: the
    # contraction ranks only the family at D - N, yet the refusal is at D
    path = str(FIXTURES / "nonjacobi.json")
    message = "filtration equalities fail at degree 3; the truncated algebra is undefined"
    report, code = run(RunConfig(input_path=path, degree_bound=4, checks=["contraction"], format="json"))
    assert (code, report) == (2, {"error": message})
    report, code = run(RunConfig(input_path=path, degree_bound=4, format="json"))
    assert code == 1
    for name in ("dN_zero", "contraction"):
        assert report["checks"][name] == {"skipped": message, "ok": None}
