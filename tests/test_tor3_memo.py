"""One ec computation per algebra, and one Koszul certificate per algebra and bound."""

from pathlib import Path

from nkoszul import homogeneous
from nkoszul.cli import RunConfig, run
from nkoszul.filtered import build_lie, pbw_verdict
from nkoszul.homogeneous import check_tor3_concentration, koszul_complex_check
from nkoszul.jsonio import load_input

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def test_tor3_and_pbw_share_one_tor3_run(monkeypatch):
    # tor3 reads the certificate, so tor3, pbw and koszul_complex at one
    # bound make one certificate run
    calls = []
    original = homogeneous._koszul_certificate

    def counting(alg, D):
        calls.append(D)
        return original(alg, D)

    monkeypatch.setattr(homogeneous, "_koszul_certificate", counting)
    # sl2
    pres = build_lie({(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})
    alg = pres.homogenization()
    assert check_tor3_concentration(alg, 5).holds
    assert pbw_verdict(pres, 5).certified
    assert koszul_complex_check(alg, 5).exact_everywhere
    assert calls == [5]
    # another bound is another run
    check_tor3_concentration(alg, 6)
    koszul_complex_check(alg, 6)
    assert calls == [5, 6]
    # over Z/6 the one run is at field level, and the scaled copy is kept
    pres6, _, _ = load_input(str(FIXTURES / "sr_z6.json"))
    alg6 = pres6.homogenization()
    cert = koszul_complex_check(alg6, 4)
    assert check_tor3_concentration(alg6, 4).holds
    assert koszul_complex_check(alg6, 4) is cert and cert.scaled_by == 6
    assert calls == [5, 6, 4]


def test_ec_tor3_and_pbw_share_one_ec_run(monkeypatch):
    calls = []
    original = homogeneous._ec_report

    def counting(alg):
        calls.append(alg.N)
        return original(alg)

    monkeypatch.setattr(homogeneous, "_ec_report", counting)
    # the cubic over Q(zeta3): N = 3, so ec has a degree to check
    cubic = FIXTURES / "cubic_z3.json"
    report, code = run(
        RunConfig(input_path=str(cubic), degree_bound=6, checks=["ec", "tor3", "pbw"], format="json")
    )
    assert code == 0
    assert report["checks"]["ec"]["per_degree"] == {"5": True}
    assert report["checks"]["tor3"]["ec"] == {"per_degree": {"5": True}, "holds": True}
    assert calls == [3]
