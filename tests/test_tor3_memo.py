"""One ec computation per algebra, and one Tor-3 computation per algebra and bound."""

from pathlib import Path

from nkoszul import homogeneous
from nkoszul.cli import RunConfig, run
from nkoszul.filtered import build_lie, pbw_verdict
from nkoszul.homogeneous import check_tor3_concentration


def test_tor3_and_pbw_share_one_tor3_run(monkeypatch):
    calls = []
    original = homogeneous.tor3_relation_holds

    def counting(alg, n, w_cache):
        calls.append(n)
        return original(alg, n, w_cache)

    monkeypatch.setattr(homogeneous, "tor3_relation_holds", counting)
    # sl2
    pres = build_lie({(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})
    alg = pres.homogenization()
    assert check_tor3_concentration(alg, 5).holds
    assert pbw_verdict(pres, 5).certified
    assert calls == [4, 5]
    # another bound is another run
    check_tor3_concentration(alg, 6)
    assert calls == [4, 5, 4, 5, 6]


def test_ec_tor3_and_pbw_share_one_ec_run(monkeypatch):
    calls = []
    original = homogeneous._ec_report

    def counting(alg):
        calls.append(alg.N)
        return original(alg)

    monkeypatch.setattr(homogeneous, "_ec_report", counting)
    # the cubic over Q(zeta3): N = 3, so ec has a degree to check
    cubic = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "cubic_z3.json"
    report, code = run(
        RunConfig(input_path=str(cubic), degree_bound=6, checks=["ec", "tor3", "pbw"], format="json")
    )
    assert code == 0
    assert report["checks"]["ec"]["per_degree"] == {"5": True}
    assert report["checks"]["tor3"]["ec"] == {"per_degree": {"5": True}, "holds": True}
    assert calls == [3]
