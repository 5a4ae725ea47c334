"""The paper's own family end to end: the S3 Cherednik input under ``all``.

S3 acts on h ⊕ h* through the reflection representation in simple-root
coordinates plus its contragredient, with omega = [[0, I], [-I, 0]] and
the class factor 1/2 on the transpositions (elements 1, 2 and 5).  The
bench digests cover only Z/6 and the trivial group, so a change in the
order of a nonabelian group's elements, or in any map built from them,
shows here.  The digest is the sha256 of the report body at D = 4.
"""

import importlib.util
import json
import sys
from pathlib import Path

from nkoszul import cli, grouppres
from nkoszul.cli import RunConfig, run
from nkoszul.grouppres import PsiMap, theorem_44_verdict
from nkoszul.jsonio import parse_input

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

S3_CHEREDNIK = {
    "context": {
        "conductor": 1,
        "dimV": 4,
        "group_generators": [
            ["-1", "1", "0", "0", "0", "1", "0", "0", "0", "0", "-1", "0", "0", "0", "1", "1"],
            ["1", "0", "0", "0", "1", "-1", "0", "0", "0", "0", "1", "1", "0", "0", "0", "-1"],
        ],
    },
    "presentation": {
        "builder": "h_psi",
        "p": 2,
        "psi_builder": {
            "builder": "symplectic_reflection",
            "omega": [
                ["0", "0", "1", "0"],
                ["0", "0", "0", "1"],
                ["-1", "0", "0", "0"],
                ["0", "-1", "0", "0"],
            ],
            "m": ["1", "1/2", "1/2", "1", "1", "1/2"],
        },
    },
}

S3_ALL_D4_SHA256 = "3ccaabb263664497ab612fd92f2cb72f72df963d587647a68a44cef3851d71f5"


def body_digest(report):
    spec = importlib.util.spec_from_file_location("perfbench_check", PERFBENCH / "check.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.body_digest(report)


def test_s3_cherednik_all_report_matches_the_recorded_digest(tmp_path):
    path = tmp_path / "s3_cherednik.json"
    path.write_text(json.dumps(S3_CHEREDNIK))
    report, code = run(RunConfig(input_path=str(path), degree_bound=4, checks=["all"], format="json"))
    assert code == 0
    assert all(entry["ok"] is not False for entry in report["checks"].values())
    assert body_digest(report) == S3_ALL_D4_SHA256


def test_psi_equivariance_and_decomposition_are_computed_once(tmp_path, monkeypatch):
    # once for phi's invariance while psi is built, once for psi; the
    # decomposition Corollary 4.5 built psi with is the one theorem44 reads
    calls = {"check_equivariance": 0, "decompose": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    check = counted("check_equivariance", grouppres.check_equivariance)
    monkeypatch.setattr(grouppres, "check_equivariance", check)
    monkeypatch.setattr(cli, "check_equivariance", check)
    monkeypatch.setattr(grouppres, "decompose", counted("decompose", grouppres.decompose))
    path = tmp_path / "s3_cherednik.json"
    path.write_text(json.dumps(S3_CHEREDNIK))
    config = RunConfig(input_path=str(path), degree_bound=4, checks=["equivariance", "theorem44"], format="json")
    report, code = run(config)
    assert code == 0
    assert calls == {"check_equivariance": 2, "decompose": 1}
    # the reused results give the verdict a fresh psi gets
    pres, psi = parse_input(S3_CHEREDNIK)
    fresh = PsiMap(psi.p, psi.dimV, psi.order, psi.components, psi.conductor)
    assert not fresh.known
    expected = theorem_44_verdict(pres.ctx.group, fresh).to_json()
    assert {k: v for k, v in report["checks"]["theorem44"].items() if k != "ok"} == expected
    assert report["checks"]["equivariance"]["ok"] is expected["equivariant"] is True
