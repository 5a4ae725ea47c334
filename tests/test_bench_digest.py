"""Reports stay byte-identical on all seven benchmark cases.

``perfbench/expected.json`` records the sha256 of each case's report body
on the committed fixtures.  ``nonjacobi_all`` reports an oracle witness,
which depends on the order in which the oracle inserts its rows, so a
change of that order shows here and not only in the benchmark.
``sl2_graded`` and ``cubic_graded`` cover the graded checks (ec, tor3 and
the Koszul complex certificate) at the benchmark's bound D = 10, and
``sr_z6_all`` and ``cubic_ncomplex`` the N-complexes over Q(zeta6) with a
group of order 6 and over Q(zeta3), so every benchmark case is covered.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from nkoszul.cli import RunConfig, run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "case_name",
    [
        "sl2_all",
        "down_up_oracle",
        "nonjacobi_all",
        "sl2_graded",
        "cubic_graded",
        "sr_z6_all",
        "cubic_ncomplex",
    ],
)
def test_report_body_matches_the_recorded_digest(case_name):
    inputs = load("inputs")
    check = load("check")
    case = next(c for c in inputs.ALL_CASES if c.name == case_name)
    path = inputs.FIXTURE_DIR / f"{case.fixture}.json"
    report, code = run(
        RunConfig(
            input_path=str(path),
            degree_bound=case.degree_bound,
            checks=case.checks.split(","),
            format="json",
        )
    )
    expected = check.load_expected()[case_name]
    assert code == expected["exit_code"]
    assert check.body_digest(report) == expected["seed0_body_sha256"]
