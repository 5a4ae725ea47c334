"""A case's memory comes back by reference counting when ``cli.run`` returns.

The presentation, its oracle engines, the homogenization with its quotient
tower and the slice family form no reference cycle, so with the cyclic
collector switched off a weak reference to the presentation dies as soon
as the report is built.  The cases cover a slice family that fails to
build (sl2: the wedge picture does not apply), one that builds over a
group (sr_z6), and the graded checks with the oracle (down_up).
"""

import gc
import weakref
from pathlib import Path

import pytest

from nkoszul import cli
from nkoszul.cli import RunConfig, run

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


@pytest.mark.parametrize(
    "fixture, bound, checks",
    [
        ("sl2", 6, "all"),
        ("sr_z6", 4, "all"),
        ("down_up", 6, "ec,tor3,koszul_complex,pbw,oracle"),
    ],
)
def test_the_presentation_dies_without_the_cyclic_collector(monkeypatch, fixture, bound, checks):
    refs = []
    load = cli.load_input

    def tracking_load(path):
        pres, psi, hpsi = load(path)
        refs.append(weakref.ref(pres))
        return pres, psi, hpsi

    monkeypatch.setattr(cli, "load_input", tracking_load)
    gc.collect()
    gc.disable()
    try:
        report, code = run(
            RunConfig(
                input_path=str(FIXTURES / f"{fixture}.json"),
                degree_bound=bound,
                checks=checks.split(","),
                format="json",
            )
        )
        assert code == 0 and report["verdict"] == "pass"
        del report
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        gc.enable()
