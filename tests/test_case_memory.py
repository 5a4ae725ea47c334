"""A case's memory comes back by reference counting when ``cli.run`` returns.

The presentation, its oracle engines, the homogenization with its quotient
tower and the slice family form no reference cycle, so with the cyclic
collector switched off a weak reference to the presentation dies as soon
as the report is built.  The cases cover a slice family that fails to
build (sl2: the wedge picture does not apply), one that builds over a
group (sr_z6), and the graded checks with the oracle (down_up).

The last test bounds what the N-complex spaces keep: a deterministic
tracemalloc peak of the S3 Cherednik contraction.
"""

import gc
import tracemalloc
import weakref
from pathlib import Path

import pytest

from nkoszul import cli
from nkoszul.cli import RunConfig, run
from nkoszul.jsonio import parse_input
from nkoszul.komplex import NComplexSlice, contracted_complex
from test_s3_cherednik_report import S3_CHEREDNIK

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
        pres, psi = load(path)
        refs.append(weakref.ref(pres))
        return pres, psi

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


# The traced peak of the S3 Cherednik contraction at D=5 is 11.52 MiB when
# no space is built at D, the slice sizes there counted from degree blocks;
# it was 13.66 MiB when each W_n (x)_K U was still built at D for its row
# levels, and 28.24 MiB when each space also kept its tag columns, its
# coordinate tables and, at D, a listed slice basis.
S3_CONTRACTION_PEAK_MIB = 12.5


def test_the_s3_contraction_keeps_its_traced_peak_below_the_bound():
    pres, _ = parse_input(S3_CHEREDNIK)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base, _ = tracemalloc.get_traced_memory()
    try:
        report = contracted_complex(NComplexSlice(pres, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert report.exact_in_window
    assert (peak - base) / 2**20 < S3_CONTRACTION_PEAK_MIB
