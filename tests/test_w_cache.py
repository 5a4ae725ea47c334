"""Each W_n is built once per algebra: every caller of ``w_rows`` passes
the algebra's own cache, ``HomogeneousAlgebra.w_cache``.

A run of ``all`` reaches W_n from the extra condition, condition (J), the
Koszul certificate and the slice family.  A build is a call whose degree
is not yet in the cache it is given.
"""

from collections import Counter
from pathlib import Path

import pytest

from nkoszul import filtered, homogeneous, komplex
from nkoszul.cli import RunConfig, run

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


@pytest.mark.parametrize("fixture, bound", [("sl2", 6), ("sr_z6", 4), ("cubic_z3", 6)])
def test_each_w_n_is_built_once_per_algebra_under_all(monkeypatch, fixture, bound):
    original = homogeneous.w_rows
    algebras = []  # kept alive, so their ids stay distinct
    builds = Counter()

    def counting(alg, n, cache=None):
        if cache is None or n not in cache:
            if alg not in algebras:
                algebras.append(alg)
            builds[(algebras.index(alg), n)] += 1
        return original(alg, n, cache)

    for module in (homogeneous, filtered, komplex):
        monkeypatch.setattr(module, "w_rows", counting)
    report, code = run(
        RunConfig(
            input_path=str(FIXTURES / f"{fixture}.json"),
            degree_bound=bound,
            checks=["all"],
            format="json",
        )
    )
    assert code in (0, 1), report
    assert builds, "no W_n was built"
    assert max(builds.values()) == 1, sorted(builds.items())
