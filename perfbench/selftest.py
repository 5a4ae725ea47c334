"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection: running every workload on three seeds takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from check import failed_frac, load_expected, mismatches  # noqa: E402
from inputs import ALL_CASES, WORKLOADS, generate, load_fixture  # noqa: E402
from tracing import layer_metrics, span_table  # noqa: E402


@pytest.fixture(scope="module")
def passes():
    """One untraced pass of every workload on seeds 0, 1 and 2."""
    out = {}
    for seed in (0, 1, 2):
        for workload in WORKLOADS:
            runner = run.Runner(workload, seed)
            result, reports = runner.run_pass()
            out[workload, seed] = (runner, result, reports)
    return out


def test_seeds_keep_every_verdict_and_dimension_list(passes):
    for (workload, seed), (runner, result, _) in passes.items():
        assert result is not None, (workload, seed, runner.problems)
        assert runner.failed == 0, (workload, seed, runner.problems)
        assert runner.attempted == len(WORKLOADS[workload])


def test_corrupted_report_raises_failed_frac(passes, tmp_path):
    runner, result, reports = passes["ncomplex_group", 0]
    codes = {c["name"]: c["exit_code"] for c in result["cases"]}
    case = WORKLOADS["ncomplex_group"][0].name
    report = json.loads(reports[case])
    before = failed_frac(runner.failed, runner.attempted)

    # a dimension changes: caught on every seed
    for name, blob in reports.items():
        (tmp_path / f"{name}.json").write_bytes(blob)
    bad = json.loads(reports[case])
    bad["checks"]["oracle"]["candidate_gr_dims"][-1] += 1
    (tmp_path / f"{case}.json").write_text(json.dumps(bad))
    runner.check_reports("corrupt", tmp_path, codes)
    assert failed_frac(runner.failed, runner.attempted) > before

    expected = load_expected()[case]
    # the verdict or an exit code changes
    assert mismatches(expected, {**report, "verdict": "fail"}, 0, 1)
    assert mismatches(expected, report, 1, 1)
    # a crash leaves no report
    assert mismatches(expected, None, None, 1)
    # a change outside the invariants shows only in the seed-0 body digest
    noted = {**report, "failures": ["x"]}
    assert mismatches(expected, noted, 0, 0) and not mismatches(expected, noted, 0, 1)
    # config is not part of the body
    moved = {**report, "config": {**report["config"], "seed": 7}}
    assert not mismatches(expected, moved, 0, 0)


def test_generator_is_deterministic_and_seed_zero_is_the_fixture():
    for name in {c.fixture for c in ALL_CASES}:
        assert generate(name, 0) == load_fixture(name)
        assert generate(name, 5) == generate(name, 5)
        assert any(generate(name, s) != load_fixture(name) for s in range(1, 6))


def test_tracer_patches_every_namespace():
    code = (
        "from tracing import Tracer\n"
        "import nkoszul\n"
        "from nkoszul import cli, filtered, homogeneous, komplex, jsonio\n"
        "Tracer().install()\n"
        "assert cli.oracle_pbw is filtered.oracle_pbw\n"
        "assert cli.pbw_verdict is filtered.pbw_verdict\n"
        "assert hasattr(filtered.pbw_verdict, '__wrapped__')\n"
        "assert komplex.w_rows is homogeneous.w_rows\n"
        "assert hasattr(homogeneous.w_rows, '__wrapped__')\n"
        "assert cli.load_input is jsonio.load_input\n"
        "assert hasattr(nkoszul.pbw_verdict, '__wrapped__')\n"
    )
    env = run.worker_env()
    env["PYTHONPATH"] += ":" + str(run.BENCH)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_span_table_self_and_outermost_time():
    names = ["elim.add", "elim.reduce", "filtered.oracle_run"]
    spans = [
        [2, 0, 0, 100, -1],  # oracle run, 100 ns
        [0, 0, 10, 60, 0],  # add inside it
        [1, 0, 20, 50, 1],  # reduce inside add
        [1, 0, 70, 80, 0],  # reduce outside add
    ]
    trace = {"names": names, "spans": spans, "counters": {"elim.rows_inserted": 1}}
    table = span_table(trace)
    assert table["filtered.oracle_run"]["self_s"] == pytest.approx(40e-9)
    assert table["elim.add"]["self_s"] == pytest.approx(20e-9)
    m = layer_metrics(trace)
    assert m["elim.reduce_calls"] == 1 and m["elim.reduce_s"] == pytest.approx(10e-9)
    assert m["elim.insert_ratio"] == 1.0 and m["filtered.oracle_runs"] == 1


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
