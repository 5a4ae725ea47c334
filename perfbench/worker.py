"""One benchmark process: set up, then run a workload's cases through the CLI.

    python3 perfbench/worker.py '<spec JSON>'

run.py starts a fresh worker for every pass, with nkoszul's ``src`` on
PYTHONPATH and the repository root as working directory.  The spec holds:

* ``mode``: ``setup`` (import and load the inputs, then stop), ``pass``,
  ``trace`` (a pass with the tracer installed) or ``kernel``;
* ``workload`` and ``inputs`` (fixture name -> input path);
* ``out_dir`` for the reports, ``trace_path`` for the trace, ``seed``;
* ``spawned_at``: ``time.monotonic()`` just before the process started.

The last line of standard output is a JSON object with the measurements,
each time both raw and in reference seconds (see calibrate.py).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from calibrate import Gauge
from inputs import WORKLOADS


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_cases(spec: dict, tracer=None) -> list:
    from nkoszul import cli

    cases = []
    for index, case in enumerate(WORKLOADS[spec["workload"]]):
        out = os.path.join(spec["out_dir"], f"{case.name}.json")
        argv = [
            "--input", spec["inputs"][case.fixture],
            "--degree-bound", str(case.degree_bound),
            "--checks", case.checks,
            "--format", "json",
            "--out", out,
        ]
        if tracer is not None:
            tracer.case = index
        error = None
        cpu0 = cpu_seconds()
        t0 = time.monotonic()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed case, not a failed pass
            code, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.monotonic()
        cases.append(
            {"name": case.name, "exit_code": code, "error": error, "t": [t0, t1],
             "cpu_s": cpu_seconds() - cpu0}
        )
    return cases


def main(spec: dict, gauge: Gauge) -> dict:
    if spec["mode"] == "kernel":
        from kernel import time_kernels

        return {"kernels": time_kernels(spec["seed"], gauge)}

    import nkoszul  # noqa: F401  (the whole package, as the CLI imports it)
    from nkoszul import jsonio

    for path in spec["inputs"].values():
        jsonio.load_input(path)
    ready = time.monotonic()
    result = {"setup": [spec["spawned_at"], ready]}
    if spec["mode"] == "setup":
        return result
    tracer = None
    if spec["mode"] == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result["cases"] = run_cases(spec, tracer)
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(spec["trace_path"])
    return result


def in_reference_seconds(result: dict, gauge: Gauge) -> None:
    """Replace the measured intervals by raw and reference seconds."""
    if "setup" in result:
        t0, t1 = result.pop("setup")
        result["setup_s"] = t1 - t0 - gauge.sampling_seconds(t0, t1)
        result["setup_ref_s"] = gauge.reference_seconds(t0, t1)
    for case in result.get("cases", []):
        t0, t1 = case.pop("t")
        sampling = gauge.sampling_seconds(t0, t1)
        case["sampling_s"] = sampling
        case["seconds"] = t1 - t0 - sampling
        case["ref_s"] = gauge.reference_seconds(t0, t1)
        # the gauge's loop is pure CPU work, so it also left the CPU time
        case["cpu_ref_s"] = (case.pop("cpu_s") - sampling) * case["ref_s"] / case["seconds"]


if __name__ == "__main__":
    gauge = Gauge()
    gauge.start()
    try:
        out = main(json.loads(sys.argv[1]), gauge)
    finally:
        gauge.stop()
    in_reference_seconds(out, gauge)
    print(json.dumps(out))
