"""Benchmark of the nkoszul CLI on fixed presentations at fixed bounds D.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it needs nothing beyond the standard
library and the sources under ``src``.  Each pass over a workload's cases
is a fresh single-threaded process (perfbench/worker.py) that imports
nkoszul, loads every input, then calls ``nkoszul.cli.main`` once per case,
as a user running the CLI would.  Every report is checked against
perfbench/expected.json.

``--trace 0`` repeats passes for about S seconds and reports the
end-to-end metrics as medians over passes: ``wall_s`` and ``cpu_s`` of a
pass (set-up excluded), ``setup_s`` (process start until the inputs are
loaded) and ``peak_rss_mib``.  ``--trace 1`` makes one untraced pass, one
traced pass and a timing of the cyclo kernels, and reports the per-layer
metrics.  Times are in reference seconds (calibrate.py).  The last line of
standard output is the result as JSON; the line before it records the
workload, seed, raw medians, Python version, nproc and git sha.  Run-time
files go to perfbench/_work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import failed_frac, load_expected, mismatches
from inputs import ALL_CASES, WORKLOADS, write_inputs
from kernel import KERNELS
from tracing import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RUN_LIMIT_S = 170  # every process this run starts has ended by then
# Set-up-only processes follow every pass, so that set-up is sampled all
# through the run, and top the samples up to MIN_SETUPS at the end.
SETUPS_PER_PASS = 4
MIN_SETUPS = 15

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [f"cli.case_s.{c.name}" for c in ALL_CASES]
    names += list(layer_metrics({"names": [], "spans": [], "counters": {}}))
    names += [name for name, _m, _op in KERNELS]
    names.append("trace.overhead_s")
    units = {}
    for name in names:
        if name.endswith("_s") or name.startswith("cli.case_s."):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        elif ".mul_ns." in name or ".inv_ns." in name:
            units[name] = "ns"
        elif name.endswith("_bits"):
            units[name] = "bits"
        else:
            units[name] = "count"
    return units


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("KOSZUL_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts workers for one workload and checks what they report."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.cases = WORKLOADS[workload]
        self.expected = load_expected()
        self.started = time.monotonic()
        self.env = worker_env()
        paths = write_inputs(workload, seed, WORK / "inputs")
        # fixed relative paths: config.input is part of the report
        self.inputs = {name: str(p.relative_to(ROOT)) for name, p in paths.items()}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def spawn(self, mode: str, **extra):
        """Run one worker; returns its result, or None if it did not finish."""
        spec = {"mode": mode, "workload": self.workload, "seed": self.seed, "inputs": self.inputs}
        spec.update(extra)
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        spec["spawned_at"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(timeout, 1),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} worker timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.problems.append(f"{mode} worker exited {proc.returncode}: {tail[0]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if "cases" in result:
            result["wall_s"] = sum(c["seconds"] for c in result["cases"])
            result["wall_ref_s"] = sum(c["ref_s"] for c in result["cases"])
            result["cpu_ref_s"] = sum(c["cpu_ref_s"] for c in result["cases"])
        return result

    def run_pass(self, mode: str = "pass"):
        """One pass over the cases; checks every report.  Returns (result,
        reports) with result None when the worker did not finish."""
        out_dir = WORK / "out" / mode
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        extra = {"out_dir": str(out_dir.relative_to(ROOT))}
        if mode == "trace":
            extra["trace_path"] = str(WORK / "trace.json")
        result = self.spawn(mode, **extra)
        codes = {}
        for case in result["cases"] if result else []:
            codes[case["name"]] = case["exit_code"]
            if case["error"]:
                self.problems.append(f"{mode} {case['name']} crashed: {case['error']}")
        return result, self.check_reports(mode, out_dir, codes)

    def check_reports(self, mode: str, out_dir: Path, codes: dict) -> dict:
        """Compare each case's report and exit code with expected.json,
        counting attempts and failures; returns case name -> report bytes."""
        reports = {}
        for case in self.cases:
            self.attempted += 1
            path = out_dir / f"{case.name}.json"
            report = None
            if case.name in codes and path.is_file():
                reports[case.name] = path.read_bytes()
                try:
                    report = json.loads(reports[case.name])
                except ValueError:
                    pass
            problems = mismatches(self.expected[case.name], report, codes.get(case.name), self.seed)
            if problems:
                self.failed += 1
                self.problems += [f"{mode} {case.name}: {p}" for p in problems]
        return reports

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def end_to_end(runner: Runner, seconds: int) -> tuple:
    passes = []
    setups = []
    t_first = time.monotonic()
    while True:
        result, _ = runner.run_pass()
        if result is not None:
            passes.append(result)
            setups.append(result)
        for _ in range(SETUPS_PER_PASS):
            result = runner.spawn("setup")
            if result is not None:
                setups.append(result)
        done = time.monotonic() - t_first
        count = max(len(passes), 1)
        if done + done / count > seconds or runner.elapsed() > RUN_LIMIT_S / 2:
            break
    if not passes:
        raise RuntimeError("no pass finished")
    while len(setups) < MIN_SETUPS:
        result = runner.spawn("setup")
        if result is None:
            break
        setups.append(result)
    values = {
        "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_ref_s"] for p in passes),
        "setup_s": statistics.median(p["setup_ref_s"] for p in setups),
        "peak_rss_mib": statistics.median(p["peak_rss_kib"] / 1024 for p in passes),
    }
    info = {
        "passes": len(passes),
        "setups": len(setups),
        "raw_wall_s": statistics.median(p["wall_s"] for p in passes),
        "raw_setup_s": statistics.median(p["setup_s"] for p in setups),
    }
    return values, info


def traced(runner: Runner) -> tuple:
    plain, plain_reports = runner.run_pass("pass")
    traced_result, traced_reports = runner.run_pass("trace")
    kernels = runner.spawn("kernel")
    if plain is None or traced_result is None or kernels is None:
        raise RuntimeError("a worker of the traced run did not finish")
    for name, blob in plain_reports.items():
        if name in traced_reports and traced_reports[name] != blob:
            runner.failed += 1
            runner.problems.append(f"trace {name}: traced report differs from the untraced one")
    with open(WORK / "trace.json", encoding="utf-8") as fh:
        metrics = layer_metrics(json.load(fh))
    # spans are raw and include the gauge's samples; scale them to the pass
    raw = sum(c["seconds"] + c["sampling_s"] for c in traced_result["cases"])
    scale = traced_result["wall_ref_s"] / raw
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] *= scale
    case_s = {c["name"]: c["ref_s"] for c in plain["cases"]}
    for case in ALL_CASES:
        metrics[f"cli.case_s.{case.name}"] = case_s.get(case.name, 0.0)
    metrics.update(kernels["kernels"])
    metrics["trace.overhead_s"] = traced_result["wall_ref_s"] - plain["wall_ref_s"]
    return metrics, {"passes": 2, "raw_wall_s": plain["wall_s"]}


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nkoszul" / "__init__.py").is_file():
        print(f"error: no nkoszul sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            values, info = traced(runner)
            units = per_layer_units()
        else:
            values, info = end_to_end(runner, args.seconds)
            units = END_TO_END
    except RuntimeError as exc:
        for line in runner.problems:
            print(line, file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in runner.problems:
        print(line, file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {info['passes']} passes,"
        f" failed_frac={failed_frac(runner.failed, runner.attempted):.3f}"
        f" ({runner.failed}/{runner.attempted} cases)",
        file=sys.stderr,
    )
    for name in units:
        print(f"  {name:40s} {values[name]:.6g} {units[name]}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **info,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, **result}) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
