"""Expected outputs of every case, and the comparison of reports with them.

A case matches when its exit code, the report's verdict, every check's
``ok`` flag and every dimension or rank in the report equal the recorded
values.  On seed 0 the sha256 of the report body (the report minus
``config``, which echoes command-line settings) must match as well.  Other
seeds change the input by an isomorphism, so only the invariants above are
compared there.

Each expected.json entry is ``invariants(report, exit_code)`` of the
case's seed-0 report plus ``seed0_body_sha256 = body_digest(report)``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Report keys whose values are dimensions or ranks; all are isomorphism
# invariants of the input.
DIM_KEYS = frozenset(
    {
        "a_dim",
        "a_dims",
        "candidate_gr_dim",
        "candidate_gr_dims",
        "dim_total",
        "dim_window",
        "dims",
        "rank_in",
        "rank_out",
        "ranks",
    }
)


def body_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "config"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def dimension_lists(report: dict) -> dict:
    """Every dimension or rank under the report's checks, keyed by path."""
    out: dict = {}

    def walk(node, path: str) -> None:
        if isinstance(node, dict):
            for key in sorted(node):
                sub = f"{path}/{key}"
                if key in DIM_KEYS:
                    out[sub] = node[key]
                else:
                    walk(node[key], sub)
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, f"{path}[{i}]")

    walk(report.get("checks", {}), "checks")
    return out


def invariants(report: dict, exit_code) -> dict:
    """What every seed of a case must reproduce."""
    return {
        "exit_code": exit_code,
        "verdict": report.get("verdict"),
        "ok": {name: entry.get("ok") for name, entry in sorted(report.get("checks", {}).items())},
        "dims": dimension_lists(report),
    }


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(expected: dict, report, exit_code, seed: int) -> list:
    """Why a case's output differs from its expected entry; empty if it matches.

    ``report`` is None when the case crashed or wrote no report.
    """
    if report is None:
        return [f"no report (exit code {exit_code})"]
    got = invariants(report, exit_code)
    problems = [
        f"{key}: expected {expected[key]!r}, got {got[key]!r}"
        for key in ("exit_code", "verdict", "ok", "dims")
        if got[key] != expected[key]
    ]
    if seed == 0 and body_digest(report) != expected["seed0_body_sha256"]:
        problems.append("report body differs from the recorded seed-0 body")
    return problems


def failed_frac(failed: int, attempted: int) -> float:
    """Cases that crashed, timed out or mismatched, per case attempted."""
    return failed / attempted if attempted else 1.0
