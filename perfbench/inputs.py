"""Fixtures, workloads and the seeded input generator.

Seed 0 writes the committed fixtures unchanged.  Any other seed applies
only a change that keeps the mathematics the same, so every seed has the
same verdicts and dimension lists: an isomorphism of the input that
replaces the basis of V by f_i = d_i e_i with signs d_i.  It re-signs the
structure constants, the form omega, psi, and gamma for down_up.

Every seed therefore does the same arithmetic on coefficients of the same
height, up to sign, and costs the same.  Wider changes do not:

* a random rational change of basis of sl2 ran about 80 times slower;
* permuting the basis moved a pass by up to 14% and its peak memory by up
  to 13%, because the order of the monomial basis steers elimination;
* new signs for the class factors m of sr_z6 (still PBW by the symplectic
  reflection theorem) changed the cancellations: one seed made 32% more
  field multiplications and ran the oracle three times longer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"


@dataclass(frozen=True)
class Case:
    """One CLI invocation: a fixture, the checks to run and the bound D."""

    name: str
    fixture: str
    degree_bound: int
    checks: str


WORKLOADS = {
    # Oracle and write-heavy elimination over Q.
    "oracle_rational": (
        Case("sl2_all", "sl2", 8, "all"),
        Case("nonjacobi_all", "nonjacobi", 8, "all"),
        # `all` on down_up exits 2 at dN_zero, so the checks are listed.
        Case(
            "down_up_oracle",
            "down_up",
            10,
            "condition_I,condition_J,ec,tor3,koszul_complex,pbw,oracle",
        ),
    ),
    # The graded tower, w_rows and tor3 over Q(zeta3); no oracle, no komplex.
    "graded_cyclotomic": (
        Case("cubic_graded", "cubic_z3", 10, "ec,tor3,koszul_complex"),
        Case("sl2_graded", "sl2", 10, "ec,tor3,koszul_complex"),
    ),
    # The N-complex maps, over a nontrivial group in Q(zeta6) and over Q(zeta3).
    "ncomplex_group": (
        Case("sr_z6_all", "sr_z6", 6, "all"),
        Case("cubic_ncomplex", "cubic_z3", 6, "dN_zero,contraction,wedge_agreement"),
    ),
}

ALL_CASES = tuple(c for cases in WORKLOADS.values() for c in cases)


def fixtures_of(workload: str) -> list:
    """Fixture names a workload loads, in first-use order."""
    return list(dict.fromkeys(c.fixture for c in WORKLOADS[workload]))


def load_fixture(name: str) -> dict:
    with open(FIXTURE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _signs(rng: random.Random, n: int) -> list:
    return [rng.choice((1, -1)) for _ in range(n)]


def _transform_lie(block: dict, rng: random.Random) -> None:
    # [f_i, f_j] = d_i d_j [e_i, e_j] and e_k = d_k f_k
    rows = block["structure_constants"]
    d = _signs(rng, max(max(int(r[0]), int(r[1]), int(r[2])) for r in rows))
    block["structure_constants"] = [
        [i, j, k, str(Fraction(c) * d[i - 1] * d[j - 1] * d[k - 1])] for i, j, k, c in rows
    ]


def _transform_down_up(block: dict, rng: random.Random) -> None:
    # d = s D and u = t U turn gamma into gamma / (s t)
    s, t = _signs(rng, 2)
    block["gamma"] = str(Fraction(block["gamma"]) * s * t)


def _transform_hpsi(data: dict, rng: random.Random) -> None:
    ctx = data["context"]
    block = data["presentation"]
    n = int(ctx["dimV"])
    d = _signs(rng, n)
    # rho'(g)[i][j] = d_i d_j rho(g)[i][j]: diagonal generators stay as they are
    for flat in ctx.get("group_generators") or []:
        if any(flat[i * n + j].strip() != "0" for i in range(n) for j in range(n) if i != j):
            raise ValueError("only diagonal group generators are transformed")
    if "psi_builder" in block:
        pb = block["psi_builder"]
        if pb["builder"] != "symplectic_reflection":
            raise ValueError("only the symplectic_reflection builder is transformed")
        pb["omega"] = [
            [str(Fraction(x) * d[i] * d[j]) for j, x in enumerate(row)]
            for i, row in enumerate(pb["omega"])
        ]
        return
    # psi(f_i1, ..., f_ip) = d_i1 ... d_ip psi(e_i1, ..., e_ip)
    for entry in block["psi"]["psi"]:
        values = {}
        for key, val in entry["values"].items():
            scale = 1
            for i in json.loads(key):
                scale *= d[i - 1]
            values[key] = str(Fraction(val) * scale)
        entry["values"] = values


def generate(fixture: str, seed: int) -> dict:
    """The fixture's input for this seed; seed 0 is the committed fixture."""
    data = load_fixture(fixture)
    if seed == 0:
        return data
    rng = random.Random(f"{fixture}:{seed}")
    block = data["presentation"]
    builder = block.get("builder")
    if builder == "lie":
        _transform_lie(block, rng)
    elif builder == "down_up":
        _transform_down_up(block, rng)
    elif builder == "h_psi":
        _transform_hpsi(data, rng)
    else:
        raise ValueError(f"no seeded transform for fixture {fixture!r}")
    return data


def write_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's inputs under fixed names; returns fixture -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in fixtures_of(workload):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(generate(name, seed), indent=2) + "\n", encoding="utf-8")
        paths[name] = path
    return paths
