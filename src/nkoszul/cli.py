"""Batch front end: parse a presentation file, run checks, emit a report.

Each check is one of the paper's statements, named and explained in
``EXPLANATIONS``: conditions (I) and (J), Tor-3 concentration, Koszulity
and the PBW theorem for the filtered algebra, and the psi-family and
N-complex statements for symplectic reflection algebras.  ``run``
validates the named checks once, before ``all`` expands, and records every
check it runs or skips as one entry, ``{**data, "ok": ok}``.

Exit codes distinguish the outcomes a caller can meet: 0 when every
selected check passes, 1 when some mathematical verdict is negative, 2 for
input or usage errors, so CI suites can assert negative fixtures, and 3
for an internal error, so that a crash is never read as a verdict.
Reports are deterministic: identical configuration yields byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from .filtered import (
    check_condition_I,
    check_condition_J,
    oracle_pbw,
    pbw_verdict,
)
from .grouppres import check_equivariance, theorem_44_verdict
from .homogeneous import check_ec, check_tor3_concentration, koszul_complex_check
from .jsonio import InputError, load_input, psi_to_json
from .komplex import (
    NComplexSlice,
    check_dN_zero,
    contracted_complex,
    wedge_agreement,
)
from .scalar import Scalar

EXPLANATIONS = {
    "condition_I": (
        "condition_I: the relation space P meets the lower filtration trivially,"
        " P ∩ F^{N-1} = 0; equivalently dim P equals the dimension of its"
        " top-degree projection R."
    ),
    "condition_J": (
        "condition_J: the overlap inclusion (PV + VP) ∩ F^N ⊆ P, computed three"
        " ways: directly, through the lifted correction maps applied to the"
        " degree-(N+1) intersection W_{N+1}, and componentwise in each lower"
        " degree. All three must agree."
    ),
    "ec": (
        "ec: for each n with N+2 <= n <= 2N-1, the intersection"
        " (V^{n-N} R) ∩ (R V^{n-N} + ... + V^{n-N-1} R V) equals"
        " V^{n-N-1} W_{N+1}. Vacuous when N = 2."
    ),
    "tor3": (
        "tor3: ec together with, for 2N <= n <= D, exactness of the Koszul"
        " complex at position 2, A_{n-N} ⊗ R, in internal degree n, read off"
        " the koszul_complex certificate; this pins the third Tor module of the"
        " homogenized algebra to degree N+1 up to the bound."
    ),
    "koszul_complex": (
        "koszul_complex: rank-counted exactness, in every internal degree up to"
        " the bound, of the complex with spaces A ⊗ W_{zeta(i)} and maps induced"
        " by the inclusions W_{zeta(i+1)} ⊆ V^{...} W_{zeta(i)}; exactness at"
        " all homological positions > 0 certifies Koszulity up to the bound."
    ),
    "pbw": (
        "pbw: conditions (I) and (J) plus tor3 up to the bound imply that the"
        " homogenized algebra maps isomorphically onto the associated graded"
        " algebra. The verdict is certified-up-to-bound, or unconditional for"
        " the antisymmetrizer relation family."
    ),
    "oracle": (
        "oracle: direct degreewise computation of the filtered ideal spans J^n,"
        " checking J^n ∩ F^{n-1} = J^{n-1} for N <= n <= D and reporting"
        " candidate dimensions for the associated graded algebra."
    ),
    "equivariance": (
        "equivariance: psi(rho(g) w) = g psi(w) g^{-1} for all group elements g"
        " and wedge basis elements w; componentwise, psi_{g^{-1} h g}(w) ="
        " psi_h(rho(g) w)."
    ),
    "theorem44": (
        "theorem44: equivariance together with the vanishing of each psi_g on"
        " every component Λ^i(M_g) ⊗ Λ^{p-i}(L_g) with i different from"
        " a(g) = dim M_g, where M_g and L_g are the image and kernel of"
        " Id - (-1)^p rho(g)."
    ),
    "dN_zero": (
        "dN_zero: with q a primitive N-th root of unity, the twisted map"
        " d = d_l - q^{n-1} d_r on U ⊗ W_n ⊗ U satisfies d^N = 0 wherever N"
        " successive maps fit inside the truncation bound."
    ),
    "contraction": (
        "contraction: the complex alternating d = d_l - d_r and"
        " d^{N-1} = d_l^{N-1} + ... + d_r^{N-1} on U ⊗ W_{zeta(i)} ⊗ U is"
        " exact, with ranks checked at total filtration degree <= D - N where"
        " truncation cannot create spurious homology."
    ),
    "wedge_agreement": (
        "wedge_agreement: for antisymmetrizer presentations the differentials"
        " computed from the explicit wedge-basis formulas coincide with the"
        " generic contracted-complex differentials under the identification of"
        " W_m with the m-th wedge power over the group algebra."
    ),
}

CHECK_NAMES = list(EXPLANATIONS)
# the checks that read psi, and those run on the N-complex slice family
PSI_CHECKS = ("equivariance", "theorem44", "wedge_agreement")
SLICE_CHECKS = ("dN_zero", "contraction", "wedge_agreement")


@dataclass
class RunConfig:
    input_path: str
    degree_bound: int = 6
    checks: list = dataclass_field(default_factory=lambda: ["all"])
    format: str = "text"
    out: Optional[str] = None


def explain(check_name: str) -> str:
    if check_name not in EXPLANATIONS:
        raise KeyError(f"unknown check {check_name!r}")
    return EXPLANATIONS[check_name]


def run(config: RunConfig):
    """Execute the selected checks; returns (report dict, exit code).

    The named checks are validated once, before ``all`` expands: an empty
    selection, unknown names, psi checks on an input without psi, a bound
    below N, and ``tor3`` or ``pbw`` below 2N exit 2.  ``all`` then stands
    for every check in ``CHECK_NAMES`` order, less the psi checks on an
    input without psi.  A slice check whose precondition fails exits 2 when
    named and is reported as skipped when only ``all`` selects it; so a
    name beside ``all`` is treated as it is alone.  The psi checks read
    Gamma off ``pres.ctx.group`` and p off ``psi.p``; they need an h_psi
    input, the only kind that carries psi.
    """
    try:
        pres, psi = load_input(config.input_path)
    except InputError as exc:
        return {"error": str(exc)}, 2

    D, N = config.degree_bound, pres.N
    names = list(dict.fromkeys(config.checks))  # each check once, first mention first
    if not names:
        return {"error": "no checks selected"}, 2
    unknown = [c for c in names if c != "all" and c not in EXPLANATIONS]
    if unknown:
        return {"error": f"unknown checks: {', '.join(unknown)}"}, 2
    for c in names:
        if c in PSI_CHECKS and psi is None:
            return {"error": f"check {c} requires an h_psi presentation (group, p, psi)"}, 2
    if D < N:
        return {"error": f"degree bound {D} is below the relation degree {N}"}, 2
    if ("tor3" in names or "pbw" in names) and D < 2 * N:
        return {"error": f"tor3 and pbw need a bound of at least 2N = {2 * N}"}, 2
    selected = names
    if "all" in names:
        selected = [c for c in CHECK_NAMES if psi is not None or c not in PSI_CHECKS]

    report: dict = {
        "config": {
            "input": config.input_path,
            "degree_bound": D,
            "checks": selected,
            "format": config.format,
        },
        "input": {
            "dimV": pres.ctx.dimV,
            "conductor": pres.ctx.conductor,
            "group_order": pres.ctx.order,
            "N": N,
            "dimP": pres.P.dim,
            "h_psi": psi is not None,
        },
        "checks": {},
    }
    if psi is not None:
        report["input"]["psi"] = psi_to_json(psi)

    failures = []
    family = None  # the slice family, built once, or the message its build raised
    for name in selected:
        if name in ("tor3", "pbw") and D < 2 * N:
            # reached only under "all"; a named one exits 2 above
            ok, data = None, {"skipped": f"{name} needs a bound of at least 2N = {2 * N}"}
        elif name == "condition_I":
            ok, data = check_condition_I(pres), {}
        elif name in ("condition_J",) + SLICE_CHECKS and not check_condition_I(pres):
            ok, data = False, {"skipped": "condition_I failed"}
        elif name == "condition_J":
            rep = check_condition_J(pres)
            ok, data = rep.holds, rep.to_json()
        elif name == "ec":
            rep = check_ec(pres.homogenization())
            ok, data = rep.holds, rep.to_json()
        elif name == "tor3":
            rep = check_tor3_concentration(pres.homogenization(), D)
            ok, data = rep.holds, rep.to_json()
        elif name == "koszul_complex":
            cert = koszul_complex_check(pres.homogenization(), D)
            ok, data = cert.exact_everywhere, cert.to_json()
        elif name == "pbw":
            rep = pbw_verdict(pres, D)
            ok, data = rep.certified, rep.to_json()
        elif name == "oracle":
            rep = oracle_pbw(pres, D)
            ok, data = rep.holds, rep.to_json()
        elif name == "equivariance":
            ok, data = check_equivariance(pres.ctx.group, psi), {}
        elif name == "theorem44":
            rep = theorem_44_verdict(pres.ctx.group, psi)
            ok, data = rep.holds, rep.to_json()
        else:  # a slice check, condition (I) holding
            try:
                cond = pres.ctx.conductor
                if name == "dN_zero" and cond % N != 0 and N != 2:
                    raise ValueError(
                        "dN_zero needs a primitive N-th root of unity: declare a"
                        f" conductor divisible by N = {N}"
                    )
                if family is None:
                    try:
                        family = NComplexSlice(pres, D)
                    except ValueError as exc:
                        family = str(exc)
                if isinstance(family, str):
                    raise ValueError(family)
                if name == "dN_zero":
                    q = Scalar.rational(-1, cond) if N == 2 else Scalar.zeta(cond) ** (cond // N)
                    results = check_dN_zero(family, q)
            except ValueError as exc:
                if name in names:
                    return {"error": str(exc)}, 2
                ok, data = None, {"skipped": str(exc)}
            else:
                # outside the try: an error in these maps is internal, not a skip
                if name == "dN_zero":
                    ok = all(flag for _, flag in results)
                    data = {"per_slice": {str(n): flag for n, flag in results}, "q": str(q)}
                elif name == "contraction":
                    rep = contracted_complex(family)
                    ok, data = rep.exact_in_window and rep.composition_zero, rep.to_json()
                else:
                    ok, data = wedge_agreement(family), {}
        report["checks"][name] = {**data, "ok": ok}
        if ok is False:
            failures.append(name)

    report["failures"] = failures
    report["verdict"] = "pass" if not failures else "fail"
    code = 0 if not failures else 1
    report["exit_code"] = code
    return report, code


def format_text(report: dict) -> str:
    lines = []
    if "error" in report:
        return f"error: {report['error']}\n"
    cfg = report["config"]
    lines.append(f"input: {cfg['input']}  degree bound: {cfg['degree_bound']}")
    info = report["input"]
    lines.append(
        "presentation: dimV=%d |Gamma|=%d conductor=%d N=%d dimP=%d"
        % (info["dimV"], info["group_order"], info["conductor"], info["N"], info["dimP"])
    )
    for name, entry in report["checks"].items():
        status = {True: "ok", False: "FAIL", None: "n/a"}[entry.get("ok")]
        extra = ""
        if "skipped" in entry:
            extra = f" (skipped: {entry['skipped']})"
        if "verdict" in entry:
            extra = f" [{entry['verdict']}]"
        if "theorem34_verdict" in entry:
            extra = f" [{entry['theorem34_verdict']}]"
        lines.append(f"  {name:16s} {status}{extra}")
        if name == "oracle" and "candidate_gr_dims" in entry:
            lines.append(f"      candidate gr dims: {entry['candidate_gr_dims']}")
            lines.append(f"      graded dims:       {entry['a_dims']}")
        if name == "pbw" and entry.get("gr_table"):
            cands = [row["candidate_gr_dim"] for row in entry["gr_table"]]
            adims = [row["a_dim"] for row in entry["gr_table"]]
            lines.append(f"      candidate gr dims: {cands}")
            lines.append(f"      graded dims:       {adims}")
        if name == "koszul_complex" and "degrees" in entry:
            for dc in entry["degrees"]:
                lines.append(
                    f"      d={dc['d']}: dims={dc['dims']} ranks={dc['ranks']} exact={dc['exact']}"
                )
        if name == "contraction" and "positions" in entry:
            for pos in entry["positions"]:
                lines.append(
                    "      i=%d zeta=%d dim=%d rank_out=%d rank_in=%d exact=%s"
                    % (
                        pos["i"],
                        pos["zeta"],
                        pos["dim_window"],
                        pos["rank_out"],
                        pos["rank_in"],
                        pos["exact"],
                    )
                )
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines) + "\n"


def emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    return format_text(report)


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "explain":
        parser = argparse.ArgumentParser(prog="nkoszul explain")
        parser.add_argument("check", help="one of: " + ", ".join(CHECK_NAMES))
        args = parser.parse_args(argv[1:])
        try:
            print(explain(args.check))
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        return 0
    parser = argparse.ArgumentParser(
        prog="nkoszul",
        description=(
            "Exact-arithmetic checks of PBW and bounded-degree Koszul"
            " properties for inhomogeneous relation presentations."
        ),
    )
    parser.add_argument("--input", required=True, help="presentation JSON file")
    parser.add_argument("--degree-bound", type=int, default=6, dest="degree_bound")
    parser.add_argument(
        "--checks",
        default="all",
        help="comma-separated subset of: all, " + ", ".join(CHECK_NAMES),
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--out", default=None, help="write the report to a file")
    args = parser.parse_args(argv)
    config = RunConfig(
        input_path=args.input,
        degree_bound=args.degree_bound,
        checks=[c.strip() for c in args.checks.split(",") if c.strip()],
        format=args.format,
        out=args.out,
    )
    try:
        report, code = run(config)
        text = emit(report, config.format)
    except Exception as exc:
        # an unexpected exception must not exit 1, the code of a negative verdict
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        sys.stderr.write(f"error: internal error: {detail}\n")
        return 3
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {config.out}: {exc.strerror or exc}\n")
            return 2
        if "error" in report:
            sys.stderr.write(f"error: {report['error']}\n")
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
