"""JSON input formats for contexts, presentations and psi maps.

The input file carries a context block and a presentation block:

    {
      "context": {"conductor": 1, "dimV": 2,
                  "group_generators": [["0", "1", "-1", "0"]]},
      "presentation": {"N": 2, "P": [[{"coeff": "1", "word": [1, 2], "g": 0},
                                      ...], ...]}
    }

Words use 1-based letter indices; "g" is the element index in the
enumerated group; coefficients are scalar literals like "3/2" or
"zeta^2 - 1/3" over the declared conductor.  In place of explicit
relations, builder shortcuts are accepted:

    {"builder": "down_up", "alpha": "2", "beta": "-1", "gamma": "1"}
    {"builder": "lie", "structure_constants": [[1, 2, 3, "1"], ...]}
    {"builder": "h_psi", "p": 2, "psi": {...}}
    {"builder": "h_psi", "p": 2,
     "psi_builder": {"builder": "symplectic_reflection",
                     "omega": [["0", "1"], ["-1", "0"]], "m": ["1", "1"]}}

A psi map is {"p": p, "psi": [{"g": 0, "values": {"[1,2]": "1"}}]}.
"""

from __future__ import annotations

import json
from typing import Optional

from .filtered import FilteredPresentation, build_down_up, build_lie
from .grouppres import (
    PsiMap,
    build_H_psi,
    build_psi_corollary45,
    build_psi_symplectic_reflection,
)
from .scalar import DimensionMismatch, MatrixS, Scalar, parse_scalar
from .smashtensor import FilteredSubspace, GroupData, TensorContext, terms_to_json  # noqa: F401


class InputError(ValueError):
    """Malformed or inconsistent input data."""


def _integer(value) -> int:
    """An integer input field: an int (not a bool) or a decimal string.

    Anything else, such as 1.9, 2.0 or true, is refused rather than
    truncated.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError(f"expected an integer, not {value!r}")
    try:
        return int(value)
    except ValueError as exc:
        raise InputError(f"expected an integer, not {value!r}") from exc


def parse_context(block: dict) -> TensorContext:
    try:
        conductor = _integer(block.get("conductor", 1))
        dimV = _integer(block["dimV"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad context block: {exc}") from exc
    gens = block.get("group_generators") or []
    if not isinstance(gens, list):
        raise InputError("group_generators must be a list of matrices")
    if not gens:
        return TensorContext(dimV, GroupData.trivial(dimV, conductor), conductor)
    mats = []
    for flat in gens:
        if not isinstance(flat, list) or len(flat) != dimV * dimV:
            raise InputError("group generator must have dimV^2 entries, row-major")
        try:
            entries = [parse_scalar(str(s), conductor) for s in flat]
        except ValueError as exc:
            raise InputError(f"bad group matrix entry: {exc}") from exc
        mats.append(MatrixS(dimV, dimV, entries, conductor))
    try:
        group = GroupData.from_generators(mats, order_cap=_integer(block.get("order_cap", 1024)))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return TensorContext(dimV, group, conductor)


def parse_terms(ctx: TensorContext, items: list) -> dict:
    if not isinstance(items, list):
        raise InputError(f"a relation must be a list of terms, not {items!r}")
    out: dict = {}
    for item in items:
        try:
            coeff = parse_scalar(str(item["coeff"]), ctx.conductor)
            word = tuple(_integer(i) - 1 for i in item.get("word", []))
            g = _integer(item.get("g", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad term {item!r}: {exc}") from exc
        if any(not 0 <= l < ctx.dimV for l in word):
            raise InputError(f"letter out of range in {item!r}")
        if not 0 <= g < ctx.order:
            raise InputError(f"group index out of range in {item!r}")
        key = (word, g)
        out[key] = out.get(key, Scalar.zero(ctx.conductor)) + coeff
    return {k: v for k, v in out.items() if not v.is_zero()}


def parse_psi(block: dict, group: GroupData, conductor: int) -> PsiMap:
    if not isinstance(block, dict):
        raise InputError("a psi block must be a JSON object")
    if "builder" in block:
        name = block["builder"]
        factors = block.get("m")
        if factors is not None:
            if not isinstance(factors, list):
                raise InputError("m must be a list with one factor per group element")
            factors = [parse_scalar(str(f), conductor) for f in factors]
        if name == "symplectic_reflection":
            try:
                omega_rows = block["omega"]
                n = len(omega_rows)
                entries = [
                    parse_scalar(str(x), conductor) for row in omega_rows for x in row
                ]
            except (KeyError, TypeError) as exc:
                raise InputError(f"bad symplectic_reflection block: {exc}") from exc
            omega = MatrixS(n, n, entries, conductor)
            return build_psi_symplectic_reflection(group, omega, factors, conductor)
        if name == "corollary45":
            try:
                p = _integer(block["p"])
                phi = {}
                for key, val in block["phi"].items():
                    combo = tuple(_integer(i) - 1 for i in json.loads(key))
                    phi[combo] = parse_scalar(str(val), conductor)
            except (KeyError, TypeError, AttributeError) as exc:
                raise InputError(f"bad corollary45 block: {exc}") from exc
            return build_psi_corollary45(group, p, phi, factors, conductor)
        raise InputError(f"unknown psi builder {name!r}")
    try:
        p = _integer(block["p"])
        comps: dict = {}
        for entry in block.get("psi", []):
            g = _integer(entry["g"])
            values = entry.get("values", {})
            if not isinstance(values, dict):
                raise InputError("psi values must be a JSON object")
            table = {}
            for key, val in values.items():
                combo = tuple(_integer(i) - 1 for i in json.loads(key))
                table[combo] = parse_scalar(str(val), conductor)
            comps[g] = table
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad psi block: {exc}") from exc
    return PsiMap(p, group.dimV, group.order, comps, conductor)


def psi_to_json(psi: PsiMap) -> dict:
    out = {"p": psi.p, "psi": []}
    for g in sorted(psi.components):
        values = {
            json.dumps([i + 1 for i in combo]): str(c)
            for combo, c in sorted(psi.components[g].items())
        }
        out["psi"].append({"g": g, "values": values})
    return out


def _structure_constant(row, conductor: int) -> list:
    """A lie structure-constant row [i, j, k, coeff] with parsed entries."""
    if not isinstance(row, list) or len(row) != 4:
        raise InputError(f"a structure constant is [i, j, k, coeff], not {row!r}")
    i, j, k, coeff = row
    return [_integer(i), _integer(j), _integer(k), parse_scalar(str(coeff), conductor)]


def parse_input(data: dict):
    """Returns (presentation, psi), psi None unless the builder is h_psi.

    An h_psi presentation's group is ``pres.ctx.group`` and its p is
    ``psi.p``; a psi block whose p differs from the presentation's is
    refused.
    """
    if not isinstance(data, dict):
        raise InputError("input must be a JSON object")
    block = data.get("presentation")
    if block is None:
        raise InputError("missing presentation block")
    ctx: Optional[TensorContext] = None
    if "context" in data:
        if not isinstance(data["context"], dict):
            raise InputError("the context block must be a JSON object")
        ctx = parse_context(data["context"])
    builder = block.get("builder") if isinstance(block, dict) else None
    if builder == "down_up":
        conductor = ctx.conductor if ctx else 1
        if ctx and ctx.order != 1:
            raise InputError("the down-up builder uses the trivial group")
        try:
            params = [parse_scalar(str(block[k]), conductor) for k in ("alpha", "beta", "gamma")]
        except KeyError as exc:
            raise InputError(f"the down_up builder needs the field {exc}") from exc
        return build_down_up(*params, conductor), None
    if builder == "lie":
        conductor = ctx.conductor if ctx else 1
        if ctx and ctx.order != 1:
            raise InputError("the lie builder uses the trivial group")
        try:
            sc = [_structure_constant(r, conductor) for r in block["structure_constants"]]
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad lie block: {exc}") from exc
        pres = build_lie(sc, dimV=ctx.dimV if ctx else None, conductor=conductor)
        return pres, None
    if builder == "h_psi":
        if ctx is None:
            raise InputError("the h_psi builder needs a context block")
        try:
            p = _integer(block["p"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad h_psi block: {exc}") from exc
        psi_block = block.get("psi") or block.get("psi_builder")
        if psi_block is None:
            psi = PsiMap(p, ctx.dimV, ctx.order, {}, ctx.conductor)
        else:
            psi = parse_psi(psi_block, ctx.group, ctx.conductor)
            if psi.p != p:
                raise InputError(f"the psi block has p = {psi.p}, the presentation p = {p}")
        return build_H_psi(ctx.group, psi), psi
    if builder is not None:
        raise InputError(f"unknown builder {builder!r}")
    if ctx is None:
        raise InputError("explicit presentations need a context block")
    try:
        N = _integer(block["N"])
        raw_elements = block["P"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad presentation block: {exc}") from exc
    if not isinstance(raw_elements, list):
        raise InputError("P must be a list of relations")
    elements = [parse_terms(ctx, item) for item in raw_elements]
    for terms in elements:
        for (word, _g) in terms:
            if len(word) > N:
                raise InputError("relation term exceeds the stated degree")
    P = FilteredSubspace.from_elements(ctx, N, elements, close=True)
    return FilteredPresentation(ctx, N, P), None


def load_input(path: str):
    """``parse_input`` of a JSON file; any input fault is an ``InputError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    try:
        return parse_input(data)
    except (DimensionMismatch, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(str(exc)) from exc
