"""The library keeps what the CLI runs.

Every function and method defined in ``src/nkoszul`` must be referenced
somewhere in ``src`` outside its own body.  Code that only tests reach
belongs beside the tests (``paper_checks.py`` holds the paper-statement
oracles) or nowhere.  References are matched by name, read off the syntax
tree: a module-level function counts as used when its name is read or
taken as an attribute, a method when it is taken as an attribute.  The
exceptions are the dunders, the callables the benchmark's tracer patches
(``perfbench/tracing.py``'s ``SPANS``), and the named oracles below.
"""

import ast
from pathlib import Path

from test_bench_spans import load_tracing

SRC = Path(__file__).resolve().parent.parent / "src" / "nkoszul"

# module:qualname -> why it stays with no caller in src
NAMED_ORACLES = {
    "scalar:Subspace.intersect_via_kernel": "the kernel intersection the Zassenhaus one is checked against",
    "smashtensor:W": "the fold of pairwise intersections w_rows is checked against",
    "smashtensor:TensorContext.smash_mul_terms": "the term-dict product the sparse row products are checked against",
    "scalar:rref": "public scalar API",
    "scalar:rank": "public scalar API",
    "scalar:kernel": "public scalar API",
    "scalar:image": "public scalar API",
    "scalar:Scalar.from_coeffs": "public scalar API",
    "scalar:Scalar.inverse": "public scalar API",
    "scalar:Subspace.full": "public scalar API",
    "smashtensor:Subbimodule.full": "public constructor, the sub-bimodule form of Subspace.full",
}


def span_targets() -> set:
    return {target for targets in load_tracing().SPANS.values() for target in targets}


def definitions():
    """(module:qualname, name, is_method, node) for every top-level function
    and every method of a top-level class."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.stem}:{node.name}", node.name, False, node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{path.stem}:{node.name}.{sub.name}", sub.name, True, sub


def references():
    """(module, line, name, is_attribute) for every name read and every
    attribute taken in src."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.append((path.stem, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                out.append((path.stem, node.lineno, node.attr, True))
    return out


def unreferenced() -> list:
    """The non-dunder definitions no reference outside their own body reaches."""
    refs = references()
    out = []
    for target, name, is_method, node in definitions():
        if name.startswith("__") and name.endswith("__"):
            continue
        module = target.split(":")[0]
        used = any(
            ref == name
            and (is_attr or not is_method)
            and not (mod == module and node.lineno <= line <= node.end_lineno)
            for mod, line, ref, is_attr in refs
        )
        if not used:
            out.append(target)
    return out


def test_every_callable_in_src_has_a_caller_in_src():
    allowed = span_targets() | set(NAMED_ORACLES)
    orphans = [t for t in unreferenced() if t not in allowed]
    assert orphans == [], "only tests reach these; move them beside the tests or delete them"


def test_every_named_oracle_is_still_defined():
    defined = {target for target, _, _, _ in definitions()}
    assert set(NAMED_ORACLES) <= defined


# the modules that make the sign objects and the products by them
SIGN_AWARE = {"cyclo", "scalar", "elim"}


def test_products_and_sign_tests_stay_in_the_sign_aware_modules():
    # a product of raw values elsewhere is elim.times, which skips a sign
    # factor; a hand-written sign ladder would read field.mul or test a
    # value against minus_one
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in SIGN_AWARE:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "mul":
                found.append(f"{path.stem}:{node.lineno} reads .mul")
            elif isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                for side in (node.left, *node.comparators):
                    name = side.attr if isinstance(side, ast.Attribute) else getattr(side, "id", None)
                    if name == "minus_one":
                        found.append(f"{path.stem}:{node.lineno} tests identity with minus_one")
    assert found == []
