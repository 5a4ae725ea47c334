"""The library keeps what the CLI runs.

Every function and method defined in ``src/nkoszul`` must be referenced
somewhere in ``src`` outside its own body.  Code that only tests reach
belongs beside the tests (``paper_checks.py`` holds the paper-statement
oracles) or nowhere.  References are matched by name, read off the syntax
tree: a module-level function counts as used when its name is read or
taken as an attribute, a method when it is taken as an attribute.  An
attribute taken on a class of ``src`` by name, ``ClassName.attr``, counts
only for a method of that class or of a class it names as a base, so a
dead method cannot hide behind a namesake on another class.  The
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
    """(module:qualname, name, node) for every top-level function
    and every method of a top-level class."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.stem}:{node.name}", node.name, node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{path.stem}:{node.name}.{sub.name}", sub.name, sub


def class_bases() -> dict:
    """Class name -> the names of the bases it lists, for every top-level
    class in src."""
    return {
        node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }


def references():
    """(module, line, name, owners) for every name read and every attribute
    taken in src.  ``owners`` are the classes whose method the reference can
    be, ``""`` standing for the module level: only that for a name read;
    for an attribute taken on a src class by name, that class and the
    classes it names as bases, transitively; None, any, for any other
    attribute."""
    bases = class_bases()

    def lineage(cls):
        return {cls}.union(*(lineage(b) for b in bases.get(cls, ())))

    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.append((path.stem, node.lineno, node.id, {""}))
            elif isinstance(node, ast.Attribute):
                owner = getattr(node.value, "id", None)
                out.append((path.stem, node.lineno, node.attr, lineage(owner) if owner in bases else None))
    return out


def unreferenced() -> list:
    """The non-dunder definitions no reference outside their own body reaches."""
    refs = references()
    out = []
    for target, name, node in definitions():
        if name.startswith("__") and name.endswith("__"):
            continue
        module, qualname = target.split(":")
        cls = qualname.rpartition(".")[0]
        used = any(
            ref == name
            and (owners is None or cls in owners)
            and not (mod == module and node.lineno <= line <= node.end_lineno)
            for mod, line, ref, owners in refs
        )
        if not used:
            out.append(target)
    return out


def test_every_callable_in_src_has_a_caller_in_src():
    allowed = span_targets() | set(NAMED_ORACLES)
    orphans = [t for t in unreferenced() if t not in allowed]
    assert orphans == [], "only tests reach these; move them beside the tests or delete them"


def test_every_named_oracle_is_still_defined():
    defined = {target for target, _, _ in definitions()}
    assert set(NAMED_ORACLES) <= defined


# the modules that make the sign objects and the products by them
SIGN_AWARE = {"cyclo", "scalar", "elim"}

# elim's sign paths: the negative and product by a sign, and the two
# scaled-row loops every other row and map operation goes through
ELIM_SIGN_PATHS = {"negated", "times", "add_scaled", "add_shifted"}


def minus_one_tests(tree):
    """The comparisons in ``tree`` that test identity with ``minus_one``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            sides = (node.left, *node.comparators)
            if any(getattr(side, "attr", getattr(side, "id", None)) == "minus_one" for side in sides):
                yield node


def test_products_and_sign_tests_stay_in_the_sign_aware_modules():
    # a product of raw values elsewhere is elim.times, which skips a sign
    # factor; a hand-written sign ladder would read field.mul or test a
    # value against minus_one
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in SIGN_AWARE:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "mul":
                found.append(f"{path.stem}:{node.lineno} reads .mul")
        found += [f"{path.stem}:{node.lineno} tests identity with minus_one" for node in minus_one_tests(tree)]
    assert found == []


def test_elim_tests_signs_only_in_its_sign_paths():
    # add_maps and compose_maps sum through add_scaled; an inline copy of
    # its sign paths anywhere else in elim would test a value against
    # minus_one
    tree = ast.parse((SRC / "elim.py").read_text(encoding="utf-8"))
    allowed = {
        node
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and func.name in ELIM_SIGN_PATHS
        for node in minus_one_tests(func)
    }
    assert [node.lineno for node in minus_one_tests(tree) if node not in allowed] == []
