"""The benchmark's trace targets still name callables of the package.

``perfbench/tracing.py`` patches every ``module:qualname`` in ``SPANS`` and
the field methods in ``FIELD_COUNTERS``, and reads ``w_rows``'s arguments
by position; a rename in ``src`` would otherwise only break
``perfbench/run.py --trace 1``, and a reordering would go unnoticed.
"""

import importlib
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    tracing = load_tracing()
    for targets in tracing.SPANS.values():
        for target in targets:
            mod_name, qualname = target.split(":")
            module = importlib.import_module(f"nkoszul.{mod_name}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                # the tracer patches the class's own attribute
                assert attr in vars(getattr(module, cls_name)), target
            else:
                assert callable(getattr(module, qualname)), target


def test_field_classes_keep_counted_methods():
    tracing = load_tracing()
    cyclo = importlib.import_module("nkoszul.cyclo")
    for cls_name in tracing.FIELD_CLASSES:
        cls = getattr(cyclo, cls_name)
        for methods in tracing.FIELD_COUNTERS.values():
            for meth in methods:
                assert callable(vars(cls).get(meth)), f"{cls_name}.{meth}"


def test_w_rows_keeps_the_parameters_the_tracer_reads():
    # ``_on_w_rows_call`` reads n and the cache as positional arguments 1
    # and 2; another order would read every call as a cache miss
    homogeneous = importlib.import_module("nkoszul.homogeneous")
    params = list(inspect.signature(homogeneous.w_rows).parameters)
    assert params == ["alg", "n", "cache"]


def test_eliminator_add_returns_what_the_tracer_counts():
    # ``_on_add_return`` counts a non-None return of ``SparseEliminator.add``
    # as an inserted row: the add returns the new pivot for an independent
    # row, which need not be the row's first column, and None for a
    # dependent one
    tracing = load_tracing()
    elim = importlib.import_module("nkoszul.elim")
    field = importlib.import_module("nkoszul.cyclo").get_field(1)
    eliminator = elim.SparseEliminator(field)
    rows = [
        {2: 3, 4: 1},
        {1: 1, 2: 1},
        {1: 2, 2: 5, 4: 1},  # twice the second row plus the first
        {1: 1, 2: 2},  # the second row plus a third of the first, less e_4 / 3
    ]
    rows = [{c: field.from_fraction(Fraction(v)) for c, v in row.items()} for row in rows]
    returns = [eliminator.add(row) for row in rows]
    assert returns == [2, 1, None, 4]
    tracer = tracing.Tracer()
    for pivot in returns:
        tracer._on_add_return(pivot)
    assert tracer.counters["elim.rows_inserted"] == 3
