"""The benchmark's trace targets still name callables of the package.

``perfbench/tracing.py`` patches every ``module:qualname`` in ``SPANS`` and
the field methods in ``FIELD_COUNTERS``, and reads ``w_rows``'s arguments
by position; a rename in ``src`` would otherwise only break
``perfbench/run.py --trace 1``, and a reordering would go unnoticed.
"""

import importlib
import importlib.util
import inspect
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
