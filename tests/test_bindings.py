"""Names that code outside the package binds by attribute still resolve."""

import importlib
import importlib.util
from pathlib import Path

import chainrep

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_benchmark_targets_resolve():
    # resolved as Tracer.install resolves them: a dotted attribute is a
    # method looked up in the class __dict__
    targets = _tracer_targets()
    assert targets
    for name, module_name, attr, _ in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), name
        else:
            assert callable(getattr(module, attr, None)), name


def test_package_exports_resolve():
    missing = [n for n in chainrep.__all__ if not hasattr(chainrep, n)]
    assert not missing
