"""The benchmark's tracer wraps eqforge functions by name; they must all exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_function_exists_and_is_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look the module up
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, name in tracer.TRACED
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert tracer.TRACED
    assert missing == []
