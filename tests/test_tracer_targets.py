"""The benchmark tracer rebinds ikc functions by name; each name must exist."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"ikc.{mod}"), fn, None))
    ]
    assert missing == []
