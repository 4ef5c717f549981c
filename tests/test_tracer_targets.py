"""The benchmark tracer's targets name functions that exist, so a renamed
solver block fails here, not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_is_a_function_of_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for mod, name in tracer.TARGETS:
        module = importlib.import_module(f"stsad.{mod}")
        target = getattr(module, name, None)
        assert inspect.isfunction(target), f"stsad.{mod}.{name} is not a function"
        assert target.__module__ == module.__name__, f"stsad.{mod}.{name} is imported"
