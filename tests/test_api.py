"""The public surface: exported names resolve, and every function the
benchmark's traced run wraps still exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rankmetrics

# __main__ runs the command line on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(rankmetrics.__path__) if m.name != "__main__")
BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"rankmetrics.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"rankmetrics.{name}.{attr}"


def _trace_targets() -> dict:
    """``TARGETS`` of the benchmark's tracer, read from its source."""
    for node in ast.parse(BENCH_TRACE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {BENCH_TRACE}")


def test_traced_functions_exist():
    targets = _trace_targets()
    assert targets
    missing = [
        f"{layer}.{name}"
        for layer, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"rankmetrics.{layer}"), name, None))
    ]
    assert missing == []
