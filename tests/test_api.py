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


# perfbench/bench_inputs.py writes its JSON-lines inputs from the three row
# views and counts their rows with len(); perfbench/bench_trace.py recognizes a
# corpus by `scientists_by_id`, counts its rows through the row views, and
# counts dropped SDSs with len(scientists_by_sds); perfbench/bench_workloads.py
# reads `udas`. Once perfbench reads the columns instead, the two keyed views
# can go, and so can this guard.
BENCH_CORPUS_ATTRIBUTES = (
    "scientists", "publications", "authorships", "scientists_by_id", "scientists_by_sds", "udas",
)


def test_corpus_attributes_the_benchmark_reads(tiny_corpus, monkeypatch):
    from rankmetrics.corpus import Authorship, Publication, Scientist

    def no_rows(*args, **kwargs):
        raise AssertionError("a row object was built")

    for cls in (Scientist, Publication, Authorship):
        monkeypatch.setattr(cls, "__init__", no_rows)
    for name in BENCH_CORPUS_ATTRIBUTES:
        assert hasattr(tiny_corpus, name), name
    assert (len(tiny_corpus.scientists), len(tiny_corpus.publications),
            len(tiny_corpus.authorships)) == (3, 2, 4)
    assert len(tiny_corpus.scientists_by_id) == 3
    assert len(tiny_corpus.scientists_by_sds) == 2
    monkeypatch.undo()
    assert tiny_corpus.scientists_by_id["A3"].sds_code == "S2"
    assert [s.scientist_id for s in tiny_corpus.scientists_by_sds["S1"]] == ["A1", "A2"]
