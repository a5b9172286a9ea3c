"""Tests of the benchmark itself, on 1x smoke inputs.

Run from the root of the repository::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import bench_inputs  # noqa: E402
from bench_trace import TARGETS, Tracer  # noqa: E402

SEED = 3


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(bench_inputs.SIZES))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_reports_every_declared_metric_with_its_unit(workload, trace):
    result = _result(_run("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                          "--trace", trace, "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.span_coverage"]["value"] >= 0.95
        assert result["metrics"]["trace.absent"]["value"] == 0


@pytest.mark.parametrize("workload", sorted(bench_inputs.SIZES))
def test_injected_check_failure_counts_as_failed_operation(workload):
    proc = _run("--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "0",
                "--smoke", "--inject-failure")
    result = _result(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "injected failure" in proc.stdout


def test_same_seed_gives_same_inputs_and_other_seed_differs():
    first = bench_inputs.prepare("report_10x", SEED, smoke=True)
    again = bench_inputs.prepare("report_10x", SEED, smoke=True)
    other = bench_inputs.prepare("report_10x", SEED + 1, smoke=True)
    assert first["sha256"] == again["sha256"]
    assert first["sha256"] != other["sha256"]


def test_tampered_input_is_refused():
    inputs = bench_inputs.prepare("staged_jsonl", SEED, smoke=True)
    path = inputs["paths"]["scientists"]
    original = path.read_bytes()
    try:
        path.write_bytes(original + b"\n")
        with pytest.raises(bench_inputs.InputError):
            bench_inputs.prepare("staged_jsonl", SEED, smoke=True)
    finally:
        path.write_bytes(original)


def test_inputs_differing_from_pins_are_refused(monkeypatch):
    wrong = {name: "0" * 64 for name in bench_inputs.FILE_NAMES}
    monkeypatch.setattr(bench_inputs, "_pinned", lambda *args: wrong)
    with pytest.raises(bench_inputs.InputError, match="pinned"):
        bench_inputs.prepare("report_10x", SEED, smoke=True)


def test_pins_cover_default_and_held_out_seeds():
    pins = json.loads(bench_inputs.PINNED_FILE.read_text(encoding="utf-8"))
    for workload in bench_inputs.SIZES:
        for seed in (bench_inputs.DEFAULT_SEED, bench_inputs.HELD_OUT_SEED):
            assert set(pins[workload][str(seed)]) == set(bench_inputs.FILE_NAMES)


@pytest.fixture(scope="module")
def rankmetrics_module():
    sys.path.insert(0, str(bench_inputs.SRC))
    import rankmetrics
    import rankmetrics.cli  # noqa: F401

    return rankmetrics


def test_spans_nest_and_self_times_add_up(rankmetrics_module, tmp_path):
    rm = rankmetrics_module
    inputs = bench_inputs.prepare("report_10x", SEED, smoke=True)
    paths = inputs["paths"]
    with Tracer() as tracer:
        bundle = rm.run_pipeline(rm.RunConfig(paths["scientists"], paths["publications"],
                                              paths["authorships"]))
        rm.write_bundle(bundle, tmp_path, "text")
    assert tracer.check_nesting() == []
    names = {s.name for s in tracer.spans}
    assert {"pipeline.run_pipeline", "corpus.load_corpus_files", "fileio.read_records",
            "corpus.load_corpus", "indicators.compute_indicators"} <= names
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    for span in tracer.spans:
        if span.name == "fileio.read_records":
            assert by_index[span.parent].name == "corpus.load_corpus_files"
    self_times = tracer.self_times()
    assert min(self_times) >= 0
    assert sum(self_times) == pytest.approx(tracer.covered(), rel=1e-9)
    # Wrappers are gone after uninstall.
    assert rm.pipeline.load_corpus_files is rm.corpus.load_corpus_files
    assert not hasattr(rm.run_pipeline, "__wrapped__")


def test_missing_function_is_recorded_absent(rankmetrics_module, monkeypatch):
    monkeypatch.setitem(TARGETS, "corpus", (*TARGETS["corpus"], "no_such_function"))
    monkeypatch.setitem(TARGETS, "no_such_module", ("anything",))
    with Tracer() as tracer:
        pass
    assert "corpus.no_such_function" in tracer.absent
    assert "no_such_module.anything" in tracer.absent


def test_memory_pass_records_peaks(rankmetrics_module):
    rm = rankmetrics_module
    inputs = bench_inputs.prepare("report_10x", SEED, smoke=True)
    paths = inputs["paths"]
    with Tracer(memory=True) as tracer:
        corpus = rm.load_corpus_files(paths["scientists"], paths["publications"],
                                      paths["authorships"])
    peaks = tracer.by_name()
    assert corpus.scientists
    assert peaks["corpus.load_corpus"]["peak_mb"] > 0
    # A parent's peak covers its children's.
    assert peaks["corpus.load_corpus_files"]["peak_mb"] >= peaks["corpus.load_corpus"]["peak_mb"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".inputs", ".out", "__pycache__"))
    proc = _run("--workload", "report_10x", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
