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


def test_reexported_names_are_in_their_modules_all():
    tree = ast.parse(Path(rankmetrics.__file__).read_text(encoding="utf-8"))
    reexported = [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexported
    missing = [f"{module}.{name}" for module, name in reexported
               if name not in importlib.import_module(f"rankmetrics.{module}").__all__]
    assert missing == []


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


# perfbench/bench_workloads.py's sweep makes these calls and attribute reads
# on one indicator table per weighting set; an API change should fail here
# before it fails the benchmark.
def test_calls_the_benchmark_sweep_makes(tiny_corpus):
    rm = rankmetrics
    filtered = rm.filter_active_sds(tiny_corpus, 0.25)
    baselines = rm.build_baselines(filtered)
    summary = rm.roster_summary(filtered)
    for udas in ((), filtered.udas):
        records = rm.compute_indicators(filtered, baselines, udas)
        activity = rm.activity_rates(filtered, records.values())
        averages, dominance = {}, {}
        for indicator in (rm.Indicator.NP, rm.Indicator.FSS, rm.Indicator.QI):
            percentiles = rm.sds_percentiles(records, indicator, filtered)
            groups = {}
            for p in percentiles:
                groups.setdefault(p.sds_code, []).append(p.percentile)
            assert sorted(groups) == ["S1", "S2"]
            averages[indicator] = rm.uda_rank_average(percentiles, filtered)
            dominance[indicator] = rm.dominance_counts(
                records, filtered, indicator, rm.Rank.FULL, rm.Rank.ASSISTANT
            )
        conc = rm.concentration_rows(records, filtered, rm.Indicator.FSS, 0.4, 0.2)
        flags = rm.top_scientists(records, rm.Indicator.FSS, filtered, 0.2)
        dist = rm.top_distribution(flags, filtered, rm.Indicator.FSS)
        tables = rm.tables
        built = [
            tables.build_roster_table(summary),
            tables.build_age_table(summary),
            tables.build_activity_table(activity, "publication"),
            tables.build_activity_table(activity, "citation"),
            *(tables.build_percentile_table(averages[i]) for i in averages),
            tables.build_dominance_table(dominance),
            tables.build_concentration_table(conc),
            tables.build_top_distribution_table(dist),
            tables.build_chi_square_table(dist),
        ]
        assert all(rm.format_table(table, "text") for table in built)
        # A1 and A2 share their one publication, so they tie in S1
        fss = averages[rm.Indicator.FSS]
        assert fss.mean(None, rm.Rank.FULL) == fss.mean(None, rm.Rank.ASSISTANT) == 50.0


# perfbench/bench_trace.py counts rows and bytes per call of fileio.read_records
# (the `fileio.read_records.rows` and `fileio.read_records.bytes` metrics of
# perfbench/run.py), so every reader must read each of its files through one
# call of it.
def test_every_reader_calls_read_records_once_per_file(tmp_path, monkeypatch):
    from rankmetrics import fileio
    from rankmetrics.synth import SynthConfig, generate, write_corpus_csv

    corpus = generate(SynthConfig(seed=3, n_uda=1, sds_per_uda=1))
    files = write_corpus_csv(corpus, tmp_path)
    baselines = rankmetrics.build_baselines(corpus)
    records = rankmetrics.compute_indicators(corpus, baselines)
    side = {
        "baselines": rankmetrics.write_baselines(baselines, tmp_path / "baselines.csv"),
        "indicators": rankmetrics.write_indicators(records, tmp_path / "indicators.csv"),
    }

    original = fileio.read_records
    calls = []

    def counting(path, *args):
        calls.append(path)
        return original(path, *args)

    for name in MODULES:
        module = importlib.import_module(f"rankmetrics.{name}")
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)

    paths = [files[name] for name in ("scientists", "publications", "authorships")]
    rankmetrics.load_corpus_files(*paths)
    assert calls == paths
    for name, read in (
        ("baselines", rankmetrics.read_baselines),
        ("indicators", lambda path: rankmetrics.read_indicators(path, corpus)),
    ):
        calls.clear()
        read(side[name])
        assert calls == [side[name]], name
