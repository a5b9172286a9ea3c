"""Full pipeline behaviour: completeness, determinism, degenerate inputs."""

import gc

import pytest

from rankmetrics import Corpus, Rank, RunConfig, load_corpus, pipeline, prepare, run_pipeline, write_bundle
from rankmetrics.synth import SynthConfig, generate, write_corpus_csv

from conftest import single_author_corpus

EXPECTED_TABLES = [
    "T1_roster",
    "T2_mean_age",
    "T3_publication_active",
    "T4_citation_active",
    "T5_percentile_np",
    "T6_percentile_fss",
    "T7_percentile_qi",
    "T8_dominance",
    "T9_concentration",
    "T10_top_distribution",
    "chi_square",
]


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    cfg = SynthConfig(seed=404, n_uda=3, sds_per_uda=2)
    return write_corpus_csv(generate(cfg), out)


def _run_config(paths, **kwargs):
    return RunConfig(
        scientists=paths["scientists"],
        publications=paths["publications"],
        authorships=paths["authorships"],
        **kwargs,
    )


def test_bundle_complete_with_metadata(corpus_paths):
    bundle = run_pipeline(_run_config(corpus_paths))
    assert list(bundle.tables) == EXPECTED_TABLES
    for table in bundle.tables.values():
        assert table.metadata.get("config_sha256")
        assert table.metadata.get("scientists")
        assert table.metadata.get("publications")
        # the run's lines lead, then the table's own (T8's excluded_sds_*)
        lines, run = list(table.metadata.items()), list(bundle.metadata.items())
        assert lines[:len(run)] == run
        assert all(key.startswith("excluded_sds_") for key, _ in lines[len(run):])


def test_config_text_is_typed_and_typed_values_keep_their_digest(corpus_paths):
    typed = _run_config(corpus_paths, positional_udas=("UDA01", "UDA02"), sds_threshold=0.4,
                        top_fraction=0.1, bottom_fraction=0.3, reference_year=2012)
    text = _run_config(corpus_paths, positional_udas="UDA01, UDA02,", sds_threshold="0.4",
                       top_fraction="0.1", bottom_fraction="0.3", reference_year="2012")
    assert text == typed and text.digest() == typed.digest()
    # settings given in code hash as they always have: these digests are the
    # config_sha256 lines of existing reports
    assert RunConfig("s.csv", "p.csv", "a.csv").digest() == "eb16025953a1b628"
    assert RunConfig("s.csv", "p.csv", "a.csv", sds_threshold=1).digest() == "f71d8223f2154d5c"


def test_activity_filter_that_keeps_no_sds_is_named(corpus_paths, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("baselines or indicators were read or built")

    for name in ("read_baselines", "build_baselines", "read_indicators", "compute_indicators"):
        monkeypatch.setattr(pipeline, name, unexpected)
    # every SDS of the corpus has a scientist without publications
    with pytest.raises(ValueError, match=r"activity threshold 1\.0: 0 of the 6 SDSs loaded are kept"):
        prepare(_run_config(corpus_paths, sds_threshold=1.0))


def test_positional_udas_must_name_loaded_udas(tmp_path):
    # U2's only SDS has no publishing scientist, so the activity filter drops
    # it; U2 is still a code of the loaded corpus
    corpus = single_author_corpus([("A1", "S1", "U1", "FULL", [3]), ("A2", "S2", "U2", "FULL", [])])
    paths = write_corpus_csv(corpus, tmp_path)
    _, filtered, _, _ = prepare(_run_config(paths, positional_udas=("U2",)))
    assert filtered.udas == ("U1",)
    with pytest.raises(ValueError, match=r"positional_udas names UDA code\(s\) not in the corpus: "
                                         r"NOPE, U3; the corpus has U1, U2$"):
        prepare(_run_config(paths, positional_udas=("U3", "U1", "NOPE")))


def test_identical_runs_are_byte_identical(corpus_paths, tmp_path):
    config = _run_config(corpus_paths, output_format="csv")
    first = write_bundle(run_pipeline(config), tmp_path / "run1", "csv")
    second = write_bundle(run_pipeline(config), tmp_path / "run2", "csv")
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


def test_planted_ordering_recovered(corpus_paths):
    bundle = run_pipeline(_run_config(corpus_paths))
    table = bundle.tables["T5_percentile_np"]
    # Total row: planted FULL > ASSOCIATE > ASSISTANT effect
    total = table.rows[-1]
    assert total[0] == "Total"
    assert total[1] > total[2] > total[3]


def test_missing_input_fails_validation(corpus_paths, tmp_path):
    config = _run_config(corpus_paths)
    config.publications = tmp_path / "nope.csv"
    with pytest.raises(FileNotFoundError):
        run_pipeline(config)


def test_threshold_validation(corpus_paths):
    with pytest.raises(ValueError, match="top_fraction"):
        run_pipeline(_run_config(corpus_paths, top_fraction=1.0))


def test_uda_with_empty_rank_is_excluded_from_dominance():
    scientists = []
    publications = []
    authorships = []
    serial = 0
    # U1/SX has both ranks; U2/SY has no assistants at all
    for sds, uda, rank, n in [
        ("SX", "U1", "FULL", 3),
        ("SX", "U1", "ASSISTANT", 3),
        ("SY", "U2", "FULL", 3),
    ]:
        for i in range(n):
            sid = f"{sds}-{rank}-{i}"
            scientists.append(
                {"scientist_id": sid, "sds_code": sds, "uda_code": uda, "rank": rank, "birth_year": ""}
            )
            serial += 1
            pid = f"P{serial}"
            publications.append(
                {"pub_id": pid, "year": 2005, "citation_count": serial % 5,
                 "subject_categories": "C1", "author_count": 1}
            )
            authorships.append(
                {"pub_id": pid, "position": 1, "scientist_id": sid, "affiliation_id": "U"}
            )
    corpus = load_corpus(scientists, publications, authorships)

    from rankmetrics import Indicator, build_baselines, compute_indicators, dominance_counts

    records = compute_indicators(corpus, build_baselines(corpus))
    counts = dominance_counts(records, corpus, Indicator.NP, Rank.FULL, Rank.ASSISTANT)
    assert "U2" not in counts.per_uda
    assert counts.excluded_sds == 1
    assert counts.per_uda["U1"][1] == 1


def _cli_args(command, paths, out):
    """Arguments of one subcommand on the corpus files, writing under ``out``."""
    if command == "synth":
        config = out / "synth.conf"
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text("[synth]\nn_uda = 1\nsds_per_uda = 1\n", encoding="utf-8")
        return ["synth", "--config", str(config), "--out", str(out / "synth")]
    inputs = [f"--{name}={paths[name]}" for name in ("scientists", "publications", "authorships")]
    return [command, *inputs] + ([] if command == "validate" else ["--out", str(out / command)])


CLI_COMMANDS = ["validate", "synth", "indicators", "rank", "analyze", "report"]


def test_pipeline_builds_no_row_objects(corpus_paths, monkeypatch, tmp_path):
    from rankmetrics import fileio
    from rankmetrics.cli import main
    from rankmetrics.corpus import Authorship, Publication, Scientist

    built = []
    for cls in (Scientist, Publication, Authorship):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    # no per-row dict between the CSV files and the corpus: records are
    # columns only
    def no_rows(*args, **kwargs):
        raise AssertionError("a row dict was built")

    for method in ("__iter__", "__getitem__", "_row", "join"):
        assert not hasattr(fileio.Records, method), method
    with monkeypatch.context() as patch:
        patch.setattr(fileio.csv, "DictReader", no_rows)
        run_pipeline(_run_config(corpus_paths, positional_udas=("UDA01",)))
        for command in CLI_COMMANDS:
            assert main(_cli_args(command, corpus_paths, tmp_path)) == 0, command
    assert built == []

    corpus = generate(SynthConfig(seed=5, n_uda=1, sds_per_uda=1))
    built.clear()
    assert len(corpus.scientists) > 0 and len(corpus.authorships) > 0
    assert len(corpus.publications) > 0
    assert built == []
    assert len(list(corpus.scientists)) == len(corpus.scientists)
    assert built.count("Scientist") == len(corpus.scientists)
    assert len(list(corpus.authorships)) == len(corpus.authorships)
    assert built.count("Authorship") == len(corpus.authorships)


def _corpora() -> int:
    return sum(isinstance(obj, Corpus) for obj in gc.get_objects())


def test_pipeline_leaves_no_corpus_to_the_collector(corpus_paths):
    """A corpus must be freed when the run returns, not at the next full
    collection: a lingering one raises the peak memory of the next run."""
    gc.collect()
    gc.disable()
    try:
        before = _corpora()
        run_pipeline(_run_config(corpus_paths))
        after = _corpora()
    finally:
        gc.enable()
    assert after == before


@pytest.mark.parametrize("command", ["validate", "indicators", "rank", "analyze", "report"])
def test_cli_leaves_no_corpus_to_the_collector(corpus_paths, tmp_path, command):
    from rankmetrics.cli import main

    args = _cli_args(command, corpus_paths, tmp_path)
    gc.collect()
    gc.disable()
    try:
        before = _corpora()
        assert main(args) == 0
        after = _corpora()
    finally:
        gc.enable()
    assert after == before
