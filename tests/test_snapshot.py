"""The corpus snapshot of the staged command line: ``indicators`` writes
``corpus.npz`` beside its outputs, and ``rank``, ``analyze`` and ``report``
read it in place of the three corpus files while their bytes are unchanged.

A snapshot must read back as the parsed corpus, column for column; the
steps must write the same bytes with it and without it; a stale, damaged or
foreign snapshot must be ignored without unpickling anything; and one that
is used still goes through :func:`load_corpus`'s checks across rows and
files.
"""

import csv
import dataclasses
import json
import logging
import pickle
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest

from rankmetrics import corpus as corpus_module
from rankmetrics import indicators as indicators_module
from rankmetrics import pipeline
from rankmetrics.cli import main
from rankmetrics.fileio import read_records
from rankmetrics.corpus import (
    SNAPSHOT_NAME, SNAPSHOT_VERSION, Corpus, CorpusError, file_digests, load_corpus, load_corpus_files,
    load_snapshot, save_snapshot,
)
from rankmetrics.pipeline import RunConfig, prepare
from rankmetrics.synth import SynthConfig, generate, write_corpus_csv

SOURCES = ("scientists", "publications", "authorships")


# ---------------------------------------------------------------------------
# A corpus with every kind of value a column can hold

def _rows(categories_as_lists: bool):
    """Rows with unknown birth years, missing affiliations, external authors,
    multi-category publications and non-ASCII ids; in JSON lines, category
    lists (one holding a ``;``) and a lone surrogate; in CSV, an id ending
    in NUL, which a fixed-width numpy string would drop."""
    odd = "X\ud800" if categories_as_lists else "X\x00"
    scientists = [
        {"scientist_id": "Müller", "sds_code": "FIS/01", "uda_code": "U02", "rank": "FULL",
         "birth_year": "1950"},
        {"scientist_id": "张伟", "sds_code": "FIS/01", "uda_code": "U02", "rank": "assistant",
         "birth_year": ""},
        {"scientist_id": "🔬", "sds_code": "CHIM/03", "uda_code": "U01", "rank": "ASSOCIATE",
         "birth_year": "-12"},
        {"scientist_id": odd, "sds_code": "CHIM/03", "uda_code": "U01", "rank": "FULL",
         "birth_year": ""},
    ]
    cats = [["Físic;a", "B"], ["B"], ["C", "Físic;a", "B"]] if categories_as_lists else \
        ["Física;B", "B", "C;Física;B"]
    publications = [
        {"pub_id": f"Pé{i}", "year": str(2004 + i), "citation_count": str(3 * i),
         "subject_categories": cats[i], "author_count": str(n)}
        for i, n in enumerate((3, 1, 2))
    ]
    authorships = [
        {"pub_id": "Pé0", "position": "2", "scientist_id": "Müller", "affiliation_id": "Università"},
        {"pub_id": "Pé0", "position": "1", "scientist_id": "", "affiliation_id": ""},
        {"pub_id": "Pé0", "position": "3", "scientist_id": "🔬", "affiliation_id": "Università"},
        {"pub_id": "Pé1", "position": "1", "scientist_id": odd, "affiliation_id": "École"},
        {"pub_id": "Pé2", "position": "2", "scientist_id": "张伟", "affiliation_id": ""},
        {"pub_id": "Pé2", "position": "1", "scientist_id": "Müller", "affiliation_id": "École"},
    ]
    return scientists, publications, authorships


def _write_rows(out: Path, fmt: str) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for source, rows in zip(SOURCES, _rows(fmt == "jsonl")):
        path = out / f"{source}.{fmt}"
        if fmt == "jsonl":
            path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        else:
            with path.open("w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        paths.append(path)
    return paths


def assert_same_corpus(actual: Corpus, expected: Corpus) -> None:
    """Every column of two corpora equal, with its type and dtype."""
    for field in dataclasses.fields(Corpus):
        a, e = getattr(actual, field.name), getattr(expected, field.name)
        assert type(a) is type(e), field.name
        if isinstance(e, np.ndarray):
            assert a.dtype == e.dtype and np.array_equal(a, e), field.name
        else:
            assert a == e, field.name
            if isinstance(e, (list, tuple)):
                assert list(map(type, a)) == list(map(type, e)), field.name


def _save(paths, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    return save_snapshot(load_corpus_files(*paths), file_digests(paths), out / SNAPSHOT_NAME)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_snapshot_reads_back_as_the_parsed_corpus(fmt, tmp_path):
    paths = _write_rows(tmp_path / "in", fmt)
    parsed = load_corpus_files(*paths)
    assert parsed.scientist_birth_year.count(None) == 2
    assert (parsed.auth_scientist == -1).sum() == 1 and (parsed.auth_affiliation == -1).sum() == 2
    assert max(map(len, parsed.category_sets)) == 3
    snapshot = _save(paths, tmp_path)
    assert_same_corpus(load_snapshot(snapshot, paths), parsed)
    # a second write of the same corpus is the same bytes
    assert _save(paths, tmp_path / "again").read_bytes() == snapshot.read_bytes()


def test_snapshot_of_a_synthetic_corpus_reads_back(tmp_path):
    paths = list(write_corpus_csv(generate(SynthConfig(seed=7, n_uda=2, sds_per_uda=2)), tmp_path).values())
    assert_same_corpus(load_snapshot(_save(paths, tmp_path), paths), load_corpus_files(*paths))


def test_a_snapshot_in_file_order_reads_back_in_key_order(tmp_path):
    # as written before the corpus held its rows in key order: publications
    # out of pub_id order, bylines out of position order
    paths = _write_rows(tmp_path / "in", "csv")
    parsed = load_corpus_files(*paths)
    last = len(parsed.pub_ids) - 1
    unordered = dataclasses.replace(
        parsed, pub_ids=parsed.pub_ids[::-1], auth_pub=(last - parsed.auth_pub)[::-1],
        **{key: getattr(parsed, key)[::-1] for key in (
            "pub_year", "pub_citations", "pub_author_count", "pub_categories",
            "auth_scientist", "auth_position", "auth_affiliation")},
    )
    snapshot = save_snapshot(unordered, file_digests(paths), tmp_path / SNAPSHOT_NAME)
    assert_same_corpus(load_snapshot(snapshot, paths), parsed)


def test_typed_tables_are_read_by_field_name(tmp_path):
    paths = _write_rows(tmp_path / "in", "csv")
    tables = {}
    for source, path in zip(SOURCES, paths):
        tables[source] = read_records(path, corpus_module._schema(source, **tables))
    for table in tables.values():  # columns in the reverse of the schema's order
        table.columns = dict(reversed(table.columns.items()))
    assert_same_corpus(load_corpus(*tables.values()), load_corpus_files(*paths))


def test_snapshot_holds_numbers_and_fixed_width_text_only(tmp_path):
    paths = _write_rows(tmp_path / "in", "csv")
    snapshot = _save(paths, tmp_path)
    with zipfile.ZipFile(snapshot) as zf:
        assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
    with np.load(snapshot, allow_pickle=False) as npz:
        kinds = {npz[key].dtype.kind for key in npz.files}
        assert npz["sha256"].tolist() == file_digests(paths)
        assert int(npz["version"]) == SNAPSHOT_VERSION
    assert kinds <= {"i", "u", "U"}


# ---------------------------------------------------------------------------
# The staged command line with the snapshot and without it

CASES = {
    # uniform weights; no SDS falls under the default threshold
    "kept": (SynthConfig(seed=20240409, n_uda=3, sds_per_uda=2), []),
    # the 0.88 threshold drops one SDS, so the snapshot must hold the unfiltered corpus
    "dropped": (SynthConfig(seed=1811, n_uda=3, sds_per_uda=2),
                ["--positional-udas", "UDA01,UDA03", "--sds-threshold", "0.88"]),
}


def _inputs(paths) -> list[str]:
    return [f"--{source}={path}" for source, path in zip(SOURCES, paths)]


def _staged(inputs, options, stage: Path, out: Path) -> dict[str, bytes]:
    """Run rank, analyze and report on the outputs of ``indicators`` in
    ``stage``; every file they write under ``out``, by relative path."""
    indicators, baselines = str(stage / "indicators.csv"), str(stage / "baselines.csv")
    for argv in (
        ["rank", "--indicators", indicators],
        ["analyze", "--indicators", indicators, "--baselines", baselines, "--format", "csv"],
        ["report", "--baselines", baselines, "--format", "md"],
    ):
        assert main([*argv, *inputs, *options, "--out", str(out / argv[0])]) == 0
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshot_cases")
    return {name: list(write_corpus_csv(generate(config), root / name).values())
            for name, (config, _) in CASES.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_steps_write_the_same_bytes_with_and_without_the_snapshot(name, corpus_files, tmp_path,
                                                                   monkeypatch, capsys):
    inputs, options = _inputs(corpus_files[name]), CASES[name][1]
    stage = tmp_path / "stage"
    assert main(["indicators", *inputs, *options, "--out", str(stage)]) == 0
    assert (stage / SNAPSHOT_NAME).is_file()
    parses = []
    monkeypatch.setattr(pipeline, "load_corpus_files", lambda *p: parses.append(p) or load_corpus_files(*p))
    with_snapshot = _staged(inputs, options, stage, tmp_path / "snapshot")
    assert parses == []
    (stage / SNAPSHOT_NAME).unlink()
    parsed = _staged(inputs, options, stage, tmp_path / "parsed")
    assert len(parses) == 3
    assert len(with_snapshot) == 2 + 4 + 11
    assert with_snapshot == parsed
    capsys.readouterr()


def test_two_indicators_runs_write_the_same_snapshot(corpus_files, tmp_path):
    inputs = _inputs(corpus_files["dropped"])
    for out in ("a", "b"):
        assert main(["indicators", *inputs, "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "a" / SNAPSHOT_NAME).read_bytes() == (tmp_path / "b" / SNAPSHOT_NAME).read_bytes()


def test_a_staged_run_parses_once_and_validates_on_every_load(corpus_files, tmp_path, monkeypatch):
    """Four ``cli.main`` calls in one process, as the benchmark's staged
    workload makes them: one parse, four :func:`load_corpus` checks."""
    calls = {"load_corpus_files": 0, "load_corpus": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pipeline, "load_corpus_files", counted("load_corpus_files", load_corpus_files))
    monkeypatch.setattr(corpus_module, "load_corpus", counted("load_corpus", load_corpus))
    inputs = _inputs(corpus_files["kept"])
    assert main(["indicators", *inputs, "--out", str(tmp_path / "stage")]) == 0
    _staged(inputs, [], tmp_path / "stage", tmp_path / "out")
    assert calls == {"load_corpus_files": 1, "load_corpus": 4}


def test_report_without_baselines_never_looks_for_a_snapshot(corpus_files, monkeypatch):
    def fail(*args):
        raise AssertionError("load_snapshot called")

    monkeypatch.setattr(pipeline, "load_snapshot", fail)
    paths = corpus_files["kept"]
    pipeline.run_pipeline(RunConfig(*paths))


# ---------------------------------------------------------------------------
# Stale, damaged and foreign snapshots

def _copy_inputs(paths, out: Path) -> list[Path]:
    out.mkdir()
    return [Path(shutil.copy(path, out / Path(path).name)) for path in paths]


def test_an_edited_input_makes_the_steps_parse(corpus_files, tmp_path, capsys):
    paths = _copy_inputs(corpus_files["kept"], tmp_path / "in")
    inputs, stage = _inputs(paths), tmp_path / "stage"
    assert main(["indicators", *inputs, "--out", str(stage)]) == 0
    before = _staged(inputs, [], stage, tmp_path / "before")
    # one more citation for the first publication, which report's scores see
    header, first, *rest = paths[1].read_text(encoding="utf-8").splitlines(keepends=True)
    fields = first.split(",")
    fields[2] = str(int(fields[2]) + 1)
    paths[1].write_text("".join([header, ",".join(fields), *rest]), encoding="utf-8")
    edited = _staged(inputs, [], stage, tmp_path / "edited")
    assert edited != before
    (stage / SNAPSHOT_NAME).unlink()
    assert edited == _staged(inputs, [], stage, tmp_path / "parsed")
    # with the snapshot back, an edit that breaks a row fails as a parse does, naming the row
    assert main(["indicators", *inputs, "--out", str(tmp_path / "again")]) == 0
    shutil.copy(tmp_path / "again" / SNAPSHOT_NAME, stage / SNAPSHOT_NAME)
    fields[2] = "-1"
    paths[1].write_text("".join([header, ",".join(fields), *rest]), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", *inputs]) == 1
    message = capsys.readouterr().err
    assert "publications row 1: 'citation_count' must be >= 0, got -1" in message
    for argv in (["rank", "--indicators", str(stage / "indicators.csv")],
                 ["report", "--baselines", str(stage / "baselines.csv")]):
        assert main([*argv, *inputs, "--out", str(tmp_path / "failed")]) == 1
        assert capsys.readouterr().err == message


def test_baselines_are_checked_without_scoring(corpus_files, tmp_path, monkeypatch):
    """``prepare`` with precomputed indicators and a baselines file checks
    that the baselines cover the corpus, and builds no publication score."""
    paths = corpus_files["kept"]
    stage = tmp_path / "stage"
    assert main(["indicators", *_inputs(paths), "--out", str(stage)]) == 0

    def fail(*args):
        raise AssertionError("publication scores built")

    monkeypatch.setattr(indicators_module, "_publication_scores", fail)
    config = RunConfig(*paths, baselines=stage / "baselines.csv")
    _, filtered, _, records = prepare(config, stage / "indicators.csv")
    assert len(records) == len(filtered.scientist_ids)


def test_a_staged_step_logs_how_it_read_the_corpus(corpus_files, tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("RANKMETRICS_LOG", "info")
    inputs, stage = _inputs(corpus_files["kept"]), tmp_path / "stage"
    assert main(["indicators", *inputs, "--out", str(stage)]) == 0
    snapshot = stage / SNAPSHOT_NAME
    rank = ["rank", *inputs, "--indicators", str(stage / "indicators.csv"), "--out", str(tmp_path / "r")]
    messages = []
    for damage in (None, "another version", "truncated"):
        if damage:
            _damage(damage, snapshot)
        caplog.clear()
        assert main(rank) == 0
        messages += [r.getMessage() for r in caplog.records if r.name == "rankmetrics.corpus"]
    snapshot.unlink()
    caplog.clear()
    assert main(rank) == 0
    messages += [r.getMessage() for r in caplog.records if r.name == "rankmetrics.corpus"]
    assert len(messages) == 4
    assert messages[0] == f"corpus read from snapshot {snapshot}"
    assert messages[1] == f"corpus snapshot {snapshot} not used (another format version); parsing the corpus files"
    assert messages[2].startswith(f"corpus snapshot {snapshot} not used (unreadable: ")
    assert messages[3] == f"corpus snapshot {snapshot} not used (absent); parsing the corpus files"


class _Tripwire:
    """Unpickling one calls :func:`_tripped`."""

    def __reduce__(self):
        return _tripped, ()


TRIPPED = []


def _tripped():
    TRIPPED.append(True)
    return 0


def _rewrite(snapshot: Path, **changes) -> None:
    """Rewrite ``snapshot`` with some arrays replaced, the others as they were."""
    with np.load(snapshot, allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    arrays.update(changes)
    with snapshot.open("wb") as fh:
        np.savez(fh, **arrays)


def _damage(kind: str, snapshot: Path) -> None:
    if kind == "truncated":
        snapshot.write_bytes(snapshot.read_bytes()[:1000])
    elif kind == "not a zip":
        snapshot.write_bytes(b"scientist_id,sds_code\n")
    elif kind == "a pickle":
        snapshot.write_bytes(pickle.dumps(_Tripwire()))
    elif kind == "an object array":
        _rewrite(snapshot, text_count=np.array([_Tripwire()], dtype=object))
    elif kind == "another version":
        _rewrite(snapshot, version=np.array(SNAPSHOT_VERSION + 1))
    elif kind == "other contents":
        _rewrite(snapshot, sha256=np.array(["0" * 64] * 3))
    elif kind == "a code outside its column":
        with np.load(snapshot) as npz:
            _rewrite(snapshot, auth_scientist=npz["auth_scientist"] + 10**6)
    elif kind == "a column of another length":
        with np.load(snapshot) as npz:
            _rewrite(snapshot, pub_year=npz["pub_year"][1:])
    elif kind == "lengths that do not cover the text":
        with np.load(snapshot) as npz:
            _rewrite(snapshot, text_length=npz["text_length"][:-1])
    elif kind == "an empty category set":
        with np.load(snapshot) as npz:
            size = npz["category_size"].copy()
        size[1] += size[0]  # the first set's categories join the second
        size[0] = 0
        _rewrite(snapshot, category_size=size)
    elif kind == "a category set that repeats a category":
        with np.load(snapshot) as npz:
            size = npz["category_size"].copy()
        size[0] -= 1  # the first set's last category, B, joins the second set, (B,)
        size[1] += 1
        _rewrite(snapshot, category_size=size)
    elif kind in BELOW_MINIMUM:
        # one value below the minimum the parse's row checks enforce
        key, value = BELOW_MINIMUM[kind]
        with np.load(snapshot) as npz:
            column = npz[key].copy()
        column[0] = value
        _rewrite(snapshot, **{key: column})


BELOW_MINIMUM = {
    "a negative citation count": ("pub_citations", -5),
    "an author count of 0": ("pub_author_count", 0),
    "a byline position 0": ("auth_position", 0),
}


DAMAGE = {
    "truncated": "unreadable", "not a zip": "unreadable", "a pickle": "unreadable",
    "an object array": "unreadable", "lengths that do not cover the text": "unreadable",
    "a code outside its column": "unreadable", "a column of another length": "unreadable",
    "another version": "another format version", "other contents": "other corpus file contents",
    "an empty category set": "unreadable: column 'category_size' does not fit its table",
    "a category set that repeats a category": "unreadable: a category set repeats a category",
    **{kind: f"unreadable: column '{key}' does not fit its table" for kind, (key, _) in BELOW_MINIMUM.items()},
}


@pytest.mark.parametrize("kind", sorted(DAMAGE))
def test_a_damaged_or_foreign_snapshot_is_ignored(kind, tmp_path, caplog):
    paths = _write_rows(tmp_path / "in", "csv")
    snapshot = _save(paths, tmp_path)
    _damage(kind, snapshot)
    TRIPPED.clear()
    with caplog.at_level(logging.INFO, logger="rankmetrics"):
        assert load_snapshot(snapshot, paths) is None
    assert TRIPPED == []
    [message] = [r.getMessage() for r in caplog.records]
    assert message.startswith(f"corpus snapshot {snapshot} not used ({DAMAGE[kind]}")
    assert message.endswith("; parsing the corpus files")


def test_a_snapshot_breaking_a_cross_file_invariant_raises_as_load_corpus_does(tmp_path):
    paths = _write_rows(tmp_path / "in", "csv")
    parsed = load_corpus_files(*paths)
    snapshot = _save(paths, tmp_path)
    # the external author of Pé0 moves to position 2, which Müller holds
    row = int(np.flatnonzero((parsed.auth_pub == parsed.pub_ids.index("Pé0")) & (parsed.auth_scientist < 0))[0])
    position = parsed.auth_position.copy()
    position[row] = 2
    _rewrite(snapshot, auth_position=position)
    with pytest.raises(CorpusError) as from_snapshot:
        load_snapshot(snapshot, paths)
    rows = [list(table) for table in (parsed.scientists, parsed.publications, parsed.authorships)]
    rows[2][row] = dataclasses.replace(rows[2][row], position=2)
    records = [[{key: value.value if hasattr(value, "value") else value
                 for key, value in dataclasses.asdict(row).items()} for row in table] for table in rows]
    with pytest.raises(CorpusError) as from_rows:
        load_corpus(*records)
    # in key order, Pé0's byline is rows 1-3: the external author, then Müller
    assert str(from_snapshot.value) == str(from_rows.value) == (
        "authorships row 2: (pub_id, position) ('Pé0', 2) repeats row 1")
