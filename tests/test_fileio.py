"""Record I/O: ``read_records`` through a pass-through parser holds the rows
of a row-by-row reader (``csv.DictReader``, one ``json.loads`` per line) as
columns, the CSV fast path gives the columns and errors of the csv module,
and the indicators and baselines files read back bit for bit."""

import csv
import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankmetrics import (
    CorpusError,
    IndicatorRecord,
    fileio,
    load_corpus,
    load_corpus_files,
    read_baselines,
    read_indicators,
    write_baselines,
    write_indicators,
)
from rankmetrics.baseline import BaselineCell, BaselineTable
from rankmetrics.corpus import _schema
from rankmetrics.fileio import FieldParser, Kind, Records, read_records
from rankmetrics.synth import SynthConfig, generate, write_corpus_csv

from conftest import tiny_rows

CSV_CASES = {
    "quoted": 'a,b,c\n1,"x, y",3\n2,"two\nlines",""\n3,"say ""hi""",z\n',
    "short_row": "a,b,c\n1,2,3\n4,5\n6\n7,8,9\n",
    "extra_fields": "a,b\n1,2\n3,4,5,6\n7,8\n9,10,11\n",
    "blank_lines": "a,b\n\n1,2\n\n\n3,4\n\n",
    "one_column_blank_lines": "a\n1\n\n2\n\n",
    "header_only": "a,b,c\n",
    "zero_bytes": "",
    "bom": "\ufeffa,b\n1,2\n3,4\n",
    "repeated_header_name": "a,b,a\n1,2,3\n4,5\n6,7,8,9\n",
    "blank_header": "\n1,2\n\n3\n",
    "mixed": 'id,v\n1,"a\nb"\n\n2\n3,x,y\n' + "".join(f"{i},{i * i}\n" for i in range(4, 40)),
}

JSONL_LINES = [
    '{"a": 1, "b": "x"}',
    "",
    '{"b": "y", "a": 2}',
    '{"a": 3}',
    '{"a": 4, "b": null, "c": [1, 2]}',
    "   ",
    '{"c": "late"}',
    '{"a": 5, "b": "z", "c": 0}',
    "{}",
    '\t{"a": -Infinity, "b": "\\u00e9 \\"q\\"", "c": {"d": [true, false, 1e3]}}  ',
]


class _Raw(Kind):
    """Kind: the raw values as they are."""

    def __call__(self, rows, key, values):
        return list(values)


def _read(path, fields):
    """The file's columns ``fields``, as read, through a pass-through parser."""
    return read_records(path, FieldParser(path.name, {key: _Raw() for key in fields}))


def _dict_reader_rows(path):
    """The header's fields and the rows, without the fields beyond the header."""
    with path.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = [{k: v for k, v in row.items() if k is not None} for row in reader]
        return dict.fromkeys(reader.fieldnames or ()), rows


def _json_loop_rows(path):
    with path.open(encoding="utf-8-sig") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return dict.fromkeys(key for row in rows for key in row), rows


def _assert_same_rows(records, fields, expected):
    assert isinstance(records, Records)
    assert len(records) == len(expected)
    assert records.columns == {key: [row.get(key) for row in expected] for key in fields}
    assert list(records.columns) == list(fields)  # key order too


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_csv_rows_match_dict_reader(case, chunk_rows, tmp_path):
    path = tmp_path / f"{case}.csv"
    path.write_text(CSV_CASES[case], encoding="utf-8", newline="")
    fields, expected = _dict_reader_rows(path)
    _assert_same_rows(_read(path, fields), fields, expected)


def test_csv_reader_rules(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n\n1,2\n3,4,5,6\n", encoding="utf-8")
    records = _read(path, "abc")
    assert len(records) == 2  # the blank line is no row
    # a short row is padded with None; the fields beyond the header are dropped
    assert records.columns == {"a": ["1", "3"], "b": ["2", "4"], "c": [None, "5"]}
    path.write_text("a,b,c\n", encoding="utf-8")
    assert _read(path, "abc").columns == {"a": [], "b": [], "c": []}


@pytest.mark.parametrize("suffix", [".jsonl", ".ndjson"])
def test_jsonl_rows_match_line_loop(suffix, chunk_rows, tmp_path):
    path = tmp_path / f"rows{suffix}"
    path.write_text("\ufeff" + "\n".join(JSONL_LINES) + "\n", encoding="utf-8")
    fields, expected = _json_loop_rows(path)
    _assert_same_rows(_read(path, fields), fields, expected)
    # keys an object lacks are None in the columns, also before a late key
    assert _read(path, "c").columns["c"] == [None, None, None, [1, 2], "late", 0, None,
                                             {"d": [True, False, 1000.0]}]


def test_empty_jsonl(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n", encoding="utf-8")
    records = _read(path, "a")
    assert len(records) == 0 and records.columns == {"a": []}


@pytest.mark.parametrize("line, message", [
    ('{"a": ', "rows.jsonl line 3: invalid JSON record (Expecting value)"),
    ('{"a": 1} {"b": 2}', "rows.jsonl line 3: invalid JSON record (Extra data)"),
    ('\ufeff{"a": 1}', "rows.jsonl line 3: invalid JSON record (Unexpected UTF-8 BOM"),
    ("[1, 2]", "rows.jsonl line 3: expected a JSON object"),
    ('"text"', "rows.jsonl line 3: expected a JSON object"),
])
def test_jsonl_errors_name_the_line(line, message, chunk_rows, tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        _read(path, "a")
    assert str(info.value).startswith(message)


def test_from_rows_matches_the_mappings():
    rows = [{"a": 1}, {"b": 2, "a": 3}, {}, {"c": None}]
    _assert_same_rows(Records.from_rows(iter(rows)), "abc", rows)


def _corpus_columns(corpus):
    values = {f.name: getattr(corpus, f.name) for f in dataclasses.fields(corpus)}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


def test_extra_csv_fields_are_ignored(chunk_rows, tmp_path):
    """Scientists and authorships rows with fields beyond the header load the
    corpus the same rows load without them."""
    loaded = []
    for extra in (False, True):
        paths = []
        for name, rows in zip(("scientists", "publications", "authorships"), tiny_rows()):
            lines = [",".join(rows[0])]
            for i, row in enumerate(rows):
                tail = ["x", "", "9"][:i] if extra and name != "publications" else []
                lines.append(",".join([*row.values(), *tail]))
            paths.append(tmp_path / f"{name}{extra}.csv")
            paths[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded.append(load_corpus_files(*paths))
    assert _corpus_columns(loaded[1]) == _corpus_columns(loaded[0])
    assert _corpus_columns(loaded[0]) == _corpus_columns(load_corpus(*tiny_rows()))


def test_blank_line_does_not_shift_error_row(tmp_path):
    scientists, publications, authorships = tiny_rows()
    authorships[2] = {"pub_id": "P2"}  # a short row: its other fields are missing
    with pytest.raises(CorpusError) as from_rows:
        load_corpus(scientists, publications, authorships)

    paths = []
    for name, rows in (("scientists", scientists), ("publications", publications)):
        path = tmp_path / f"{name}.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        paths.append(path)
    paths.append(tmp_path / "authorships.csv")
    paths[-1].write_text(
        "pub_id,position,scientist_id,affiliation_id\n"
        "P1,1,A1,U01\n"
        "P1,2,A2,U02\n"
        "\n"
        "P2\n"
        "P2,2,,U03\n",
        encoding="utf-8",
    )
    with pytest.raises(CorpusError) as from_files:
        load_corpus_files(*paths)
    assert str(from_files.value) == str(from_rows.value) == "authorships row 3: missing 'position'"


def _write_csv(tmp_path, rows_by_file) -> list:
    """The three corpus tables as CSV files, fields in the first row's order."""
    paths = []
    for name, rows in zip(("scientists", "publications", "authorships"), rows_by_file):
        paths.append(tmp_path / f"{name}.csv")
        with paths[-1].open("w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    return paths


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("row", [0, 1])
def test_a_field_over_the_csv_limit_names_its_row(row, quoted, chunk_rows, tmp_path):
    limit = csv.field_size_limit()
    scientists, publications, authorships = tiny_rows()
    publications[row]["subject_categories"] = "C" * (limit + 1) + ("," if quoted else "")
    paths = _write_csv(tmp_path, (scientists, publications, authorships))
    with pytest.raises(CorpusError) as info:
        load_corpus_files(*paths)
    assert str(info.value) == f"publications row {row + 1}: field longer than {limit} characters"

    publications[row]["subject_categories"] = "C" * limit  # at the limit, a category
    assert load_corpus_files(*_write_csv(tmp_path, (scientists, publications, authorships)))


def test_a_header_field_over_the_csv_limit_is_named(tmp_path):
    path = tmp_path / "baselines.csv"
    path.write_text("year," + "x" * (csv.field_size_limit() + 1) + "\n2005,C1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"^baselines header: field longer than \d+ characters$"):
        read_baselines(path)


@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
@pytest.mark.parametrize("row", [0, 2])
def test_bytes_that_are_not_utf8_name_the_file_and_line(suffix, row, chunk_rows, tmp_path):
    rows = tiny_rows()
    paths = _write_csv(tmp_path, rows)
    if suffix == "jsonl":
        paths = [path.with_suffix(".jsonl") for path in paths]
        for path, table in zip(paths, rows):
            path.write_text("".join(json.dumps(r) + "\n" for r in table), encoding="utf-8")
    data = paths[0].read_bytes()
    paths[0].write_bytes(data.replace(rows[0][row]["scientist_id"].encode(), b"A\xff", 1))
    with pytest.raises(CorpusError) as info:
        load_corpus_files(*paths)
    line = row + 2 if suffix == "csv" else row + 1
    assert str(info.value) == f"scientists.{suffix} line {line}: invalid UTF-8 byte 0xff"


@pytest.mark.parametrize("table, key, value, kind", [
    (1, "year", "2_004", "an integer"),
    (1, "year", "\u0662\u0660\u0660\u0664", "an integer"),  # Arabic-Indic 2004
    (1, "citation_count", "1_0", "an integer"),
    (0, "birth_year", "1_949", "an integer"),
    (0, "birth_year", "\uff11\uff19\uff14\uff19", "an integer"),  # fullwidth 1949
    (2, "position", "\u0967", "an integer"),  # Devanagari 1
])
def test_numbers_are_ascii_decimal_text(table, key, value, kind, chunk_rows, tmp_path):
    rows = tiny_rows()
    rows[table][0][key] = value
    source = ("scientists", "publications", "authorships")[table]
    message = f"{source} row 1: '{key}' must be {kind}, got {value!r}"
    with pytest.raises(CorpusError) as from_rows:
        load_corpus(*rows)
    with pytest.raises(CorpusError) as from_files:
        load_corpus_files(*_write_csv(tmp_path, rows))
    assert str(from_rows.value) == str(from_files.value) == message


@pytest.mark.parametrize("value", ["0_5", "\u0660.5", "1_0e1"])
def test_float_fields_are_ascii_decimal_text(value, tmp_path):
    path = tmp_path / "indicators.csv"
    path.write_text(f"scientist_id,n_p,qi,fss\nA,3,1.25,{value}\n", encoding="utf-8")
    roster = load_corpus([{"scientist_id": "A", "sds_code": "S1", "uda_code": "U1", "rank": "FULL"}], [], [])
    with pytest.raises(ValueError) as info:
        read_indicators(path, roster)
    assert str(info.value) == f"indicators row 1: 'fss' must be a number, got {value!r}"


# ---------------------------------------------------------------------------
# The CSV fast path and the csv module give the same columns and errors

def _csv_module_only():
    """With no byte plain, the fast path takes no header and no block, so a
    file goes through the csv module from its first byte."""
    return mock.patch.object(fileio, "_PLAIN", b"")


def _taken_rows(monkeypatch) -> list:
    """The row count of each block the fast path is given, None where it
    refuses the block, in the list returned, from now on."""
    taken, split = [], fileio._split_block

    def spy(block, width, last):
        records = split(block, width, last)
        taken.append(None if records is None else len(records))
        return records

    monkeypatch.setattr(fileio, "_split_block", spy)
    return taken


def _plain(value):
    """A column as comparable values, array dtypes and value types included."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tolist()
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    if isinstance(value, list):
        return [(type(v).__name__, v) for v in value]
    return value


def _outcome(path, parser):
    """The typed columns of the file, or the error it raised."""
    try:
        records = read_records(path, parser())
    except Exception as exc:  # noqa: BLE001 - the two readers must agree on any error
        return type(exc), str(exc)
    return len(records), {key: _plain(column) for key, column in records.columns.items()}


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    """A generated corpus as CSV: each table's header and data lines, and
    the parser of each table."""
    corpus = generate(SynthConfig(seed=5, n_uda=2, sds_per_uda=1, pubs_per_scientist=2.0))
    paths = write_corpus_csv(corpus, tmp_path_factory.mktemp("synth"))
    lines = {name: path.read_text(encoding="utf-8").splitlines() for name, path in paths.items()}
    tables = {}
    for name in ("scientists", "publications"):
        tables[name] = read_records(paths[name], _schema(name, **tables))
    parsers = {name: (lambda name=name: _schema(name, **tables))
               for name in ("scientists", "publications", "authorships")}
    return paths, lines, parsers


@pytest.mark.parametrize("bom", ["", "\ufeff"])
def test_generated_files_take_the_fast_path_whole(bom, synth_csv, monkeypatch, tmp_path):
    _, lines, _ = synth_csv
    paths = {name: tmp_path / f"{name}.csv" for name in lines}
    for name, path in paths.items():
        path.write_text(bom + "\n".join(lines[name]) + "\n", encoding="utf-8")
    taken = _taken_rows(monkeypatch)
    loaded = load_corpus_files(*paths.values())
    assert None not in taken
    assert sum(taken) == sum(len(table) - 1 for table in lines.values())
    blocks = len(taken)
    with _csv_module_only():
        assert _corpus_columns(load_corpus_files(*paths.values())) == _corpus_columns(loaded)
    assert len(taken) == blocks  # the fast path saw no block of the second load


def test_a_hash_collision_sends_the_block_to_the_csv_module(synth_csv, monkeypatch):
    paths, _, parsers = synth_csv
    with _csv_module_only():
        expected = _outcome(paths["scientists"], parsers["scientists"])
    monkeypatch.setattr(fileio, "BLOCK_BYTES", 256)
    taken = _taken_rows(monkeypatch)
    # every id (14 bytes, two words) of a length hashes alike
    monkeypatch.setattr(fileio, "_hash", lambda words, length: length.astype(np.uint64))
    assert _outcome(paths["scientists"], parsers["scientists"]) == expected
    assert taken == [None]


# Fields that the fast path refuses, or that the kinds must read as the csv
# module's text; over the limit means over the 40 characters the property sets.
DAMAGE = ['"q"', 'a"b', '""', '"x,y"', " 5 ", "+5", "-0", "2_004", "\u0662\u0660\u0660\u0664",
          "9" * 19, "1" * 20, "\u00e9", "A\x001", "", " ", "x" * 41, "a\rb", "\ufeffA", "1e3",
          "FULL", "C1;C1", ";", "UDA01-S1.fp001", "P000001"]


@st.composite
def damaged_csv(draw, lines):
    """A file of a generated table's header and some of its rows, a few
    fields replaced, a few rows cut short, made longer or preceded by a blank
    line, with or without a BOM, CRLF line ends, a last line end and a byte
    that is not UTF-8."""
    header, *rows = lines
    start = draw(st.integers(0, len(rows)))
    rows = [line.split(",") for line in rows[start:start + draw(st.integers(0, 30))]]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        fields = rows[draw(st.integers(0, len(rows) - 1))]
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(DAMAGE))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        shape = draw(st.sampled_from(["short", "long", "blank"]))
        if shape == "short":
            rows[i] = rows[i][:draw(st.integers(0, max(len(rows[i]) - 1, 0)))]
        elif shape == "long":
            rows[i] = rows[i] + draw(st.lists(st.sampled_from(DAMAGE), min_size=1, max_size=2))
        else:
            rows.insert(i, [])
    end = "\r\n" if draw(st.integers(0, 5)) == 0 else "\n"
    text = end.join([header, *map(",".join, rows)]) + (end if draw(st.booleans()) else "")
    data = ("\ufeff" if draw(st.integers(0, 5)) == 0 else "").encode() + text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fast_path_matches_the_csv_module(synth_csv, tmp_path_factory, data):
    """Damaged or not, a table read through the fast path at any block size
    gives the columns, dtypes included, or the error of the csv module
    reading it from its first byte."""
    _, lines, parsers = synth_csv
    name = data.draw(st.sampled_from(sorted(parsers)))
    path = tmp_path_factory.mktemp("damaged") / f"{name}.csv"
    path.write_bytes(data.draw(damaged_csv(lines[name])))
    limit = csv.field_size_limit(40)
    try:
        with mock.patch.object(fileio, "CHUNK_ROWS", data.draw(st.sampled_from([1, 3, 256]))):
            block = data.draw(st.integers(1, 400) | st.just(fileio.BLOCK_BYTES))
            with mock.patch.object(fileio, "BLOCK_BYTES", block):
                fast = _outcome(path, parsers[name])
            with _csv_module_only():
                expected = _outcome(path, parsers[name])
    finally:
        csv.field_size_limit(limit)
    if b"\xff" in path.read_bytes() and fast != expected:
        # the csv module decodes a few KiB ahead of the rows it hands out, so
        # either reader may name the invalid byte before a bad row above it
        assert fast[0] is expected[0] and "invalid UTF-8 byte 0xff" in fast[1] + expected[1]
    else:
        assert fast == expected


# ---------------------------------------------------------------------------
# Writers and side readers: what a writer wrote reads back bit for bit

# Ids as the readers keep them: stripped, non-empty, no control characters;
# commas, quotes and non-ASCII text need CSV quoting.
ids = st.one_of(
    st.sampled_from(["a,b", 'say "hi"', "é ß 漢字", "x\ny", "'", ",", '"']),
    st.text(st.characters(blacklist_categories=("Cc", "Cs")), min_size=1, max_size=8),
).filter(lambda s: s == s.strip() and s)
values = st.one_of(
    st.sampled_from([5e-324, 0.0, -0.0, 1e308, 1.7976931348623157e308, 0.1]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


def _bits(value):
    return None if value is None else float(value).hex()


# (n_p, qi, fss) as compute_indicators writes them: no QI and no FSS without publications
indicator_values = st.tuples(st.just(0), st.none(), st.just(0.0)) | st.tuples(
    st.integers(1, 2**63 - 1), values, values
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(ids, indicator_values, max_size=8))
def test_indicators_round_trip_bitwise(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("ind") / "indicators.csv"
    records = [IndicatorRecord(sid, n_p, qi, fss) for sid, (n_p, qi, fss) in rows.items()]
    roster = load_corpus(
        [{"scientist_id": sid, "sds_code": "S1", "uda_code": "U1", "rank": "FULL"} for sid in rows], [], []
    )
    loaded = read_indicators(write_indicators(records, path), roster)
    assert [(r.scientist_id, r.n_p, _bits(r.qi), _bits(r.fss)) for r in loaded] == [
        (sid, n_p, _bits(qi), _bits(fss)) for sid, (n_p, qi, fss) in rows.items()
    ]


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(-2**63, 2**63 - 1), ids),
                       st.tuples(values, values, st.integers(1, 2**63 - 1)), max_size=8))
def test_baselines_round_trip_bitwise(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("base") / "baselines.csv"
    table = BaselineTable(BaselineCell(*key, *cell) for key, cell in rows.items())
    loaded = read_baselines(write_baselines(table, path))
    assert [(c.year, c.category, _bits(c.median_citations), _bits(c.mean_citations),
             c.publication_count) for c in loaded.cells] == [
        (*key, _bits(median), _bits(mean), count)
        for key, (median, mean, count) in sorted(rows.items())
    ]
