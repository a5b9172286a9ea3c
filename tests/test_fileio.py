"""Record I/O: ``read_records`` through a pass-through parser holds the rows
of a row-by-row reader (``csv.DictReader``, one ``json.loads`` per line) as
columns, and the indicators and baselines files read back bit for bit."""

import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankmetrics import (
    CorpusError,
    IndicatorRecord,
    load_corpus,
    load_corpus_files,
    read_baselines,
    read_indicators,
    write_baselines,
    write_indicators,
)
from rankmetrics.baseline import BaselineCell, BaselineTable
from rankmetrics.fileio import FieldParser, Kind, Records, read_records

from conftest import tiny_rows

CSV_CASES = {
    "quoted": 'a,b,c\n1,"x, y",3\n2,"two\nlines",""\n3,"say ""hi""",z\n',
    "short_row": "a,b,c\n1,2,3\n4,5\n6\n7,8,9\n",
    "extra_fields": "a,b\n1,2\n3,4,5,6\n7,8\n9,10,11\n",
    "blank_lines": "a,b\n\n1,2\n\n\n3,4\n\n",
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
