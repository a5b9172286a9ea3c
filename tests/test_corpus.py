"""Corpus loading, validation, roster summaries and the SDS activity filter."""

import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rankmetrics import (
    RANKS,
    CorpusError,
    Rank,
    activity_rates,
    fileio,
    filter_active_sds,
    load_corpus,
    load_corpus_files,
    roster_summary,
)
from rankmetrics.baseline import build_baselines
from rankmetrics.corpus import Authorship, Publication, Scientist
from rankmetrics.indicators import IndicatorTable, compute_indicators
from rankmetrics.ranking import Indicator, sds_percentiles, top_scientists
from rankmetrics.synth import SynthConfig, generate

from conftest import CHUNK_SIZES, authorships_by_pub, publications_by_id, single_author_corpus, tiny_rows


def test_identity_load(tiny_corpus):
    assert len(tiny_corpus.scientists) == 3
    assert len(tiny_corpus.publications) == 2
    assert len(tiny_corpus.authorships) == 4
    assert publications_by_id(tiny_corpus)["P2"].subject_categories == ("C1", "C2")
    assert authorships_by_pub(tiny_corpus)["P2"][1].scientist_id is None
    assert tiny_corpus.sds_codes == ("S1", "S2")
    assert tiny_corpus.udas == ("U1",)
    assert tiny_corpus.sds_uda.tolist() == [0, 0]
    assert tiny_corpus.scientist_sds.tolist() == [0, 0, 1]
    assert [RANKS[r] for r in tiny_corpus.scientist_rank.tolist()] == [
        Rank.FULL, Rank.ASSISTANT, Rank.ASSOCIATE
    ]
    assert tiny_corpus.scientist_birth_year == [1949, 1957, None]


@pytest.fixture
def built(monkeypatch):
    """The class name of every row object built while the test runs."""
    built = []
    for cls in (Scientist, Publication, Authorship):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_row_access_builds_only_the_rows_asked_for(built):
    corpus = generate(SynthConfig(seed=5, n_uda=2, sds_per_uda=2))
    scientists, publications, authorships = map(tuple, (
        corpus.scientists, corpus.publications, corpus.authorships))
    some = scientists[70]
    members = tuple(s for s in scientists if s.sds_code == some.sds_code)
    built.clear()

    def once(read, expected, count):
        assert read() == expected
        assert len(built) == count
        built.clear()

    once(lambda: corpus.authorships[-1], authorships[-1], 1)
    once(lambda: corpus.publications[0], publications[0], 1)
    once(lambda: corpus.scientists_by_id[some.scientist_id], some, 1)
    once(lambda: corpus.scientists_by_sds[some.sds_code], members, len(members))
    once(lambda: corpus.authorships[5:12], list(authorships[5:12]), 7)
    once(lambda: corpus.scientists[-len(scientists)], scientists[0], 1)
    once(lambda: len(corpus.scientists_by_sds), len(corpus.sds_codes), 0)
    for view in (corpus.scientists, corpus.authorships):
        with pytest.raises(IndexError):
            view[len(view)]
        with pytest.raises(IndexError):
            view[-len(view) - 1]
    assert list(reversed(corpus.authorships)) == list(authorships[::-1])
    assert corpus.scientists == generate(SynthConfig(seed=5, n_uda=2, sds_per_uda=2)).scientists
    assert corpus.scientists == scientists and corpus.scientists != list(scientists)
    assert corpus.publications != generate(SynthConfig(seed=6, n_uda=2, sds_per_uda=2)).publications
    assert dict(corpus.scientists_by_id) == {s.scientist_id: s for s in scientists}
    unsorted = single_author_corpus([("A1", "SB", "U1", "FULL", [1]), ("A2", "SA", "U1", "FULL", [2]),
                                     ("A3", "SB", "U1", "FULL", [])])
    assert list(unsorted.scientists_by_sds) == ["SB", "SA"]  # in order of first appearance
    assert [s.scientist_id for s in unsorted.scientists_by_sds["SB"]] == ["A1", "A3"]
    with pytest.raises(KeyError):
        corpus.scientists_by_sds["NOPE"]


def test_record_columns_build_the_rows_asked_for():
    corpus = generate(SynthConfig(seed=5, n_uda=2, sds_per_uda=2))
    table = compute_indicators(corpus, build_baselines(corpus))
    records = list(table)
    assert table[corpus.scientist_index[records[-1].scientist_id]] == records[-1]
    assert any(r.qi is None for r in records)
    for column in (table, sds_percentiles(table, Indicator.QI, corpus), top_scientists(table, Indicator.FSS, corpus)):
        rows = list(column)
        assert len(rows) == len(column)
        assert column[-1] == rows[-1] and column[3:9] == rows[3:9]
        assert list(reversed(column)) == rows[::-1]


def test_unknown_pub_reference():
    scientists, publications, authorships = tiny_rows()
    authorships.append({"pub_id": "P9", "position": "1", "scientist_id": "A1", "affiliation_id": ""})
    with pytest.raises(CorpusError, match="P9"):
        load_corpus(scientists, publications, authorships)


def test_duplicate_position():
    scientists, publications, authorships = tiny_rows()
    authorships.append({"pub_id": "P1", "position": "2", "scientist_id": "A3", "affiliation_id": ""})
    with pytest.raises(CorpusError, match="position"):
        load_corpus(scientists, publications, authorships)


def test_duplicate_scientist_id():
    scientists, publications, authorships = tiny_rows()
    scientists.append(dict(scientists[0]))
    with pytest.raises(CorpusError, match="A1"):
        load_corpus(scientists, publications, authorships)


def test_unknown_scientist_reference():
    scientists, publications, authorships = tiny_rows()
    authorships[0]["scientist_id"] = "A9"
    with pytest.raises(CorpusError, match="A9"):
        load_corpus(scientists, publications, authorships)


def test_malformed_row_names_row_number():
    scientists, publications, authorships = tiny_rows()
    publications[1]["citation_count"] = "-1"
    with pytest.raises(CorpusError, match="row 2"):
        load_corpus(scientists, publications, authorships)
    publications[1]["citation_count"] = "many"
    with pytest.raises(CorpusError, match="row 2"):
        load_corpus(scientists, publications, authorships)


def test_bad_rank_rejected():
    scientists, publications, authorships = tiny_rows()
    scientists[2]["rank"] = "EMERITUS"
    with pytest.raises(CorpusError, match="EMERITUS"):
        load_corpus(scientists, publications, authorships)


def test_rank_is_read_stripped_and_in_any_case():
    scientists, publications, authorships = tiny_rows()
    scientists[0]["rank"] = " full "
    scientists[1]["rank"] = "Assistant"
    corpus = load_corpus(scientists, publications, authorships)
    assert corpus.scientists == load_corpus(*tiny_rows()).scientists


def test_incomplete_byline_rejected():
    scientists, publications, authorships = tiny_rows()
    del authorships[1]  # P1 now misses position 2 of 2
    with pytest.raises(CorpusError, match="P1"):
        load_corpus(scientists, publications, authorships)


def test_sds_in_two_udas_rejected():
    scientists, publications, authorships = tiny_rows()
    scientists[1]["uda_code"] = "U2"
    with pytest.raises(CorpusError, match="S1"):
        load_corpus(scientists, publications, authorships)


def test_duplicate_category_rejected():
    scientists, publications, authorships = tiny_rows()
    publications[0]["subject_categories"] = "C1;C1"
    with pytest.raises(CorpusError, match="publications row 1: 'subject_categories' repeats category 'C1'"):
        load_corpus(scientists, publications, authorships)


def test_jsonl_and_csv_load_identically(tmp_path):
    scientists, publications, authorships = tiny_rows()
    import csv

    paths = {}
    for name, rows in [("scientists", scientists), ("publications", publications), ("authorships", authorships)]:
        csv_path = tmp_path / f"{name}.csv"
        with csv_path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        jsonl_path = tmp_path / f"{name}.jsonl"
        jsonl_path.write_text("\n".join(json.dumps(r) for r in rows))
        paths[name] = (csv_path, jsonl_path)

    from_csv = load_corpus_files(*[paths[n][0] for n in ("scientists", "publications", "authorships")])
    from_jsonl = load_corpus_files(*[paths[n][1] for n in ("scientists", "publications", "authorships")])
    assert from_csv.scientists == from_jsonl.scientists
    assert from_csv.publications == from_jsonl.publications
    assert from_csv.authorships == from_jsonl.authorships


# ---------------------------------------------------------------------------
# Roster summary

def test_mean_age_reference_year(tiny_corpus):
    summary = roster_summary(tiny_corpus, reference_year=2009)
    # birth years 1949 and 1957 -> ages 60 and 52 -> mean 56
    assert summary.cell("U1").mean_age == pytest.approx(56.0)
    assert summary.cell("U1", Rank.FULL).mean_age == pytest.approx(60.0)
    # scientist without birth year only counts toward headcounts
    assert summary.cell("U1", Rank.ASSOCIATE).headcount == 1
    assert summary.cell("U1", Rank.ASSOCIATE).mean_age is None


def test_reference_year_defaults_to_snapshot(tiny_corpus):
    summary = roster_summary(tiny_corpus)
    assert summary.reference_year == 2007  # last publication year 2006 + 1


def test_reference_year_before_a_birth_year_is_rejected(tiny_corpus):
    # birth years 1949 (A1) and 1957 (A2): the first scientist born later is named
    with pytest.raises(ValueError, match="reference year 1950 is before the birth year 1957 of scientist 'A2'"):
        roster_summary(tiny_corpus, reference_year=1950)
    with pytest.raises(ValueError, match="birth year 1949 of scientist 'A1'"):
        roster_summary(tiny_corpus, reference_year=1900)
    assert roster_summary(tiny_corpus, reference_year=1957).cell("U1", Rank.ASSISTANT).mean_age == 0


def test_single_scientist_share():
    corpus = single_author_corpus([("X", "S1", "U1", "FULL", [1])])
    summary = roster_summary(corpus)
    assert summary.percent("headcount", "U1", Rank.FULL) == pytest.approx(100.0)
    assert summary.sds_counts == {"U1": 1}


def test_roster_share_from_headcounts():
    # 10,764 of 30,677 renders as 35.1%
    assert round(100.0 * 10764 / 30677, 1) == 35.1


def test_shares_sum_to_100_within_rounding():
    corpus = generate(SynthConfig(seed=7, n_uda=4, sds_per_uda=2))
    summary = roster_summary(corpus)
    for uda in summary.udas:
        total = sum(round(summary.percent("headcount", uda, r), 1) for r in Rank)
        assert abs(total - 100.0) <= 0.1 + 1e-9


# ---------------------------------------------------------------------------
# SDS activity filter

def _sds_corpus(publishing, total, sds="SA", other_sds=True):
    entries = []
    for i in range(total):
        citations = [1] if i < publishing else []
        entries.append((f"{sds}-{i}", sds, "U1", "FULL", citations))
    if other_sds:
        entries.append(("keeper", "SB", "U1", "FULL", [2]))
    return single_author_corpus(entries)


def test_filter_removes_under_threshold():
    corpus = _sds_corpus(publishing=4, total=10)
    filtered = filter_active_sds(corpus, 0.5)
    assert filtered.sds_codes == ("SB",)
    assert all(s.sds_code == "SB" for s in filtered.scientists)


def test_filter_boundary_is_inclusive():
    corpus = _sds_corpus(publishing=5, total=10)
    filtered = filter_active_sds(corpus, 0.5)
    assert filtered.sds_codes == ("SA", "SB")


def test_filter_threshold_zero_is_identity():
    corpus = _sds_corpus(publishing=4, total=10)
    filtered = filter_active_sds(corpus, 0.0)
    assert filtered.scientists == corpus.scientists
    assert filtered.publications == corpus.publications


def test_filter_is_idempotent():
    corpus = _sds_corpus(publishing=4, total=10)
    once = filter_active_sds(corpus, 0.5)
    twice = filter_active_sds(once, 0.5)
    assert once.scientists == twice.scientists
    assert once.publications == twice.publications
    assert once.authorships == twice.authorships


def test_filter_unlinks_removed_coauthors():
    scientists = [
        {"scientist_id": "gone", "sds_code": "SA", "uda_code": "U1", "rank": "FULL", "birth_year": ""},
        {"scientist_id": "gone2", "sds_code": "SA", "uda_code": "U1", "rank": "FULL", "birth_year": ""},
        {"scientist_id": "stays", "sds_code": "SB", "uda_code": "U1", "rank": "FULL", "birth_year": ""},
    ]
    publications = [
        {"pub_id": "P1", "year": 2005, "citation_count": 3, "subject_categories": "C1", "author_count": 2},
        {"pub_id": "P2", "year": 2005, "citation_count": 1, "subject_categories": "C1", "author_count": 1},
    ]
    authorships = [
        {"pub_id": "P1", "position": 1, "scientist_id": "stays", "affiliation_id": "U01"},
        {"pub_id": "P1", "position": 2, "scientist_id": "gone", "affiliation_id": "U02"},
        {"pub_id": "P2", "position": 1, "scientist_id": "gone", "affiliation_id": "U02"},
    ]
    corpus = load_corpus(scientists, publications, authorships)
    # SA: 1 of 2 publishing = 0.5 -> removed at threshold 0.6
    filtered = filter_active_sds(corpus, 0.6)
    assert filtered.sds_codes == ("SB",)
    # P1 survives through 'stays'; its second byline slot is now external
    assert "P1" in publications_by_id(filtered)
    assert authorships_by_pub(filtered)["P1"][1].scientist_id is None
    # P2 belonged only to removed scientists and is gone
    assert "P2" not in publications_by_id(filtered)


# ---------------------------------------------------------------------------
# Activity rates

def _table(corpus, **values):
    """The indicator table of ``corpus`` from ``id=(n_p, qi, fss)``, in any order."""
    ids, *columns = zip(*((sid, *value) for sid, value in values.items()))
    return IndicatorTable.resolve(corpus, ids, *columns)


def test_activity_rates(tiny_corpus):
    records = _table(tiny_corpus, A1=(1, 3.0, 3.0), A2=(1, 3.0, 1.5), A3=(1, 0.0, 0.0))
    table = activity_rates(tiny_corpus, records)
    cell = table.cell("U1")
    assert cell.headcount == 3
    assert cell.publication_active == 3
    # A3 published but was never cited
    assert cell.citation_active == 2
    assert table.cell("U1", Rank.ASSOCIATE).citation_active == 0


def test_activity_all_active():
    corpus = single_author_corpus([("X", "S1", "U1", "FULL", [1]), ("Y", "S1", "U1", "FULL", [2])])
    records = _table(corpus, Y=(1, 2.0, 2.0), X=(1, 1.0, 1.0))
    table = activity_rates(corpus, records)
    cell = table.cell()
    assert cell.publication_active == cell.headcount == 2


def test_citation_active_never_exceeds_publication_active():
    corpus = generate(SynthConfig(seed=11, n_uda=3, sds_per_uda=2))
    from rankmetrics import build_baselines, compute_indicators

    records = compute_indicators(corpus, build_baselines(corpus))
    table = activity_rates(corpus, records)
    for (uda, rank), cell in table.cells.items():
        assert cell.citation_active <= cell.publication_active <= cell.headcount


def _assert_pooled(pooled, parts):
    """``pooled`` is the field-wise sum of ``parts``: integers exactly."""
    for name, value in zip(pooled._fields, pooled):
        total = sum(getattr(part, name) for part in parts)
        if isinstance(value, int):
            assert value == total, name
        else:
            assert value == pytest.approx(total, rel=1e-12), name


def test_grid_marginals_pool_their_cells():
    from rankmetrics import (
        Indicator,
        build_baselines,
        compute_indicators,
        sds_percentiles,
        top_distribution,
        top_scientists,
        uda_rank_average,
    )

    corpus = generate(SynthConfig(seed=13, n_uda=4, sds_per_uda=2))
    records = compute_indicators(corpus, build_baselines(corpus))
    grids = [
        roster_summary(corpus),
        activity_rates(corpus, records),
        uda_rank_average(sds_percentiles(records, Indicator.QI, corpus), corpus),
        top_distribution(top_scientists(records, Indicator.FSS, corpus), corpus),
    ]
    for grid in grids:
        assert grid.udas == corpus.udas
        for uda in grid.udas:
            _assert_pooled(grid.cell(uda), [grid.cell(uda, r) for r in RANKS])
        for rank in RANKS:
            _assert_pooled(grid.cell(None, rank), [grid.cell(uda, rank) for uda in grid.udas])
        _assert_pooled(grid.cell(), [grid.cell(uda) for uda in grid.udas])
        assert grid.cell()[0] > 0


# ---------------------------------------------------------------------------
# Loader error messages: the first offending row or key is named exactly


def _load_error(scientists, publications, authorships) -> str:
    with pytest.raises(CorpusError) as info:
        load_corpus(scientists, publications, authorships)
    return str(info.value)


def test_duplicate_pub_id_message():
    scientists, publications, authorships = tiny_rows()
    publications.append(dict(publications[0]))
    assert _load_error(scientists, publications, authorships) == "publications row 3: pub_id 'P1' repeats row 1"


@pytest.mark.parametrize(
    "file_index, row, key, expected",
    [
        (0, 1, "sds_code", "scientists row 2: missing 'sds_code'"),
        (1, 0, "year", "publications row 1: missing 'year'"),
        (2, 2, "pub_id", "authorships row 3: missing 'pub_id'"),
    ],
)
def test_missing_required_field_message(file_index, row, key, expected):
    rows = tiny_rows()
    rows[file_index][row][key] = "  "
    assert _load_error(*rows) == expected
    del rows[file_index][row][key]
    assert _load_error(*rows) == expected


def test_non_integer_position_message():
    scientists, publications, authorships = tiny_rows()
    authorships[1]["position"] = " 2nd "
    assert _load_error(scientists, publications, authorships) == (
        "authorships row 2: 'position' must be an integer, got '2nd'"
    )


def test_zero_author_count_message():
    scientists, publications, authorships = tiny_rows()
    publications[1]["author_count"] = "0"
    assert _load_error(scientists, publications, authorships) == (
        "publications row 2: 'author_count' must be >= 1, got 0"
    )


def test_duplicate_authorship_link_message():
    scientists, publications, authorships = tiny_rows()
    authorships[1]["scientist_id"] = "A1"
    assert _load_error(scientists, publications, authorships) == (
        "authorships row 2: (pub_id, scientist_id) ('P1', 'A1') repeats row 1"
    )


def test_empty_categories_message():
    scientists, publications, authorships = tiny_rows()
    publications[0]["subject_categories"] = " ; ;"
    assert _load_error(scientists, publications, authorships) == (
        "publications row 1: 'subject_categories' must be non-empty"
    )


def test_first_offending_row_wins_across_checks():
    scientists, publications, authorships = tiny_rows()
    scientists[2]["rank"] = ""  # row 3
    scientists[1]["uda_code"] = ""  # row 2: earlier row, later check
    assert _load_error(scientists, publications, authorships) == "scientists row 2: missing 'uda_code'"
    scientists[1]["uda_code"] = "U1"
    scientists[1]["rank"] = "DEAN"  # row 2: rank is checked before the other fields
    scientists[1]["scientist_id"] = ""
    assert _load_error(scientists, publications, authorships) == (
        "scientists row 2: rank must be one of FULL/ASSOCIATE/ASSISTANT, got 'DEAN'"
    )


def test_row_errors_come_before_reference_errors():
    scientists, publications, authorships = tiny_rows()
    scientists.append(dict(scientists[0]))  # duplicate scientist_id
    authorships[3]["position"] = "x"
    assert _load_error(scientists, publications, authorships) == (
        "authorships row 4: 'position' must be an integer, got 'x'"
    )
    authorships[3]["position"] = "2"
    assert _load_error(scientists, publications, authorships) == (
        "scientists row 4: scientist_id 'A1' repeats row 1"
    )


def test_rows_move_into_key_order_after_the_checks_name_rows_of_the_input():
    scientists, publications, authorships = tiny_rows()
    expected = load_corpus(scientists, publications, authorships)
    publications, authorships = publications[::-1], authorships[::-1]
    corpus = load_corpus(scientists, publications, authorships)
    assert corpus.pub_ids == ["P1", "P2"] and corpus.auth_position.tolist() == [1, 2, 1, 2]
    for name in ("publications", "authorships"):
        assert tuple(getattr(corpus, name)) == tuple(getattr(expected, name))
    # of two incomplete bylines, the publication first in the file is named
    authorships[0]["position"] = "3"  # P2's position 2
    authorships[3]["position"] = "3"  # P1's position 1
    assert _load_error(scientists, publications, authorships) == (
        "pub_id 'P2': byline positions [1, 3] do not cover 1..2"
    )


def test_incomplete_byline_message_lists_positions():
    scientists, publications, authorships = tiny_rows()
    authorships[1]["position"] = "3"
    assert _load_error(scientists, publications, authorships) == (
        "pub_id 'P1': byline positions [1, 3] do not cover 1..2"
    )


def test_integer_outside_int64_names_its_row():
    scientists, publications, authorships = tiny_rows()
    publications[1]["citation_count"] = str(2**63)
    message = _load_error(scientists, publications, authorships)
    assert message.startswith("publications row 2: 'citation_count'")
    assert str(2**63) in message


def test_byte_order_mark_is_skipped(tmp_path):
    import csv

    tables = dict(zip(("scientists", "publications", "authorships"), tiny_rows()))
    loaded = []
    for bom in ("", "\ufeff"):
        for suffix in ("csv", "jsonl"):
            paths = []
            for name, rows in tables.items():
                path = tmp_path / f"{name}{'-bom' if bom else ''}.{suffix}"
                with path.open("w", encoding="utf-8", newline="") as fh:
                    fh.write(bom)
                    if suffix == "csv":
                        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
                        writer.writeheader()
                        writer.writerows(rows)
                    else:
                        fh.write("\n".join(json.dumps(r) for r in rows))
                paths.append(path)
            assert paths[0].read_bytes().startswith(bom.encode())
            loaded.append(load_corpus_files(*paths))
    plain = loaded[0]
    for corpus in loaded[1:]:
        assert corpus.scientists == plain.scientists
        assert corpus.publications == plain.publications
        assert corpus.authorships == plain.authorships


def _typed_jsonl(tmp_path, rows_by_file) -> list:
    """Write each table as JSON lines with its integer fields as JSON numbers."""
    integer_fields = {"birth_year", "year", "citation_count", "author_count", "position"}
    paths = []
    for name, rows in zip(("scientists", "publications", "authorships"), rows_by_file):
        typed = [
            {k: int(v) if k in integer_fields and isinstance(v, str) and v else v
             for k, v in row.items()}
            for row in rows
        ]
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in typed), encoding="utf-8")
        paths.append(path)
    return paths


@pytest.mark.parametrize("changes, expected", [
    ({(1, 0, "year"): 2004.7}, "publications row 1: 'year' must be an integer, got 2004.7"),
    ({(1, 1, "citation_count"): True},
     "publications row 2: 'citation_count' must be an integer, got True"),
    # equal to the int before it, so an int() memo keyed by value would hit
    ({(1, 0, "year"): 2004, (1, 1, "year"): 2004.0},
     "publications row 2: 'year' must be an integer, got 2004.0"),
    ({(1, 1, "author_count"): 2.0}, "publications row 2: 'author_count' must be an integer, got 2.0"),
    ({(2, 0, "position"): True}, "authorships row 1: 'position' must be an integer, got True"),
    ({(0, 0, "birth_year"): 1949.0}, "scientists row 1: 'birth_year' must be an integer, got 1949.0"),
    ({(0, 2, "birth_year"): False}, "scientists row 3: 'birth_year' must be an integer, got False"),
])
def test_json_float_or_boolean_in_an_integer_field_names_its_row(changes, expected, tmp_path):
    rows = tiny_rows()
    for (table, row, key), value in changes.items():
        rows[table][row][key] = value
    paths = _typed_jsonl(tmp_path, rows)
    with pytest.raises(CorpusError) as info:
        load_corpus_files(*paths)
    assert str(info.value) == expected
    assert _load_error(*rows) == expected  # row mappings go through the same parser


@pytest.mark.parametrize("changes, expected", [
    ({(1, 0, "subject_categories"): 5},
     "publications row 1: 'subject_categories' must be text or a list of text, got 5"),
    ({(1, 1, "subject_categories"): True},
     "publications row 2: 'subject_categories' must be text or a list of text, got True"),
    ({(1, 0, "subject_categories"): 2.5},
     "publications row 1: 'subject_categories' must be text or a list of text, got 2.5"),
    ({(1, 0, "subject_categories"): {"CAT1": 1}},
     "publications row 1: 'subject_categories' must be text or a list of text, got {'CAT1': 1}"),
    ({(1, 1, "subject_categories"): ["C1", ["a"]]},
     "publications row 2: 'subject_categories' must be text or a list of text, got ['C1', ['a']]"),
    ({(1, 0, "subject_categories"): ["C1", None]},
     "publications row 1: 'subject_categories' must be text or a list of text, got ['C1', None]"),
    ({(1, 1, "subject_categories"): ["C2", False]},
     "publications row 2: 'subject_categories' must be text or a list of text, got ['C2', False]"),
    ({(0, 1, "sds_code"): [1]}, "scientists row 2: 'sds_code' must be text, got [1]"),
    ({(0, 0, "rank"): ["FULL"]}, "scientists row 1: 'rank' must be text, got ['FULL']"),
    ({(1, 1, "pub_id"): {"id": "P2"}}, "publications row 2: 'pub_id' must be text, got {'id': 'P2'}"),
    ({(2, 0, "affiliation_id"): [1]}, "authorships row 1: 'affiliation_id' must be text, got [1]"),
    ({(2, 2, "scientist_id"): ["A3"]}, "authorships row 3: 'scientist_id' must be text, got ['A3']"),
    # a later row's value that is no list, after an earlier row's empty set
    ({(1, 0, "subject_categories"): " ; ;", (1, 1, "subject_categories"): 5},
     "publications row 1: 'subject_categories' must be non-empty"),
])
def test_json_value_that_is_not_text_in_a_text_field_names_its_row(changes, expected, tmp_path):
    rows = tiny_rows()
    for (table, row, key), value in changes.items():
        rows[table][row][key] = value
    with pytest.raises(CorpusError) as info:
        load_corpus_files(*_typed_jsonl(tmp_path, rows))
    assert str(info.value) == expected
    assert _load_error(*rows) == expected


def test_json_numbers_in_text_fields_load_as_their_text():
    scientists, publications, authorships = tiny_rows()
    for row in scientists:
        row["sds_code"] = 7
    authorships[0]["affiliation_id"] = 12
    corpus = load_corpus(scientists, publications, authorships)
    assert corpus.sds_codes == ("7",) and "12" in corpus.affiliations


def test_json_category_lists_keep_their_text():
    scientists, publications, authorships = tiny_rows()
    publications[0]["subject_categories"] = [1]
    publications[1]["subject_categories"] = [2.5, "C2"]
    corpus = load_corpus(scientists, publications, authorships)
    assert [corpus.category_sets[code] for code in corpus.pub_categories] == [("1",), ("2.5", "C2")]
    publications[1]["subject_categories"] = [True]  # equal to 1 as a dict key, and no number
    assert _load_error(scientists, publications, authorships) == (
        "publications row 2: 'subject_categories' must be text or a list of text, got [True]"
    )


def test_typed_json_integers_load_as_their_text(tmp_path):
    typed = load_corpus_files(*_typed_jsonl(tmp_path, tiny_rows()))
    assert typed.publications == load_corpus(*tiny_rows()).publications
    assert typed.scientist_birth_year == [1949, 1957, None]


# ---------------------------------------------------------------------------
# The same messages from files typed a chunk at a time: CSV and JSON lines,
# with chunk boundaries between every pair of rows (the `chunk_rows` fixture)

DELETE = object()

# (edits, message): each edit is (table, row, key, value); a value of DELETE
# removes the key, and a row of None appends a copy of the table's first row.
FILE_CASES = {
    "duplicate_pub_id": ([(1, None, None, None)], "publications row 3: pub_id 'P1' repeats row 1"),
    "blank_sds_code": ([(0, 1, "sds_code", "  ")], "scientists row 2: missing 'sds_code'"),
    "absent_year": ([(1, 0, "year", DELETE)], "publications row 1: missing 'year'"),
    "blank_pub_id": ([(2, 2, "pub_id", "  ")], "authorships row 3: missing 'pub_id'"),
    "non_integer_position": ([(2, 1, "position", " 2nd ")],
                             "authorships row 2: 'position' must be an integer, got '2nd'"),
    "zero_author_count": ([(1, 1, "author_count", "0")],
                          "publications row 2: 'author_count' must be >= 1, got 0"),
    "bad_rank": ([(0, 2, "rank", "EMERITUS")],
                 "scientists row 3: rank must be one of FULL/ASSOCIATE/ASSISTANT, got 'EMERITUS'"),
    "empty_categories": ([(1, 0, "subject_categories", " ; ;")],
                         "publications row 1: 'subject_categories' must be non-empty"),
    "earlier_row_later_check": ([(0, 2, "rank", ""), (0, 1, "uda_code", "")],
                                "scientists row 2: missing 'uda_code'"),
    "rank_checked_first": ([(0, 1, "rank", "DEAN"), (0, 1, "scientist_id", "")],
                           "scientists row 2: rank must be one of FULL/ASSOCIATE/ASSISTANT, got 'DEAN'"),
    "row_error_before_duplicate_id": ([(0, None, None, None), (2, 3, "position", "x")],
                                      "authorships row 4: 'position' must be an integer, got 'x'"),
    "duplicate_scientist_id": ([(0, None, None, None)], "scientists row 4: scientist_id 'A1' repeats row 1"),
    "sds_in_two_udas": ([(0, 1, "uda_code", "U2")], "SDS 'S1' mapped to both UDA 'U1' and 'U2'"),
    "duplicate_category": ([(1, 0, "subject_categories", "C1;C1")],
                           "publications row 1: 'subject_categories' repeats category 'C1'"),
    "integer_outside_int64": ([(1, 1, "citation_count", str(2**63))],
                              f"publications row 2: 'citation_count' must fit in a 64-bit "
                              f"integer, got {2**63}"),
    "incomplete_byline": ([(2, 1, "position", "3")],
                          "pub_id 'P1': byline positions [1, 3] do not cover 1..2"),
    "duplicate_authorship": ([(2, 1, "scientist_id", "A1")],
                             "authorships row 2: (pub_id, scientist_id) ('P1', 'A1') repeats row 1"),
    # across chunk boundaries
    "unknown_pub_id_in_a_later_chunk": ([(2, 3, "pub_id", "P9")],
                                        "authorships row 4: unknown pub_id 'P9'"),
    "unknown_scientist_id_in_a_later_chunk": ([(2, 3, "scientist_id", " A9 ")],
                                              "authorships row 4: unknown scientist_id 'A9'"),
    "unknown_pub_id_before_a_bad_row": ([(2, 0, "pub_id", "P9"), (2, 3, "position", "x")],
                                        "authorships row 1: unknown pub_id 'P9'"),
    "unknown_scientist_before_unknown_pub": (
        [(2, 1, "scientist_id", "A9"), (2, 3, "pub_id", "P9")],
        "authorships row 2: unknown scientist_id 'A9'",
    ),
    "duplicate_byline_across_rows_2_and_3": (
        [(2, 2, "pub_id", "P1"), (2, 2, "position", "2")],
        "authorships row 3: (pub_id, position) ('P1', 2) repeats row 2",
    ),
    "required_key_first_in_a_later_row": (
        [(2, 0, "position", DELETE), (2, 1, "position", DELETE), (2, 2, "position", DELETE)],
        "authorships row 1: missing 'position'",
    ),
    # typed JSON values (as text in CSV)
    "float_year": ([(1, 0, "year", 2004.7)],
                   "publications row 1: 'year' must be an integer, got 2004.7"),
    "boolean_citations": ([(1, 1, "citation_count", True)],
                          "publications row 2: 'citation_count' must be an integer, got True"),
    "float_equal_to_an_earlier_int": ([(1, 0, "year", 2004), (1, 1, "year", 2004.0)],
                                      "publications row 2: 'year' must be an integer, got 2004.0"),
    "float_birth_year": ([(0, 0, "birth_year", 1949.0)],
                         "scientists row 1: 'birth_year' must be an integer, got 1949.0"),
    "boolean_position": ([(2, 0, "position", True)],
                         "authorships row 1: 'position' must be an integer, got True"),
    # one value failing two checks of its field: the first check names it
    "malformed_and_below_minimum": ([(1, 0, "citation_count", "-1.5")],
                                    "publications row 1: 'citation_count' must be an integer, got '-1.5'"),
    "outside_int64_and_below_minimum": ([(1, 1, "author_count", str(-2**64))],
                                        f"publications row 2: 'author_count' must fit in a 64-bit "
                                        f"integer, got {-2**64}"),
    # a later row's JSON number where a list or text belongs, after an earlier bad row
    "number_categories_after_an_empty_set": (
        [(1, 0, "subject_categories", " ; ;"), (1, 1, "subject_categories", 5)],
        "publications row 1: 'subject_categories' must be non-empty",
    ),
}


def _edited_rows(edits) -> tuple:
    rows = tiny_rows()
    for table, row, key, value in edits:
        if row is None:
            rows[table].append(dict(rows[table][0]))
        elif value is DELETE:
            del rows[table][row][key]
        else:
            rows[table][row][key] = value
    return rows


def _as_int(value):
    try:
        return int(value)
    except ValueError:
        return value


def _write_tables(tmp_path, rows_by_file, suffix: str) -> list:
    """Write each table as CSV (a missing key empty; ``crlf.csv`` with CRLF
    line ends, which the fast path leaves to the csv module) or JSON lines
    (integer text as JSON numbers, a missing key absent)."""
    import csv

    if suffix == "jsonl":
        rows_by_file = [[{k: _as_int(v) if isinstance(v, str) else v for k, v in row.items()}
                         for row in rows] for rows in rows_by_file]
    paths = []
    for name, rows in zip(("scientists", "publications", "authorships"), rows_by_file):
        path = tmp_path / f"{name}.{suffix}"
        with path.open("w", encoding="utf-8", newline="") as fh:
            if suffix == "jsonl":
                fh.write("".join(json.dumps(row) + "\n" for row in rows))
            else:
                fields = list(dict.fromkeys(key for row in rows for key in row))
                writer = csv.DictWriter(fh, fieldnames=fields,
                                        lineterminator="\r\n" if suffix == "crlf.csv" else "\n")
                writer.writeheader()
                writer.writerows(rows)
        paths.append(path)
    return paths


def _rows_in(path) -> list:
    """The row mappings a file holds, as a row-by-row reader sees them."""
    import csv

    with path.open(encoding="utf-8", newline="") as fh:
        if path.suffix == ".csv":
            return list(csv.DictReader(fh))
        return [json.loads(line) for line in fh if line.strip()]


@pytest.mark.parametrize("suffix", ["csv", "crlf.csv", "jsonl"])
@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_file_errors_match_row_errors_at_every_chunk_size(case, suffix, chunk_rows, tmp_path):
    edits, message = FILE_CASES[case]
    paths = _write_tables(tmp_path, _edited_rows(edits), suffix)
    with pytest.raises(CorpusError) as info:
        load_corpus_files(*paths)
    assert str(info.value) == _load_error(*map(_rows_in, paths))
    if suffix == "jsonl" or not any(isinstance(value, (int, float)) for *_, value in edits):
        assert str(info.value) == message  # typed JSON values are text in CSV


@pytest.mark.parametrize("suffix", ["csv", "crlf.csv", "jsonl"])
def test_optional_keys_first_in_a_later_row_load_as_rows_do(suffix, chunk_rows, tmp_path):
    rows = tiny_rows()
    for row in rows[0][:2]:
        del row["birth_year"]
    for row in rows[2][:3]:
        del row["affiliation_id"]
    rows[2][1]["scientist_id"] = " A2 "
    paths = _write_tables(tmp_path, rows, suffix)
    loaded, expected = load_corpus_files(*paths), load_corpus(*map(_rows_in, paths))
    assert loaded.scientists == expected.scientists
    assert loaded.publications == expected.publications
    assert loaded.authorships == expected.authorships
    assert loaded.scientist_birth_year == [None, None, None]
    assert loaded.affiliations == ("U03",)


def test_errors_come_in_file_order(chunk_rows, tmp_path):
    """Each file is typed and checked before the next is read, and a bad row
    before an invalid JSON line of the same file is reported first."""
    rows = tiny_rows()
    rows[0][1]["rank"] = "DEAN"
    paths = _typed_jsonl(tmp_path, rows)
    with paths[2].open("a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    bad_rank = "scientists row 2: rank must be one of FULL/ASSOCIATE/ASSISTANT, got 'DEAN'"
    with pytest.raises(CorpusError) as info:
        load_corpus_files(*paths)
    assert str(info.value) == bad_rank

    with paths[0].open("a", encoding="utf-8") as fh:
        fh.write("[1, 2]\n")
    with pytest.raises(CorpusError) as info:
        load_corpus_files(*paths)
    assert str(info.value) == bad_rank

    rows[0][1]["rank"] = "FULL"
    paths = _typed_jsonl(tmp_path, rows)
    with paths[2].open("a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    with pytest.raises(ValueError) as info:
        load_corpus_files(*paths)
    assert str(info.value).startswith("authorships.jsonl line 5: invalid JSON record")


def test_two_external_authors_on_one_byline_load(chunk_rows, tmp_path):
    scientists, publications, authorships = tiny_rows()
    publications[1]["author_count"] = "3"
    authorships.append({"pub_id": "P2", "position": "3", "scientist_id": "", "affiliation_id": ""})
    corpus = load_corpus(scientists, publications, authorships)
    assert corpus.auth_scientist.tolist() == [0, 1, 2, -1, -1]
    for suffix in ("csv", "jsonl"):
        loaded = load_corpus_files(*_write_tables(tmp_path, (scientists, publications, authorships), suffix))
        assert loaded.authorships == corpus.authorships


# Ids of one table share a first letter, so a Q or Z id is unknown; a comma
# or a non-ASCII letter sends a CSV file to the csv module.
_ID_TAILS = st.text("1Aé,", max_size=2)


@st.composite
def faulty_tables(draw):
    """Small valid tables, then one fault at random rows: a repeated
    scientist_id, pub_id, byline position or roster authorship, or an
    unknown pub_id or scientist_id; with the message naming its row, and
    for a repeat its earlier twin."""
    ids = draw(st.lists(_ID_TAILS.map("X".__add__), min_size=1, max_size=5, unique=True))
    pub_ids = draw(st.lists(_ID_TAILS.map("P".__add__), min_size=1, max_size=4, unique=True))
    scientists = [{"scientist_id": sid, "sds_code": f"S{i % 2}", "uda_code": f"U{i % 2}", "rank": "FULL",
                   "birth_year": ""} for i, sid in enumerate(ids)]
    publications, authorships = [], []
    for pid in pub_ids:
        roster = draw(st.lists(st.sampled_from(ids), unique=True, max_size=3))
        byline = draw(st.permutations(roster + [""] * draw(st.integers(not roster, 2))))
        publications.append({"pub_id": pid, "year": "2005", "citation_count": "1",
                             "subject_categories": "C1", "author_count": str(len(byline))})
        authorships += [{"pub_id": pid, "position": str(k), "scientist_id": sid, "affiliation_id": ""}
                        for k, sid in enumerate(byline, start=1)]
    authorships = draw(st.permutations(authorships))
    linked = [i for i, row in enumerate(authorships) if row["scientist_id"]]
    fault = draw(st.sampled_from(["scientist_id", "pub_id", "position", "unknown pub_id",
                                  "unknown scientist_id"] + ["authorship"] * bool(linked)))

    def repeat(source, table, original, row, name, value):
        """Insert ``row`` at a random place; the message of the later of it
        and ``original`` repeating the other."""
        at = draw(st.integers(0, len(table)))
        table.insert(at, row)
        earlier, later = sorted((at, original + (at <= original)))
        return f"{source} row {later + 1}: {name} {value!r} repeats row {earlier + 1}"

    if fault == "scientist_id":
        i = draw(st.integers(0, len(scientists) - 1))
        message = repeat("scientists", scientists, i, dict(scientists[i]), "scientist_id", ids[i])
    elif fault == "pub_id":
        i = draw(st.integers(0, len(publications) - 1))
        message = repeat("publications", publications, i, dict(publications[i]), "pub_id", pub_ids[i])
    elif fault == "position":  # an external author at a taken position
        i = draw(st.integers(0, len(authorships) - 1))
        row = {**authorships[i], "scientist_id": ""}
        message = repeat("authorships", authorships, i, row, "(pub_id, position)",
                         (row["pub_id"], int(row["position"])))
    elif fault == "authorship":  # a roster author again, beyond the byline
        i = draw(st.sampled_from(linked))
        row = {**authorships[i], "position": "9"}
        message = repeat("authorships", authorships, i, row, "(pub_id, scientist_id)",
                         (row["pub_id"], row["scientist_id"]))
    else:
        key = fault.split()[1]
        i = draw(st.integers(0, len(authorships) - 1))
        text = draw(_ID_TAILS.map(("Q" if key == "pub_id" else "Z").__add__))
        authorships[i][key] = text
        message = f"authorships row {i + 1}: unknown {key} {text!r}"
    return (scientists, publications, authorships), message


@settings(max_examples=100, deadline=None)
@given(faulty_tables())
def test_one_fault_is_named_at_its_row_in_every_format(tmp_path_factory, tables_and_message):
    tables, message = tables_and_message
    assert _load_error(*tables) == message
    out = tmp_path_factory.mktemp("faulty")
    for suffix in ("csv", "crlf.csv", "jsonl"):
        paths = _write_tables(out, tables, suffix)
        for rows, block in CHUNK_SIZES:
            with mock.patch.object(fileio, "CHUNK_ROWS", rows), mock.patch.object(fileio, "BLOCK_BYTES", block):
                with pytest.raises(CorpusError) as info:
                    load_corpus_files(*paths)
            assert str(info.value) == message, (suffix, rows)


@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
def test_load_peak_stays_near_the_corpus_it_returns(suffix, tmp_path):
    """Typing each chunk as it is read holds no file-wide column of raw
    cells: the traced peak of a load stays within 2.5x of what the loaded
    corpus keeps."""
    import tracemalloc

    from rankmetrics.synth import write_corpus_csv

    paths = write_corpus_csv(generate(SynthConfig()), tmp_path)
    paths = [paths[name] for name in ("scientists", "publications", "authorships")]
    if suffix == "jsonl":
        paths = _typed_jsonl(tmp_path, [_rows_in(path) for path in paths])
    load_corpus_files(*paths)  # one-time allocations stay out of the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        corpus = load_corpus_files(*paths)
        retained, peak = (value - before for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(corpus.auth_pub) > 50_000
    assert peak <= 2.5 * retained, (peak, retained)
