"""Corpus loading, validation, roster summaries and the SDS activity filter."""

import json

import pytest

from rankmetrics import (
    RANKS,
    CorpusError,
    Rank,
    activity_rates,
    filter_active_sds,
    load_corpus,
    load_corpus_files,
    roster_summary,
)
from rankmetrics.indicators import IndicatorRecord
from rankmetrics.synth import SynthConfig, generate

from conftest import authorships_by_pub, publications_by_id, single_author_corpus, tiny_rows


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
    with pytest.raises(CorpusError, match="P1"):
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
    assert summary.mean_age("U1") == pytest.approx(56.0)
    assert summary.mean_age("U1", Rank.FULL) == pytest.approx(60.0)
    # scientist without birth year only counts toward headcounts
    assert summary.headcount("U1", Rank.ASSOCIATE) == 1
    assert summary.mean_age("U1", Rank.ASSOCIATE) is None


def test_reference_year_defaults_to_snapshot(tiny_corpus):
    summary = roster_summary(tiny_corpus)
    assert summary.reference_year == 2007  # last publication year 2006 + 1


def test_single_scientist_share():
    corpus = single_author_corpus([("X", "S1", "U1", "FULL", [1])])
    summary = roster_summary(corpus)
    assert summary.share("U1", Rank.FULL) == pytest.approx(100.0)
    assert summary.sds_counts == {"U1": 1}


def test_roster_share_from_headcounts():
    # 10,764 of 30,677 renders as 35.1%
    assert round(100.0 * 10764 / 30677, 1) == 35.1


def test_shares_sum_to_100_within_rounding():
    corpus = generate(SynthConfig(seed=7, n_uda=4, sds_per_uda=2))
    summary = roster_summary(corpus)
    for uda in summary.udas:
        total = sum(round(summary.share(uda, r), 1) for r in Rank)
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

def _records(**values):
    return [IndicatorRecord(sid, np, qi, fss) for sid, (np, qi, fss) in values.items()]


def test_activity_rates(tiny_corpus):
    records = _records(A1=(1, 3.0, 3.0), A2=(1, 3.0, 1.5), A3=(1, 0.0, 0.0))
    table = activity_rates(tiny_corpus, records)
    cell = table.cell("U1")
    assert cell.headcount == 3
    assert cell.publication_active == 3
    # A3 published but was never cited
    assert cell.citation_active == 2
    assert table.cell("U1", Rank.ASSOCIATE).citation_active == 0


def test_activity_all_active():
    corpus = single_author_corpus([("X", "S1", "U1", "FULL", [1]), ("Y", "S1", "U1", "FULL", [2])])
    records = _records(X=(1, 1.0, 1.0), Y=(1, 2.0, 2.0))
    table = activity_rates(corpus, records)
    cell = table.cell()
    assert cell.publication_active == cell.headcount == 2


def test_activity_requires_all_records(tiny_corpus):
    with pytest.raises(ValueError, match="A3"):
        activity_rates(tiny_corpus, _records(A1=(1, 3.0, 3.0), A2=(0, None, 0.0)))


def test_citation_active_never_exceeds_publication_active():
    corpus = generate(SynthConfig(seed=11, n_uda=3, sds_per_uda=2))
    from rankmetrics import build_baselines, compute_indicators

    records = compute_indicators(corpus, build_baselines(corpus))
    table = activity_rates(corpus, records.values())
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
        activity_rates(corpus, records.values()),
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
    assert _load_error(scientists, publications, authorships) == "duplicate pub_id 'P1'"


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
        "duplicate authorship ('P1', 'A1')"
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
    assert _load_error(scientists, publications, authorships) == "duplicate scientist_id 'A1'"


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
                        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
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
