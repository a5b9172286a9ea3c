"""Co-author weight vectors and per-scientist indicator computation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rankmetrics import (
    IndicatorRecord,
    build_baselines,
    coauthor_weights,
    compute_indicators,
    load_corpus,
    read_indicators,
    write_indicators,
)
from rankmetrics import fileio
from rankmetrics.baseline import BaselineCell, BaselineTable

from conftest import indicator_table, single_author_corpus
from oracle import byline_case_flags

# ---------------------------------------------------------------------------
# Weight vectors

def test_case_a_five_authors():
    w = coauthor_weights(5, first_last_same=True)
    assert w[0] == pytest.approx(0.40, abs=1e-12)
    assert w[4] == pytest.approx(0.40, abs=1e-12)
    for i in (1, 2, 3):
        assert w[i] == pytest.approx(0.20 / 3, abs=1e-12)


def test_case_b_six_authors():
    w = coauthor_weights(6, boundary_pairs_differ=True)
    assert w == pytest.approx([0.30, 0.15, 0.05, 0.05, 0.15, 0.30], abs=1e-12)


def test_sole_author():
    assert coauthor_weights(1) == coauthor_weights(1, first_last_same=True) == [1.0]


def test_equal_four_authors():
    assert coauthor_weights(4) == [0.25, 0.25, 0.25, 0.25]


def test_unrecognized_pattern_falls_back_to_equal():
    assert coauthor_weights(5) == [0.2] * 5


def test_overlapping_roles_renormalize():
    # first and last share the 0.40+0.40 for n=2 under case A
    assert coauthor_weights(2, first_last_same=True) == pytest.approx([0.5, 0.5])
    # case B with n=2: (0.30+0.15) each, renormalized
    assert coauthor_weights(2, boundary_pairs_differ=True) == pytest.approx([0.5, 0.5])
    # case B with n=3: middle holds both 15% roles
    assert coauthor_weights(3, boundary_pairs_differ=True) == pytest.approx([1 / 3] * 3)
    # case B with n=4: no remainder group, renormalized 0.9 -> 1
    assert coauthor_weights(4, boundary_pairs_differ=True) == pytest.approx(
        [1 / 3, 1 / 6, 1 / 6, 1 / 3]
    )


def test_zero_authors_rejected():
    with pytest.raises(ValueError):
        coauthor_weights(0)


def test_weights_sum_to_one_all_cases():
    for n in range(1, 51):
        for kwargs in (
            dict(),
            dict(first_last_same=True),
            dict(boundary_pairs_differ=True),
        ):
            total = math.fsum(coauthor_weights(n, **kwargs))
            assert abs(total - 1.0) < 1e-12


@given(st.integers(1, 50), st.booleans(), st.booleans())
def test_weights_sum_property(n, same, differ):
    w = coauthor_weights(n, first_last_same=same, boundary_pairs_differ=differ)
    assert abs(math.fsum(w) - 1.0) < 1e-12
    assert all(x >= 0 for x in w)


# ---------------------------------------------------------------------------
# Case flags from affiliations, read from the credit compute_indicators gives

def _check_flags(*cases):
    """Each ``(affiliations, flags)`` case's byline, one publication scoring
    1.0 with a roster author at every position in a positional UDA, credits
    each author the weight of ``flags``; the oracle derives the same flags."""
    scientists, pubs = [], []
    for p, (affiliations, _) in enumerate(cases):
        authors = [f"P{p}-{position}" for position in range(1, len(affiliations) + 1)]
        scientists += [(sid, "S1", "U1", "FULL") for sid in authors]
        pubs.append((f"P{p}", 2, list(zip(range(1, len(authors) + 1), authors, affiliations))))
    corpus = _corpus(pubs, scientists)
    table = compute_indicators(corpus, BaselineTable([BaselineCell(2005, "C1", 2.0, 2.0, 1)]), ["U1"])
    for p, (affiliations, (same, differ)) in enumerate(cases):
        credit = [table[corpus.scientist_index[f"P{p}-{position}"]].fss
                  for position in range(1, len(affiliations) + 1)]
        n = len(affiliations)
        assert credit == coauthor_weights(n, first_last_same=same, boundary_pairs_differ=differ)
        assert byline_case_flags(affiliations) == (same, differ)


def test_flags_case_a():
    _check_flags((["U1", "U2", "U3", "U1"], (True, False)))


def test_flags_case_b():
    _check_flags(
        (["U1", "U2", "U3", "U4"], (False, True)),
        # n=3: pairwise distinct boundary affiliations
        (["U1", "U2", "U3"], (False, True)),
        # n=2: the two authors differ
        (["U1", "U2"], (False, True)),
    )


def test_flags_neither_case():
    # first/last differ but second matches penultimate
    _check_flags((["U1", "U2", "U2", "U3"], (False, False)))


def test_flags_missing_affiliation_undecidable():
    _check_flags(
        (["U1", None, "U3", "U4"], (False, False)),
        ([None, "U2", "U3", "U4"], (False, False)),
        # ... but a present, equal first/last pair still resolves case A
        (["U1", None, None, "U1"], (True, False)),
    )


def test_flags_sole_author():
    _check_flags((["U1"], (False, False)))


# ---------------------------------------------------------------------------
# Indicator computation

def _corpus(pubs, scientists=None):
    """pubs: list of (pub_id, citations, [(position, scientist_or_None, affil), ...])."""
    if scientists is None:
        scientists = [("X", "S1", "U1", "FULL")]
    sci_rows = [
        {"scientist_id": s, "sds_code": sds, "uda_code": uda, "rank": rank, "birth_year": ""}
        for s, sds, uda, rank in scientists
    ]
    pub_rows, auth_rows = [], []
    for pid, citations, byline in pubs:
        pub_rows.append(
            {"pub_id": pid, "year": 2005, "citation_count": citations,
             "subject_categories": "C1", "author_count": len(byline)}
        )
        for position, sid, affil in byline:
            auth_rows.append(
                {"pub_id": pid, "position": position, "scientist_id": sid or "",
                 "affiliation_id": affil or ""}
            )
    return load_corpus(sci_rows, pub_rows, auth_rows)


def test_inactive_scientist():
    corpus = _corpus(
        [("P1", 1, [(1, "X", "U1")])],
        scientists=[("X", "S1", "U1", "FULL"), ("lazy", "S1", "U1", "FULL")],
    )
    records = compute_indicators(corpus, build_baselines(corpus))
    rec = records[corpus.scientist_index["lazy"]]
    assert (rec.n_p, rec.qi, rec.fss) == (0, None, 0.0)


def test_sole_author_indicators():
    # cell citations {6, 0, 2} -> median 2; the 6-citation publication scores 3.0
    corpus = _corpus(
        [
            ("P1", 6, [(1, "X", "U1")]),
            ("P2", 0, [(1, None, "U2")]),
            ("P3", 2, [(1, None, "U3")]),
        ]
    )
    records = compute_indicators(corpus, build_baselines(corpus))
    rec = records[corpus.scientist_index["X"]]
    assert rec.n_p == 1
    assert rec.qi == pytest.approx(3.0)
    assert rec.fss == pytest.approx(3.0)  # sole author carries weight 1


def test_two_publication_example():
    """Standardized scores 2.0 and 4.0 with 2 and 4 equal-weight authors."""
    from rankmetrics.baseline import BaselineCell, BaselineTable

    corpus = _corpus(
        [
            ("P1", 4, [(1, "X", "U1"), (2, None, "U2")]),
            ("P2", 8, [(1, "X", "U1"), (2, None, "U2"), (3, None, "U3"), (4, None, "U4")]),
        ]
    )
    baselines = BaselineTable([BaselineCell(2005, "C1", 2.0, 2.0, 2)])
    rec = compute_indicators(corpus, baselines)[corpus.scientist_index["X"]]
    assert rec.n_p == 2
    assert rec.qi == pytest.approx(3.0)  # mean(2.0, 4.0)
    assert rec.fss == pytest.approx(2.0)  # 2.0/2 + 4.0/4


def test_positional_scheme_only_for_configured_udas():
    byline = [(1, "X", "U1"), (2, None, "U2"), (3, None, "U3"), (4, None, "U1")]
    corpus = _corpus([("P1", 5, [(1, "X", "U1"), (2, None, "U2"), (3, None, "U3"), (4, None, "U1")])])
    baselines = build_baselines(corpus)
    row = corpus.scientist_index["X"]
    equal = compute_indicators(corpus, baselines)[row]
    positional = compute_indicators(corpus, baselines, positional_udas=["U1"])[row]
    score = equal.fss * 4  # equal weight was 1/4
    assert positional.fss == pytest.approx(score * 0.40)  # first author, case A
    assert positional.qi == equal.qi  # qi ignores weights


def test_fss_conservation_across_byline():
    """Summing every position's credit recovers the publication score."""
    scientists = [(f"A{i}", "S1", "U1", "FULL") for i in range(1, 6)]
    byline = [(i, f"A{i}", f"U{i}") for i in range(1, 6)]  # boundary pairs differ
    corpus = _corpus([("P1", 7, byline)], scientists=scientists)
    baselines = build_baselines(corpus)
    for udas in ((), ("U1",)):
        records = compute_indicators(corpus, baselines, positional_udas=udas)
        total = sum(records[corpus.scientist_index[f"A{i}"]].fss for i in range(1, 6))
        score = records[corpus.scientist_index["A1"]].qi  # single publication: qi equals its score
        assert abs(total - score) < 1e-12


def test_fss_invariant_under_middle_permutation_case_a():
    scientists = [(f"A{i}", "S1", "U1", "FULL") for i in range(1, 6)]
    byline = [(1, "A1", "UH"), (2, "A2", "U2"), (3, "A3", "U3"), (4, "A4", "U4"), (5, "A5", "UH")]
    swapped = [(1, "A1", "UH"), (2, "A3", "U3"), (3, "A4", "U4"), (4, "A2", "U2"), (5, "A5", "UH")]
    a = compute_indicators(
        (c := _corpus([("P1", 9, byline)], scientists=scientists)), build_baselines(c), ["U1"]
    )
    b = compute_indicators(
        (c := _corpus([("P1", 9, swapped)], scientists=scientists)), build_baselines(c), ["U1"]
    )
    for sid in ("A1", "A2", "A3", "A4", "A5"):  # both rosters in the order of ``scientists``
        row = c.scientist_index[sid]
        assert a[row].fss == pytest.approx(b[row].fss, abs=1e-12)


def test_equal_scheme_sole_authored_identity():
    corpus = _corpus(
        [("P1", 2, [(1, "X", "U1")]), ("P2", 2, [(1, "X", "U1")])],
        scientists=[("X", "S1", "U1", "FULL")],
    )
    rec = compute_indicators(corpus, build_baselines(corpus))[corpus.scientist_index["X"]]
    assert rec.fss == pytest.approx(rec.n_p * rec.qi)


def test_export_import_round_trip(tmp_path):
    records = [IndicatorRecord("X", 3, 1.25, 0.75), IndicatorRecord("idle", 0, None, 0.0)]
    path = write_indicators(records, tmp_path / "indicators.csv")
    loaded = read_indicators(path, _roster("idle", "X"))
    assert list(loaded) == records[::-1]
    assert (loaded.n_p.tolist(), loaded.fss.tolist()) == ([0, 3], [0.0, 0.75])
    assert math.isnan(loaded.qi[0]) and loaded.qi[1] == 1.25


def test_indicators_without_authorships_are_floats(tmp_path):
    # np.bincount of no weights is int64; FSS must stay float64 all the same
    scientists = [{"scientist_id": sid, "sds_code": "S1", "uda_code": "U1", "rank": "FULL"}
                  for sid in "AB"]
    corpus = load_corpus(scientists, [], [])
    table = compute_indicators(corpus, BaselineTable([]))
    assert (table.n_p.dtype, table.qi.dtype, table.fss.dtype) == (np.int64, np.float64, np.float64)
    path = write_indicators(table, tmp_path / "indicators.csv")
    assert path.read_text().splitlines() == ["scientist_id,n_p,qi,fss", "A,0,,0.0", "B,0,,0.0"]
    loaded = read_indicators(path, corpus)
    assert list(loaded) == list(table) == [("A", 0, None, 0.0), ("B", 0, None, 0.0)]
    for column in ("n_p", "qi", "fss"):
        assert getattr(loaded, column).dtype == getattr(table, column).dtype, column


def _roster(*ids):
    return single_author_corpus([(sid, "S1", "U1", "FULL", []) for sid in ids])


def test_read_indicators_must_cover_the_roster(tmp_path):
    path = tmp_path / "indicators.csv"
    path.write_text("scientist_id,n_p,qi,fss\nA,3,1.25,0.75\nghost,0,,0.0\nB,0,,0.0\n")
    roster = _roster("B", "A", "ghost")
    assert read_indicators(path, roster)[roster.scientist_index["A"]] == ("A", 3, 1.25, 0.75)
    with pytest.raises(ValueError) as info:
        read_indicators(path, _roster("A", "B", "C", "D"))
    assert str(info.value) == (
        f"roster mismatch in indicators file {path}: 3 records for 4 scientists; "
        "2 missing (first: C, D), 1 extra (first: ghost)"
    )


@pytest.mark.parametrize("ids, message", [
    (list("ACDEFG"), "6 records for 7 scientists; 1 missing (first: B), 0 extra (first: -)"),
    ([*"GFEDCBA", "ghost"], "8 records for 7 scientists; 0 missing (first: -), 1 extra (first: ghost)"),
    ([], "0 records for 7 scientists; 7 missing (first: A, B, C, D, E), 0 extra (first: -)"),
    ([f"x{i}" for i in range(6)],
     "6 records for 7 scientists; 7 missing (first: A, B, C, D, E), 6 extra (first: x0, x1, x2, x3, x4)"),
])
def test_rows_of_names_the_roster_mismatch(ids, message):
    with pytest.raises(ValueError) as info:
        _roster(*"ABCDEFG").rows_of(ids, source="the test records")
    assert str(info.value) == f"roster mismatch in the test records: {message}"


def test_rows_of_gives_each_id_its_roster_row():
    corpus = _roster("B", "A", "C")
    assert corpus.rows_of(["C", "A", "B"]).tolist() == [corpus.scientist_index[s] for s in "CAB"]
    assert sorted(corpus.rows_of(corpus.scientist_ids).tolist()) == [0, 1, 2]


def test_indicator_table_is_a_sequence_in_roster_order():
    corpus = _roster("B", "A", "C")
    records = [IndicatorRecord("A", 2, 0.5, 1.0), IndicatorRecord("C", 0, None, 0.0),
               IndicatorRecord("B", 1, 3.0, 3.0)]
    table = indicator_table(corpus, records)
    assert [r.scientist_id for r in table] == corpus.scientist_ids and len(table) == 3
    assert list(table) == [records[2], records[0], records[1]] and table.values() is table
    assert table[corpus.scientist_index["C"]] == ("C", 0, None, 0.0) and records[1] in table
    with pytest.raises(IndexError):
        table[len(table)]


@pytest.mark.parametrize("row, message", [
    ("B,2,1.0,nan", "indicators row 2: 'fss' must be finite and >= 0, got nan"),
    ("B,2,1.0,-5.0", "indicators row 2: 'fss' must be finite and >= 0, got -5.0"),
    ("B,2,inf,1.0", "indicators row 2: 'qi' must be finite and >= 0, got inf"),
    ("B,-1,,0.0", "indicators row 2: 'n_p' must be >= 0, got -1"),
    ("A,1,0.5,0.5", "indicators row 2: scientist_id 'A' repeats row 1"),
    (" A ,1,0.5,0.5", "indicators row 2: scientist_id 'A' repeats row 1"),
    ("  ,1,0.5,0.5", "indicators row 2: missing 'scientist_id'"),
    # rows compute_indicators cannot write
    ("B,0,1.5,0.0", "indicators row 2: 'qi' must be empty exactly when 'n_p' is 0"),
    ("B,10,,2.0", "indicators row 2: 'qi' must be empty exactly when 'n_p' is 0"),
    ("B,0,,2.1", "indicators row 2: 'fss' must be 0 when 'n_p' is 0"),
    ("B,0,1.5,2.1", "indicators row 2: 'qi' must be empty exactly when 'n_p' is 0"),
    # a malformed field of the row is named first
    ("B,0,1.5,x", "indicators row 2: 'fss' must be a number, got 'x'"),
])
def test_read_indicators_rejects_bad_rows(row, message, tmp_path):
    path = tmp_path / "indicators.csv"
    path.write_text(f"scientist_id,n_p,qi,fss\nA,3,1.25,0.75\n{row}\n")
    with pytest.raises(ValueError) as info:
        read_indicators(path, _roster("A", "B"))
    assert str(info.value) == message


def test_a_bad_row_after_a_repeated_id_is_named_first(tmp_path):
    path = tmp_path / "indicators.csv"
    path.write_text("scientist_id,n_p,qi,fss\nA,3,1.25,0.75\nA,3,1.25,0.75\nB,0,1.5,0.0\n")
    with pytest.raises(ValueError) as info:
        read_indicators(path, _roster("A", "B"))
    assert str(info.value) == "indicators row 3: 'qi' must be empty exactly when 'n_p' is 0"


@pytest.mark.parametrize("row, message", [
    ('{"scientist_id": "B", "n_p": 2.9, "qi": 1.0, "fss": 1.0}',
     "indicators row 2: 'n_p' must be an integer, got 2.9"),
    ('{"scientist_id": "B", "n_p": true, "qi": 1.0, "fss": 1.0}',
     "indicators row 2: 'n_p' must be an integer, got True"),
    ('{"scientist_id": "B", "n_p": 3.0, "qi": 1.0, "fss": 1.0}',
     "indicators row 2: 'n_p' must be an integer, got 3.0"),
    ('{"scientist_id": "B", "n_p": 2, "qi": 1.0, "fss": false}',
     "indicators row 2: 'fss' must be a number, got False"),
    ('{"n_p": 2, "qi": 1.0, "fss": 1.0}', "indicators row 2: missing 'scientist_id'"),
])
def test_read_indicators_rejects_typed_json_rows(row, message, tmp_path):
    path = tmp_path / "indicators.jsonl"
    path.write_text('{"scientist_id": "A", "n_p": 3, "qi": 1.25, "fss": 0.75}\n' + row + "\n")
    with pytest.raises(ValueError) as info:
        read_indicators(path, _roster("A", "B"))
    assert str(info.value) == message


def test_read_indicators_names_the_first_inconsistent_row_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "CHUNK_ROWS", 2)
    path = tmp_path / "indicators.csv"
    # before a malformed row of the same chunk, and of a later chunk
    for rows, message in (
        ("A,3,1.25,0.75\nB,0,,0.0\nC,0,0.5,0.0\nD,x,,0.0", "row 3: 'qi' must be empty exactly"),
        ("A,3,1.25,0.75\nB,0,,0.5\nC,0,,0.0\nD,x,,0.0", "row 2: 'fss' must be 0"),
    ):
        path.write_text(f"scientist_id,n_p,qi,fss\n{rows}\n")
        with pytest.raises(ValueError, match=rf"^indicators {message} when 'n_p' is 0$"):
            read_indicators(path, _roster("A", "B", "C", "D"))


def test_read_indicators_strips_text(tmp_path):
    path = tmp_path / "indicators.csv"
    path.write_text("scientist_id,n_p,qi,fss\n A ,3, 1.25 ,0.75\nB, 0 , ,0.0\n")
    assert list(read_indicators(path, _roster("A", "B"))) == [
        IndicatorRecord("A", 3, 1.25, 0.75),
        IndicatorRecord("B", 0, None, 0.0),
    ]
