"""Baseline construction and citation standardization."""

import pytest

from rankmetrics import (
    MissingBaselineError,
    build_baselines,
    load_corpus,
    read_baselines,
    write_baselines,
)
from rankmetrics.baseline import BaselineCell, BaselineTable
from rankmetrics.indicators import require_baselines

from oracle import standardized_score


def _corpus(citations, year=2005, category="C1"):
    """One sole-authored publication per citation count, all in one cell."""
    scientists = [{"scientist_id": "X", "sds_code": "S1", "uda_code": "U1", "rank": "FULL", "birth_year": ""}]
    publications = []
    authorships = []
    for i, c in enumerate(citations, start=1):
        publications.append(
            {"pub_id": f"P{i}", "year": year, "citation_count": c,
             "subject_categories": category, "author_count": 1}
        )
        authorships.append({"pub_id": f"P{i}", "position": 1, "scientist_id": "X" if i == 1 else "",
                            "affiliation_id": ""})
    return load_corpus(scientists, publications, authorships)


def _pub(citations, year=2005, categories=("C1",)):
    """One publication, as the leading arguments of the oracle's :func:`standardized_score`."""
    return year, citations, tuple(categories)


def _scores(baselines, *pubs):
    """:func:`require_baselines`' score of each of ``pubs`` (:func:`_pub`
    tuples), each one sole-authored by a roster scientist, checked bitwise
    against the oracle's :func:`standardized_score`."""
    publications = [
        {"pub_id": f"P{i}", "year": year, "citation_count": citations,
         "subject_categories": list(categories), "author_count": 1}
        for i, (year, citations, categories) in enumerate(pubs)
    ]
    authorships = [{"pub_id": f"P{i}", "position": 1, "scientist_id": "X", "affiliation_id": ""}
                   for i in range(len(pubs))]
    scientists = [{"scientist_id": "X", "sds_code": "S1", "uda_code": "U1", "rank": "FULL", "birth_year": ""}]
    corpus = load_corpus(scientists, publications, authorships)
    scores = require_baselines(corpus, baselines).tolist()
    assert [s.hex() for s in scores] == [standardized_score(*pub, baselines).hex() for pub in pubs]
    return scores


def test_cell_median_and_mean():
    cell = build_baselines(_corpus([0, 2, 10])).get(2005, "C1")
    assert cell.median_citations == 2
    assert cell.mean_citations == 4
    assert cell.publication_count == 3


def test_singleton_cell():
    cell = build_baselines(_corpus([7])).get(2005, "C1")
    assert cell.median_citations == 7
    assert cell.mean_citations == 7


def test_even_count_median_is_mean_of_central_values():
    cell = build_baselines(_corpus([1, 3])).get(2005, "C1")
    assert cell.median_citations == 2


def test_standardize_single_category():
    baselines = build_baselines(_corpus([0, 2, 10]))
    assert _scores(baselines, _pub(6)) == [pytest.approx(3.0)]


def test_standardize_at_median_is_one():
    baselines = build_baselines(_corpus([0, 2, 10]))
    assert _scores(baselines, _pub(2)) == [pytest.approx(1.0)]


def test_standardize_multi_category_mean():
    baselines = BaselineTable(
        [BaselineCell(2005, "C1", 2.0, 3.0, 5), BaselineCell(2005, "C2", 4.0, 5.0, 5)]
    )
    assert _scores(baselines, _pub(4, categories=("C1", "C2"))) == [pytest.approx(1.5)]  # mean(4/2, 4/4)


def test_missing_cell_names_year_and_category():
    baselines = build_baselines(_corpus([1]))
    with pytest.raises(MissingBaselineError, match=r"\(2007, 'C9'\)"):
        _scores(baselines, _pub(1, year=2007, categories=("C9",)))


def test_zero_median_falls_back_to_mean():
    baselines = build_baselines(_corpus([0, 0, 6]))  # median 0, mean 2
    assert _scores(baselines, _pub(6)) == [pytest.approx(3.0)]


def test_all_zero_cell_scores_zero():
    baselines = build_baselines(_corpus([0, 0]))
    assert _scores(baselines, _pub(0)) == [0.0]


def test_score_zero_iff_uncited():
    baselines = build_baselines(_corpus([0, 1, 2, 5]))
    uncited, *cited = _scores(baselines, *(_pub(c) for c in (0, 1, 2, 9)))
    assert uncited == 0.0
    assert all(score > 0.0 for score in cited)


def test_scaling_cell_leaves_scores_unchanged():
    citations = [1, 2, 3, 8, 13]
    for k in (2, 5):
        base = build_baselines(_corpus(citations))
        scaled = build_baselines(_corpus([k * c for c in citations]))
        assert scaled.get(2005, "C1").median_citations == k * base.get(2005, "C1").median_citations
        assert _scores(scaled, *(_pub(k * c) for c in citations)) == pytest.approx(
            _scores(base, *map(_pub, citations))
        )


def test_median_property_half_at_most_one():
    citations = [0, 1, 1, 2, 3, 5, 8, 13, 40]
    baselines = build_baselines(_corpus(citations))
    scores = _scores(baselines, *map(_pub, citations))
    assert sum(1 for s in scores if s <= 1.0) >= len(scores) / 2


def test_export_import_round_trip(tmp_path):
    baselines = build_baselines(_corpus([0, 2, 10]))
    path = write_baselines(baselines, tmp_path / "baselines.csv")
    loaded = read_baselines(path)
    assert loaded.cells == baselines.cells


@pytest.mark.parametrize("row, message", [
    ("2004,A,nan,1.0,0", "baselines row 2: 'median' must be finite and >= 0, got nan"),
    ("2005,B,-3,-1,-2", "baselines row 2: 'median' must be finite and >= 0, got -3.0"),
    ("2005,B,1,inf,2", "baselines row 2: 'mean' must be finite and >= 0, got inf"),
    ("2005,B,1,-0.5,2", "baselines row 2: 'mean' must be finite and >= 0, got -0.5"),
    ("2005,B,1,1,0", "baselines row 2: 'count' must be >= 1, got 0"),
    ("2005,  ,1,1,1", "baselines row 2: missing 'category'"),
    (" 2004 , A ,1,1,1", "baselines row 2: (year, category) (2004, 'A') repeats row 1"),
])
def test_read_baselines_rejects_impossible_cells(row, message, tmp_path):
    path = tmp_path / "baselines.csv"
    path.write_text(f"year,category,median,mean,count\n2004,A,0.0,0.0,1\n{row}\n")
    with pytest.raises(ValueError) as info:
        read_baselines(path)
    assert str(info.value) == message


def test_a_bad_row_after_a_repeated_cell_is_named_first(tmp_path):
    path = tmp_path / "baselines.csv"
    path.write_text("year,category,median,mean,count\n2004,A,0.0,0.0,1\n2004,A,1,1,1\n2005,B,1,x,1\n")
    with pytest.raises(ValueError) as info:
        read_baselines(path)
    assert str(info.value) == "baselines row 3: 'mean' must be a number, got 'x'"


def test_every_missing_cell_is_reported_before_scoring():
    from rankmetrics import compute_indicators

    scientists = [{"scientist_id": "X", "sds_code": "S1", "uda_code": "U1", "rank": "FULL"}]
    cells = [(2004, "C1"), (2009, "C9"), (2004, "C3"), (2007, "C9"), (2005, "C2"),
             (2006, "C1"), (2008, "C1")]
    publications, authorships = [], []
    for i, (year, cat) in enumerate(cells, start=1):
        publications.append({"pub_id": f"P{i}", "year": year, "citation_count": i,
                             "subject_categories": f"{cat};C0", "author_count": 1})
        authorships.append({"pub_id": f"P{i}", "position": 1, "scientist_id": "X"})
    corpus = load_corpus(scientists, publications, authorships)
    full = build_baselines(corpus)
    kept = [c for c in full.cells if (c.year, c.category) in {(2004, "C1"), (2008, "C1")}
            or c.category == "C0"]
    with pytest.raises(MissingBaselineError) as info:
        compute_indicators(corpus, BaselineTable(kept))
    assert str(info.value) == (
        "no baseline cell for 5 (year, category) pairs: (2004, 'C3'), (2005, 'C2'), "
        "(2006, 'C1'), (2007, 'C9'), (2009, 'C9')"
    )
    with pytest.raises(MissingBaselineError, match=r"^no baseline cell for 1 \(year, category\) "
                                                   r"pair: \(2007, 'C9'\)$"):
        compute_indicators(corpus, BaselineTable(
            [c for c in full.cells if (c.year, c.category) != (2007, "C9")]))
    too_few = [c for c in full.cells if c.category == "C0"]
    with pytest.raises(MissingBaselineError, match=r"^no baseline cell for 7 .*\(2007, 'C9'\), \.\.\.$"):
        compute_indicators(corpus, BaselineTable(too_few))


@pytest.mark.parametrize("row, message", [
    ('{"year": 2005, "category": "B", "median": 1, "mean": 1, "count": 1.5}',
     "baselines row 2: 'count' must be an integer, got 1.5"),
    ('{"year": 2005.0, "category": "B", "median": 1, "mean": 1, "count": 1}',
     "baselines row 2: 'year' must be an integer, got 2005.0"),
    ('{"year": 2005, "category": "B", "median": true, "mean": 1, "count": 1}',
     "baselines row 2: 'median' must be a number, got True"),
    ('{"year": 2005, "median": 1, "mean": 1, "count": 1}', "baselines row 2: missing 'category'"),
])
def test_read_baselines_rejects_typed_json_rows(row, message, tmp_path):
    path = tmp_path / "baselines.jsonl"
    path.write_text(
        '{"year": 2004, "category": "A", "median": 0.0, "mean": 0.0, "count": 1}\n' + row + "\n"
    )
    with pytest.raises(ValueError) as info:
        read_baselines(path)
    assert str(info.value) == message


def test_read_baselines_strips_text(tmp_path):
    path = tmp_path / "baselines.csv"
    path.write_text("year,category,median,mean,count\n 2004 , C1 ,2.0,3.5, 4 \n")
    assert read_baselines(path).get(2004, "C1") == BaselineCell(2004, "C1", 2.0, 3.5, 4)
