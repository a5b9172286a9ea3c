"""The column-wise scoring path against a per-row reference.

The reference walks the row views of the corpus (publications, bylines and
each scientist's authorships as objects), one row at a time, the way the
indicators were first specified; the library must agree with it bitwise.
The SDS filter is checked against a direct load of the rows it keeps.
"""

import statistics
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from rankmetrics import (
    Indicator,
    build_baselines,
    coauthor_weights,
    compute_indicators,
    dominance_counts,
    filter_active_sds,
    load_corpus,
    top_distribution,
    top_scientists,
)
from rankmetrics.baseline import BaselineCell
from rankmetrics.indicators import IndicatorRecord
from rankmetrics.ranking import INDICATORS
from rankmetrics.synth import SynthConfig, generate
from rankmetrics.tables import build_chi_square_table, build_top_distribution_table

from conftest import authorships_by_pub, authorships_by_scientist, publications_by_id
from oracle import byline_case_flags, standardized_score


def reference_baselines(corpus) -> list[BaselineCell]:
    groups = defaultdict(list)
    for pub in corpus.publications:
        for cat in pub.subject_categories:
            groups[(pub.year, cat)].append(pub.citation_count)
    return [
        BaselineCell(year, cat, float(statistics.median(counts)), statistics.fmean(counts), len(counts))
        for (year, cat), counts in sorted(groups.items())
    ]


def reference_indicators(corpus, baselines, positional_udas=()) -> dict[str, IndicatorRecord]:
    records = {}
    by_scientist = authorships_by_scientist(corpus)
    by_id, bylines = publications_by_id(corpus), authorships_by_pub(corpus)
    for sci in corpus.scientists:
        rows = by_scientist.get(sci.scientist_id, ())
        if not rows:
            records[sci.scientist_id] = IndicatorRecord(sci.scientist_id, 0, None, 0.0)
            continue
        positional = sci.uda_code in positional_udas
        score_sum = 0.0
        fss = 0.0
        for auth in rows:
            pub = by_id[auth.pub_id]
            score = standardized_score(pub.year, pub.citation_count, pub.subject_categories, baselines)
            byline = bylines[auth.pub_id]
            n = len(byline)
            if positional and n > 1:
                same, differ = byline_case_flags([a.affiliation_id for a in byline])
                weights = coauthor_weights(n, first_last_same=same, boundary_pairs_differ=differ)
            else:
                weights = [1.0 / n] * n
            score_sum += score
            fss += score * weights[auth.position - 1]
        records[sci.scientist_id] = IndicatorRecord(
            sci.scientist_id, len(rows), score_sum / len(rows), fss
        )
    return records


def _bits(records) -> list[tuple]:
    """Records with floats as their exact hex form, so == means bitwise equal."""
    return [
        (r.scientist_id, r.n_p, None if r.qi is None else r.qi.hex(), r.fss.hex())
        for r in records
    ]


def _rows(corpus) -> tuple[list[dict], list[dict], list[dict]]:
    scientists = [
        {"scientist_id": s.scientist_id, "sds_code": s.sds_code, "uda_code": s.uda_code,
         "rank": s.rank.value, "birth_year": s.birth_year}
        for s in corpus.scientists
    ]
    publications = [
        {"pub_id": p.pub_id, "year": p.year, "citation_count": p.citation_count,
         "subject_categories": list(p.subject_categories), "author_count": p.author_count}
        for p in corpus.publications
    ]
    authorships = [
        {"pub_id": a.pub_id, "position": a.position, "scientist_id": a.scientist_id,
         "affiliation_id": a.affiliation_id}
        for a in corpus.authorships
    ]
    return scientists, publications, authorships


@pytest.fixture(scope="module", params=[
    (seed, categories) for categories in (1, 2, 3) for seed in (3, 404, 1811)
], ids=lambda param: f"{param[0]}-{param[1]}cat")
def corpus(request):
    seed, categories = request.param
    return generate(SynthConfig(seed=seed, n_uda=4, sds_per_uda=2, categories_per_pub=categories))


@pytest.mark.parametrize("udas", ["none", "two", "all"])
def test_indicators_match_per_row_reference(corpus, udas):
    positional = {"none": (), "two": ("UDA01", "UDA03"), "all": corpus.udas}[udas]
    baselines = build_baselines(corpus)
    assert baselines.cells == tuple(reference_baselines(corpus))
    expected = reference_indicators(corpus, baselines, positional)
    actual = compute_indicators(corpus, baselines, positional)
    assert _bits(actual) == _bits(expected.values())


def _hand_built_corpus():
    """Cells no generated corpus has: (2020, ZOO) with a zero median and a
    positive mean, the all-zero (1990, MID), and (1990, ALG), even-sized with
    a middle pair near 2**62 whose int64 sum would overflow; the years 1990
    and 2020 only, and categories first seen in the order ZOO, MID, ALG."""
    big = 2**62
    publications = [
        ("p1", 2020, 0, ["ZOO"]),
        ("p2", 2020, 0, ["ZOO", "MID"]),
        ("p3", 2020, 9, ["ZOO", "MID", "ALG"]),
        ("p4", 1990, 0, ["MID"]),
        ("p5", 1990, 0, ["MID", "ALG", "ZOO"]),
        ("p6", 1990, big + 1, ["ALG"]),
        ("p7", 1990, big + 3, ["ALG", "ZOO"]),
        ("p8", 1990, 2**63 - 1, ["ALG", "ZOO"]),
        ("p9", 2020, 7, ["ALG"]),
    ]
    scientists = [
        {"scientist_id": sid, "sds_code": sds, "uda_code": "U1", "rank": "FULL"}
        for sid, sds in (("A", "S1"), ("B", "S1"), ("C", "S2"), ("idle", "S2"))
    ]
    bylines = {"p1": ["A"], "p2": ["B", None], "p3": ["A", "B", "C"], "p4": [None, "C"],
               "p5": ["C"], "p6": ["A", None, "B"], "p7": ["B"], "p8": ["C", "A"], "p9": [None]}
    authorships = [
        {"pub_id": pub_id, "position": position, "scientist_id": sid,
         "affiliation_id": "I1" if position in (1, len(byline)) else "I2"}
        for pub_id, byline in bylines.items()
        for position, sid in enumerate(byline, start=1)
    ]
    return load_corpus(scientists, [
        {"pub_id": pub_id, "year": year, "citation_count": citations,
         "subject_categories": cats, "author_count": len(bylines[pub_id])}
        for pub_id, year, citations, cats in publications
    ], authorships)


@pytest.mark.parametrize("positional", [(), ("U1",)])
def test_hand_built_cells_match_per_row_reference(positional):
    corpus = _hand_built_corpus()
    baselines = build_baselines(corpus)
    assert baselines.cells == tuple(reference_baselines(corpus))
    cell = baselines.get(2020, "ZOO")
    assert (cell.median_citations, cell.mean_citations) == (0.0, 3.0)
    assert baselines.get(1990, "MID")[2:4] == (0.0, 0.0)
    assert baselines.get(1990, "ALG").median_citations == (2**62 + 1 + 2**62 + 3) / 2
    expected = reference_indicators(corpus, baselines, positional)
    actual = compute_indicators(corpus, baselines, positional)
    assert _bits(actual) == _bits(expected.values())
    assert expected["idle"] == ("idle", 0, None, 0.0)


def _filtered_and_direct(corpus, threshold):
    """The filtered corpus, and the corpus loaded from the rows the filter
    keeps: the scientists of retained SDSs, every publication with a
    retained or no roster author, and their bylines with removed
    scientists turned external."""
    filtered = filter_active_sds(corpus, threshold)
    dropped = set(corpus.sds_codes) - set(filtered.sds_codes)
    scientists, publications, authorships = _rows(corpus)
    kept_ids = {s["scientist_id"] for s in scientists if s["sds_code"] not in dropped}
    roster = defaultdict(list)
    for a in authorships:
        if a["scientist_id"] is not None:
            roster[a["pub_id"]].append(a["scientist_id"])
    kept_pubs = {
        p["pub_id"] for p in publications
        if not roster[p["pub_id"]] or any(sid in kept_ids for sid in roster[p["pub_id"]])
    }
    direct = load_corpus(
        [s for s in scientists if s["scientist_id"] in kept_ids],
        [p for p in publications if p["pub_id"] in kept_pubs],
        [
            dict(a, scientist_id=a["scientist_id"] if a["scientist_id"] in kept_ids else None)
            for a in authorships
            if a["pub_id"] in kept_pubs
        ],
    )
    return filtered, direct


def _assert_same_corpus(filtered, direct):
    assert filtered.scientists == direct.scientists
    assert filtered.publications == direct.publications
    assert filtered.authorships == direct.authorships
    # the roster columns, recoded over the fields and disciplines kept
    assert filtered.sds_codes == direct.sds_codes
    assert filtered.udas == direct.udas
    for column in ("scientist_sds", "sds_uda", "scientist_rank"):
        assert getattr(filtered, column).tolist() == getattr(direct, column).tolist(), column
    assert filtered.scientist_birth_year == direct.scientist_birth_year
    assert authorships_by_pub(filtered) == authorships_by_pub(direct)
    assert authorships_by_scientist(filtered) == authorships_by_scientist(direct)


def test_filtered_corpus_equals_corpus_loaded_from_surviving_rows(corpus):
    # the SDS with the lowest publishing fraction falls just under the threshold
    publishing = authorships_by_scientist(corpus)
    groups = defaultdict(list)
    for sci in corpus.scientists:
        groups[sci.sds_code].append(sci.scientist_id in publishing)
    threshold = min(sum(group) / len(group) for group in groups.values()) + 1e-9
    filtered, direct = _filtered_and_direct(corpus, threshold)
    assert len(filtered.sds_codes) < len(corpus.sds_codes)
    _assert_same_corpus(filtered, direct)
    baselines = build_baselines(filtered)
    assert baselines.cells == build_baselines(direct).cells
    for positional in ((), filtered.udas):
        assert _bits(compute_indicators(filtered, baselines, positional)) == _bits(
            compute_indicators(direct, baselines, positional)
        )
        assert _bits(compute_indicators(filtered, baselines, positional)) == _bits(
            reference_indicators(filtered, baselines, positional).values()
        )


def test_filter_dropping_a_whole_uda_drops_its_rows(corpus):
    # unlink every UDA02 scientist from their bylines: both of its SDSs fall
    # to no publishing scientist, and the other fields stay well above half
    scientists, publications, authorships = _rows(corpus)
    silent = {s["scientist_id"] for s in scientists if s["uda_code"] == "UDA02"}
    unlinked = load_corpus(scientists, publications, [
        dict(a, scientist_id=None) if a["scientist_id"] in silent else a for a in authorships
    ])
    filtered, direct = _filtered_and_direct(unlinked, 0.5)
    assert "UDA02" in unlinked.udas
    assert filtered.udas == tuple(uda for uda in unlinked.udas if uda != "UDA02")
    assert filtered.sds_codes == tuple(s for s in unlinked.sds_codes if not s.startswith("UDA02"))
    _assert_same_corpus(filtered, direct)

    records = compute_indicators(filtered, build_baselines(filtered))
    direct_records = compute_indicators(direct, build_baselines(direct))
    for indicator in INDICATORS:
        assert dominance_counts(records, filtered, indicator).excluded_sds == dominance_counts(
            direct_records, direct, indicator
        ).excluded_sds
    dist = top_distribution(top_scientists(records, Indicator.FSS, filtered), filtered)
    assert dist.udas == filtered.udas
    assert [uda for uda in dist.udas if dist.chi_square(uda) is not None] == list(filtered.udas)
    for table in (build_top_distribution_table(dist), build_chi_square_table(dist)):
        assert [row[0] for row in table.rows[:-1]] == list(filtered.udas)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(["U1", "U2", "U3", None]), min_size=1, max_size=6),
            st.integers(0, 5),
            st.integers(0, 20),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_positional_weights_match_reference_on_any_byline(pubs):
    """Every byline pattern, including short and partly unaffiliated ones."""
    scientists = [
        {"scientist_id": f"S{i}", "sds_code": "F", "uda_code": "U", "rank": "FULL"}
        for i in range(1, 7)
    ]
    publications, authorships = [], []
    for p, (affiliations, author, citations) in enumerate(pubs):
        n = len(affiliations)
        publications.append({"pub_id": f"P{p}", "year": 2005, "citation_count": citations,
                             "subject_categories": "C", "author_count": n})
        for pos, affiliation in enumerate(affiliations, start=1):
            authorships.append({
                "pub_id": f"P{p}", "position": pos, "affiliation_id": affiliation,
                # roster authors at the chosen position and, on long bylines, the last
                "scientist_id": f"S{pos}" if pos in (author % n + 1, max(n, 4)) else None,
            })
    corpus = load_corpus(scientists, publications, authorships)
    baselines = build_baselines(corpus)
    assert _bits(compute_indicators(corpus, baselines, ["U"])) == _bits(
        reference_indicators(corpus, baselines, ["U"]).values()
    )
