"""Percentile ranking within fields, group averages, top-scientist flags."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankmetrics import (
    RANKS,
    Indicator,
    IndicatorRecord,
    Rank,
    build_baselines,
    compute_indicators,
    concentration_rows,
    dominance_counts,
    filter_active_sds,
    midranks,
    sds_percentiles,
    top_distribution,
    top_scientists,
    uda_rank_average,
    write_top_flags,
)
from rankmetrics import ranking
from rankmetrics.corpus import stable_order
from rankmetrics.ranking import INDICATORS, sds_ranking

from conftest import indicator_table, single_author_corpus


def _corpus_for(values_by_id, sds="S1", uda="U1", rank="FULL"):
    entries = [(sid, sds, uda, rank, []) for sid in values_by_id]
    return single_author_corpus(entries)


def _pcts(values, indicator=Indicator.FSS):
    ids = {f"x{i}": v for i, v in enumerate(values)}
    corpus = _corpus_for(ids)
    recs = indicator_table(corpus, [IndicatorRecord(sid, 1, 1.0, v) for sid, v in ids.items()])
    out = sds_percentiles(recs, indicator, corpus)
    return {p.scientist_id: p.percentile for p in out}


def test_three_distinct_values():
    pcts = _pcts([1.0, 2.0, 3.0])
    assert pcts == {"x0": 0.0, "x1": 50.0, "x2": 100.0}


def test_two_way_tie_gets_midrank():
    pcts = _pcts([5.0, 5.0])
    assert pcts == {"x0": 50.0, "x1": 50.0}


def test_singleton_sds_scores_100():
    assert _pcts([7.0]) == {"x0": 100.0}


def test_qi_excludes_inactive():
    ids = {"a": 2.0, "b": 1.0, "idle": 0.0}
    corpus = _corpus_for(ids)
    recs = indicator_table(corpus, [
        IndicatorRecord("a", 1, 2.0, 2.0),
        IndicatorRecord("b", 1, 1.0, 1.0),
        IndicatorRecord("idle", 0, None, 0.0),
    ])
    qi = sds_percentiles(recs, Indicator.QI, corpus)
    assert {p.scientist_id for p in qi} == {"a", "b"}
    fss = sds_percentiles(recs, Indicator.FSS, corpus)
    assert {p.scientist_id for p in fss} == {"a", "b", "idle"}
    np_ = {p.scientist_id: p.percentile for p in sds_percentiles(recs, Indicator.NP, corpus)}
    assert np_["idle"] == 0.0


@settings(max_examples=200)
@given(st.lists(st.integers(0, 8), min_size=2, max_size=60))
def test_percentile_mean_is_50(values):
    pcts = list(_pcts([float(v) for v in values]).values())
    assert np.mean(pcts) == pytest.approx(50.0, abs=1e-9)
    assert min(pcts) >= 0.0 and max(pcts) <= 100.0


@settings(max_examples=100)
@given(st.lists(st.integers(0, 30), min_size=2, max_size=40, unique=True))
def test_percentiles_invariant_under_monotone_transform(values):
    raw = _pcts([float(v) for v in values])
    transformed = _pcts([float(v) ** 3 + 2.5 for v in values])
    for key in raw:
        assert raw[key] == pytest.approx(transformed[key], abs=1e-9)


def test_midranks_match_naive():
    rng = np.random.default_rng(5)
    for _ in range(50):
        values = rng.integers(0, 6, size=rng.integers(1, 40)).astype(float)
        got = midranks(values)
        order = np.argsort(values, kind="stable")
        naive = np.empty(len(values))
        naive[order] = np.arange(1, len(values) + 1, dtype=float)
        for v in set(values.tolist()):
            mask = values == v
            naive[mask] = naive[mask].mean()
        assert np.allclose(got, naive)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_group_and_value_order_is_the_lexsort_order(data):
    # group codes spanning fewer and more than the 2**16 values of a radix sort
    n_groups = data.draw(st.sampled_from([1, 3, 2**16 - 1, 2**16, 2**16 + 1, 100_000]))
    n = data.draw(st.integers(0, 40))
    codes = st.sampled_from([0, n_groups // 2, n_groups - 1]) | st.integers(0, n_groups - 1)
    groups = np.array(data.draw(st.lists(codes, min_size=n, max_size=n)), dtype=np.int64)
    values = np.array(data.draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 1e300]), min_size=n, max_size=n)))
    assert stable_order(groups, values).tolist() == np.lexsort((values, groups)).tolist()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_stable_order_is_the_lexsort_order(data):
    low, high = data.draw(st.sampled_from([(0, 3), (-3, 2**16 - 4), (0, 2**16), (-2**63, 2**63 - 1)]))
    n = data.draw(st.integers(1, 40))
    ends = st.sampled_from([low, high]) | st.integers(low, high)
    keys = [np.array(data.draw(st.lists(ends, min_size=n, max_size=n)), dtype=np.int64)
            for _ in range(data.draw(st.integers(1, 3)))]
    assert stable_order(*keys).tolist() == np.lexsort(keys[::-1]).tolist()


# ---------------------------------------------------------------------------
# UDA x rank averages

def test_uda_rank_average_simple():
    entries = [
        ("f1", "S1", "U1", "FULL", []),
        ("f2", "S1", "U1", "FULL", []),
        ("a1", "S1", "U1", "ASSISTANT", []),
    ]
    corpus = single_author_corpus(entries)
    recs = indicator_table(corpus, [
        IndicatorRecord("f1", 1, 1.0, 3.0),
        IndicatorRecord("f2", 1, 1.0, 1.0),
        IndicatorRecord("a1", 1, 1.0, 2.0),
    ])
    pcts = sds_percentiles(recs, Indicator.FSS, corpus)
    table = uda_rank_average(pcts, corpus)
    assert table.mean("U1", Rank.FULL) == pytest.approx(50.0)  # percentiles 100 and 0
    assert table.mean("U1", Rank.ASSISTANT) == pytest.approx(50.0)
    assert table.mean() == pytest.approx(50.0)
    assert table.cell("U1", Rank.FULL).count == 2


def test_repeated_record_is_rejected():
    corpus = _corpus_for({"a": 1.0, "b": 2.0})
    records = [IndicatorRecord("a", 1, 1.0, 1.0), IndicatorRecord("b", 1, 2.0, 2.0),
               IndicatorRecord("a", 1, 5.0, 5.0)]
    with pytest.raises(ValueError, match="repeated indicator record for scientist 'a'"):
        indicator_table(corpus, records)
    with pytest.raises(ValueError, match="repeated indicator record for scientist 'a'"):
        corpus.rows_of(["b", "a", "ghost", "a"])


def test_columns_read_as_records():
    corpus = single_author_corpus([
        ("b", "S2", "U1", "ASSISTANT", []), ("a", "S1", "U1", "FULL", []), ("c", "S1", "U1", "FULL", []),
    ])
    recs = indicator_table(corpus, [IndicatorRecord(sid, 1, 1.0, v) for sid, v in
                                    (("c", 1.0), ("a", 3.0), ("b", 2.0))])
    pcts = sds_percentiles(recs, Indicator.FSS, corpus)
    # by SDS code, then by corpus row
    expected = [("a", Indicator.FSS, 100.0, "S1", Rank.FULL), ("c", Indicator.FSS, 0.0, "S1", Rank.FULL),
                ("b", Indicator.FSS, 100.0, "S2", Rank.ASSISTANT)]
    assert list(pcts) == expected and len(pcts) == 3
    assert (pcts[0], pcts[-1], pcts[1:]) == (expected[0], expected[-1], expected[1:])
    with pytest.raises(IndexError):
        pcts[3]
    flags = top_scientists(recs, Indicator.FSS, corpus, 0.5)
    assert list(flags) == [("a", Indicator.FSS, True), ("c", Indicator.FSS, False), ("b", Indicator.FSS, True)]
    assert flags.is_top.tolist() == [True, False, True]


def _three_rank_table():
    """Two SDSs with members of every rank, values with ties; one idle scientist."""
    ranks = ("FULL", "ASSOCIATE", "ASSISTANT")
    entries = [(f"s{i}", f"S{i % 2 + 1}", "U1", ranks[i % 3], []) for i in range(12)]
    corpus = single_author_corpus(entries)
    records = [IndicatorRecord(sid, i % 4, None if i == 5 else float(i % 5), float(i % 3))
               for i, (sid, *_) in enumerate(entries)]
    return corpus, indicator_table(corpus, records)


def test_ranked_columns_index_like_lists():
    corpus, table = _three_rank_table()
    for column in (sds_percentiles(table, Indicator.QI, corpus),
                   top_scientists(table, Indicator.FSS, corpus, 0.3)):
        records = list(column)
        n = len(column)
        assert len(records) == n == len(column.rows)
        for i in (0, 3, n - 1, -1, -n):
            assert column[i] == records[i]
        for part in (slice(2, 5), slice(None, None, -1), slice(1, None, 3), slice(-3, None), slice(n, None)):
            assert column[part] == records[part]
        for i in (n, -n - 1, 10**6):
            with pytest.raises(IndexError):
                column[i]
        assert list(reversed(column)) == records[::-1]


def test_each_indicator_is_sorted_once_per_table(monkeypatch):
    sorts = []

    def counted(*args):
        sorts.append(args)
        return stable_order(*args)

    # two sorts per ranking: by (SDS, value), and by SDS for the output order
    monkeypatch.setattr(ranking, "stable_order", counted)
    corpus, table = _three_rank_table()
    for indicator in INDICATORS:
        sds_percentiles(table, indicator, corpus)
    top_scientists(table, Indicator.FSS, corpus, 0.2)
    for indicator in INDICATORS:
        dominance_counts(table, corpus, indicator)
    assert len(sorts) == 6
    # a new table of the same columns sorts again
    dominance_counts(indicator_table(corpus, table.values()), corpus, Indicator.FSS)
    assert len(sorts) == 8


def test_cached_ranking_is_read_only():
    corpus, table = _three_rank_table()
    for indicator in INDICATORS:
        ranked = sds_ranking(table, indicator, corpus)
        assert sds_ranking(table, indicator, corpus) is ranked
        for array in ranked:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0
    # the corpus and table columns it was taken from stay writeable
    assert corpus.scientist_sds.flags.writeable and table.fss.flags.writeable


def test_dominance_of_a_rank_over_itself_is_rejected():
    corpus, table = _three_rank_table()
    for rank in RANKS:
        with pytest.raises(ValueError, match=f"two different rank groups, got {rank.value} twice"):
            dominance_counts(table, corpus, Indicator.FSS, rank, rank)


def test_columns_of_another_corpus_are_rejected():
    corpus = single_author_corpus([
        ("a", "S1", "U1", "FULL", [3]), ("b", "S1", "U1", "ASSISTANT", [1]), ("idle", "S2", "U1", "FULL", []),
    ])
    filtered = filter_active_sds(corpus, 0.5)
    assert filtered.scientist_ids == ["a", "b"]
    unfiltered = compute_indicators(corpus, build_baselines(corpus))
    # a ranking kept with the table does not bind it to another corpus
    sds_percentiles(unfiltered, Indicator.FSS, corpus)
    for rank in (sds_percentiles, top_scientists):
        with pytest.raises(ValueError, match="IndicatorTable is bound to another corpus"):
            rank(unfiltered, Indicator.FSS, filtered)
    for analyze in (dominance_counts, concentration_rows):
        with pytest.raises(ValueError, match="IndicatorTable is bound to another corpus"):
            analyze(unfiltered, filtered, Indicator.FSS)
    table = compute_indicators(filtered, build_baselines(filtered))
    with pytest.raises(ValueError, match="PercentileColumn is bound to another corpus"):
        uda_rank_average(sds_percentiles(table, Indicator.FSS, filtered), corpus)
    with pytest.raises(ValueError, match="TopFlagColumn is bound to another corpus"):
        top_distribution(top_scientists(table, Indicator.FSS, filtered), corpus, Indicator.FSS)


# ---------------------------------------------------------------------------
# Top scientists

def _flags(values, fraction=0.2):
    ids = {f"x{i}": v for i, v in enumerate(values)}
    corpus = _corpus_for(ids)
    recs = indicator_table(corpus, [IndicatorRecord(sid, 1, v, v) for sid, v in ids.items()])
    flags = top_scientists(recs, Indicator.FSS, corpus, fraction)
    return {f.scientist_id: f.is_top for f in flags}


def test_top_ten_distinct_flags_two():
    flags = _flags([float(i) for i in range(10)])
    assert sum(flags.values()) == 2
    assert flags["x9"] and flags["x8"]


def test_top_small_group_flags_one():
    flags = _flags([1.0, 2.0, 3.0])
    assert sum(flags.values()) == 1
    assert flags["x2"]


def test_top_boundary_cutoff_distinct():
    flags = _flags([9.0, 7.0, 7.0, 1.0, 0.0])
    assert sum(flags.values()) == 1
    assert flags["x0"]


def test_top_boundary_ties_included():
    flags = _flags([9.0, 9.0, 7.0, 1.0, 0.0])
    assert sum(flags.values()) == 2


def test_top_fraction_validated():
    with pytest.raises(ValueError):
        _flags([1.0, 2.0], fraction=1.0)


def test_top_count_lower_bound_property():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        values = rng.integers(0, 10, size=n).astype(float).tolist()
        flags = _flags(values)
        k = max(1, int(0.2 * n))
        flagged = sum(flags.values())
        assert flagged >= k
        # any excess over k is a boundary tie
        cutoff = sorted(values, reverse=True)[k - 1]
        assert flagged == sum(1 for v in values if v >= cutoff)


# ---------------------------------------------------------------------------
# Exports

def test_top_flags_export(tmp_path):
    ids = {"a": 1.0, "b": 2.0}
    corpus = _corpus_for(ids)
    recs = indicator_table(corpus, [IndicatorRecord(sid, 1, v, v) for sid, v in ids.items()])
    flags = top_scientists(recs, Indicator.FSS, corpus, 0.5)
    path = write_top_flags(flags, tmp_path / "flags.csv")
    text = path.read_text()
    assert "scientist_id,indicator,is_top" in text
    assert "b,fss,true" in text
    assert "a,fss,false" in text
