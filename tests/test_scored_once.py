"""Score once per baseline table, count activity from columns, sum short
ratio blocks exactly: each result stays that of a fresh computation, bit for
bit."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankmetrics import (
    BaselineTable,
    Indicator,
    MissingBaselineError,
    Rank,
    activity_rates,
    build_baselines,
    compute_indicators,
    concentration_rows,
    dominance_counts,
    filter_active_sds,
    roster_summary,
    sds_percentiles,
    top_distribution,
    top_scientists,
    uda_rank_average,
)
from rankmetrics import analysis, indicators
from rankmetrics.corpus import fsum_rows
from rankmetrics.indicators import require_baselines
from rankmetrics.ranking import INDICATORS
from rankmetrics.synth import SynthConfig, generate
from rankmetrics.tables import (
    build_activity_table,
    build_age_table,
    build_chi_square_table,
    build_concentration_table,
    build_dominance_table,
    build_percentile_table,
    build_roster_table,
    build_top_distribution_table,
    format_table,
)

TOP_FRACTIONS = (0.05, 0.1, 0.2, 0.3)


@pytest.fixture(scope="module")
def corpus_1x():
    return generate(SynthConfig(seed=3))


def _count_scoring(monkeypatch) -> list:
    builds = []
    score = indicators._publication_scores

    def counted(corpus, baselines):
        builds.append(corpus)
        return score(corpus, baselines)

    monkeypatch.setattr(indicators, "_publication_scores", counted)
    return builds


def _sweep_text(corpus, table, activity, top) -> str:
    """The formatted tables of one configuration of the benchmark's sweep."""
    summary = roster_summary(corpus)
    averages = [uda_rank_average(sds_percentiles(table, i, corpus), corpus) for i in INDICATORS]
    dominance = {i: dominance_counts(table, corpus, i, Rank.FULL, Rank.ASSISTANT) for i in INDICATORS}
    dist = top_distribution(top_scientists(table, Indicator.FSS, corpus, top), corpus, Indicator.FSS)
    built = [
        build_roster_table(summary),
        build_age_table(summary),
        build_activity_table(activity, "publication"),
        build_activity_table(activity, "citation"),
        *map(build_percentile_table, averages),
        build_dominance_table(dominance),
        build_concentration_table(concentration_rows(table, corpus, Indicator.FSS, 0.4, top)),
        build_top_distribution_table(dist),
        build_chi_square_table(dist),
    ]
    # repr tells -0.0 from 0.0
    return "".join(format_table(t, "text") for t in built) + repr([t.rows for t in built])


def test_sweep_on_one_baseline_table_matches_fresh_runs(corpus_1x, monkeypatch):
    builds = _count_scoring(monkeypatch)
    baselines = build_baselines(corpus_1x)
    for udas in ((), corpus_1x.udas):
        table = compute_indicators(corpus_1x, baselines, udas)
        activity = activity_rates(corpus_1x, table)
        for top in TOP_FRACTIONS:
            fresh = compute_indicators(corpus_1x, build_baselines(corpus_1x), udas)
            fresh_activity = activity_rates(corpus_1x, fresh)
            assert _sweep_text(corpus_1x, table, activity, top) == _sweep_text(
                corpus_1x, fresh, fresh_activity, top
            )
    # one scoring for both weighting sets on the shared table, one per fresh table
    assert len(builds) == 1 + 2 * len(TOP_FRACTIONS)


def _read_only(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        array[:1] = 0


def test_a_baseline_table_scores_a_corpus_once(corpus_1x, monkeypatch):
    builds = _count_scoring(monkeypatch)
    baselines = build_baselines(corpus_1x)
    scores = require_baselines(corpus_1x, baselines)
    _read_only(scores)
    table = compute_indicators(corpus_1x, baselines, corpus_1x.udas)
    assert require_baselines(corpus_1x, baselines) is scores
    assert len(builds) == 1
    fresh = compute_indicators(corpus_1x, build_baselines(corpus_1x), corpus_1x.udas)
    for name in ("n_p", "qi", "fss"):
        assert getattr(table, name).tobytes() == getattr(fresh, name).tobytes()
    # another corpus under the same table scores again, and the new scores are kept
    other = filter_active_sds(corpus_1x, 0.9)
    assert require_baselines(other, baselines) is not scores
    assert len(builds) == 3


def test_a_baseline_table_never_keeps_its_corpus_alive():
    gc.disable()
    try:
        corpus = generate(SynthConfig(seed=5, n_uda=2, sds_per_uda=2))
        baselines = build_baselines(corpus)
        compute_indicators(corpus, baselines)
        ref = weakref.ref(corpus)
        del corpus
        assert ref() is None
        assert len(baselines)
    finally:
        gc.enable()


def test_a_scoring_that_raises_keeps_nothing(corpus_1x, monkeypatch):
    builds = _count_scoring(monkeypatch)
    cells = build_baselines(corpus_1x).cells
    partial = BaselineTable(cells[1:])
    for _ in range(2):
        with pytest.raises(MissingBaselineError, match="no baseline cell for 1"):
            compute_indicators(corpus_1x, partial)
        with pytest.raises(MissingBaselineError, match="no baseline cell for 1"):
            require_baselines(corpus_1x, partial)
    assert len(builds) == 4
    assert partial._scores == (None, None)


def test_the_table_reads_rows_on_demand(corpus_1x):
    table = compute_indicators(corpus_1x, build_baselines(corpus_1x))
    records = list(table)
    assert table.values() is table
    assert len(table) == len(records) == len(corpus_1x.scientist_ids)
    assert table == tuple(records) and tuple(records) == table
    assert table != tuple(records[:-1]) and table != tuple(records[::-1])
    assert table[-1] == records[-1] and table[-len(table)] == records[0]
    assert table[3:9] == records[3:9] and table[::-7] == records[::-7]
    assert list(reversed(table)) == records[::-1]
    assert table[corpus_1x.scientist_index[records[5].scientist_id]] == records[5]
    with pytest.raises(IndexError):
        table[len(table)]
    with pytest.raises(TypeError):
        table[0] = records[1]
    with pytest.raises(TypeError):
        del table[0]
    assert not hasattr(table, "sort")


def test_activity_reads_only_a_table(corpus_1x):
    table = compute_indicators(corpus_1x, build_baselines(corpus_1x), corpus_1x.udas)
    expected = activity_rates(corpus_1x, table).cells
    assert any(cell.citation_active < cell.headcount for cell in expected.values())
    # records are not placed by id: a list of them raises, as in the rankings and analyses
    for consume in (
        lambda t: activity_rates(corpus_1x, t),
        lambda t: sds_percentiles(t, Indicator.FSS, corpus_1x),
        lambda t: top_scientists(t, Indicator.FSS, corpus_1x),
        lambda t: dominance_counts(t, corpus_1x, Indicator.FSS),
        lambda t: concentration_rows(t, corpus_1x),
    ):
        with pytest.raises(TypeError, match="^expected IndicatorTable, got list$"):
            consume(list(table))
    flags = top_scientists(table, Indicator.FSS, corpus_1x)
    with pytest.raises(TypeError, match="^expected TopFlagColumn, got list$"):
        top_distribution(list(flags), corpus_1x)
    with pytest.raises(TypeError, match="^expected PercentileColumn, got TopFlagColumn$"):
        uda_rank_average(flags, corpus_1x)


def test_activity_of_a_view_of_another_corpus_raises_as_other_consumers_do(corpus_1x):
    filtered = filter_active_sds(corpus_1x, 0.9)
    assert filtered is not corpus_1x
    table = compute_indicators(corpus_1x, build_baselines(corpus_1x))
    with pytest.raises(ValueError, match="IndicatorTable is bound to another corpus") as expected:
        sds_percentiles(table, Indicator.FSS, filtered)
    with pytest.raises(ValueError) as got:
        activity_rates(filtered, table)
    assert str(got.value) == str(expected.value)


def _fsum_ratios(lengths, count, bottom_fraction, top_fraction):
    """``analysis._ratios`` with every block sum a ``math.fsum`` of its row."""
    ratio = np.empty(count)
    for idx, xs in lengths:
        n = xs.shape[1]
        k_top = max(1, math.floor(top_fraction * n))
        k_bottom = max(1, math.floor(bottom_fraction * n))
        top = np.array([math.fsum(r) for r in xs[:, n - k_top:].tolist()]) / k_top
        bottom = np.array([math.fsum(r) for r in xs[:, :k_bottom].tolist()]) / k_bottom
        ratio[idx] = np.divide(bottom, top, out=np.full(len(idx), np.nan), where=top != 0.0)
    return ratio


EDGE_VALUES = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1.0, 8.9e307, 1.6e308, 1.7e308, 1.7976931348623157e308]
VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(min_value=0.0, max_value=2.3e-308),
    st.floats(min_value=1e307, allow_infinity=False),
    st.floats(min_value=0.0, allow_infinity=False),
)


@st.composite
def short_blocks(draw):
    """Blocks of 1 to 5 members, so that fractions up to 0.5 take 1 or 2 of
    them, whose ``n * sum`` is finite, as the kernel requires."""
    lengths, count = [], 0
    for n in draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True)):
        rows = draw(st.integers(1, 4))
        xs = np.array(draw(st.lists(st.lists(VALUES, min_size=n, max_size=n), min_size=rows, max_size=rows)))
        with np.errstate(over="ignore"):
            xs = xs[np.isfinite(n * xs.sum(axis=1))]
        if len(xs):
            lengths.append((np.arange(count, count + len(xs)), xs))
            count += len(xs)
    return tuple(lengths), count


@settings(max_examples=300, deadline=None)
@given(short_blocks(), st.sampled_from([(0.4, 0.2), (0.4, 0.4), (0.5, 0.5), (0.2, 0.5)]))
def test_short_block_sums_match_fsum(blocks, fractions):
    lengths, count = blocks
    with np.errstate(all="ignore"):  # a ratio of a huge and a tiny sum overflows alike
        expected = _fsum_ratios(lengths, count, *fractions)
        got = analysis._ratios(lengths, count, *fractions)
    assert got.tobytes() == expected.tobytes()


def test_short_block_sums_keep_fsum_signs():
    # a block whose n * sum overflows never reaches the sums: concentration_rows rejects it
    for row, expected in (([-0.0], "0.0"), ([-0.0, -0.0], "0.0"), ([5e-324, 5e-324], "1e-323"),
                          ([1.7e308], "1.7e+308"), ([4.4e307, 4.4e307], "8.8e+307")):
        assert repr(fsum_rows(np.array([row]), len(row)).tolist()[0]) == expected == repr(math.fsum(row))
    # one count per row, slots past it unread, as for publications of one to three categories
    m = np.array([[1e16, 1.0, -1e16], [0.1, 0.2, 7.0], [0.3, 5.0, 7.0]])
    assert fsum_rows(m, np.array([3, 2, 1])).tolist() == [1.0, 0.1 + 0.2, 0.3]
