"""Derive once per table: what no top or bottom fraction changes is built once
per (IndicatorTable, indicator), kept with the table, read-only, and freed
with it; results stay those of a fresh table, bit for bit."""

import gc
import weakref

import numpy as np
import pytest

from rankmetrics import (
    Indicator,
    IndicatorTable,
    Rank,
    build_baselines,
    compute_indicators,
    concentration_rows,
    dominance_counts,
    sds_percentiles,
    top_distribution,
    top_scientists,
    uda_rank_average,
)
from rankmetrics import analysis
from rankmetrics.corpus import RANKS, Grid, dense_codes, stable_order
from rankmetrics.ranking import INDICATORS, MeanCell, sds_ranking
from rankmetrics.synth import SynthConfig, generate
from rankmetrics.tables import (
    build_chi_square_table,
    build_concentration_table,
    build_dominance_table,
    build_percentile_table,
    build_top_distribution_table,
    format_table,
)

TOP_FRACTIONS = (0.05, 0.1, 0.2, 0.3)


@pytest.fixture(scope="module")
def corpus_1x():
    corpus = generate(SynthConfig(seed=3))
    return corpus, build_baselines(corpus)


def _configuration(table, corpus, top):
    """The analysis tables of one sweep configuration, as text and as raw rows."""
    averages = [uda_rank_average(sds_percentiles(table, i, corpus), corpus) for i in INDICATORS]
    dominance = {i: dominance_counts(table, corpus, i, Rank.FULL, Rank.ASSISTANT) for i in INDICATORS}
    dist = top_distribution(top_scientists(table, Indicator.FSS, corpus, top), corpus, Indicator.FSS)
    built = [
        *map(build_percentile_table, averages),
        build_dominance_table(dominance),
        build_concentration_table(concentration_rows(table, corpus, Indicator.FSS, 0.4, top)),
        build_top_distribution_table(dist),
        build_chi_square_table(dist),
    ]
    # repr tells -0.0 from 0.0
    return "".join(format_table(t, "text") for t in built), repr([t.rows for t in built])


def test_sweep_on_one_table_matches_fresh_tables(corpus_1x):
    corpus, baselines = corpus_1x
    for udas in ((), corpus.udas):
        shared = compute_indicators(corpus, baselines, udas)
        for top in TOP_FRACTIONS:
            fresh = compute_indicators(corpus, baselines, udas)
            assert _configuration(shared, corpus, top) == _configuration(fresh, corpus, top)
        # once every configuration has filled the cache, the first one still reads the same
        first = _configuration(compute_indicators(corpus, baselines, udas), corpus, TOP_FRACTIONS[0])
        assert _configuration(shared, corpus, TOP_FRACTIONS[0]) == first


def _read_only(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        array[:1] = 0


def test_repeat_calls_return_the_same_read_only_objects(corpus_1x):
    corpus, baselines = corpus_1x
    table = compute_indicators(corpus, baselines)
    for indicator in INDICATORS:
        percentiles = sds_percentiles(table, indicator, corpus)
        assert sds_percentiles(table, indicator, corpus) is percentiles
        average = uda_rank_average(percentiles, corpus)
        assert uda_rank_average(percentiles, corpus) is average
        _read_only(percentiles.rows)
        _read_only(percentiles.percentile)
        _read_only(sds_ranking(table, indicator, corpus).percentile)
        with pytest.raises(TypeError):
            average.cells[next(iter(average.cells))] = MeanCell()

        counts = dominance_counts(table, corpus, indicator, Rank.FULL, Rank.ASSISTANT)
        assert dominance_counts(table, corpus, indicator, Rank.FULL, Rank.ASSISTANT) is counts
        assert dominance_counts(table, corpus, indicator, Rank.ASSISTANT, Rank.FULL) is not counts
        with pytest.raises(TypeError):
            counts.per_uda["U"] = (0, 0)
        assert isinstance(counts.sds_codes, tuple)
        for column in (counts.r_diff_a, counts.r_diff_b, counts.b_wins):
            _read_only(column)

        concentration_rows(table, corpus, indicator)
        lengths, *columns = table._derived[("concentration", indicator)]
        concentration_rows(table, corpus, indicator, 0.3, 0.1)
        assert table._derived[("concentration", indicator)][0] is lengths
        for idx, blocks in lengths:
            _read_only(idx)
            _read_only(blocks)
        for column in columns:  # each block's Gini, headcount, UDA and rank
            _read_only(column)


def test_concentration_sorts_its_blocks_once_per_table_and_indicator(corpus_1x, monkeypatch):
    corpus, baselines = corpus_1x
    sorts = []

    def counted(*args):
        sorts.append(args)
        return stable_order(*args)

    monkeypatch.setattr(analysis, "stable_order", counted)
    table = compute_indicators(corpus, baselines)
    for top in TOP_FRACTIONS:
        for indicator in (Indicator.FSS, Indicator.NP):
            concentration_rows(table, corpus, indicator, 0.4, top)
    assert len(sorts) == 2
    # a new table of the same columns sorts again
    concentration_rows(compute_indicators(corpus, baselines), corpus, Indicator.FSS)
    assert len(sorts) == 3


def test_checks_run_before_the_cache_is_read(corpus_1x):
    corpus, baselines = corpus_1x
    table = compute_indicators(corpus, baselines)
    percentiles = sds_percentiles(table, Indicator.FSS, corpus)
    _configuration(table, corpus, 0.2)
    other = generate(SynthConfig(seed=3))
    with pytest.raises(ValueError, match="fractions must be in"):
        concentration_rows(table, corpus, Indicator.FSS, 0.4, 1.5)
    with pytest.raises(ValueError, match="fraction must be in"):
        top_scientists(table, Indicator.FSS, corpus, 1.5)
    for call in (
        lambda: concentration_rows(table, other, Indicator.FSS),
        lambda: sds_percentiles(table, Indicator.FSS, other),
        lambda: uda_rank_average(percentiles, other),
        lambda: dominance_counts(table, other, Indicator.FSS),
        lambda: top_scientists(table, Indicator.FSS, other, 0.2),
    ):
        with pytest.raises(ValueError, match="bound to another corpus"):
            call()
    with pytest.raises(ValueError, match="two different rank groups"):
        dominance_counts(table, corpus, Indicator.FSS, Rank.FULL, Rank.FULL)


def test_a_nan_fss_table_raises_on_every_call(corpus_1x):
    corpus, baselines = corpus_1x
    good = compute_indicators(corpus, baselines)
    fss = good.fss.copy()
    fss[3] = np.nan
    table = IndicatorTable(corpus, good.n_p, good.qi, fss)
    for _ in range(2):
        with pytest.raises(ValueError, match="concentration_rows requires finite values"):
            concentration_rows(table, corpus, Indicator.FSS)
        sds_percentiles(table, Indicator.FSS, corpus)  # the ranking itself is kept
    assert ("concentration", Indicator.FSS) not in table._derived


def test_the_cache_holds_no_reference_to_its_table(corpus_1x):
    corpus, baselines = corpus_1x
    gc.disable()
    try:
        table = compute_indicators(corpus, baselines)
        kept = _configuration(table, corpus, 0.2)
        ref = weakref.ref(table)
        del table
        assert ref() is None
    finally:
        gc.enable()
    assert kept


def _loop_cell(grid, uda, rank):
    """Grid.cell as a loop over the cells in grid order."""
    total = grid.cell_type()
    for (u, r), c in grid.cells.items():
        if (uda is None or u == uda) and (rank is None or r == rank):
            total = grid.cell_type(*(a + b for a, b in zip(total, c)))
    return total


def test_pooled_grid_cells_keep_the_loop_bits():
    cells = {
        ("U2", Rank.FULL): MeanCell(-0.0, 1),
        ("U1", Rank.ASSISTANT): MeanCell(0.1, 2),
        ("U2", Rank.ASSISTANT): MeanCell(0.2, 1),
        ("U1", Rank.FULL): MeanCell(-0.0, 3),
        ("U2", Rank.ASSOCIATE): MeanCell(1e16, 1),
        ("U1", Rank.ASSOCIATE): MeanCell(1.0, 1),
    }
    grid = Grid(MeanCell, cells)
    for uda in (None, "U1", "U2", "U9"):
        for rank in (None, *RANKS):
            expected = _loop_cell(grid, uda, rank)
            got = grid.cell(uda, rank)
            assert type(got) is MeanCell
            assert (repr(got.total), got.count) == (repr(expected.total), expected.count)
    assert repr(grid.cell("U2", Rank.FULL).total) == "0.0"  # 0.0 + -0.0


@pytest.mark.parametrize("key", [
    [], [7], [2005, 2003, 2005, 2010, 2003], [-3, 5, -3, 0], [0, 2**40, 0], [2**62, -2**62],
])
def test_dense_codes_match_np_unique(key):
    key = np.array(key, dtype=np.int64)
    distinct, code = dense_codes(key)
    expected, inverse = np.unique(key, return_inverse=True)
    assert distinct.dtype == expected.dtype and distinct.tolist() == expected.tolist()
    assert code.tolist() == inverse.tolist()

