"""The one-sort rankings against per-field references.

The references below rank one SDS at a time from per-field Python lists,
the way percentiles, top flags, dominance and concentration were first
written; the library ranks every field in one grouped sort and must agree
with them bitwise, in the same output order, the references reading the
records of an indicator table in corpus row order. Midranks, the Gini
coefficient and the bottom/top ratio come from the scalar references of
``oracle``, and the dominance reference imports nothing from
``rankmetrics.analysis``.
"""

import math
import random
from collections import defaultdict
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankmetrics import (
    RANKS,
    Indicator,
    IndicatorTable,
    Rank,
    build_baselines,
    compute_indicators,
    concentration_rows,
    dominance_counts,
    load_corpus,
    sds_percentiles,
    top_scientists,
)
from rankmetrics.indicators import IndicatorRecord
from rankmetrics.ranking import INDICATORS
from rankmetrics.synth import SynthConfig, generate

from conftest import indicator_table, one_block_rows
from oracle import reference_bottom_top_ratio, reference_gini, reference_midranks, weighted_uda_gini

FRACTIONS = (0.05, 0.1, 0.2, 0.3, 0.5)


def reference_value(record, indicator):
    if indicator is Indicator.NP:
        return float(record.n_p)
    if indicator is Indicator.FSS:
        return record.fss
    return record.qi


def sds_udas(corpus) -> dict:
    """Each SDS of the roster with its UDA, from the scientist rows."""
    return {sci.sds_code: sci.uda_code for sci in corpus.scientists}


def reference_members(records, indicator, corpus):
    by_id = {sci.scientist_id: sci for sci in corpus.scientists}
    out = []
    for rec in records:
        sci = by_id[rec.scientist_id]
        value = reference_value(rec, indicator)
        if value is not None:
            out.append((sci, value))
    return out


def reference_by_sds(records, indicator, corpus):
    groups = defaultdict(list)
    for sci, value in reference_members(records, indicator, corpus):
        groups[sci.sds_code].append((sci, value))
    return groups


def reference_percentiles(records, indicator, corpus):
    out = []
    groups = reference_by_sds(records, indicator, corpus)
    for sds in sorted(groups):
        members = groups[sds]
        n = len(members)
        if n == 1:
            pcts = [100.0]
        else:
            ranks = reference_midranks([v for _, v in members])
            pcts = (100.0 * (ranks - 1.0) / (n - 1.0)).tolist()
        for (sci, _), pct in zip(members, pcts):
            out.append((sci.scientist_id, indicator, pct.hex(), sds, sci.rank))
    return out


def reference_top_flags(records, indicator, corpus, fraction):
    out = []
    groups = reference_by_sds(records, indicator, corpus)
    for sds in sorted(groups):
        members = groups[sds]
        values = sorted((v for _, v in members), reverse=True)
        k = max(1, math.floor(fraction * len(members)))
        cutoff = values[k - 1]
        for sci, value in members:
            out.append((sci.scientist_id, indicator, value >= cutoff))
    return out


def reference_dominance(records, corpus, indicator, group_a=Rank.FULL, group_b=Rank.ASSISTANT):
    by_sds = defaultdict(lambda: defaultdict(list))
    for sci, value in reference_members(records, indicator, corpus):
        if sci.rank in (group_a, group_b):
            by_sds[sci.sds_code][sci.rank].append(value)
    per_uda = defaultdict(lambda: [0, 0])
    results = []
    excluded = 0
    udas = sds_udas(corpus)
    for sds in sorted(udas):
        groups = by_sds.get(sds, {})
        values_a, values_b = groups.get(group_a), groups.get(group_b)
        if not values_a or not values_b:
            excluded += 1
            continue
        # pooled ascending midranks; a group of k of n holding the top block would sum n*k - k(k-1)/2
        n_a, n = len(values_a), len(values_a) + len(values_b)
        ranks = reference_midranks(values_a + values_b)
        r_eff_a, r_eff_b = float(ranks[:n_a].sum()), float(ranks[n_a:].sum())
        r_max_a = n_a * n - n_a * (n_a - 1) / 2
        r_max_b = (n - n_a) * n - (n - n_a) * (n - n_a - 1) / 2
        b_wins = r_max_b - r_eff_b < r_max_a - r_eff_a
        results.append((sds, (float(r_max_a) - r_eff_a).hex(), (float(r_max_b) - r_eff_b).hex(), b_wins))
        acc = per_uda[udas[sds]]
        acc[1] += 1
        acc[0] += b_wins
    return [(uda, (w, c)) for uda, (w, c) in per_uda.items()], results, excluded


def reference_concentration(records, corpus, indicator, bottom_fraction, top_fraction):
    values = defaultdict(list)
    for sci, value in reference_members(records, indicator, corpus):
        values[(sci.sds_code, sci.rank)].append(value)
    out = []
    for uda in corpus.udas:
        sds_list = sorted(s for s, u in sds_udas(corpus).items() if u == uda)
        for rank in RANKS:
            gini_cells, ratio_cells = [], []
            for sds in sds_list:
                members = values.get((sds, rank))
                if not members:
                    continue
                gini_cells.append((reference_gini(members), len(members)))
                ratio = reference_bottom_top_ratio(members, bottom_fraction, top_fraction)
                if ratio is not None:
                    ratio_cells.append((ratio, len(members)))
            if not gini_cells:
                continue
            ratio = weighted_uda_gini(ratio_cells) if ratio_cells else None
            out.append((uda, rank, weighted_uda_gini(gini_cells).hex(), _hex(ratio)))
    return out


def _hex(value):
    return None if value is None else float(value).hex()


def _dominance_bits(counts):
    """Each counted field's code, ``r_diff_a`` and ``r_diff_b`` bits and win flag."""
    columns = counts.r_diff_a.tolist(), counts.r_diff_b.tolist(), counts.b_wins.tolist()
    return [(code, a.hex(), b.hex(), wins) for code, a, b, wins in zip(counts.sds_codes, *columns)]


def _percentile_bits(records):
    return [(p.scientist_id, p.indicator, p.percentile.hex(), p.sds_code, p.rank) for p in records]


def _flag_bits(flags):
    return [(f.scientist_id, f.indicator, f.is_top) for f in flags]


def _column_bits(table):
    return [(column.dtype.str, column.tobytes()) for column in (table.n_p, table.qi, table.fss)]


def _count_bits(counts):
    return (
        list(counts.per_uda.items()),
        _dominance_bits(counts),
        counts.excluded_sds,
    )


def _check_all(table, corpus, fractions=FRACTIONS):
    records = list(table)
    for indicator in INDICATORS:
        assert _percentile_bits(sds_percentiles(table, indicator, corpus)) == reference_percentiles(
            records, indicator, corpus
        )
        for fraction in fractions:
            assert _flag_bits(top_scientists(table, indicator, corpus, fraction)) == (
                reference_top_flags(records, indicator, corpus, fraction)
            ), fraction
        for group_a, group_b in permutations(RANKS, 2):
            counts = dominance_counts(table, corpus, indicator, group_a, group_b)
            assert _count_bits(counts) == reference_dominance(records, corpus, indicator, group_a, group_b)
        for bottom, top in ((0.4, 0.2), (0.5, 0.1)):
            grid = concentration_rows(table, corpus, indicator, bottom, top)
            actual = [
                (uda, rank, cell.gini.hex(), _hex(cell.bottom_top_ratio))
                for (uda, rank), cell in grid.cells.items()
            ]
            assert actual == reference_concentration(records, corpus, indicator, bottom, top)


@pytest.fixture(scope="module", params=[3, 404, 1811])
def scored(request):
    corpus = generate(SynthConfig(seed=request.param, n_uda=4, sds_per_uda=2))
    return corpus, compute_indicators(corpus, build_baselines(corpus), ("UDA01",))


def test_generated_corpus_matches_reference(scored):
    corpus, records = scored
    _check_all(records, corpus)


def test_shuffled_records_match_reference(scored):
    corpus, table = scored
    shuffled = list(table)
    random.Random(7).shuffle(shuffled)
    from_shuffled = indicator_table(corpus, shuffled)
    assert _column_bits(from_shuffled) == _column_bits(table)
    _check_all(from_shuffled, corpus, fractions=(0.2,))


def test_query_order_does_not_change_bits(scored):
    # each indicator is sorted once per table, by whichever query comes first
    corpus, table = scored
    for indicator in INDICATORS:
        results = {}
        for dominance_first in (True, False):
            fresh = IndicatorTable(corpus, table.n_p, table.qi, table.fss)
            if dominance_first:
                counts = dominance_counts(fresh, corpus, indicator)
            percentiles = _percentile_bits(sds_percentiles(fresh, indicator, corpus))
            flags = _flag_bits(top_scientists(fresh, indicator, corpus, 0.2))
            if not dominance_first:
                counts = dominance_counts(fresh, corpus, indicator)
            results[dominance_first] = (_count_bits(counts), percentiles, flags)
        assert results[True] == results[False]


def test_midranks_match_reference_with_signed_zeros():
    values = [0.0, -0.0, 1.0, 0.0, -1.0, 1.0, 2.5, -0.0]
    # one field; no member has a QI, so the QI ranking is empty
    corpus, records = _population([("S1", Rank.FULL, 1, value, None) for value in values])
    table = indicator_table(corpus, records)
    percentiles = sds_percentiles(table, Indicator.FSS, corpus)
    ranks = reference_midranks(values)
    assert [p.percentile.hex() for p in percentiles] == [(100.0 * (r - 1.0) / 7.0).hex() for r in ranks]
    assert list(sds_percentiles(table, Indicator.QI, corpus)) == []


# Four SDSs in two UDAs; rank and values drawn with heavy ties.
SDS_UDA = {"S1": "U1", "S2": "U1", "S3": "U2", "S4": "U2"}
TIED = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0])
MEMBER = st.tuples(
    st.sampled_from(sorted(SDS_UDA)),
    st.sampled_from(RANKS),
    st.integers(0, 3),
    TIED,
    st.one_of(st.none(), TIED),
)


def _population(members):
    scientists = [
        {"scientist_id": f"A{i:02d}", "sds_code": sds, "uda_code": SDS_UDA[sds],
         "rank": rank.value, "birth_year": ""}
        for i, (sds, rank, _, _, _) in enumerate(members)
    ]
    records = [
        IndicatorRecord(f"A{i:02d}", n_p, qi, fss)
        for i, (_, _, n_p, fss, qi) in enumerate(members)
    ]
    return load_corpus(scientists, [], []), records


@settings(max_examples=150, deadline=None)
@given(st.lists(MEMBER, min_size=1, max_size=30), st.randoms(use_true_random=False))
def test_tied_populations_match_reference(members, rng):
    corpus, records = _population(members)
    in_order = indicator_table(corpus, records)
    rng.shuffle(records)
    table = indicator_table(corpus, records)
    assert _column_bits(table) == _column_bits(in_order)
    _check_all(table, corpus)


def test_edge_fields_match_reference():
    corpus, records = _population([
        ("S1", Rank.FULL, 1, 0.0, None),  # one member
        ("S2", Rank.FULL, 2, -0.0, 0.0),  # no ASSISTANT
        ("S2", Rank.ASSOCIATE, 2, 0.0, -0.0),
        ("S3", Rank.ASSISTANT, 0, 1.0, None),  # no FULL
        ("S3", Rank.ASSOCIATE, 0, 1.0, 1.0),
        ("S4", Rank.FULL, 0, 0.0, None),  # FULL only without QI
        ("S4", Rank.ASSISTANT, 3, -0.0, 2.0),
        ("S4", Rank.ASSISTANT, 3, 0.0, 2.0),
    ])
    records.reverse()
    table = indicator_table(corpus, records)
    _check_all(table, corpus)
    assert dominance_counts(table, corpus, Indicator.FSS).excluded_sds == 3
    assert dominance_counts(table, corpus, Indicator.QI).excluded_sds == 4


# Blocks of 1-300 members cross numpy's 8-way unrolled and 128-element
# pairwise summation, so a row of the batched kernel must sum exactly as the
# block alone. Values come with ties, 0.0 and -0.0, all-equal blocks and
# all-zero blocks (undefined ratio).
BLOCK_VALUES = {
    "spread": lambda rng, n: rng.uniform(0.0, 100.0, n),
    "skewed": lambda rng, n: rng.pareto(1.5, n) * rng.integers(0, 2, n),
    "tied": lambda rng, n: rng.choice([0.0, -0.0, 1.0, 2.5, 3.0], n),
    "equal": lambda rng, n: np.full(n, rng.choice([4.2, 1e-300, 7.0])),
    "zero": lambda rng, n: rng.choice([0.0, -0.0], n),
}
BLOCK = st.tuples(
    st.sampled_from(sorted(SDS_UDA)),
    st.sampled_from(RANKS),
    st.integers(1, 300),
    st.sampled_from(sorted(BLOCK_VALUES)),
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(BLOCK, min_size=1, max_size=6),
    st.sampled_from([(0.4, 0.2), (0.5, 0.1), (0.05, 0.3)]),
    st.integers(0, 2**32 - 1),
)
def test_concentration_matches_reference_on_long_blocks(blocks, fractions, seed):
    rng = np.random.default_rng(seed)
    members = [
        (sds, rank, value)
        for sds, rank, n, kind in blocks
        for value in BLOCK_VALUES[kind](rng, n).tolist()
    ]
    scientists = [
        {"scientist_id": f"A{i:04d}", "sds_code": sds, "uda_code": SDS_UDA[sds],
         "rank": rank.value, "birth_year": ""}
        for i, (sds, rank, _) in enumerate(members)
    ]
    records = [IndicatorRecord(f"A{i:04d}", 0, None, value) for i, (_, _, value) in enumerate(members)]
    rng.shuffle(records)
    corpus = load_corpus(scientists, [], [])
    table = indicator_table(corpus, records)
    grid = concentration_rows(table, corpus, Indicator.FSS, *fractions)
    actual = [
        (uda, rank, cell.gini.hex(), _hex(cell.bottom_top_ratio)) for (uda, rank), cell in grid.cells.items()
    ]
    assert actual == reference_concentration(table, corpus, Indicator.FSS, *fractions)


FIELD_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 5e-324]), st.floats(0.0, 1e6, allow_subnormal=True)
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(FIELD_VALUE, min_size=1, max_size=300),
    st.sampled_from([(0.4, 0.2), (0.5, 0.1), (0.05, 0.3)]),
)
def test_one_block_matches_reference(values, fractions):
    row, = one_block_rows([values], *fractions)
    # a cell of one field passes its Gini and ratio through weighted_uda_gini
    ratio = reference_bottom_top_ratio(values, *fractions)
    assert row.gini.hex() == weighted_uda_gini([(reference_gini(values), len(values))]).hex()
    expected = None if ratio is None else weighted_uda_gini([(ratio, len(values))])
    assert _hex(row.bottom_top_ratio) == _hex(expected)
