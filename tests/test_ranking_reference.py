"""The one-sort rankings against per-field references.

The references below rank one SDS at a time from per-field Python lists,
the way percentiles, top flags, dominance and concentration were first
written; the library ranks every field in one grouped sort and must agree
with them bitwise, in the same output order, the references reading the
records of an indicator table in corpus row order. The Gini coefficient and the
bottom/top ratio are frozen copies of the one-field-at-a-time versions the
library's batched kernel replaced.
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
from rankmetrics.analysis import bottom_top_ratio, gini, sequence_criterion, weighted_uda_gini
from rankmetrics.indicators import IndicatorRecord
from rankmetrics.ranking import INDICATORS, midranks
from rankmetrics.synth import SynthConfig, generate

from conftest import indicator_table

FRACTIONS = (0.05, 0.1, 0.2, 0.3, 0.5)


def reference_midranks(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    order = np.argsort(a, kind="mergesort")
    s = a[order]
    starts = np.r_[True, s[1:] != s[:-1]]
    group = np.cumsum(starts) - 1
    first = np.flatnonzero(starts) + 1
    counts = np.diff(np.r_[np.flatnonzero(starts), len(s)])
    mids = first + (counts - 1) / 2.0
    out = np.empty(len(a))
    out[order] = mids[group]
    return out


def reference_gini(values) -> float:
    x = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if x.size == 0:
        raise ValueError("gini requires at least one value")
    if np.any(x < 0):
        raise ValueError("gini requires non-negative values")
    total = float(x.sum())
    if total == 0.0:
        return 0.0
    xs = np.sort(x)
    if xs[0] == xs[-1]:
        return 0.0
    n = x.size
    i = np.arange(1, n + 1, dtype=float)
    g = float(((2.0 * i - n - 1.0) * xs).sum() / (n * total))
    return min(1.0, max(0.0, g))


def reference_bottom_top_ratio(values, bottom_fraction=0.4, top_fraction=0.2):
    x = sorted(values)
    n = len(x)
    if n == 0:
        raise ValueError("bottom_top_ratio requires at least one value")
    if x[0] < 0:
        raise ValueError("bottom_top_ratio requires non-negative values")
    if not (0.0 < bottom_fraction < 1.0 and 0.0 < top_fraction < 1.0):
        raise ValueError("fractions must be in (0, 1)")
    k_top = max(1, math.floor(top_fraction * n))
    k_bottom = max(1, math.floor(bottom_fraction * n))
    top_stat = math.fsum(x[n - k_top:]) / k_top
    bottom_stat = math.fsum(x[:k_bottom]) / k_bottom
    if top_stat == 0.0:
        return None
    return bottom_stat / top_stat


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
    results = {}
    excluded = 0
    udas = sds_udas(corpus)
    for sds in sorted(udas):
        groups = by_sds.get(sds, {})
        values_a, values_b = groups.get(group_a), groups.get(group_b)
        if not values_a or not values_b:
            excluded += 1
            continue
        res = sequence_criterion(values_a, values_b, group_a, group_b, sds_code=sds)
        results[sds] = res
        acc = per_uda[udas[sds]]
        acc[1] += 1
        if res.winner is group_b:
            acc[0] += 1
    return (
        [(uda, (w, c)) for uda, (w, c) in per_uda.items()],
        [_dominance_bits(res) for res in results.values()],
        excluded,
    )


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


def _dominance_bits(res):
    return (res.sds_code, res.group_a, res.group_b,
            res.r_eff_a.hex(), float(res.r_max_a).hex(), res.r_eff_b.hex(), float(res.r_max_b).hex())


def _percentile_bits(records):
    return [(p.scientist_id, p.indicator, p.percentile.hex(), p.sds_code, p.rank) for p in records]


def _flag_bits(flags):
    return [(f.scientist_id, f.indicator, f.is_top) for f in flags]


def _column_bits(table):
    return [(column.dtype.str, column.tobytes()) for column in (table.n_p, table.qi, table.fss)]


def _count_bits(counts):
    return (
        list(counts.per_uda.items()),
        [_dominance_bits(res) for res in counts.sds_results.values()],
        counts.excluded_sds,
    )


def _check_all(table, corpus, fractions=FRACTIONS):
    records = table.values()
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
            assert list(counts.sds_results) == [res.sds_code for res in counts.sds_results.values()]
        for bottom, top in ((0.4, 0.2), (0.5, 0.1)):
            rows = concentration_rows(table, corpus, indicator, bottom, top)
            actual = [
                (uda, rank, row.gini.hex(), _hex(row.bottom_top_ratio))
                for (uda, rank), row in rows.items()
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
    shuffled = list(table.values())
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
    assert midranks(values).tolist() == reference_midranks(values).tolist()
    assert midranks([]).tolist() == []


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
    rows = concentration_rows(table, corpus, Indicator.FSS, *fractions)
    actual = [
        (uda, rank, row.gini.hex(), _hex(row.bottom_top_ratio)) for (uda, rank), row in rows.items()
    ]
    assert actual == reference_concentration(table.values(), corpus, Indicator.FSS, *fractions)


FIELD_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 5e-324]), st.floats(0.0, 1e6, allow_subnormal=True)
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(FIELD_VALUE, min_size=1, max_size=300),
    st.sampled_from([(0.4, 0.2), (0.5, 0.1), (0.05, 0.3)]),
)
def test_one_block_matches_reference(values, fractions):
    assert gini(values).hex() == reference_gini(values).hex()
    assert gini(np.array(values)).hex() == reference_gini(values).hex()
    assert _hex(bottom_top_ratio(values, *fractions)) == _hex(reference_bottom_top_ratio(values, *fractions))
