"""National percentile ranks within fields, group averages, and top-scientist flags.

All rankings are computed inside an SDS (the field where scientists compete
nationally) and expressed as percentiles, 0 worst to 100 best, so that values
are comparable across fields of different size and citation intensity. Ties
receive midranks, which keeps the within-field mean percentile at exactly 50.

Every SDS is ranked at once: :func:`sds_ranking` codes the scientist rows by
SDS and orders them by (SDS, value), which yields the midranks, sizes and
offsets of all fields at once. Results are columns over those rows.

Each indicator is ranked once per :class:`IndicatorTable`: :func:`sds_ranking`
keeps the sort on the table, read-only, and percentiles, top flags and the
dominance comparison of :mod:`.analysis` all read it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import RANKS, Corpus, CorpusColumns, Grid, Rank, RowView, stable_order, tally
from .fileio import write_records
from .indicators import IndicatorTable

__all__ = [
    "INDICATORS",
    "Indicator",
    "MeanCell",
    "PercentileColumn",
    "PercentileRecord",
    "PercentileTable",
    "SdsRanking",
    "TopFlag",
    "TopFlagColumn",
    "midranks",
    "ranked_population",
    "sds_percentiles",
    "sds_ranking",
    "sorted_midranks",
    "top_scientists",
    "uda_rank_average",
    "write_percentiles",
    "write_top_flags",
]


class Indicator(enum.Enum):
    """An indicator; its value names the :class:`IndicatorTable` column."""

    NP = "n_p"
    QI = "qi"
    FSS = "fss"

    @property
    def label(self) -> str:
        return {"n_p": "N_p", "qi": "QI", "fss": "FSS"}[self.value]


#: The three indicators in report order: volume, total impact, mean impact.
INDICATORS = (Indicator.NP, Indicator.FSS, Indicator.QI)


class PercentileRecord(NamedTuple):
    scientist_id: str
    indicator: Indicator
    percentile: float
    sds_code: str
    rank: Rank


class TopFlag(NamedTuple):
    scientist_id: str
    indicator: Indicator
    is_top: bool


@dataclass(frozen=True, eq=False)
class _RankedColumn(CorpusColumns, Sequence):
    """One value per ranked scientist row ``rows``, a read-only sequence of
    records; the value column is named after the record's third field."""

    corpus: Corpus
    indicator: Indicator
    rows: np.ndarray

    @cached_property
    def view(self) -> RowView:
        """The records of the rows, built only for the rows read."""
        corpus, rows = self.corpus, self.rows
        columns = (
            (rows, corpus.scientist_ids),
            [self.indicator] * len(rows),
            getattr(self, self.record._fields[2]),
            (corpus.scientist_sds[rows], corpus.sds_codes),
            (corpus.scientist_rank[rows], RANKS),
        )
        return RowView(self.record, *columns[:len(self.record._fields)])

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.view)

    def __reversed__(self):
        return reversed(self.view)

    def __getitem__(self, index):
        return self.view[index]


@dataclass(frozen=True, eq=False)
class PercentileColumn(_RankedColumn):
    """SDS percentiles of one indicator; see :func:`sds_percentiles`."""

    percentile: np.ndarray
    record = PercentileRecord


@dataclass(frozen=True, eq=False)
class TopFlagColumn(_RankedColumn):
    """Top-scientist flags of one indicator; see :func:`top_scientists`."""

    is_top: np.ndarray
    record = TopFlag


def sorted_midranks(groups: np.ndarray, values: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The midrank of each of the rows sorted by ``(group, value)``: its rank
    1..n within its group, runs of equal values sharing the mean of their
    positions; ``start[g]`` is the offset of group ``g``'s first row."""
    new_run = np.ones(len(values), dtype=bool)
    new_run[1:] = (groups[1:] != groups[:-1]) | (values[1:] != values[:-1])
    first = np.flatnonzero(new_run)
    count = np.diff(np.append(first, len(values)))
    mids = (first - start[groups[first]] + 1) + (count - 1) / 2.0
    return np.repeat(mids, count)


def midranks(values) -> np.ndarray:
    """Ascending ranks 1..n with tied values sharing the mean of their positions."""
    a = np.asarray(values, dtype=float)
    order = np.argsort(a, kind="stable")
    midrank = np.empty(len(a))
    midrank[order] = sorted_midranks(np.zeros(len(a), dtype=np.int64), a[order], np.zeros(1, np.int64))
    return midrank


def ranked_population(
    table: IndicatorTable, indicator: Indicator, corpus: Corpus
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, values)``: the corpus scientist rows in ``indicator``'s
    ranking population, ascending, and their values. QI ranks only the
    scientists with a value; N_p and FSS rank every scientist."""
    values = getattr(table.bound_to(corpus), indicator.value)
    rows = np.flatnonzero(~np.isnan(values)) if indicator is Indicator.QI else np.arange(len(values))
    return rows, values[rows].astype(float)


class SdsRanking(NamedTuple):
    """One indicator's population ranked within SDSs; see :func:`sds_ranking`."""

    rows: np.ndarray  # the population's corpus scientist rows, ascending
    sds: np.ndarray  # their SDS codes
    values: np.ndarray  # their values
    order: np.ndarray  # the sort order of the rows by (SDS, value)
    midrank: np.ndarray  # each row's midrank within its SDS
    size: np.ndarray  # each SDS's member count
    start: np.ndarray  # the offset of each SDS's first member in ``order``
    out: np.ndarray  # the output order: by SDS, then row


def sds_ranking(table: IndicatorTable, indicator: Indicator, corpus: Corpus) -> SdsRanking:
    """``indicator``'s :func:`ranked_population`, ordered by (SDS, value)
    with :func:`~.corpus.stable_order`, the order of
    ``np.lexsort((values, sds))``: a stable sort of the values, then of their
    SDS codes. ``midrank[i]`` is row ``i``'s ascending rank 1..n within its
    SDS, tied values sharing the mean of their positions; values are compared
    exactly, so ``-0.0`` ties with ``0.0``. Built on the first call for a
    table and kept with it; its arrays are read-only."""
    rankings = table.bound_to(corpus)._rankings
    ranking = rankings.get(indicator)
    if ranking is None:
        rows, values = ranked_population(table, indicator, corpus)
        sds = corpus.scientist_sds[rows]
        order = stable_order(sds, values)
        size = np.bincount(sds, minlength=len(corpus.sds_codes))
        start = np.cumsum(size) - size
        midrank = np.empty(len(values))
        midrank[order] = sorted_midranks(sds[order], values[order], start)
        ranking = SdsRanking(rows, sds, values, order, midrank, size, start, stable_order(sds))
        for array in ranking:
            array.flags.writeable = False
        rankings[indicator] = ranking
    return ranking


def sds_percentiles(table: IndicatorTable, indicator: Indicator, corpus: Corpus) -> PercentileColumn:
    """Percentile of every scientist within their SDS for one indicator.

    With N ranked scientists the percentile is ``100 * (midrank - 1) / (N - 1)``;
    a single-scientist field scores 100 (trivially the national best). For the
    mean-impact indicator, scientists without publications are excluded from
    the population; the volume and total-impact indicators rank them at 0.
    Rows come out ordered by SDS code, and by corpus row within an SDS.
    """
    rows, sds, _, _, midrank, size, _, out = sds_ranking(table, indicator, corpus)
    n = size[sds]
    pct = 100.0 * (midrank - 1.0) / np.maximum(n - 1.0, 1.0)
    pct[n == 1] = 100.0
    return PercentileColumn(corpus, indicator, rows[out], pct[out])


class MeanCell(NamedTuple):
    total: float = 0.0
    count: int = 0

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None


@dataclass(frozen=True)
class PercentileTable(Grid):
    """Mean percentile per UDA and rank; pooled totals via :meth:`cell`."""

    indicator: Indicator

    def mean(self, uda: str | None = None, rank: Rank | None = None) -> float | None:
        return self.cell(uda, rank).mean


def uda_rank_average(percentiles: PercentileColumn, corpus: Corpus) -> PercentileTable:
    """Average the SDS percentiles over every UDA x rank group; a percentile
    counts in the group of its scientist's row in ``corpus``."""
    rows = percentiles.bound_to(corpus).rows
    if not len(rows):
        raise ValueError("no percentile records")
    uda, rank = corpus.scientist_uda[rows], corpus.scientist_rank[rows]
    cells = tally(MeanCell, corpus.udas, uda, rank, percentiles.percentile, np.ones(len(rows)))
    return PercentileTable(MeanCell, cells, indicator=percentiles.indicator)


def top_scientists(table: IndicatorTable, indicator: Indicator, corpus: Corpus,
                   fraction: float = 0.2) -> TopFlagColumn:
    """Flag scientists in the top ``fraction`` of their SDS ranking.

    The cutoff is the k-th largest value with ``k = max(1, floor(fraction*N))``;
    scientists tied with the cutoff value are all flagged. Every ranked
    scientist receives a flag (True or False), in the order of
    :func:`sds_percentiles`.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rows, sds, values, order, _, size, start, out = sds_ranking(table, indicator, corpus)
    n = size[sds]
    k = np.maximum(1, np.floor(fraction * n).astype(np.int64))
    # the k-th largest of a field is k places from the end of its sorted block
    cutoff = values[order][start[sds] + n - k]
    return TopFlagColumn(corpus, indicator, rows[out], (values >= cutoff)[out])


# ---------------------------------------------------------------------------
# Exports

def write_percentiles(percentiles: Iterable[PercentileRecord], path: str | Path) -> Path:
    rows = (
        (p.scientist_id, p.indicator.value, p.percentile)
        for p in sorted(percentiles, key=lambda p: (p.indicator.value, p.scientist_id))
    )
    return write_records(path, ["scientist_id", "indicator", "percentile"], rows)


def write_top_flags(flags: Iterable[TopFlag], path: str | Path) -> Path:
    rows = (
        (f.scientist_id, f.indicator.value, "true" if f.is_top else "false")
        for f in sorted(flags, key=lambda f: (f.indicator.value, f.scientist_id))
    )
    return write_records(path, ["scientist_id", "indicator", "is_top"], rows)
