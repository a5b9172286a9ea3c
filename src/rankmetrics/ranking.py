"""National percentile ranks within fields, group averages, and top-scientist flags.

All rankings are computed inside an SDS (the field where scientists compete
nationally) and expressed as percentiles, 0 worst to 100 best, so that values
are comparable across fields of different size and citation intensity. Ties
receive midranks, which keeps the within-field mean percentile at exactly 50.

Every SDS is ranked in one sort: records are coded by SDS and ordered by
(SDS, value) with :func:`group_sort`, which yields the midranks, sizes and
offsets of all fields at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter, is_not
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .corpus import RANKS, Corpus, Grid, Rank, tally
from .fileio import read_records, write_records
from .indicators import IndicatorRecord

__all__ = [
    "GroupSort",
    "INDICATORS",
    "Indicator",
    "MeanCell",
    "PercentileRecord",
    "PercentileTable",
    "TopFlag",
    "group_sort",
    "midranks",
    "ranked_population",
    "read_percentiles",
    "sds_percentiles",
    "top_scientists",
    "uda_rank_average",
    "write_percentiles",
    "write_top_flags",
]


class Indicator(enum.Enum):
    """An indicator; its value names the :class:`IndicatorRecord` field."""

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


class GroupSort(NamedTuple):
    """Values sorted within integer groups; see :func:`group_sort`."""

    order: np.ndarray
    midrank: np.ndarray
    size: np.ndarray
    start: np.ndarray


def group_sort(groups: np.ndarray, values: np.ndarray, n_groups: int) -> GroupSort:
    """Sort ``values`` by ``(group, value)`` in one pass, for group codes
    ``0..n_groups - 1``.

    ``order`` is that sort order; ``midrank[i]`` is value ``i``'s ascending
    rank 1..n within its group, tied values sharing the mean of their
    positions; ``size[g]`` and ``start[g]`` are group ``g``'s member count
    and the offset of its first member in ``order``. Values are compared
    exactly, so ``-0.0`` ties with ``0.0``.
    """
    order = np.lexsort((values, groups))
    g, v = groups[order], values[order]
    size = np.bincount(groups, minlength=n_groups)
    start = np.cumsum(size) - size
    new_run = np.ones(len(v), dtype=bool)
    new_run[1:] = (g[1:] != g[:-1]) | (v[1:] != v[:-1])
    first = np.flatnonzero(new_run)
    count = np.diff(np.append(first, len(v)))
    mids = (first - start[g[first]] + 1) + (count - 1) / 2.0
    midrank = np.empty(len(v))
    midrank[order] = np.repeat(mids, count)
    return GroupSort(order, midrank, size, start)


def midranks(values) -> np.ndarray:
    """Ascending ranks 1..n with tied values sharing the mean of their positions."""
    a = np.asarray(values, dtype=float)
    return group_sort(np.zeros(len(a), dtype=np.int64), a, 1).midrank


def _scientist_rows(records: list, corpus: Corpus, kind: str) -> np.ndarray:
    """The corpus row of each record's scientist; an unknown one raises."""
    ids = list(map(attrgetter("scientist_id"), records))
    try:
        return np.fromiter(map(corpus.scientist_index.__getitem__, ids), np.int64, len(ids))
    except KeyError as exc:
        raise ValueError(f"{kind} record for unknown scientist '{exc.args[0]}'") from None


def ranked_population(
    records: Mapping[str, IndicatorRecord] | Iterable[IndicatorRecord],
    indicator: Indicator,
    corpus: Corpus,
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, values)``: the corpus scientist row and the value of every
    record in ``indicator``'s ranking population, in record order. A record
    of an unknown scientist raises."""
    if isinstance(records, Mapping):
        records = records.values()
    records = list(records)
    rows = _scientist_rows(records, corpus, "indicator")
    raw = list(map(attrgetter(indicator.value), records))
    ranked = np.fromiter(map(is_not, raw, repeat(None)), bool, len(raw))
    # None becomes NaN here and is dropped with its record
    return rows[ranked], np.array(raw, dtype=float)[ranked]


def _by_sds(
    records: Mapping[str, IndicatorRecord] | Iterable[IndicatorRecord],
    indicator: Indicator,
    corpus: Corpus,
):
    """The ranking population sorted within SDSs, and the ids of its
    scientists in output order: by SDS code, then in record order."""
    rows, values = ranked_population(records, indicator, corpus)
    sds = corpus.scientist_sds[rows]
    ranked = group_sort(sds, values, len(corpus.sds_codes))
    out = np.argsort(sds, kind="stable")
    ids = list(map(corpus.scientist_ids.__getitem__, rows[out].tolist()))
    return rows, sds, values, ranked, out, ids


def _records(cls: type, *columns) -> list:
    """One ``cls`` named tuple per row of ``columns``. ``tuple.__new__`` is
    ``cls._make`` without its length check, which equal columns make moot,
    and runs without a Python frame per record."""
    return list(map(tuple.__new__, repeat(cls), zip(*columns)))


def sds_percentiles(
    records: Mapping[str, IndicatorRecord] | Iterable[IndicatorRecord],
    indicator: Indicator,
    corpus: Corpus,
) -> list[PercentileRecord]:
    """Percentile of every scientist within their SDS for one indicator.

    With N ranked scientists the percentile is ``100 * (midrank - 1) / (N - 1)``;
    a single-scientist field scores 100 (trivially the national best). For the
    mean-impact indicator, scientists without publications are excluded from
    the population; the volume and total-impact indicators rank them at 0.
    Records come out ordered by SDS code, and in record order within an SDS.
    """
    rows, sds, _, ranked, out, ids = _by_sds(records, indicator, corpus)
    n = ranked.size[sds]
    pct = 100.0 * (ranked.midrank - 1.0) / np.maximum(n - 1.0, 1.0)
    pct[n == 1] = 100.0
    return _records(
        PercentileRecord,
        ids,
        repeat(indicator),
        pct[out].tolist(),
        map(corpus.sds_codes.__getitem__, sds[out].tolist()),
        map(RANKS.__getitem__, corpus.scientist_rank[rows[out]].tolist()),
    )


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


def uda_rank_average(percentiles: Iterable[PercentileRecord], corpus: Corpus) -> PercentileTable:
    """Average the SDS percentiles over every UDA x rank group; a record
    counts in the group of its scientist's row in ``corpus``."""
    percentiles = list(percentiles)
    if not percentiles:
        raise ValueError("no percentile records")
    indicator = percentiles[0].indicator
    if any(rec.indicator is not indicator for rec in percentiles):
        raise ValueError("mixed indicators in one percentile table")
    rows = _scientist_rows(percentiles, corpus, "percentile")
    cells = tally(
        MeanCell,
        corpus.udas,
        corpus.scientist_uda[rows],
        corpus.scientist_rank[rows],
        list(map(attrgetter("percentile"), percentiles)),
        np.ones(len(percentiles)),
    )
    return PercentileTable(MeanCell, cells, indicator=indicator)


def top_scientists(
    records: Mapping[str, IndicatorRecord] | Iterable[IndicatorRecord],
    indicator: Indicator,
    corpus: Corpus,
    fraction: float = 0.2,
) -> list[TopFlag]:
    """Flag scientists in the top ``fraction`` of their SDS ranking.

    The cutoff is the k-th largest value with ``k = max(1, floor(fraction*N))``;
    scientists tied with the cutoff value are all flagged. Every ranked
    scientist receives a flag row (True or False), in the order of
    :func:`sds_percentiles`.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    _, sds, values, ranked, out, ids = _by_sds(records, indicator, corpus)
    n = ranked.size[sds]
    k = np.maximum(1, np.floor(fraction * n).astype(np.int64))
    # the k-th largest of a field is k places from the end of its sorted block
    cutoff = values[ranked.order][ranked.start[sds] + n - k]
    return _records(
        TopFlag,
        ids,
        repeat(indicator),
        (values >= cutoff)[out].tolist(),
    )


# ---------------------------------------------------------------------------
# Exports

def write_percentiles(percentiles: Iterable[PercentileRecord], path: str | Path) -> Path:
    rows = (
        {
            "scientist_id": p.scientist_id,
            "indicator": p.indicator.value,
            "percentile": repr(p.percentile),
        }
        for p in sorted(percentiles, key=lambda p: (p.indicator.value, p.scientist_id))
    )
    return write_records(path, ["scientist_id", "indicator", "percentile"], rows)


def read_percentiles(path: str | Path, corpus: Corpus) -> list[PercentileRecord]:
    sds, rank = corpus.scientist_sds.tolist(), corpus.scientist_rank.tolist()
    out = []
    for i, row in enumerate(read_records(path), start=1):
        try:
            sid = str(row["scientist_id"])
            s = corpus.scientist_index[sid]
            out.append(
                PercentileRecord(
                    scientist_id=sid,
                    indicator=Indicator(str(row["indicator"])),
                    percentile=float(row["percentile"]),
                    sds_code=corpus.sds_codes[sds[s]],
                    rank=RANKS[rank[s]],
                )
            )
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"percentiles row {i}: malformed record {row!r}") from None
    return out


def write_top_flags(flags: Iterable[TopFlag], path: str | Path) -> Path:
    rows = (
        {
            "scientist_id": f.scientist_id,
            "indicator": f.indicator.value,
            "is_top": "true" if f.is_top else "false",
        }
        for f in sorted(flags, key=lambda f: (f.indicator.value, f.scientist_id))
    )
    return write_records(path, ["scientist_id", "indicator", "is_top"], rows)
