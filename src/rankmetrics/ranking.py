"""National percentile ranks within fields, group averages, and top-scientist flags.

All rankings are computed inside an SDS (the field where scientists compete
nationally) and expressed as percentiles, 0 worst to 100 best, so that values
are comparable across fields of different size and citation intensity. Ties
receive midranks, which keeps the within-field mean percentile at exactly 50.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .corpus import Corpus, Grid, Rank, Scientist, tally
from .fileio import read_records, write_records
from .indicators import IndicatorRecord

__all__ = [
    "INDICATORS",
    "Indicator",
    "MeanCell",
    "PercentileRecord",
    "PercentileTable",
    "TopFlag",
    "indicator_value",
    "indicator_values",
    "midranks",
    "read_percentiles",
    "sds_percentiles",
    "top_scientists",
    "uda_rank_average",
    "write_percentiles",
    "write_top_flags",
]


class Indicator(enum.Enum):
    NP = "n_p"
    QI = "qi"
    FSS = "fss"

    @property
    def label(self) -> str:
        return {"n_p": "N_p", "qi": "QI", "fss": "FSS"}[self.value]


#: The three indicators in report order: volume, total impact, mean impact.
INDICATORS = (Indicator.NP, Indicator.FSS, Indicator.QI)


def indicator_value(record: IndicatorRecord, indicator: Indicator) -> float | None:
    """Value of one indicator, or None when the scientist is excluded from
    that indicator's ranking population (mean impact of zero publications)."""
    if indicator is Indicator.NP:
        return float(record.n_p)
    if indicator is Indicator.FSS:
        return record.fss
    return record.qi


@dataclass(frozen=True)
class PercentileRecord:
    scientist_id: str
    indicator: Indicator
    percentile: float
    sds_code: str
    rank: Rank


@dataclass(frozen=True)
class TopFlag:
    scientist_id: str
    indicator: Indicator
    is_top: bool


def midranks(values) -> np.ndarray:
    """Ascending ranks 1..n with tied values sharing the mean of their positions."""
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


def indicator_values(
    records: Mapping[str, IndicatorRecord] | Iterable[IndicatorRecord],
    indicator: Indicator,
    corpus: Corpus,
) -> Iterator[tuple[Scientist, float]]:
    """``(scientist, value)`` for every record in ``indicator``'s ranking
    population, in record order; a record of an unknown scientist raises."""
    if isinstance(records, Mapping):
        records = records.values()
    records = list(records)
    by_id = corpus.scientists_by_id
    try:
        scientists = [by_id[rec.scientist_id] for rec in records]
    except KeyError as exc:
        raise ValueError(f"indicator record for unknown scientist '{exc.args[0]}'") from None
    values = [indicator_value(rec, indicator) for rec in records]
    ranked = [value is not None for value in values]
    return zip(compress(scientists, ranked), compress(values, ranked))


def _group_by_sds(
    records: Mapping[str, IndicatorRecord] | Iterable[IndicatorRecord],
    indicator: Indicator,
    corpus: Corpus,
) -> dict[str, list[tuple[Scientist, float]]]:
    groups: dict[str, list[tuple[Scientist, float]]] = defaultdict(list)
    for sci, value in indicator_values(records, indicator, corpus):
        groups[sci.sds_code].append((sci, value))
    return groups


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
    """
    out: list[PercentileRecord] = []
    groups = _group_by_sds(records, indicator, corpus)
    for sds in sorted(groups):
        members = groups[sds]
        n = len(members)
        if n == 1:
            pcts = [100.0]
        else:
            ranks = midranks([v for _, v in members])
            pcts = (100.0 * (ranks - 1.0) / (n - 1.0)).tolist()
        for (sci, _), pct in zip(members, pcts):
            out.append(PercentileRecord(sci.scientist_id, indicator, pct, sds, sci.rank))
    return out


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
    """Average the SDS percentiles over every UDA x rank group."""
    percentiles = list(percentiles)
    indicators = {rec.indicator for rec in percentiles}
    if not indicators:
        raise ValueError("no percentile records")
    if len(indicators) > 1:
        raise ValueError("mixed indicators in one percentile table")
    sds_to_uda = corpus.sds_to_uda
    cells = tally(
        MeanCell,
        [sds_to_uda[rec.sds_code] for rec in percentiles],
        [rec.rank for rec in percentiles],
        [rec.percentile for rec in percentiles],
        np.ones(len(percentiles)),
    )
    return PercentileTable(MeanCell, cells, indicator=indicators.pop())


def top_scientists(
    records: Mapping[str, IndicatorRecord] | Iterable[IndicatorRecord],
    indicator: Indicator,
    corpus: Corpus,
    fraction: float = 0.2,
) -> list[TopFlag]:
    """Flag scientists in the top ``fraction`` of their SDS ranking.

    The cutoff is the k-th largest value with ``k = max(1, floor(fraction*N))``;
    scientists tied with the cutoff value are all flagged. Every ranked
    scientist receives a flag row (True or False).
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    groups = _group_by_sds(records, indicator, corpus)
    out: list[TopFlag] = []
    for sds in sorted(groups):
        members = groups[sds]
        values = sorted((v for _, v in members), reverse=True)
        k = max(1, math.floor(fraction * len(members)))
        cutoff = values[k - 1]
        for sci, value in members:
            out.append(TopFlag(sci.scientist_id, indicator, value >= cutoff))
    return out


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
    out = []
    for i, row in enumerate(read_records(path), start=1):
        try:
            sid = str(row["scientist_id"])
            sci = corpus.scientists_by_id[sid]
            out.append(
                PercentileRecord(
                    scientist_id=sid,
                    indicator=Indicator(str(row["indicator"])),
                    percentile=float(row["percentile"]),
                    sds_code=sci.sds_code,
                    rank=sci.rank,
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
