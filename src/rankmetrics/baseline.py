"""Citation-standardization baselines.

Citation counts are divided by the median count of all publications sharing
the same year and subject category; medians are preferred over means because
citation distributions are heavily skewed. A publication carrying several
categories is scored as the arithmetic mean of its per-category values.
"""

from __future__ import annotations

import math
import weakref
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .corpus import Corpus, dense_codes, stable_order
from .fileio import FieldParser, Integer, Number, Text, read_records, write_records

__all__ = [
    "BaselineCell",
    "BaselineTable",
    "MissingBaselineError",
    "build_baselines",
    "read_baselines",
    "write_baselines",
]


class MissingBaselineError(ValueError):
    """No baseline cell exists for a (year, category) pair."""


class BaselineCell(NamedTuple):
    year: int
    category: str
    median_citations: float
    mean_citations: float
    publication_count: int


class BaselineTable:
    """Immutable map (year, category) -> citation statistics."""

    def __init__(self, cells: Iterable[BaselineCell]):
        table: dict[tuple[int, str], BaselineCell] = {}
        for cell in cells:
            key = (cell.year, cell.category)
            if key in table:
                raise ValueError(f"duplicate baseline cell for {key}")
            table[key] = cell
        self._cells = table
        self._scores = (None, None)

    def get(self, year: int, category: str) -> BaselineCell:
        try:
            return self._cells[(year, category)]
        except KeyError:
            raise MissingBaselineError(f"no baseline cell for ({year}, '{category}')") from None

    def require(self, keys: Iterable[tuple[int, str]]) -> None:
        """Raise one :class:`MissingBaselineError` naming how many of the
        ``(year, category)`` keys have no cell, and the first five, sorted."""
        missing = sorted(key for key in set(keys) if key not in self._cells)
        if missing:
            shown = ", ".join(f"({year}, '{category}')" for year, category in missing[:5])
            more = ", ..." if len(missing) > 5 else ""
            raise MissingBaselineError(
                f"no baseline cell for {len(missing)} (year, category) "
                f"pair{'s' if len(missing) > 1 else ''}: {shown}{more}"
            )

    def scores(self, corpus: Corpus, build) -> np.ndarray:
        """``build()``, the publication scores of ``corpus``, kept read-only for
        the last corpus scored under a weak reference that never keeps it alive;
        a build that raises keeps nothing."""
        ref, scores = self._scores
        if ref is None or ref() is not corpus:
            scores = build()
            scores.flags.writeable = False
            self._scores = (weakref.ref(corpus), scores)
        return scores

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def cells(self) -> tuple[BaselineCell, ...]:
        return tuple(self._cells[k] for k in sorted(self._cells))


def build_baselines(corpus: Corpus) -> BaselineTable:
    """Compute the median and mean citation count of every (year, category)
    cell occurring in the corpus.

    The reference population is the loaded corpus itself; even-sized cells use
    the mean of the two central values as median. Pairs of a publication
    and a category are sorted by cell, then by citations within each cell;
    medians are taken in Python ints and means as ``math.fsum(counts) / n``,
    as :func:`statistics.median` and :func:`statistics.fmean` take them.
    """
    if not len(corpus.pub_ids):
        raise ValueError("cannot build baselines from a corpus without publications")
    names = sorted({cat for cats in corpus.category_sets for cat in cats})
    code = {name: i for i, name in enumerate(names)}
    width = max(len(cats) for cats in corpus.category_sets)
    slots = np.full((len(corpus.category_sets), width), -1, dtype=np.int64)
    for row, cats in enumerate(corpus.category_sets):
        slots[row, : len(cats)] = [code[cat] for cat in cats]
    years, year = dense_codes(corpus.pub_year)
    # one (publication, category) pair per category of each publication
    pair_cat = slots[corpus.pub_categories]
    paired = pair_cat >= 0
    pair_cell = (year[:, None] * len(names) + pair_cat)[paired]
    order = stable_order(pair_cell)
    cell = pair_cell[order]
    citations = np.broadcast_to(corpus.pub_citations[:, None], paired.shape)[paired][order]
    starts = np.flatnonzero(np.diff(cell, prepend=-1)).tolist()
    ends = [*starts[1:], len(cell)]
    for start, end in zip(starts, ends):
        citations[start:end].sort()
    counts, years = citations.tolist(), years.tolist()
    cells = []
    for start, end, key in zip(starts, ends, cell[starts].tolist()):
        group, n = counts[start:end], end - start
        mid = n // 2
        median = group[mid] if n % 2 else (group[mid - 1] + group[mid]) / 2
        year_code, category = divmod(key, len(names))
        cells.append(BaselineCell(years[year_code], names[category], float(median),
                                  math.fsum(group) / n, n))
    return BaselineTable(cells)


def write_baselines(baselines: BaselineTable, path: str | Path) -> Path:
    return write_records(path, ["year", "category", "median", "mean", "count"], baselines.cells)


def read_baselines(path: str | Path) -> BaselineTable:
    """The cells of a file :func:`write_baselines` wrote. A row with a
    missing or malformed value, a non-finite or negative median or mean, a
    count below 1, or repeating an earlier row's (year, category), fails
    naming the row."""
    schema = {
        "year": Integer(),
        "category": Text(),
        "median": Number(float),
        "mean": Number(float),
        "count": Integer(minimum=1),
    }
    parser = FieldParser("baselines", schema, unique=("(year, category)", ("year", "category")))
    year, category, median, mean, count = read_records(path, parser).columns.values()
    return BaselineTable(map(BaselineCell, year.tolist(), category, median, mean, count.tolist()))
