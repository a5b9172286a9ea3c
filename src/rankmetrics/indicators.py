"""Per-scientist output indicators.

Three indicators are computed over the observation window:

* ``n_p``   -- number of publications authored;
* ``qi``    -- mean standardized citation score of those publications
  (absent, not zero, for scientists without publications);
* ``fss``   -- total standardized impact, each publication weighted by the
  scientist's co-authorship fraction.

Co-author fractions are either uniform (1/n) or positional. The positional
scheme, used for disciplines where byline order carries meaning, recognizes
two byline patterns: when first and last authors share an affiliation, each
receives 40% and the middle authors split the remaining 20%; when the two
leading and two closing authors all come from different institutions, first
and last receive 30%, second and second-to-last 15%, and the rest split 10%.
Any other pattern, or missing boundary affiliations, falls back to uniform.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Collection, Mapping, NamedTuple, Sequence

import numpy as np

from .baseline import BaselineTable
from .corpus import Corpus, CorpusColumns, RowView
from .fileio import FieldParser, Integer, Number, Text, read_records, write_records

__all__ = [
    "IndicatorRecord",
    "IndicatorTable",
    "WeightScheme",
    "byline_case_flags",
    "coauthor_weights",
    "compute_indicators",
    "read_indicators",
    "require_baselines",
    "write_indicators",
]

logger = logging.getLogger(__name__)


class WeightScheme(enum.Enum):
    EQUAL = "EQUAL"
    POSITIONAL = "POSITIONAL"


class IndicatorRecord(NamedTuple):
    scientist_id: str
    n_p: int
    qi: float | None
    fss: float


@dataclass(frozen=True, eq=False)
class IndicatorTable(CorpusColumns, Mapping):
    """The indicators of every scientist of ``corpus`` as columns aligned to its
    rows, ``n_p`` (int64), ``qi`` (float64, NaN where absent) and ``fss``; a
    read-only mapping of each scientist's :class:`IndicatorRecord` by id.
    Each indicator's ranking within SDSs is built on first use and kept with
    the table (see :mod:`.ranking`)."""

    corpus: Corpus
    n_p: np.ndarray
    qi: np.ndarray
    fss: np.ndarray
    _rankings: dict = field(init=False, repr=False, default_factory=dict)

    @classmethod
    def resolve(cls, corpus: Corpus, ids, n_p, qi, fss, source: str = "indicator records") -> IndicatorTable:
        """The table of columns in any row order, one per id (:meth:`Corpus.rows_of`)."""
        order = np.argsort(corpus.rows_of(ids, source))
        return cls(corpus, *(np.asarray(c, t)[order] for c, t in ((n_p, np.int64), (qi, float), (fss, float))))

    @cached_property
    def view(self) -> RowView:
        """The records in row order, built only for the rows read; a QI of NaN reads as None."""
        return RowView(IndicatorRecord, self.corpus.scientist_ids, self.n_p, self.qi, self.fss)

    def __getitem__(self, scientist_id: str) -> IndicatorRecord:
        return self.view[self.corpus.scientist_index[scientist_id]]

    def __iter__(self):
        return iter(self.corpus.scientist_ids)

    def __len__(self) -> int:
        return len(self.n_p)

    def values(self) -> list[IndicatorRecord]:
        return self.view[:]


def coauthor_weights(
    author_count: int,
    scheme: WeightScheme = WeightScheme.EQUAL,
    *,
    first_last_same: bool = False,
    boundary_pairs_differ: bool = False,
) -> list[float]:
    """Per-position credit fractions for a byline of ``author_count`` authors.

    Always sums to 1. Under the positional scheme the flags select the byline
    pattern (``first_last_same`` wins when both are set); neither flag means
    the pattern is unrecognized and credit is uniform. Short bylines where the
    named roles overlap accumulate their nominal weights per position and the
    vector is renormalized, which keeps the sum exact for every length.
    """
    if author_count < 1:
        raise ValueError(f"author_count must be >= 1, got {author_count}")
    n = author_count
    if (
        scheme is WeightScheme.EQUAL
        or n == 1
        or not (first_last_same or boundary_pairs_differ)
    ):
        return [1.0 / n] * n

    weights = [0.0] * n
    if first_last_same:
        weights[0] += 0.40
        weights[n - 1] += 0.40
        middle = range(1, n - 1)
        if len(middle):
            share = 0.20 / len(middle)
            for i in middle:
                weights[i] += share
    else:
        weights[0] += 0.30
        weights[n - 1] += 0.30
        weights[1] += 0.15
        weights[n - 2] += 0.15
        others = [i for i in range(n) if i not in {0, 1, n - 2, n - 1}]
        if others:
            share = 0.10 / len(others)
            for i in others:
                weights[i] += share
    total = math.fsum(weights)
    return [w / total for w in weights]


def byline_case_flags(affiliations: Sequence[str | None]) -> tuple[bool, bool]:
    """Derive the positional-scheme flags from a position-ordered affiliation list.

    Returns ``(first_last_same, boundary_pairs_differ)``. The second flag
    requires all four boundary affiliations (positions 1, 2, n-1, n) to be
    present and pairwise different wherever the positions themselves differ;
    a missing boundary affiliation makes the case undecidable and both flags
    come back False (uniform fallback).
    """
    n = len(affiliations)
    if n < 2:
        return (False, False)
    first, second = affiliations[0], affiliations[1]
    penult, last = affiliations[n - 2], affiliations[n - 1]
    if first is not None and last is not None and first == last:
        return (True, False)
    if None in (first, second, penult, last):
        return (False, False)
    front = ((0, first), (1, second))
    back = ((n - 2, penult), (n - 1, last))
    differ = all(fa != ba for fi, fa in front for bi, ba in back if fi != bi)
    return (False, differ)


def _byline_flags(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """:func:`byline_case_flags` of every publication, from the affiliation
    codes at byline positions 1, 2, n-1 and n (-1 where missing)."""
    n = corpus.pub_author_count
    start, end = corpus.pub_start[:-1], corpus.pub_start[1:]
    affiliation = corpus.auth_affiliation[corpus.by_pub]
    multi = n >= 2
    first, last = affiliation[start], affiliation[end - 1]
    second = affiliation[np.where(multi, start + 1, start)]
    penult = affiliation[np.where(multi, end - 2, start)]
    same = multi & (first >= 0) & (first == last)
    differ = multi & ~same & (first >= 0) & (second >= 0) & (penult >= 0) & (last >= 0)
    # front positions (0, 1) against back positions (n-2, n-1), unless they coincide
    for front, front_pos, back, back_pos in (
        (first, 0, penult, n - 2),
        (first, 0, last, n - 1),
        (second, 1, penult, n - 2),
        (second, 1, last, n - 1),
    ):
        differ &= (front_pos == back_pos) | (front != back)
    return same, differ


def _positional_weights(corpus: Corpus) -> np.ndarray:
    """Each authorship row's credit under the positional scheme, with
    :func:`coauthor_weights` computed once per (author count, byline pattern)."""
    same, differ = _byline_flags(corpus)
    unrecognized = int(np.count_nonzero((corpus.pub_author_count > 1) & ~same & ~differ))
    if unrecognized:
        logger.debug("%d publications: byline pattern unrecognized, using uniform weights",
                     unrecognized)
    pattern = corpus.pub_author_count * 4 + same * 2 + differ
    patterns, pub_pattern = np.unique(pattern, return_inverse=True)
    vectors = [
        coauthor_weights(
            key >> 2, WeightScheme.POSITIONAL,
            first_last_same=bool(key & 2), boundary_pairs_differ=bool(key & 1),
        )
        for key in patterns.tolist()
    ]
    offset = np.cumsum([0] + [len(v) for v in vectors[:-1]])
    flat = np.array([w for vector in vectors for w in vector])
    return flat[offset[pub_pattern[corpus.auth_pub]] + corpus.auth_position - 1]


def _scored_cells(corpus: Corpus, baselines: BaselineTable):
    """The rows of the publications with a roster author, each one's index
    into the distinct (year, category set) pairs among them, and those pairs
    as ``(year, categories)``, once ``baselines`` is checked to have every
    (year, category) cell they need."""
    pubs = np.flatnonzero(
        np.bincount(corpus.auth_pub[corpus.auth_scientist >= 0], minlength=len(corpus.pub_ids))
    )
    years, year = np.unique(corpus.pub_year[pubs], return_inverse=True)
    n_sets = len(corpus.category_sets)
    codes, pub_cell = np.unique(year * n_sets + corpus.pub_categories[pubs], return_inverse=True)
    year_code, set_code = np.divmod(codes, n_sets)
    sets = map(corpus.category_sets.__getitem__, set_code.tolist())
    cells = list(zip(years[year_code].tolist(), sets))
    baselines.require((year, cat) for year, cats in cells for cat in cats)
    return pubs, pub_cell, cells


def require_baselines(corpus: Corpus, baselines: BaselineTable) -> np.ndarray:
    """Check that ``baselines`` has a cell for every (year, category) of a
    publication with a roster author, and return those publications' rows.

    Each needed cell is looked up once, so all missing cells are reported
    together in one :class:`MissingBaselineError`.
    """
    return _scored_cells(corpus, baselines)[0]


def _publication_scores(corpus: Corpus, baselines: BaselineTable) -> np.ndarray:
    """:func:`~.baseline.standardized_score` of every publication with a
    roster author (0 for the others, which are never read), from one row of
    divisors per (year, category set) pair. The mean over categories is
    ``fmean``'s ``math.fsum(scores) / k``; for k <= 2 plain addition is that
    sum, as the float sum of two floats is correctly rounded.
    """
    pubs, pub_cell, cells = _scored_cells(corpus, baselines)
    size = np.array([len(cats) for _, cats in cells], dtype=np.int64)
    # at least two columns; a slot past a publication's categories scores 0
    divisor = np.zeros((len(cells), max(2, size.max(initial=0))))
    for row, (year, cats) in enumerate(cells):
        for slot, cat in enumerate(cats):
            cell = baselines.get(year, cat)
            if cell.median_citations > 0:
                divisor[row, slot] = cell.median_citations
            elif cell.mean_citations > 0:
                divisor[row, slot] = cell.mean_citations
    divisor, k = divisor[pub_cell], size[pub_cell]
    scores = np.divide(corpus.pub_citations[pubs, None], divisor,
                       out=np.zeros(divisor.shape), where=divisor > 0)
    mean = (scores[:, 0] + scores[:, 1]) / k
    many = np.flatnonzero(k > 2)
    for row, n in zip(many.tolist(), k[many].tolist()):
        mean[row] = math.fsum(scores[row, :n]) / n
    out = np.zeros(len(corpus.pub_ids))
    out[pubs] = mean
    return out


def compute_indicators(
    corpus: Corpus,
    baselines: BaselineTable,
    positional_udas: Collection[str] = (),
) -> IndicatorTable:
    """Compute the three indicators for every roster scientist.

    ``positional_udas`` lists the disciplines whose scientists receive
    positional co-author weights; everyone else uses uniform weights. Each
    scientist's credit is read from the weight vector of their own
    discipline's scheme. Sums run over each scientist's authorships in file
    order, so results are the same float for float as a row-by-row loop.
    """
    positional = frozenset(positional_udas)
    n_scientists = len(corpus.scientist_ids)
    rows = np.flatnonzero(corpus.auth_scientist >= 0)
    scientist = corpus.auth_scientist[rows]
    pub = corpus.auth_pub[rows]

    score = _publication_scores(corpus, baselines)[pub]
    weight = 1.0 / corpus.pub_author_count[pub]
    positional_uda = np.array([uda in positional for uda in corpus.udas], dtype=bool)
    uses_positional = positional_uda[corpus.scientist_uda]
    if uses_positional.any():
        chosen = uses_positional[scientist]
        weight[chosen] = _positional_weights(corpus)[rows[chosen]]

    n_p = np.bincount(scientist, minlength=n_scientists)
    score_sum = np.bincount(scientist, weights=score, minlength=n_scientists)
    qi = np.divide(score_sum, n_p, out=np.full(n_scientists, np.nan), where=n_p > 0)
    # float even without authorships, where bincount of no weights is int64
    fss = np.bincount(scientist, weights=score * weight, minlength=n_scientists).astype(float)
    return IndicatorTable(corpus, n_p, qi, fss)


def write_indicators(table: Mapping[str, IndicatorRecord], path: str | Path) -> Path:
    rows = sorted(table.values(), key=lambda r: r.scientist_id)
    return write_records(path, list(IndicatorRecord._fields), rows)


def read_indicators(path: str | Path, corpus: Corpus) -> IndicatorTable:
    """The table of an indicators file, whose rows must cover the roster of
    ``corpus`` once each, in any order. A row with a missing, malformed,
    non-finite or negative value, or repeating an earlier row's
    ``scientist_id``, fails naming the row."""
    schema = {
        "scientist_id": Text(),
        "n_p": Integer(minimum=0),
        "qi": Number(float, required=False),
        "fss": Number(float),
    }
    parser = FieldParser("indicators", schema, unique=("scientist_id", ("scientist_id",)))
    columns = read_records(path, parser).columns.values()
    return IndicatorTable.resolve(corpus, *columns, source=f"indicators file {path}")
