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

import logging
import math
from pathlib import Path
from typing import Collection, Iterable, NamedTuple

import numpy as np

from .baseline import BaselineTable
from .corpus import Corpus, CorpusColumns, RowView, dense_codes, fsum_rows
from .fileio import FieldParser, Integer, Number, Text, read_records, write_records

__all__ = [
    "IndicatorRecord",
    "IndicatorTable",
    "check_baselines",
    "coauthor_weights",
    "compute_indicators",
    "read_indicators",
    "require_baselines",
    "write_indicators",
]

logger = logging.getLogger(__name__)


class IndicatorRecord(NamedTuple):
    scientist_id: str
    n_p: int
    qi: float | None
    fss: float


class IndicatorTable(CorpusColumns, RowView):
    """The indicators of every scientist of ``corpus`` as columns aligned to its
    rows, ``n_p`` (int64), ``qi`` (float64, NaN where absent) and ``fss``; a
    read-only sequence of each scientist's :class:`IndicatorRecord` in row
    order, built only for the rows read (a QI of NaN reads as None), so a
    scientist's record is ``table[corpus.scientist_index[scientist_id]]``.
    What the rankings and analyses derive from one indicator is built on
    first use and kept with the table (see :meth:`derived`)."""

    def __init__(self, corpus: Corpus, n_p: np.ndarray, qi: np.ndarray, fss: np.ndarray):
        self.corpus, self.n_p, self.qi, self.fss = corpus, n_p, qi, fss
        self._derived = {}
        super().__init__(IndicatorRecord, corpus.scientist_ids, n_p, qi, fss)

    def derived(self, key, build):
        """``build()``, kept with the table under ``key`` from the first call
        on (see :mod:`.ranking`); a build that raises keeps nothing."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    @classmethod
    def resolve(cls, corpus: Corpus, ids, n_p, qi, fss, source: str = "indicator records") -> IndicatorTable:
        """The table of columns in any row order, one per id (:meth:`Corpus.rows_of`)."""
        order = np.argsort(corpus.rows_of(ids, source))
        return cls(corpus, *(np.asarray(c, t)[order] for c, t in ((n_p, np.int64), (qi, float), (fss, float))))

    def values(self) -> IndicatorTable:
        """The table itself, for callers that pass ``records.values()``, as
        the benchmark's sweep does to :func:`~.corpus.activity_rates`."""
        return self


def coauthor_weights(
    author_count: int, *, first_last_same: bool = False, boundary_pairs_differ: bool = False
) -> list[float]:
    """Per-position credit fractions of the positional scheme for a byline of
    ``author_count`` authors.

    Always sums to 1. The flags select the byline pattern
    (``first_last_same`` wins when both are set); neither flag means the
    pattern is unrecognized and credit is uniform, ``[1/n] * n``. Short
    bylines where the named roles overlap accumulate their nominal weights
    per position and the vector is renormalized, which keeps the sum exact
    for every length.
    """
    if author_count < 1:
        raise ValueError(f"author_count must be >= 1, got {author_count}")
    n = author_count
    if n == 1 or not (first_last_same or boundary_pairs_differ):
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


def _byline_flags(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """The byline pattern flags ``(first_last_same, boundary_pairs_differ)``
    of every publication, from the affiliation codes at byline positions 1,
    2, n-1 and n (-1 where missing); see the module docstring."""
    n = corpus.pub_author_count
    start, end = corpus.pub_start[:-1], corpus.pub_start[1:]
    multi = n >= 2
    first, second, penult, last = (
        corpus.auth_affiliation[corpus.by_pub[slot]]
        for slot in (start, np.where(multi, start + 1, start), np.where(multi, end - 2, start), end - 1)
    )
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


def _positional_weights(corpus: Corpus, rows: np.ndarray) -> np.ndarray:
    """The credit of each authorship of ``rows`` under the positional scheme,
    with :func:`coauthor_weights` computed once per (author count, byline pattern)."""
    same, differ = _byline_flags(corpus)
    unrecognized = int(np.count_nonzero((corpus.pub_author_count > 1) & ~same & ~differ))
    if unrecognized:
        logger.debug("%d publications: byline pattern unrecognized, using uniform weights",
                     unrecognized)
    pattern = corpus.pub_author_count * 4 + same * 2 + differ
    patterns, pub_pattern = np.unique(pattern, return_inverse=True)
    vectors = [
        coauthor_weights(key >> 2, first_last_same=bool(key & 2), boundary_pairs_differ=bool(key & 1))
        for key in patterns.tolist()
    ]
    offset = np.cumsum([0] + [len(v) for v in vectors[:-1]])
    flat = np.array([w for vector in vectors for w in vector])
    return flat[offset[pub_pattern[corpus.auth_pub[rows]]] + corpus.auth_position[rows] - 1]


def require_baselines(corpus: Corpus, baselines: BaselineTable) -> np.ndarray:
    """Check that ``baselines`` has a cell for every (year, category) of a
    publication with a roster author, and return every publication's score,
    kept read-only with ``baselines`` (:meth:`~.baseline.BaselineTable.scores`).

    Each needed cell is looked up once, so all missing cells are reported
    together in one :class:`MissingBaselineError`.
    """
    return baselines.scores(corpus, lambda: _publication_scores(corpus, baselines))


def check_baselines(corpus: Corpus, baselines: BaselineTable) -> tuple[np.ndarray, np.ndarray, list]:
    """Raise the :class:`~.baseline.MissingBaselineError` of
    :func:`require_baselines`, if any, without scoring; return the
    publications with a roster author, the row of each in ``cells``, and
    ``cells``, the distinct (year, category set) pairs among them."""
    pubs = np.flatnonzero(
        np.bincount(corpus.auth_pub[corpus.auth_scientist >= 0], minlength=len(corpus.pub_ids))
    )
    years, year = dense_codes(corpus.pub_year[pubs])
    n_sets = len(corpus.category_sets)
    codes, pub_cell = dense_codes(year * n_sets + corpus.pub_categories[pubs])
    year_code, set_code = np.divmod(codes, n_sets)
    sets = map(corpus.category_sets.__getitem__, set_code.tolist())
    cells = list(zip(years[year_code].tolist(), sets))
    baselines.require((year, cat) for year, cats in cells for cat in cats)
    return pubs, pub_cell, cells


def _publication_scores(corpus: Corpus, baselines: BaselineTable) -> np.ndarray:
    """The standardized citation score of every publication with a roster
    author (0 for the others, which are never read), the mean over its
    categories of ``citations / median``, or of ``citations / mean`` where
    the median is 0 (0 where both are), from one row of divisors per cell of
    :func:`check_baselines`. The mean over categories is ``fmean``'s
    ``math.fsum(scores) / k`` (:func:`~.corpus.fsum_rows`).
    """
    pubs, pub_cell, cells = check_baselines(corpus, baselines)
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
    out = np.zeros(len(corpus.pub_ids))
    out[pubs] = fsum_rows(scores, k) / k
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

    score = require_baselines(corpus, baselines)[pub]
    weight = 1.0 / corpus.pub_author_count[pub]
    positional_uda = np.array([uda in positional for uda in corpus.udas], dtype=bool)
    uses_positional = positional_uda[corpus.scientist_uda]
    if uses_positional.any():
        chosen = uses_positional[scientist]
        weight[chosen] = _positional_weights(corpus, rows[chosen])

    n_p = np.bincount(scientist, minlength=n_scientists)
    score_sum = np.bincount(scientist, weights=score, minlength=n_scientists)
    qi = np.divide(score_sum, n_p, out=np.full(n_scientists, np.nan), where=n_p > 0)
    # float even without authorships, where bincount of no weights is int64
    fss = np.bincount(scientist, weights=score * weight, minlength=n_scientists).astype(float)
    return IndicatorTable(corpus, n_p, qi, fss)


def write_indicators(records: Iterable[IndicatorRecord], path: str | Path) -> Path:
    rows = sorted(records, key=lambda r: r.scientist_id)
    return write_records(path, list(IndicatorRecord._fields), rows)


class _IndicatorParser(FieldParser):
    def check_rows(self, chunk: dict) -> None:
        """Reject rows :func:`compute_indicators` cannot write: a QI exactly
        when ``n_p`` is 0, or an FSS other than 0 when it is."""
        idle = (chunk["n_p"] == 0).tolist()
        for i, (no_pubs, qi, fss) in enumerate(zip(idle, chunk["qi"], chunk["fss"])):
            if no_pubs == (qi is not None):
                self.fail(i, "'qi' must be empty exactly when 'n_p' is 0")
            elif no_pubs and fss:
                self.fail(i, "'fss' must be 0 when 'n_p' is 0")


def read_indicators(path: str | Path, corpus: Corpus) -> IndicatorTable:
    """The table of an indicators file, whose rows must cover the roster of
    ``corpus`` once each, in any order. A row with a missing, malformed,
    non-finite or negative value, with a QI exactly when ``n_p`` is 0, with
    a non-zero FSS when it is, or repeating an earlier row's
    ``scientist_id``, fails naming the row."""
    schema = {
        "scientist_id": Text(),
        "n_p": Integer(minimum=0),
        "qi": Number(float, required=False),
        "fss": Number(float),
    }
    parser = _IndicatorParser("indicators", schema, unique=("scientist_id", ("scientist_id",)))
    columns = read_records(path, parser).columns.values()
    return IndicatorTable.resolve(corpus, *columns, source=f"indicators file {path}")
