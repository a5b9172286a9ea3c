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
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .baseline import BaselineTable, standardized_score
from .corpus import Corpus
from .fileio import read_records, write_records

__all__ = [
    "IndicatorRecord",
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


@dataclass(frozen=True)
class IndicatorRecord:
    scientist_id: str
    n_p: int
    qi: float | None
    fss: float


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


def require_baselines(corpus: Corpus, baselines: BaselineTable) -> np.ndarray:
    """Check that ``baselines`` has a cell for every (year, category) of a
    publication with a roster author, and return those publications' rows.

    Each needed cell is looked up once, so all missing cells are reported
    together in one :class:`MissingBaselineError`.
    """
    pubs = np.flatnonzero(
        np.bincount(corpus.auth_pub[corpus.auth_scientist >= 0], minlength=len(corpus.pub_ids))
    )
    sets = corpus.category_sets
    pairs = set(zip(corpus.pub_year[pubs].tolist(), corpus.pub_categories[pubs].tolist()))
    baselines.require((year, cat) for year, code in pairs for cat in sets[code])
    return pubs


def _publication_scores(corpus: Corpus, baselines: BaselineTable) -> np.ndarray:
    """Standardized score of every publication with a roster author (0 for
    the others, which are never read), after :func:`require_baselines`.
    Each distinct (year, categories, citations) is scored once.
    """
    pubs = require_baselines(corpus, baselines)
    sets = corpus.category_sets

    class Scores(dict):
        def __missing__(self, key):
            year, cats, citations = key
            score = self[key] = standardized_score(year, citations, sets[cats], baselines)
            return score

    keys = zip(
        corpus.pub_year[pubs].tolist(),
        corpus.pub_categories[pubs].tolist(),
        corpus.pub_citations[pubs].tolist(),
    )
    scores = np.zeros(len(corpus.pub_ids))
    scores[pubs] = np.fromiter(map(Scores().__getitem__, keys), float, len(pubs))
    return scores


def compute_indicators(
    corpus: Corpus,
    baselines: BaselineTable,
    positional_udas: Collection[str] = (),
) -> dict[str, IndicatorRecord]:
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

    n_p = np.bincount(scientist, minlength=n_scientists).tolist()
    score_sum = np.bincount(scientist, weights=score, minlength=n_scientists).tolist()
    fss = np.bincount(scientist, weights=score * weight, minlength=n_scientists).tolist()
    records: dict[str, IndicatorRecord] = {}
    for sid, count, total, credit in zip(corpus.scientist_ids, n_p, score_sum, fss):
        if count:
            records[sid] = IndicatorRecord(sid, count, total / count, credit)
        else:
            records[sid] = IndicatorRecord(sid, 0, None, 0.0)
    return records


def write_indicators(records: Iterable[IndicatorRecord] | Mapping[str, IndicatorRecord], path: str | Path) -> Path:
    if isinstance(records, Mapping):
        records = records.values()
    rows = (
        {
            "scientist_id": r.scientist_id,
            "n_p": r.n_p,
            "qi": "" if r.qi is None else repr(r.qi),
            "fss": repr(r.fss),
        }
        for r in sorted(records, key=lambda r: r.scientist_id)
    )
    return write_records(path, ["scientist_id", "n_p", "qi", "fss"], rows)


def read_indicators(path: str | Path) -> dict[str, IndicatorRecord]:
    """Indicator records by scientist id. A row with a missing, malformed,
    non-finite or negative value, or repeating an earlier row's
    ``scientist_id``, fails naming the row."""
    records = {}
    rows = {}
    for i, row in enumerate(read_records(path), start=1):
        try:
            qi_raw = row.get("qi")
            if isinstance(qi_raw, str):
                qi_raw = qi_raw.strip()
            rec = IndicatorRecord(
                scientist_id=str(row["scientist_id"]),
                n_p=int(row["n_p"]),
                qi=None if qi_raw in (None, "") else float(qi_raw),
                fss=float(row["fss"]),
            )
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"indicators row {i}: malformed record {row!r}") from None
        for key in ("n_p", "qi", "fss"):
            value = getattr(rec, key)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ValueError(f"indicators row {i}: '{key}' must be finite and >= 0, got {value!r}")
        first = rows.setdefault(rec.scientist_id, i)
        if first != i:
            raise ValueError(
                f"indicators row {i}: scientist_id '{rec.scientist_id}' repeats row {first}"
            )
        records[rec.scientist_id] = rec
    return records
