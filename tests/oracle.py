"""Independent scalar references for the batched library kernels.

Each function here takes one field, byline, publication or (UDA, rank)
cell as plain Python values and computes one rule the way it was first written, one case at a
time, and imports nothing from ``rankmetrics`` (``standardized_score``
reads cells through the ``get`` method of the baseline table it is given).
The tests run the library's batched public API on corpora with one case per
block and compare its results with these, bit for bit where the arithmetic
is the same.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


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


def standardized_score(
    year: int, citation_count: int, categories: Iterable[str], baselines: BaselineTable
) -> float:
    """Standardized citation score of a publication given by its fields.

    Per category the score is ``citation_count / median``; a zero median falls
    back to the cell mean, and a cell where both are zero scores 0 (every
    member is uncited). The publication score is the mean over its categories
    (``math.fsum(scores) / k``), so it is 0 exactly when the publication is uncited.
    """
    scores = []
    for cat in categories:
        cell = baselines.get(year, cat)
        if cell.median_citations > 0:
            scores.append(citation_count / cell.median_citations)
        elif cell.mean_citations > 0:
            scores.append(citation_count / cell.mean_citations)
        else:
            scores.append(0.0)
    if not scores:
        raise ValueError("a publication needs at least one category to be scored")
    return math.fsum(scores) / len(scores)


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


def weighted_uda_gini(per_sds: Iterable[tuple[float, int]]) -> float:
    """Headcount-weighted mean of per-field Gini coefficients (or ratios),
    the fields added in the order given."""
    pairs = list(per_sds)
    if not pairs:
        raise ValueError("weighted_uda_gini requires at least one field")
    total = 0.0
    weight = 0
    for g, headcount in pairs:
        if headcount <= 0:
            raise ValueError(f"headcount must be positive, got {headcount}")
        total += g * headcount
        weight += headcount
    return total / weight
