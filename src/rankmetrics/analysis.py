"""Rank-group comparison and concentration analyses.

Covers the dominance comparison of two rank groups pooled within a field
(distance of each group's rank sum from the maximally separated
configuration), inequality of output (Gini coefficient, bottom-40%/top-20%
ratio), the over/under-representation index of a rank among top scientists,
and the Pearson chi-square association test between excellence and rank.

Every field's dominance comes from one pooled ranking of all fields, and the
inequality measures of every (SDS, rank) block from one kernel: blocks of one
length are gathered into one matrix of sorted rows, and each statistic is
computed row-wise, so a block gets the same bits as it would alone, in any
order. Dominance counts and the sorted concentration blocks are kept with
their :class:`~.indicators.IndicatorTable` (see :mod:`.ranking`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .corpus import Corpus, Grid, RANKS, Rank, fsum_rows, stable_order, tally
from .indicators import IndicatorTable
from .ranking import (
    Indicator, TopFlagColumn, _read_only, ranked_population, sds_ranking, sorted_midranks,
)

__all__ = [
    "ChiSquareResult",
    "DominanceCounts",
    "SpreadCell",
    "TopDistribution",
    "TopShareCell",
    "chi_square_independence",
    "chi_square_upper_tail",
    "concentration_index",
    "concentration_rows",
    "dominance_counts",
    "top_distribution",
]


# ---------------------------------------------------------------------------
# Dominance of one rank group over another

@dataclass(frozen=True)
class DominanceCounts:
    """Per-UDA counts of fields where ``group_b`` outranks ``group_a``, and
    the counted fields as columns in SDS-code order: their ``sds_codes``,
    each group's distance ``r_diff_a`` and ``r_diff_b`` (see
    :func:`dominance_counts`), and the ``b_wins`` mask ``per_uda`` counts;
    the arrays are read-only."""

    indicator: Indicator
    group_a: Rank
    group_b: Rank
    per_uda: Mapping[str, tuple[int, int]]  # uda -> (b_wins, fields counted)
    excluded_sds: int
    sds_codes: tuple[str, ...] = field(repr=False, compare=False)
    r_diff_a: np.ndarray = field(repr=False, compare=False)
    r_diff_b: np.ndarray = field(repr=False, compare=False)
    b_wins: np.ndarray = field(repr=False, compare=False)

    @property
    def total(self) -> tuple[int, int]:
        return int(self.b_wins.sum()), len(self.b_wins)


def dominance_counts(
    table: IndicatorTable,
    corpus: Corpus,
    indicator: Indicator,
    group_a: Rank = Rank.FULL,
    group_b: Rank = Rank.ASSISTANT,
) -> DominanceCounts:
    """Count, per UDA, the fields where ``group_b`` outranks ``group_a``.

    In a field, the members of both groups are pooled and ranked ascending
    with midranks, so the best of ``N = n_a + n_b`` values ranks N. A group
    of ``n`` members holding the top block outright would have the rank sum
    ``r_max = n*N - n(n-1)/2``; its distance from that is ``r_diff = r_max -
    r_eff``, with ``r_eff`` its actual rank sum, and ``group_b`` outranks
    ``group_a`` where its ``r_diff`` is strictly smaller. ``r_diff_a`` is
    the Mann-Whitney U of ``group_b`` and ``r_diff_b`` that of ``group_a``,
    so they add up to ``n_a * n_b``. Fields where either group has no
    ranked member are excluded from the denominator (and reported in
    ``excluded_sds``). All fields are ranked in one sort, the indicator's
    :func:`~.ranking.sds_ranking`, whose order keeps the two groups' members
    sorted by (SDS, value), and the midrank sums, being sums of
    half-integers, are exact in any order. The two groups must differ. The
    counts are kept with the table, read-only, and returned on every call
    for the same indicator and groups.
    """
    if group_a == group_b:
        raise ValueError(f"dominance needs two different rank groups, got {group_a.value} twice")
    return IndicatorTable.bound(table, corpus).derived(
        ("dominance", indicator, group_a, group_b),
        lambda: _dominance(table, corpus, indicator, group_a, group_b),
    )


def _dominance(
    table: IndicatorTable, corpus: Corpus, indicator: Indicator, group_a: Rank, group_b: Rank
) -> DominanceCounts:
    code_a, code_b = RANKS.index(group_a), RANKS.index(group_b)
    ranking = sds_ranking(table, indicator, corpus)
    order = ranking.order
    rank = corpus.scientist_rank[ranking.rows[order]]
    member = (rank == code_a) | (rank == code_b)
    in_a = rank[member] == code_a
    # both groups' members, still in the ranking's (SDS, value) order
    pooled = order[member]
    sds = ranking.sds[pooled]
    names = corpus.sds_codes
    size = np.bincount(sds, minlength=len(names))
    midrank = sorted_midranks(sds, ranking.values[pooled], np.cumsum(size) - size)
    n_a = np.bincount(sds[in_a], minlength=len(names))
    n_b = size - n_a
    kept = np.flatnonzero((n_a > 0) & (n_b > 0))
    n_a, n_b = n_a[kept], n_b[kept]
    r_a = np.bincount(sds[in_a], midrank[in_a], minlength=len(names))[kept]
    # group a's U is r_eff_a - n_a(n_a+1)/2; every term is a half-integer, exact below 2**53
    r_diff_b = r_a - n_a * (n_a + 1) / 2.0
    r_diff_a = n_a * n_b - r_diff_b
    b_wins = r_diff_b < r_diff_a
    _read_only(r_diff_a, r_diff_b, b_wins)

    # per UDA, in the order of each UDA's first counted SDS
    uda = corpus.sds_uda[kept]
    counted = np.bincount(uda, minlength=len(corpus.udas)).tolist()
    wins = np.bincount(uda[b_wins], minlength=len(corpus.udas)).tolist()
    per_uda = {corpus.udas[u]: (wins[u], counted[u]) for u in dict.fromkeys(uda.tolist())}
    return DominanceCounts(
        indicator=indicator,
        group_a=group_a,
        group_b=group_b,
        per_uda=MappingProxyType(per_uda),
        excluded_sds=len(names) - len(kept),
        sds_codes=tuple(map(names.__getitem__, kept.tolist())),
        r_diff_a=r_diff_a,
        r_diff_b=r_diff_b,
        b_wins=b_wins,
    )


# ---------------------------------------------------------------------------
# Inequality measures

def _sorted_blocks(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray, name) -> tuple[tuple, np.ndarray]:
    """Every block ``values[start:start + size]`` of finite non-negative
    values sorted, as ``(indices, sorted rows)`` per block length, and each
    block's Gini coefficient, all read-only; :func:`_ratios` takes their
    bottom/top ratios. Raises ValueError naming (``name(i)``) the first block
    ``i`` whose ``n * sum`` is not finite, so every value computed from a
    block stays finite.

    Blocks of one length ``n`` form one ``(blocks, n)`` matrix of sorted
    rows, so each block's total is the 1-D ``.sum()`` of its sorted values,
    whatever the order of its members.
    """
    g = np.empty(len(sizes))
    lengths, overflow = [], []
    # not np.unique, which imports numpy.ma on first use (about 1.5 MB resident)
    for n in np.flatnonzero(np.bincount(sizes)).tolist():
        idx = np.flatnonzero(sizes == n)
        xs = np.sort(values[starts[idx, None] + np.arange(n)], axis=1)
        with np.errstate(over="ignore"):
            total = xs.sum(axis=1)
            finite = np.isfinite(n * total)
        if not finite.all():
            overflow.append(idx[~finite][0])
            continue
        spread = (total != 0.0) & (xs[:, 0] != xs[:, -1])
        weighted = ((2.0 * np.arange(1, n + 1) - n - 1.0) * xs).sum(axis=1)
        gi = np.divide(weighted, n * total, out=np.zeros(len(idx)), where=spread)
        # max(0.0, g), which np.clip would not match on -0.0; no upper clamp, as
        # sum (2i - n - 1) x_(i) <= (n - 1) sum, so g <= (n - 1) / n
        g[idx] = np.where(gi > 0, gi, 0.0)
        lengths.append(_read_only(idx, xs))
    if overflow:
        block = min(overflow)
        raise ValueError(f"concentration_rows: values too large in {name(block)}: "
                         f"{sizes[block]} * their sum is not finite")
    g.flags.writeable = False
    return tuple(lengths), g


def _ratios(lengths: tuple, count: int, bottom_fraction: float, top_fraction: float) -> np.ndarray:
    """The bottom/top ratio of each of the ``count`` blocks, NaN where it is undefined."""
    ratio = np.empty(count)
    for idx, xs in lengths:
        n = xs.shape[1]
        k_top = max(1, math.floor(top_fraction * n))
        k_bottom = max(1, math.floor(bottom_fraction * n))
        top = fsum_rows(xs[:, n - k_top:], k_top) / k_top
        bottom = fsum_rows(xs[:, :k_bottom], k_bottom) / k_bottom
        ratio[idx] = np.divide(bottom, top, out=np.full(len(idx), np.nan), where=top != 0.0)
    return ratio


def concentration_index(top_share: float, staff_share: float) -> float:
    """Share among top scientists over share of staff; 1 is neutral."""
    if staff_share <= 0:
        raise ValueError(f"staff share must be positive, got {staff_share}")
    return top_share / staff_share


# ---------------------------------------------------------------------------
# Pearson chi-square test

@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    degrees_of_freedom: int
    p_value: float


def chi_square_upper_tail(statistic: float, df: int) -> float:
    """P(X >= statistic) for a chi-square variable with ``df`` degrees of
    freedom: Q(df/2, y) with y = statistic/2, the upper regularized
    incomplete gamma, in its closed form for integer ``df``: ``df // 2``
    Poisson-like terms ``y**a * exp(-y) / gamma(a + 1)``, ``a = k + (df % 2)/2``,
    plus ``erfc(sqrt(y))`` when ``df`` is odd."""
    try:
        df = operator.index(df)
    except TypeError:
        raise ValueError(f"degrees of freedom must be an integer, got {df!r}") from None
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if not statistic >= 0:
        raise ValueError(f"statistic must be non-negative, got {statistic}")
    y = statistic / 2.0
    if y == 0.0:
        return 1.0
    if y == math.inf:
        return 0.0
    half = (df % 2) / 2.0
    log_y = math.log(y)
    terms = [math.exp((k + half) * log_y - y - math.lgamma(k + half + 1.0))
             for k in range(df // 2)]
    if half:
        terms.append(math.erfc(math.sqrt(y)))
    return min(1.0, math.fsum(terms))


def chi_square_independence(contingency) -> ChiSquareResult:
    """Pearson chi-square test of independence on an r x k count table.

    Expected counts come from the row/column marginals; every marginal must be
    positive and both dimensions at least 2. For the 2 x k tables used in the
    excellence-vs-rank analysis the degrees of freedom reduce to k - 1.
    """
    obs = np.asarray(contingency, dtype=float)
    if obs.ndim != 2 or obs.shape[0] < 2 or obs.shape[1] < 2:
        raise ValueError("contingency table must be at least 2 x 2")
    if np.any(obs < 0):
        raise ValueError("counts must be non-negative")
    rows = obs.sum(axis=1)
    cols = obs.sum(axis=0)
    if np.any(rows == 0) or np.any(cols == 0):
        raise ValueError("every row and column marginal must be positive")
    expected = np.outer(rows, cols) / obs.sum()
    statistic = float(((obs - expected) ** 2 / expected).sum())
    df = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    return ChiSquareResult(statistic, df, chi_square_upper_tail(statistic, df))


# ---------------------------------------------------------------------------
# UDA-level concentration and top-scientist distribution

def concentration_rows(
    table: IndicatorTable,
    corpus: Corpus,
    indicator: Indicator = Indicator.FSS,
    bottom_fraction: float = 0.4,
    top_fraction: float = 0.2,
) -> Grid:
    """Inequality of output per UDA and rank, a grid of :class:`SpreadCell`.

    The Gini coefficient of a field's ``n`` values is their mean absolute
    difference over twice their mean, ``sum |x_i - x_j| / (2 n^2 mean)`` over
    all pairs, taken from the sorted values as ``sum (2i - n - 1) x_(i) / (n *
    sum)``, at most ``(n - 1) / n`` and clamped below at 0: 0 when all values
    are equal, and defined as 0 when all are zero. The bottom/top ratio is the
    per-capita output of the ``max(1, floor(bottom_fraction * n))`` lowest
    values over that of the ``max(1, floor(top_fraction * n))`` highest, each
    block's output the correctly rounded ``math.fsum`` of its sorted values:
    1 for a uniform field, toward 0 as output concentrates at the top,
    undefined when the top block has zero output.

    Both are computed per field, then weighted up to the UDA by each field's
    staff share of that rank. Fields whose ratio is undefined are left out
    of the ratio average; if every field's ratio is undefined the UDA ratio
    is None. Values must be finite and non-negative, and a field whose
    ``n * sum`` is not finite raises ValueError naming its SDS and rank.
    Every field's values enter one kernel call, which sorts each block, and
    each cell adds its fields in SDS-code order through :func:`~.corpus.tally`.
    The sorted blocks and the Gini columns are kept with the table; only the
    ratios are computed per call.
    """
    rows, values = ranked_population(table, indicator, corpus)
    if not np.isfinite(values).all():
        raise ValueError("concentration_rows requires finite values")
    if (values < 0).any():
        raise ValueError("concentration_rows requires non-negative values")
    if not (0.0 < bottom_fraction < 1.0 and 0.0 < top_fraction < 1.0):
        raise ValueError("fractions must be in (0, 1)")
    lengths, g, size, uda, rank = table.derived(
        ("concentration", indicator), lambda: _concentration_blocks(corpus, rows, values)
    )
    ratio = _ratios(lengths, len(size), bottom_fraction, top_fraction)
    defined = ~np.isnan(ratio)
    cells = tally(SpreadCell, corpus.udas, uda, rank,
                  g * size, size, np.where(defined, ratio, 0.0) * size, defined * size)
    return Grid(SpreadCell, cells)


class SpreadCell(NamedTuple):
    """Headcount-weighted sums of one (UDA, rank) cell of :func:`concentration_rows`."""
    gini_total: float = 0.0
    headcount: int = 0
    ratio_total: float = 0.0  # over the fields whose ratio is defined
    ratio_headcount: int = 0

    @property
    def gini(self) -> float | None:
        return self.gini_total / self.headcount if self.headcount else None

    @property
    def bottom_top_ratio(self) -> float | None:
        """None also where no field's ratio is defined."""
        return self.ratio_total / self.ratio_headcount if self.ratio_headcount else None


def _concentration_blocks(corpus: Corpus, rows: np.ndarray, values: np.ndarray) -> tuple:
    """The sorted blocks of :func:`concentration_rows`, one per (SDS, rank)
    ordered by (UDA, rank, SDS code), members sorted; then each
    block's Gini coefficient, headcount, UDA code and rank code, read-only."""
    names = corpus.sds_codes
    sds = corpus.scientist_sds[rows]
    key = (corpus.sds_uda[sds] * len(RANKS) + corpus.scientist_rank[rows]) * len(names) + sds
    order = stable_order(key)
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    sizes = np.diff(np.append(starts, len(key)))

    def name(block: int) -> str:
        cell, sds_code = divmod(int(key[starts[block]]), len(names))
        return f"SDS '{names[sds_code]}', rank {RANKS[cell % len(RANKS)].value}"

    lengths, g = _sorted_blocks(values[order], starts, sizes, name)
    return lengths, g, *_read_only(sizes, *np.divmod(key[starts] // len(names), len(RANKS)))


class TopShareCell(NamedTuple):
    top_count: int = 0
    staff_count: int = 0


@dataclass(frozen=True)
class TopDistribution(Grid):
    """How top scientists distribute over ranks, per UDA and overall, a grid
    of :class:`TopShareCell`: a rank's share of the top scientists is
    ``percent("top_count", uda, rank)``."""

    indicator: Indicator

    def chi_square(self, uda: str | None = None) -> ChiSquareResult | None:
        """The excellence-vs-rank test on the rank cells of ``uda`` (all UDAs
        when None); None unless two ranks have staff and both the top and the
        other scientists are present."""
        columns = [c for c in (self.cell(uda, r) for r in RANKS) if c.staff_count > 0]
        top = [c.top_count for c in columns]
        rest = [c.staff_count - c.top_count for c in columns]
        if len(columns) < 2 or sum(top) == 0 or sum(rest) == 0:
            return None
        return chi_square_independence([top, rest])

    def index(self, uda: str | None, rank: Rank) -> float | None:
        """:func:`concentration_index` of the rank's ``percent`` of the top
        scientists and of the staff of ``uda`` (all UDAs when None)."""
        top = self.percent("top_count", uda, rank)
        staff = self.percent("staff_count", uda, rank)
        if top is None or staff is None or staff == 0:
            return None
        return concentration_index(top, staff)


def top_distribution(
    flags: TopFlagColumn,
    corpus: Corpus,
    indicator: Indicator = Indicator.FSS,
) -> TopDistribution:
    """Distribution of flagged top scientists over ranks, with the association
    test between excellence and rank (per UDA and for the whole population).
    Flags of another indicator than ``indicator`` raise."""
    if TopFlagColumn.bound(flags, corpus).indicator is not indicator:
        raise ValueError(f"top flags of {flags.indicator.label} given for {indicator.label}")
    top = np.zeros(len(corpus.scientist_ids), dtype=bool)
    top[flags.rows[flags.is_top]] = True
    cells = tally(TopShareCell, corpus.udas, corpus.scientist_uda, corpus.scientist_rank, top, np.ones(len(top)))
    return TopDistribution(TopShareCell, cells, indicator=indicator)
