"""Rank-group comparison and concentration analyses.

Covers the dominance comparison of two rank groups pooled within a field
(distance of each group's rank sum from the maximally separated
configuration), inequality of output (Gini coefficient, bottom-40%/top-20%
ratio), the over/under-representation index of a rank among top scientists,
and the Pearson chi-square association test between excellence and rank.

The inequality measures of many blocks come from one kernel: blocks of one
length are gathered into one matrix, members in their given order, and each
statistic is computed row-wise, so a block gets the same bits as it would
alone. :func:`gini` and :func:`bottom_top_ratio` are one-block calls of it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, Grid, RANKS, Rank, stable_order, tally
from .indicators import IndicatorTable
from .ranking import Indicator, TopFlagColumn, midranks, ranked_population, sds_ranking, sorted_midranks

__all__ = [
    "ChiSquareResult",
    "ConcentrationRow",
    "DominanceCounts",
    "DominanceResult",
    "TopDistribution",
    "TopShareCell",
    "bottom_top_ratio",
    "chi_square_independence",
    "concentration_index",
    "concentration_rows",
    "dominance_counts",
    "gini",
    "sequence_criterion",
    "top_distribution",
    "weighted_uda_gini",
]


# ---------------------------------------------------------------------------
# Dominance of one rank group over another

class DominanceResult(NamedTuple):
    """Rank-sum distance of two groups from their maximal-dominance layouts.

    Both groups are pooled and ranked ascending with midranks (best value gets
    rank N). ``r_max`` is the rank sum a group would hold if it occupied the
    top block outright; ``r_diff = r_max - r_eff`` is its distance from that
    ideal, so the group with the strictly smaller ``r_diff`` outranks the
    other. ``r_diff_a + r_diff_b`` always equals ``len(a) * len(b)``.
    """

    group_a: object
    group_b: object
    r_eff_a: float
    r_max_a: float
    r_eff_b: float
    r_max_b: float
    sds_code: str | None = None

    @property
    def r_diff_a(self) -> float:
        return self.r_max_a - self.r_eff_a

    @property
    def r_diff_b(self) -> float:
        return self.r_max_b - self.r_eff_b

    @property
    def winner(self):
        """Group label with the smaller distance, or None on a tie."""
        if self.r_diff_a < self.r_diff_b:
            return self.group_a
        if self.r_diff_b < self.r_diff_a:
            return self.group_b
        return None


def sequence_criterion(
    values_a: Sequence[float],
    values_b: Sequence[float],
    group_a: object = "A",
    group_b: object = "B",
    sds_code: str | None = None,
) -> DominanceResult:
    """Compare two groups of performance values by pooled rank sums."""
    n_a, n_b = len(values_a), len(values_b)
    if n_a == 0 or n_b == 0:
        raise ValueError("both groups must be non-empty")
    ranks = midranks(list(values_a) + list(values_b))
    return DominanceResult(
        group_a=group_a,
        group_b=group_b,
        r_eff_a=float(ranks[:n_a].sum()),
        r_max_a=_top_rank_sum(n_a, n_a + n_b),
        r_eff_b=float(ranks[n_a:].sum()),
        r_max_b=_top_rank_sum(n_b, n_a + n_b),
        sds_code=sds_code,
    )


def _top_rank_sum(size, n):
    """Sum of the top ``size`` of the ranks 1..n: n + (n-1) + ... + (n-size+1).

    Works on ints and on int64 arrays alike, exactly below 2**53."""
    return size * n - size * (size - 1) / 2.0


@dataclass(frozen=True)
class DominanceCounts:
    """Per-UDA counts of fields where ``group_b`` outranks ``group_a``."""

    indicator: Indicator
    group_a: Rank
    group_b: Rank
    per_uda: Mapping[str, tuple[int, int]]  # uda -> (b_wins, fields counted)
    excluded_sds: int
    # the counted fields' codes, then their r_eff_a, r_max_a, r_eff_b and r_max_b columns
    _per_sds: tuple = field(repr=False, compare=False)

    @cached_property
    def sds_results(self) -> Mapping[str, DominanceResult]:
        """Each counted field's :class:`DominanceResult` by SDS code, in code order."""
        codes, *columns = self._per_sds
        return {
            code: DominanceResult(self.group_a, self.group_b, eff_a, top_a, eff_b, top_b, code)
            for code, eff_a, top_a, eff_b, top_b in zip(codes, *(c.tolist() for c in columns))
        }

    @property
    def total(self) -> tuple[int, int]:
        wins = sum(w for w, _ in self.per_uda.values())
        counted = sum(c for _, c in self.per_uda.values())
        return wins, counted


def dominance_counts(
    table: IndicatorTable,
    corpus: Corpus,
    indicator: Indicator,
    group_a: Rank = Rank.FULL,
    group_b: Rank = Rank.ASSISTANT,
) -> DominanceCounts:
    """Count, per UDA, the fields where ``group_b`` outranks ``group_a``.

    Fields where either group has no ranked member are excluded from the
    denominator (and reported in ``excluded_sds``). Each field's result is
    :func:`sequence_criterion` on its two groups; all fields are ranked in
    one sort, the indicator's :func:`~.ranking.sds_ranking`, whose order
    keeps the two groups' members sorted by (SDS, value), and the midrank
    sums, being sums of half-integers, are exact in any order. The two
    groups must differ.
    """
    if group_a == group_b:
        raise ValueError(f"dominance needs two different rank groups, got {group_a.value} twice")
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
    r_b = np.bincount(sds[~in_a], midrank[~in_a], minlength=len(names))[kept]
    max_a = _top_rank_sum(n_a, n_a + n_b)
    max_b = _top_rank_sum(n_b, n_a + n_b)

    # per UDA, in the order of each UDA's first counted SDS
    uda = corpus.sds_uda[kept]
    counted = np.bincount(uda, minlength=len(corpus.udas)).tolist()
    wins = np.bincount(uda[max_b - r_b < max_a - r_a], minlength=len(corpus.udas)).tolist()
    per_uda = {corpus.udas[u]: (wins[u], counted[u]) for u in dict.fromkeys(uda.tolist())}
    return DominanceCounts(
        indicator=indicator,
        group_a=group_a,
        group_b=group_b,
        per_uda=per_uda,
        excluded_sds=len(names) - len(kept),
        _per_sds=(list(map(names.__getitem__, kept.tolist())), r_a, max_a, r_b, max_b),
    )


# ---------------------------------------------------------------------------
# Inequality measures

def _block_stats(
    values: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    bottom_fraction: float,
    top_fraction: float,
    caller: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Gini coefficient and bottom/top ratio of every block
    ``values[start:start + size]``; the ratio is NaN where it is undefined.

    Blocks of one length ``n`` form one C-contiguous ``(blocks, n)`` matrix,
    members in their given order, so each row sums exactly as the 1-D
    ``.sum()`` of its block. See :func:`gini` and :func:`bottom_top_ratio`.
    """
    if not np.isfinite(values).all():
        raise ValueError(f"{caller} requires finite values")
    if (values < 0).any():
        raise ValueError(f"{caller} requires non-negative values")
    if not (0.0 < bottom_fraction < 1.0 and 0.0 < top_fraction < 1.0):
        raise ValueError("fractions must be in (0, 1)")
    g = np.empty(len(sizes))
    ratio = np.empty(len(sizes))
    # not np.unique, which imports numpy.ma on first use (about 1.5 MB resident)
    for n in np.flatnonzero(np.bincount(sizes)).tolist():
        idx = np.flatnonzero(sizes == n)
        m = values[starts[idx, None] + np.arange(n)]
        total = m.sum(axis=1)
        # stable, as Python's sorted(): tied 0.0 and -0.0 keep their order
        xs = np.sort(m, axis=1, kind="stable")
        spread = (total != 0.0) & (xs[:, 0] != xs[:, -1])
        weighted = ((2.0 * np.arange(1, n + 1) - n - 1.0) * xs).sum(axis=1)
        gi = np.divide(weighted, n * total, out=np.zeros(len(idx)), where=spread)
        # min(1.0, max(0.0, g)), which np.clip would not match on -0.0
        gi = np.where(gi > 0, gi, 0.0)
        g[idx] = np.where(gi < 1, gi, 1.0)
        k_top = max(1, math.floor(top_fraction * n))
        k_bottom = max(1, math.floor(bottom_fraction * n))
        top = np.array([math.fsum(r) for r in xs[:, n - k_top:].tolist()]) / k_top
        bottom = np.array([math.fsum(r) for r in xs[:, :k_bottom].tolist()]) / k_bottom
        ratio[idx] = np.divide(bottom, top, out=np.full(len(idx), np.nan), where=top != 0.0)
    return g, ratio


def _one_block(values, caller: str, bottom_fraction: float = 0.4, top_fraction: float = 0.2):
    """``(gini, ratio)`` of ``values`` as one block of :func:`_block_stats`."""
    x = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)
    if x.size == 0:
        raise ValueError(f"{caller} requires at least one value")
    g, ratio = _block_stats(
        x.ravel(), np.zeros(1, dtype=np.intp), np.array([x.size]), bottom_fraction, top_fraction, caller
    )
    return float(g[0]), float(ratio[0])


def gini(values) -> float:
    """Population Gini coefficient: mean absolute difference over twice the mean.

    0 means every value is equal, 1 maximal inequality; an all-zero vector is
    defined as 0. Computed with the sorted-index identity, which matches the
    O(n^2) pairwise definition to float precision. Values must be finite and
    non-negative.
    """
    return _one_block(values, "gini")[0]


def weighted_uda_gini(per_sds: Iterable[tuple[float, int]]) -> float:
    """Headcount-weighted mean of per-field Gini coefficients."""
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


def bottom_top_ratio(
    values,
    bottom_fraction: float = 0.4,
    top_fraction: float = 0.2,
) -> float | None:
    """Per-capita output of the weakest block over that of the strongest block.

    Block sizes are ``max(1, floor(fraction * n))`` and each block's output is
    the correctly rounded ``math.fsum`` of its sorted values. 1 means a
    perfectly uniform population, values toward 0 mean concentration at the
    top; None (undefined) when the top block has zero output. Values must be
    finite and non-negative.
    """
    ratio = _one_block(values, "bottom_top_ratio", bottom_fraction, top_fraction)[1]
    return None if math.isnan(ratio) else ratio


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

@dataclass(frozen=True)
class ConcentrationRow:
    uda_code: str
    rank: Rank
    gini: float
    bottom_top_ratio: float | None


def concentration_rows(
    table: IndicatorTable,
    corpus: Corpus,
    indicator: Indicator = Indicator.FSS,
    bottom_fraction: float = 0.4,
    top_fraction: float = 0.2,
) -> dict[tuple[str, Rank], ConcentrationRow]:
    """Inequality of output per UDA and rank.

    Gini and bottom/top ratios are computed per field, then weighted up to the
    UDA by each field's staff share of that rank. Fields whose ratio is
    undefined (zero top output) are left out of the ratio average; if every
    field's ratio is undefined the UDA ratio is None. Every field's values
    enter one :func:`gini`/:func:`bottom_top_ratio` kernel call in corpus
    row order, and each cell adds its fields in SDS-code order.
    """
    rows, values = ranked_population(table, indicator, corpus)
    names, udas = corpus.sds_codes, corpus.udas
    sds = corpus.scientist_sds[rows]
    # one block per (SDS, rank), ordered by (UDA, rank, SDS code), members in row order
    key = (corpus.sds_uda[sds] * len(RANKS) + corpus.scientist_rank[rows]) * len(names) + sds
    order = stable_order(key)
    key, values = key[order], values[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    sizes = np.diff(np.append(starts, len(key)))
    g, ratio = _block_stats(values, starts, sizes, bottom_fraction, top_fraction, "concentration_rows")
    blocks = zip((key[starts] // len(names)).tolist(), g.tolist(), ratio.tolist(), sizes.tolist())

    out: dict[tuple[str, Rank], ConcentrationRow] = {}
    for code, cell_blocks in groupby(blocks, key=itemgetter(0)):
        cell_blocks = list(cell_blocks)
        ratio_cells = [(r, size) for _, _, r, size in cell_blocks if not math.isnan(r)]
        uda, rank = udas[code // len(RANKS)], RANKS[code % len(RANKS)]
        out[(uda, rank)] = ConcentrationRow(
            uda_code=uda,
            rank=rank,
            gini=weighted_uda_gini((gi, size) for _, gi, _, size in cell_blocks),
            bottom_top_ratio=weighted_uda_gini(ratio_cells) if ratio_cells else None,
        )
    return out


class TopShareCell(NamedTuple):
    top_count: int = 0
    staff_count: int = 0


@dataclass(frozen=True)
class TopDistribution(Grid):
    """How top scientists distribute over ranks, per UDA and overall."""

    indicator: Indicator
    chi_square_by_uda: Mapping[str, ChiSquareResult | None]
    chi_square_overall: ChiSquareResult | None

    def top_share(self, uda: str | None, rank: Rank) -> float | None:
        return self.percent("top_count", uda, rank)

    def staff_share(self, uda: str | None, rank: Rank) -> float | None:
        return self.percent("staff_count", uda, rank)

    def index(self, uda: str | None, rank: Rank) -> float | None:
        top = self.top_share(uda, rank)
        staff = self.staff_share(uda, rank)
        if top is None or staff is None or staff == 0:
            return None
        return concentration_index(top, staff)


def _rank_chi_square(grid: Grid, uda: str | None) -> ChiSquareResult | None:
    """Excellence-vs-rank test on the rank cells of ``uda`` (all UDAs when None)."""
    columns = [c for c in (grid.cell(uda, r) for r in RANKS) if c.staff_count > 0]
    if len(columns) < 2:
        return None
    top = [c.top_count for c in columns]
    rest = [c.staff_count - c.top_count for c in columns]
    if sum(top) == 0 or sum(rest) == 0:
        return None
    return chi_square_independence([top, rest])


def top_distribution(
    flags: TopFlagColumn,
    corpus: Corpus,
    indicator: Indicator = Indicator.FSS,
) -> TopDistribution:
    """Distribution of flagged top scientists over ranks, with the association
    test between excellence and rank (per UDA and for the whole population).
    Flags of another indicator than ``indicator`` raise."""
    if flags.indicator is not indicator:
        raise ValueError(f"top flags of {flags.indicator.label} given for {indicator.label}")
    top = np.isin(np.arange(len(corpus.scientist_ids)), flags.bound_to(corpus).rows[flags.is_top])
    cells = tally(TopShareCell, corpus.udas, corpus.scientist_uda, corpus.scientist_rank, top, np.ones(len(top)))
    grid = Grid(TopShareCell, cells)
    return TopDistribution(
        TopShareCell,
        cells,
        indicator=indicator,
        chi_square_by_uda={uda: _rank_chi_square(grid, uda) for uda in corpus.udas},
        chi_square_overall=_rank_chi_square(grid, None),
    )
