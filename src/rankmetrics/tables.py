"""Report tables and their renderers.

Builders turn analysis results into :class:`Table` values with typed columns;
:func:`format_table` renders them as aligned text, delimited text (CSV with
``#``-prefixed metadata lines) or Markdown. Numeric rendering follows the
report conventions: thousands separators on counts, ``count (pct%)`` cells,
percentiles to two decimals, inequality measures to three, bracketed indices
to two, all with half-up rounding.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .analysis import ConcentrationRow, DominanceCounts, TopDistribution
from .corpus import Grid, RANKS, Rank, RosterSummary
from .ranking import INDICATORS, Indicator, PercentileTable

__all__ = [
    "Column",
    "Table",
    "build_activity_table",
    "build_age_table",
    "build_chi_square_table",
    "build_concentration_table",
    "build_dominance_table",
    "build_percentile_table",
    "build_roster_table",
    "build_top_distribution_table",
    "format_table",
    "parse_table_csv",
    "write_table",
]

_RANK_TITLES = {Rank.FULL: "Full", Rank.ASSOCIATE: "Associate", Rank.ASSISTANT: "Assistant"}


def half_up(value: float, digits: int) -> str:
    """Render ``value`` with ``digits`` decimals, rounding halves away from zero."""
    q = Decimal(1).scaleb(-digits) if digits > 0 else Decimal(1)
    return str(Decimal(repr(float(value))).quantize(q, rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class Column:
    """Table column: ``kind`` selects the renderer.

    Kinds: ``text``, ``int``, ``count`` (thousands separator), ``dec0`` to
    ``dec4`` (fixed decimals), ``count_pct`` for
    ``(count, percent)`` cells, ``pct_index`` for ``(share, index)`` cells,
    and ``x_of_y`` for ``(wins, counted)`` cells.
    """

    name: str
    kind: str = "text"


@dataclass
class Table:
    key: str
    title: str
    columns: list[Column]
    rows: list[list]
    metadata: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Cell rendering

def _rounded(value, digits: int) -> str:
    return "" if value is None else half_up(value, digits)


def _count_pct_text(value) -> str:
    count, pct = value
    return f"{int(count):,}" if pct is None else f"{int(count):,} ({_rounded(pct, 1)}%)"


def _pct_index_text(value) -> str:
    share, index = value
    if share is None or index is None:
        return _rounded(share, 1)
    return f"{_rounded(share, 1)} ({_rounded(index, 2)})"


class _Kind(NamedTuple):
    """How a column kind renders a cell that is not None: ``text`` for the
    aligned and Markdown formats; ``csv`` as one field per ``headers`` entry,
    a format of the column name. A None cell renders as empty fields."""

    headers: tuple[str, ...]
    text: Callable[[object], str]
    csv: Callable[[object], list[str]]


def _decimals(digits: int) -> _Kind:
    return _Kind(("{}",), lambda v: half_up(v, digits), lambda v: [half_up(v, digits)])


_KINDS = {
    "text": _Kind(("{}",), str, lambda v: [str(v)]),
    "int": _Kind(("{}",), lambda v: str(int(v)), lambda v: [str(int(v))]),
    "count": _Kind(("{}",), lambda v: f"{int(v):,}", lambda v: [str(int(v))]),
    **{f"dec{digits}": _decimals(digits) for digits in range(5)},
    "count_pct": _Kind(
        ("{}", "{}_pct"), _count_pct_text, lambda v: [str(int(v[0])), _rounded(v[1], 1)]
    ),
    "pct_index": _Kind(
        ("{}_share", "{}_index"), _pct_index_text, lambda v: [_rounded(v[0], 1), _rounded(v[1], 2)]
    ),
    "x_of_y": _Kind(
        ("{}_wins", "{}_counted"),
        lambda v: f"{int(v[0])} out of {int(v[1])}",
        lambda v: [str(int(v[0])), str(int(v[1]))],
    ),
}


def _kinds(table: Table) -> list[_Kind]:
    try:
        return [_KINDS[column.kind] for column in table.columns]
    except KeyError as exc:
        raise ValueError(f"unknown column kind '{exc.args[0]}'") from None


def format_table(table: Table, fmt: str = "text") -> str:
    """Render a table as ``text`` (aligned), ``csv`` (delimited) or ``md``."""
    kinds = _kinds(table)
    if fmt == "csv":
        buf = io.StringIO()
        for key, value in table.metadata.items():
            buf.write(f"# {key}: {value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([
            header.format(col.name)
            for col, kind in zip(table.columns, kinds)
            for header in kind.headers
        ])
        for row in table.rows:
            writer.writerow([
                cell
                for kind, value in zip(kinds, row)
                for cell in ([""] * len(kind.headers) if value is None else kind.csv(value))
            ])
        return buf.getvalue()

    rendered = [
        ["" if value is None else kind.text(value) for kind, value in zip(kinds, row)]
        for row in table.rows
    ]
    headers = [c.name for c in table.columns]

    if fmt == "md":
        lines = [f"## {table.title}", ""]
        lines += [f"*{key}: {value}*" for key, value in table.metadata.items()]
        if table.metadata:
            lines.append("")
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rendered:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"

    if fmt != "text":
        raise ValueError(f"unknown format '{fmt}' (expected text, csv or md)")
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [table.title]
    lines += [f"# {key}: {value}" for key, value in table.metadata.items()]
    header_line = "  ".join(
        h.ljust(w) if i == 0 else h.rjust(w) for i, (h, w) in enumerate(zip(headers, widths))
    )
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rendered:
        lines.append(
            "  ".join(
                c.ljust(w) if i == 0 else c.rjust(w)
                for i, (c, w) in enumerate(zip(row, widths))
            ).rstrip()
        )
    return "\n".join(lines) + "\n"


def write_table(table: Table, path: str | Path, fmt: str = "text") -> Path:
    path = Path(path)
    path.write_text(format_table(table, fmt), encoding="utf-8")
    return path


def parse_table_csv(path: str | Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Read back a delimited table: (metadata, header, rows)."""
    metadata: dict[str, str] = {}
    data_lines = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            metadata[key] = value
        elif line:
            data_lines.append(line)
    rows = list(csv.reader(data_lines))
    return metadata, rows[0], rows[1:]


# ---------------------------------------------------------------------------
# Builders

def _rank_columns(kind: str) -> list[Column]:
    return [Column(_RANK_TITLES[r], kind) for r in RANKS]


def _grid_rows(grid: Grid, row: Callable[[str | None], list], total: str = "Total") -> list[list]:
    """One row per UDA of ``grid``, then the pooled row ``row(None)``."""
    return [[uda, *row(uda)] for uda in grid.udas] + [[total, *row(None)]]


def build_roster_table(summary: RosterSummary) -> Table:
    columns = [Column("UDA"), Column("SDS", "int"), *_rank_columns("count_pct"), Column("Total", "count")]
    sds = summary.sds_counts

    def row(uda):
        return [
            sum(sds.values()) if uda is None else sds.get(uda, 0),
            *[(summary.headcount(uda, r), summary.share(uda, r)) for r in RANKS],
            summary.headcount(uda),
        ]

    rows = _grid_rows(summary, row)
    return Table("T1_roster", "T1. Research staff by UDA and academic rank", columns, rows)


def build_age_table(summary: RosterSummary) -> Table:
    columns = [Column("UDA"), *_rank_columns("dec0"), Column("Average", "dec0")]
    rows = _grid_rows(summary, lambda uda: [summary.mean_age(uda, r) for r in (*RANKS, None)])
    return Table("T2_mean_age", "T2. Average age of research staff by UDA and academic rank", columns, rows)


def _activity_cell(table: Grid, uda, rank, attribute: str):
    cell = table.cell(uda, rank)
    count = getattr(cell, attribute)
    pct = 100.0 * count / cell.headcount if cell.headcount else None
    return (count, pct)


def build_activity_table(activity: Grid, which: str) -> Table:
    """``which`` is ``publication`` (T3, any publication) or ``citation``
    (T4, any citation impact)."""
    attribute = f"{which}_active"
    key, title = {
        "publication": ("T3_publication_active", "T3. Scientists with at least one publication"),
        "citation": ("T4_citation_active", "T4. Scientists with at least one citation"),
    }[which]
    columns = [Column("UDA"), *_rank_columns("count_pct"), Column("Total", "count_pct")]
    rows = _grid_rows(
        activity, lambda uda: [_activity_cell(activity, uda, r, attribute) for r in (*RANKS, None)]
    )
    return Table(key, title, columns, rows)


_PERCENTILE_KEYS = {
    Indicator.NP: ("T5_percentile_np", "T5. Average percentile for publication count (N_p)"),
    Indicator.FSS: ("T6_percentile_fss", "T6. Average percentile for fractional impact (FSS)"),
    Indicator.QI: ("T7_percentile_qi", "T7. Average percentile for mean impact (QI)"),
}


def build_percentile_table(ptable: PercentileTable) -> Table:
    key, title = _PERCENTILE_KEYS[ptable.indicator]
    columns = [Column("UDA"), *_rank_columns("dec2")]
    rows = _grid_rows(ptable, lambda uda: [ptable.mean(uda, r) for r in RANKS])
    return Table(key, title, columns, rows)


def build_dominance_table(counts_by_indicator: Mapping[Indicator, DominanceCounts]) -> Table:
    order = [i for i in INDICATORS if i in counts_by_indicator]
    if not order:
        raise ValueError("no dominance counts to tabulate")
    any_counts = next(iter(counts_by_indicator.values()))
    title = (
        f"T8. SDSs where {_RANK_TITLES[any_counts.group_b].lower()} professors outperform "
        f"{_RANK_TITLES[any_counts.group_a].lower()} professors"
    )
    columns = [Column("UDA"), *[Column(i.label, "x_of_y") for i in order]]
    udas = sorted({u for c in counts_by_indicator.values() for u in c.per_uda})
    rows = []
    for uda in udas:
        rows.append([uda, *[counts_by_indicator[i].per_uda.get(uda, (0, 0)) for i in order]])
    rows.append(["Total", *[counts_by_indicator[i].total for i in order]])
    meta = {}
    for i in order:
        if counts_by_indicator[i].excluded_sds:
            meta[f"excluded_sds_{i.value}"] = str(counts_by_indicator[i].excluded_sds)
    return Table("T8_dominance", title, columns, rows, meta)


def build_concentration_table(rows_by_cell: Mapping[tuple[str, Rank], ConcentrationRow]) -> Table:
    columns = [Column("UDA")]
    for rank in RANKS:
        columns.append(Column(f"{_RANK_TITLES[rank]} Gini", "dec3"))
        columns.append(Column(f"{_RANK_TITLES[rank]} Bottom/Top", "dec3"))
    udas = sorted({u for u, _ in rows_by_cell})
    rows = []
    for uda in udas:
        row: list = [uda]
        for rank in RANKS:
            cell = rows_by_cell.get((uda, rank))
            row.append(None if cell is None else cell.gini)
            row.append(None if cell is None else cell.bottom_top_ratio)
        rows.append(row)
    return Table(
        "T9_concentration",
        "T9. Concentration of fractional impact (FSS) by UDA and academic rank",
        columns,
        rows,
    )


def build_top_distribution_table(dist: TopDistribution) -> Table:
    columns = [Column("UDA"), *_rank_columns("pct_index")]
    rows = _grid_rows(dist, lambda uda: [(dist.top_share(uda, r), dist.index(uda, r)) for r in RANKS])
    return Table(
        "T10_top_distribution",
        f"T10. Distribution of top scientists ({dist.indicator.label}) by rank, concentration index in brackets",
        columns,
        rows,
    )


def build_chi_square_table(dist: TopDistribution) -> Table:
    columns = [
        Column("UDA"),
        Column("Statistic", "dec3"),
        Column("df", "int"),
        Column("p-value", "dec4"),
    ]

    def row(uda):
        result = dist.chi_square_overall if uda is None else dist.chi_square_by_uda.get(uda)
        if result is None:
            return [None, None, None]
        return [result.statistic, result.degrees_of_freedom, result.p_value]

    rows = _grid_rows(dist, row, total="All")
    return Table(
        "chi_square",
        f"Association between top-scientist status ({dist.indicator.label}) and academic rank",
        columns,
        rows,
    )
