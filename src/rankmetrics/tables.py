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
from typing import Callable, Mapping

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

    Kinds: ``text``, ``int``, ``count`` (thousands separator), ``dec0`` /
    ``dec2`` / ``dec3`` / ``dec4`` (fixed decimals), ``count_pct`` for
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

def _render_cell(value, kind: str) -> str:
    if value is None:
        return ""
    if kind == "text":
        return str(value)
    if kind == "int":
        return str(int(value))
    if kind == "count":
        return f"{int(value):,}"
    if kind.startswith("dec"):
        return half_up(value, int(kind[3:]))
    if kind == "count_pct":
        count, pct = value
        if pct is None:
            return f"{int(count):,}"
        return f"{int(count):,} ({half_up(pct, 1)}%)"
    if kind == "pct_index":
        share, index = value
        if share is None:
            return ""
        if index is None:
            return half_up(share, 1)
        return f"{half_up(share, 1)} ({half_up(index, 2)})"
    if kind == "x_of_y":
        wins, counted = value
        return f"{int(wins)} out of {int(counted)}"
    raise ValueError(f"unknown column kind '{kind}'")


def _csv_headers(column: Column) -> list[str]:
    if column.kind == "count_pct":
        return [column.name, f"{column.name}_pct"]
    if column.kind == "pct_index":
        return [f"{column.name}_share", f"{column.name}_index"]
    if column.kind == "x_of_y":
        return [f"{column.name}_wins", f"{column.name}_counted"]
    return [column.name]


def _csv_cells(value, kind: str) -> list[str]:
    if kind == "count_pct":
        if value is None:
            return ["", ""]
        count, pct = value
        return [str(int(count)), "" if pct is None else half_up(pct, 1)]
    if kind == "pct_index":
        if value is None:
            return ["", ""]
        share, index = value
        return [
            "" if share is None else half_up(share, 1),
            "" if index is None else half_up(index, 2),
        ]
    if kind == "x_of_y":
        if value is None:
            return ["", ""]
        return [str(int(value[0])), str(int(value[1]))]
    if value is None:
        return [""]
    if kind in ("int", "count"):
        return [str(int(value))]
    if kind.startswith("dec"):
        return [half_up(value, int(kind[3:]))]
    return [str(value)]


def format_table(table: Table, fmt: str = "text") -> str:
    """Render a table as ``text`` (aligned), ``csv`` (delimited) or ``md``."""
    if fmt == "csv":
        buf = io.StringIO()
        for key, value in table.metadata.items():
            buf.write(f"# {key}: {value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        headers: list[str] = []
        for col in table.columns:
            headers.extend(_csv_headers(col))
        writer.writerow(headers)
        for row in table.rows:
            cells: list[str] = []
            for col, value in zip(table.columns, row):
                cells.extend(_csv_cells(value, col.kind))
            writer.writerow(cells)
        return buf.getvalue()

    rendered = [[_render_cell(v, c.kind) for c, v in zip(table.columns, row)] for row in table.rows]
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


def build_roster_table(summary: RosterSummary, metadata: Mapping[str, str] = ()) -> Table:
    columns = [Column("UDA"), Column("SDS", "int"), *_rank_columns("count_pct"), Column("Total", "count")]
    sds = summary.sds_counts

    def row(uda):
        return [
            sum(sds.values()) if uda is None else sds.get(uda, 0),
            *[(summary.headcount(uda, r), summary.share(uda, r)) for r in RANKS],
            summary.headcount(uda),
        ]

    rows = _grid_rows(summary, row)
    return Table("T1_roster", "T1. Research staff by UDA and academic rank", columns, rows, dict(metadata))


def build_age_table(summary: RosterSummary, metadata: Mapping[str, str] = ()) -> Table:
    columns = [Column("UDA"), *_rank_columns("dec0"), Column("Average", "dec0")]
    rows = _grid_rows(summary, lambda uda: [summary.mean_age(uda, r) for r in (*RANKS, None)])
    return Table("T2_mean_age", "T2. Average age of research staff by UDA and academic rank", columns, rows, dict(metadata))


def _activity_cell(table: Grid, uda, rank, attribute: str):
    cell = table.cell(uda, rank)
    count = getattr(cell, attribute)
    pct = 100.0 * count / cell.headcount if cell.headcount else None
    return (count, pct)


def build_activity_table(
    activity: Grid,
    which: str,
    metadata: Mapping[str, str] = (),
) -> Table:
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
    return Table(key, title, columns, rows, dict(metadata))


_PERCENTILE_KEYS = {
    Indicator.NP: ("T5_percentile_np", "T5. Average percentile for publication count (N_p)"),
    Indicator.FSS: ("T6_percentile_fss", "T6. Average percentile for fractional impact (FSS)"),
    Indicator.QI: ("T7_percentile_qi", "T7. Average percentile for mean impact (QI)"),
}


def build_percentile_table(ptable: PercentileTable, metadata: Mapping[str, str] = ()) -> Table:
    key, title = _PERCENTILE_KEYS[ptable.indicator]
    columns = [Column("UDA"), *_rank_columns("dec2")]
    rows = _grid_rows(ptable, lambda uda: [ptable.mean(uda, r) for r in RANKS])
    return Table(key, title, columns, rows, dict(metadata))


def build_dominance_table(
    counts_by_indicator: Mapping[Indicator, DominanceCounts],
    metadata: Mapping[str, str] = (),
) -> Table:
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
    meta = dict(metadata)
    for i in order:
        if counts_by_indicator[i].excluded_sds:
            meta[f"excluded_sds_{i.value}"] = str(counts_by_indicator[i].excluded_sds)
    return Table("T8_dominance", title, columns, rows, meta)


def build_concentration_table(
    rows_by_cell: Mapping[tuple[str, Rank], ConcentrationRow],
    metadata: Mapping[str, str] = (),
) -> Table:
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
        dict(metadata),
    )


def build_top_distribution_table(dist: TopDistribution, metadata: Mapping[str, str] = ()) -> Table:
    columns = [Column("UDA"), *_rank_columns("pct_index")]
    rows = _grid_rows(dist, lambda uda: [(dist.top_share(uda, r), dist.index(uda, r)) for r in RANKS])
    return Table(
        "T10_top_distribution",
        f"T10. Distribution of top scientists ({dist.indicator.label}) by rank, concentration index in brackets",
        columns,
        rows,
        dict(metadata),
    )


def build_chi_square_table(dist: TopDistribution, metadata: Mapping[str, str] = ()) -> Table:
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
        dict(metadata),
    )
