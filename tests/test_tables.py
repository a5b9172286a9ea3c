"""Numeric rendering conventions and the delimited round trip."""

import pytest

from rankmetrics.tables import Column, Table, format_table, half_up, parse_table_csv, write_table


def test_half_up_rounding():
    assert half_up(35.05, 1) == "35.1"
    assert half_up(0.125, 2) == "0.13"
    assert half_up(2.5, 0) == "3"
    assert half_up(0.5604, 3) == "0.560"
    assert half_up(1.051, 2) == "1.05"
    assert half_up(23.849, 1) == "23.8"


def test_reference_activity_cell_renders():
    # 9,861 active of 10,764 renders as 91.6%
    assert half_up(100.0 * 9861 / 10764, 1) == "91.6"


def _table():
    columns = [
        Column("UDA"),
        Column("Staff", "count_pct"),
        Column("Gini", "dec3"),
        Column("Tops", "pct_index"),
        Column("Wins", "x_of_y"),
    ]
    rows = [
        ["U1", (10764, 35.1), 0.5604, (39.1, 1.051), (8, 176)],
        ["U2", (955, None), None, (12.0, None), (0, 9)],
    ]
    return Table("demo", "Demo table", columns, rows, {"tool": "rankmetrics test"})


def test_text_rendering_conventions():
    text = format_table(_table(), "text")
    assert "10,764 (35.1%)" in text
    assert "0.560" in text
    assert "39.1 (1.05)" in text
    assert "8 out of 176" in text
    assert "# tool: rankmetrics test" in text


def test_md_rendering():
    md = format_table(_table(), "md")
    assert md.startswith("## Demo table")
    assert "| U1 |" in md
    assert "10,764 (35.1%)" in md


def test_csv_expands_composite_columns(tmp_path):
    path = write_table(_table(), tmp_path / "demo.csv", "csv")
    metadata, header, rows = parse_table_csv(path)
    assert metadata == {"tool": "rankmetrics test"}
    assert header == [
        "UDA", "Staff", "Staff_pct", "Gini", "Tops_share", "Tops_index", "Wins_wins", "Wins_counted",
    ]
    assert rows[0] == ["U1", "10764", "35.1", "0.560", "39.1", "1.05", "8", "176"]
    assert rows[1] == ["U2", "955", "", "", "12.0", "", "0", "9"]


def test_csv_round_trip_preserves_values(tmp_path):
    table = _table()
    path = write_table(table, tmp_path / "demo.csv", "csv")
    _, header, rows = parse_table_csv(path)
    # values re-parse to the numbers that produced them, at rendering precision
    assert int(rows[0][1]) == 10764
    assert float(rows[0][2]) == pytest.approx(35.1)
    assert float(rows[0][3]) == pytest.approx(0.5604, abs=5e-4)
    assert float(rows[0][5]) == pytest.approx(1.051, abs=5e-3)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        format_table(_table(), "xml")


KINDS = ["int", "count", "dec0", "dec1", "dec2", "dec3", "dec4", "count_pct", "pct_index", "x_of_y"]


def _kinds_table():
    """Every column kind: a full value, None, and composites with one part None."""
    columns = [Column("name"), Column("text", "text")] + [Column(kind, kind) for kind in KINDS]
    rows = [
        ["full", "a b", 7, 12345, 2.5, 0.25, 35.125, 0.56045, 0.00005,
         (10764, 35.05), (39.15, 1.055), (8, 176)],
        ["none", None, None, None, None, None, None, None, None, None, None, None],
        ["part", 5, 0, 999, -0.5, 1.05, 2.675, 1.0, 0.12345, (955, None), (12.0, None), (0, 9)],
        ["part2", "", 3.9, 1000.0, 0.4999, 0.05, 0.005, 0.0005, 1.23455,
         (0, 0.0), (None, 1.2), (3, 3)],
    ]
    return Table("kinds", "Every column kind", columns, rows, {"tool": "test"})


# recorded from the per-kind renderers that the kind table replaced
KINDS_RENDERED = {
    "text": (
        "Every column kind\n"
        "# tool: test\n"
        "name   text  int   count  dec0  dec1   dec2   dec3    dec4       count_pct    pct_index        x_of_y\n"
        "-----------------------------------------------------------------------------------------------------\n"
        "full    a b    7  12,345     3   0.3  35.13  0.560  0.0001  10,764 (35.1%)  39.2 (1.06)  8 out of 176\n"
        "none\n"
        "part      5    0     999    -1   1.1   2.68  1.000  0.1235             955         12.0    0 out of 9\n"
        "part2          3   1,000     0   0.1   0.01  0.001  1.2346        0 (0.0%)                 3 out of 3\n"
    ),
    "md": (
        "## Every column kind\n"
        "\n"
        "*tool: test*\n"
        "\n"
        "| name | text | int | count | dec0 | dec1 | dec2 | dec3 | dec4 | count_pct | pct_index | x_of_y |\n"
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |\n"
        "| full | a b | 7 | 12,345 | 3 | 0.3 | 35.13 | 0.560 | 0.0001 | 10,764 (35.1%) | 39.2 (1.06) | 8 out of 176 |\n"
        "| none |  |  |  |  |  |  |  |  |  |  |  |\n"
        "| part | 5 | 0 | 999 | -1 | 1.1 | 2.68 | 1.000 | 0.1235 | 955 | 12.0 | 0 out of 9 |\n"
        "| part2 |  | 3 | 1,000 | 0 | 0.1 | 0.01 | 0.001 | 1.2346 | 0 (0.0%) |  | 3 out of 3 |\n"
    ),
    "csv": (
        "# tool: test\n"
        "name,text,int,count,dec0,dec1,dec2,dec3,dec4,count_pct,count_pct_pct,"
        "pct_index_share,pct_index_index,x_of_y_wins,x_of_y_counted\n"
        "full,a b,7,12345,3,0.3,35.13,0.560,0.0001,10764,35.1,39.2,1.06,8,176\n"
        "none,,,,,,,,,,,,,,\n"
        "part,5,0,999,-1,1.1,2.68,1.000,0.1235,955,,12.0,,0,9\n"
        "part2,,3,1000,0,0.1,0.01,0.001,1.2346,0,0.0,,1.20,3,3\n"
    ),
}


@pytest.mark.parametrize("fmt", sorted(KINDS_RENDERED))
def test_every_kind_renders_as_recorded(fmt):
    assert format_table(_kinds_table(), fmt) == KINDS_RENDERED[fmt]


@pytest.mark.parametrize("fmt", sorted(KINDS_RENDERED))
@pytest.mark.parametrize("kind, value", [("x_of_y", (None, 5)), ("x_of_y", (5, None)),
                                         ("count_pct", (None, 5.0))])
def test_composite_without_its_count_raises(fmt, kind, value):
    with pytest.raises(TypeError):
        format_table(Table("k", "t", [Column("c", kind)], [[value]]), fmt)


@pytest.mark.parametrize("fmt", sorted(KINDS_RENDERED))
@pytest.mark.parametrize("kind", ["bogus", "dec"])
def test_unknown_kind_raises(fmt, kind):
    with pytest.raises(ValueError, match="column kind"):
        format_table(Table("k", "t", [Column("c", kind)], [[1.0]]), fmt)
