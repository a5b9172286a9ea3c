"""Record I/O shared by the data modules: CSV with a header row, or JSON lines.

Files are read straight into columns (:class:`Records`), a few hundred rows
at a time, so no per-row object outlives the read. :class:`FieldParser` is
the one place where those columns become typed values.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["CHUNK_ROWS", "FieldParser", "Records", "read_records", "write_records"]

#: Rows read and transposed into columns per step. A chunk's row lists die
#: in a young-generation collection; transposing a whole file at once keeps
#: millions of them alive, and full collections re-walk them.
CHUNK_ROWS = 256


class Records:
    """The rows of one table, held as columns.

    ``columns`` maps each field to a list with one value per row, ``None``
    where a row lacks the field; it is not to be modified. ``len()`` is the
    row count. The values of a CSV row longer than the header are a list
    under the key ``None``, so the columns are what :class:`csv.DictReader`
    yields, transposed.
    """

    __slots__ = ("columns", "_length")

    def __init__(self):
        self.columns: dict = {}
        self._length = 0

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping]) -> "Records":
        """Transpose row mappings into columns; a key missing from a row is
        ``None`` in its column."""
        records = cls()
        records._append_rows(rows if isinstance(rows, list) else list(rows))
        return records

    def _append_rows(self, rows: list[Mapping]) -> None:
        for key in dict.fromkeys(chain.from_iterable(rows)):
            if key not in self.columns:  # a late key: None in the rows before
                self.columns[key] = [None] * self._length
        for key, column in self.columns.items():
            try:
                values = list(map(dict.get, rows, repeat(key)))
            except TypeError:  # mappings that are not dicts
                values = [row.get(key) for row in rows]
            column.extend(values)
        self._length += len(rows)

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return f"Records({self._length} rows, fields {list(self.columns)})"


def _read_csv(fh) -> Records:
    records = Records()
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        return records
    width = len(header)
    columns = [[] for _ in range(width)]
    extras: dict[int, list] = {}
    n = 0
    while chunk := list(islice(reader, CHUNK_ROWS)):
        lengths = set(map(len, chunk))
        if 0 in lengths or lengths != {width}:
            rows = []
            for row in chunk:
                if not row:  # blank line, skipped as csv.DictReader does
                    continue
                if len(row) > width:
                    extras[n + len(rows)] = row[width:]
                    row = row[:width]
                rows.append(row + [None] * (width - len(row)))
            chunk = rows
        for column, values in zip(columns, zip(*chunk)):
            column.extend(values)
        n += len(chunk)

    # a repeated header name holds the value of its last column, as in DictReader
    last = {name: i for i, name in enumerate(header)}
    records.columns = {name: columns[i] for name, i in last.items()}
    records._length = n
    if extras:
        records.columns[None] = [extras.get(i) for i in range(n)]
    return records


#: ``json.loads`` minus its per-call set-up: on a stripped line, a value
#: that ends at the end of the line is what ``json.loads`` returns.
_scan_json = json.JSONDecoder().scan_once


def _json_object(line: str, name: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{name} line {lineno}: invalid JSON record ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{name} line {lineno}: expected a JSON object")
    return obj


def _read_jsonl(fh, name: str) -> Records:
    records = Records()
    lines = enumerate(fh, start=1)
    while chunk := list(islice(lines, CHUNK_ROWS)):
        rows = []
        for lineno, line in chunk:
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _scan_json(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end != len(line) or not isinstance(obj, dict):
                obj = _json_object(line, name, lineno)
            rows.append(obj)
        records._append_rows(rows)
    return records


def read_records(path: str | Path) -> Records:
    """Read tabular records into columns (see :class:`Records`).

    ``.jsonl``/``.ndjson`` files are parsed one JSON object per line; blank
    lines are skipped, and a key missing from an object is ``None`` in its
    column. Anything else is read as UTF-8 comma-separated text with a header
    row and double-quote escaping; blank lines are skipped, so they shift no
    row number, and the fields missing from a short row are ``None``. A
    leading byte-order mark is skipped.
    """
    path = Path(path)
    if path.suffix.lower() in (".jsonl", ".ndjson"):
        with path.open(encoding="utf-8-sig") as fh:
            return _read_jsonl(fh, path.name)
    with path.open(encoding="utf-8-sig", newline="") as fh:
        return _read_csv(fh)


def write_records(path: str | Path, fieldnames: list[str], rows: Iterable[Sequence]) -> Path:
    """Write rows, each a sequence of values in ``fieldnames`` order, as
    comma-separated text with a header row. ``None`` is written empty and a
    float as its ``repr``, so it reads back bit for bit."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# Typed columns

_INT64 = np.iinfo(np.int64)
_KIND_NAMES = {int: "an integer", float: "a number"}


def _clean(value):
    if isinstance(value, str):
        value = value.strip()
    return None if value in (None, "") else value


class _Ints(dict):
    """Memo of ``int()`` by raw value: a column holds few distinct values."""

    def __missing__(self, raw) -> int:
        value = self[raw] = int(raw)
        return value


class FieldParser:
    """One input table, turned into typed values a column at a time. Row
    mappings are transposed into columns once; :class:`Records` from a file
    already are.

    Each check records its first failing row; :meth:`check` raises the
    earliest as :attr:`error`, ``"<source> row <n>: <message>"``. Checks
    are made in the order a row-by-row parse makes them, and a later check
    only wins on a strictly earlier row, so the error is the one that parse
    would have raised.
    """

    error: type[Exception] = ValueError

    def __init__(self, records: Records | Iterable[Mapping], source: str):
        if not isinstance(records, Records):
            records = Records.from_rows(records)
        self.columns = records.columns
        self.length = len(records)
        self.source = source
        self._error: tuple[int, str] | None = None

    def fail(self, index: int, message: str) -> None:
        if self._error is None or index < self._error[0]:
            self._error = (index, f"{self.source} row {index + 1}: {message}")

    def check(self) -> None:
        if self._error is not None:
            raise self.error(self._error[1])

    def raw(self, key: str) -> list:
        """The column of ``key`` (``None`` where a row lacks it); read-only."""
        column = self.columns.get(key)
        return [None] * self.length if column is None else column

    def text(self, key: str, required: bool = True) -> list[str]:
        """A text column, stripped, with "" where the field is empty."""
        values = self.raw(key)
        try:
            values = list(map(str.strip, values))
        except TypeError:  # typed values: JSON numbers, null
            values = ["" if v is None else str(v) for v in map(_clean, values)]
        if required and "" in values:
            self.fail(values.index(""), f"missing '{key}'")
        return values

    def _number(self, index: int, raw, key: str, required: bool, kind: type):
        """``raw`` as ``kind``: an int that fits in 64 bits, or a finite
        float >= 0. None where it is empty or malformed; a bool is
        malformed, and so is a float for an int, as ``kind()`` would
        convert them silently."""
        raw = _clean(raw)
        if raw is None:
            if required:
                self.fail(index, f"missing '{key}'")
            return None
        try:
            if isinstance(raw, (bool, float) if kind is int else bool):
                raise TypeError
            value = kind(raw)
        except (TypeError, ValueError, OverflowError):
            self.fail(index, f"'{key}' must be {_KIND_NAMES[kind]}, got {raw!r}")
            return None
        if kind is int and not _INT64.min <= value <= _INT64.max:
            self.fail(index, f"'{key}' must fit in a 64-bit integer, got {value}")
            return None
        if kind is float and not 0 <= value < math.inf:
            self.fail(index, f"'{key}' must be finite and >= 0, got {value!r}")
        return value

    def integers(self, key: str, minimum: int | None = None) -> np.ndarray:
        """A required integer column as int64."""
        values = self.raw(key)
        try:  # int() strips whitespace itself, as the field cleaning does
            # True == 1 and 2004.0 == 2004 would hit the memo's int entries
            if not set(map(type, values)) <= {str, int}:
                raise TypeError
            array = np.fromiter(map(_Ints().__getitem__, values), np.int64, len(values))
        except (TypeError, ValueError, OverflowError):
            parsed = [self._number(i, v, key, True, int) for i, v in enumerate(values)]
            array = np.array([0 if v is None else v for v in parsed], dtype=np.int64)
        if minimum is not None:
            low = np.flatnonzero(array < minimum)
            if low.size:
                self.fail(int(low[0]), f"'{key}' must be >= {minimum}, got {int(array[low[0]])}")
        return array

    def numbers(self, key: str, kind: type, required: bool = True) -> list:
        """A column of ``kind`` values (see :meth:`_number`), None where an
        optional field is empty."""
        return [self._number(i, v, key, required, kind) for i, v in enumerate(self.raw(key))]

    def known(self, key: str, index: Mapping) -> tuple[list[str], list]:
        """A required text column, and ``index[value]`` of each value; a
        value ``index`` lacks fails as unknown."""
        values = self.text(key)
        found = list(map(index.get, values))
        if None in found:
            row = found.index(None)
            self.fail(row, f"unknown {key} {values[row]!r}")
        return values, found

    def unique(self, name: str, keys: Sequence) -> None:
        """Fail on the first row whose key repeats an earlier row's, naming both."""
        rows = _first_repeat(keys)
        if rows is not None:
            row, first = rows
            self.fail(row, f"{name} {keys[row]!r} repeats row {first + 1}")


def _first_repeat(keys: Iterable) -> tuple[int, int] | None:
    """``(row, earlier row)`` of the first key equal to an earlier one, or None."""
    first: dict = {}
    for i, key in enumerate(keys):
        if first.setdefault(key, i) != i:
            return i, first[key]
    return None
