"""Record I/O shared by the data modules: CSV with a header row, or JSON lines.

A file is read :data:`CHUNK_ROWS` rows at a time, each chunk transposed into
columns (:class:`Records`). Given a :class:`FieldParser`, :func:`read_records`
types every chunk as soon as it is read, through the parser's schema (field
-> kind), and keeps only the typed values: int64 arrays, interned codes and
the text a caller keeps. No file-wide column of raw strings is ever built,
so a load holds its typed result plus one chunk. Each chunk is checked before
the next is read, so the error is the first offending row's, in file order.
A file is only ever read through a parser.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = ["CHUNK_ROWS", "Code", "Coded", "FieldParser", "Integer", "Kind", "Number",
           "Records", "Text", "read_records", "write_records"]

#: Rows read, transposed and typed per step. A chunk's raw cells and row
#: lists die young: loading the 10x benchmark corpus (686k rows) runs two
#: generation-0 collections at 256 rows, and at 4096 rows, whose chunk
#: lists survive into the older generations, 1,530/139/12 collections of
#: generations 0/1/2 and about 40% more CPU.
CHUNK_ROWS = 256


class Records:
    """The rows of one table, held as columns.

    ``columns`` maps each field to a sequence with one value per row; it is
    not to be modified. ``len()`` is the row count. Raw columns hold ``None``
    where a row lacks the field; typed columns are what a
    :class:`FieldParser` made of them.
    """

    __slots__ = ("columns", "_length")

    def __init__(self, columns: dict | None = None, length: int = 0):
        self.columns: dict = {} if columns is None else columns
        self._length = length

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping]) -> "Records":
        """Transpose row mappings into columns; a key missing from a row is
        ``None`` in its column."""
        rows = rows if isinstance(rows, list) else list(rows)
        columns = {}
        for key in dict.fromkeys(chain.from_iterable(rows)):
            try:
                columns[key] = list(map(dict.get, rows, repeat(key)))
            except TypeError:  # mappings that are not dicts
                columns[key] = [row.get(key) for row in rows]
        return cls(columns, len(rows))

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return f"Records({self._length} rows, fields {list(self.columns)})"


# Both readers yield at least one chunk, the last one possibly empty.

def _csv_chunks(fh) -> Iterator[Records]:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        yield Records()
        return
    width = len(header)
    # a repeated header name holds the value of its last column, as in DictReader
    last = {name: i for i, name in enumerate(header)}
    while True:
        chunk = rows = list(islice(reader, CHUNK_ROWS))
        lengths = set(map(len, chunk))
        if 0 in lengths or lengths != {width}:
            # blank lines are skipped, as csv.DictReader does
            rows = [row[:width] + [None] * (width - len(row)) for row in chunk if row]
        columns = list(zip(*rows)) or [()] * width
        yield Records({name: columns[i] for name, i in last.items()}, len(rows))
        if len(chunk) < CHUNK_ROWS:
            return


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


def _jsonl_chunks(fh, name: str) -> Iterator[Records]:
    lines = enumerate(fh, start=1)
    while True:
        chunk = list(islice(lines, CHUNK_ROWS))
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
                if rows:  # the rows before a bad line are checked first
                    yield Records.from_rows(rows)
                    rows = []
                obj = _json_object(line, name, lineno)
            rows.append(obj)
        yield Records.from_rows(rows)
        if len(chunk) < CHUNK_ROWS:
            return


def read_records(path: str | Path, parser: "FieldParser") -> Records:
    """Read tabular records into columns typed by ``parser``, chunk by chunk
    (see :meth:`FieldParser.parse`).

    ``.jsonl``/``.ndjson`` files are parsed one JSON object per line; blank
    lines are skipped, and a key missing from an object is ``None`` in its
    column. Anything else is read as UTF-8 comma-separated text with a header
    row and double-quote escaping; blank lines are skipped, so they shift no
    row number, the fields missing from a short row are ``None``, and fields
    beyond the header are ignored. A leading byte-order mark is skipped.
    """
    path = Path(path)
    jsonl = path.suffix.lower() in (".jsonl", ".ndjson")
    with path.open(encoding="utf-8-sig", newline=None if jsonl else "") as fh:
        chunks = _jsonl_chunks(fh, path.name) if jsonl else _csv_chunks(fh)
        return parser.parse(chunks)


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
# Raw value types a memo may key on: True == 1 == 1.0 would share an entry.
_TEXT_TYPES = {str, type(None)}
_INT_TYPES = {str, int, type(None)}


def _clean(value):
    if isinstance(value, str):
        value = value.strip()
    return None if value in (None, "") else value


def _text(raw) -> str:
    """A raw value as stripped text, "" where it is empty."""
    raw = _clean(raw)
    return "" if raw is None else str(raw)


def _int(raw) -> int | None:
    """A raw str or int as an int, None where it is empty; OverflowError
    outside 64 bits."""
    raw = _clean(raw)
    if raw is None:
        return None
    value = int(raw)
    if not _INT64.min <= value <= _INT64.max:
        raise OverflowError(value)
    return value


class _Memo(dict):
    """``fn(raw)`` by raw value: a column holds few distinct values."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, raw):
        value = self[raw] = self.fn(raw)
        return value


class FieldParser:
    """Types one input table, chunk by chunk, through its schema.

    ``schema`` maps each field to its :class:`Kind`, in the order a
    row-by-row parse checks a row's fields. A kind's memos persist across
    chunks. With ``unique = (name, fields)``, a row whose typed ``fields``
    repeat an earlier row's fails, naming both rows.

    ``offset`` counts the rows of the chunks before the current one, so each
    failure names its row in the file. After each chunk :meth:`check` raises
    the earliest failure as :attr:`error`, ``"<source> row <n>: <message>"``;
    a later check only wins on a strictly earlier row, so the error is the
    one a row-by-row parse would have raised.
    """

    error: type[Exception] = ValueError

    def __init__(self, source: str, schema: Mapping, unique: tuple[str, tuple] | None = None):
        self.source = source
        self.schema = schema
        self.unique = unique
        self.offset = 0
        self._error: tuple[int, str] | None = None
        self._seen: dict = {}

    def fail(self, index: int, message: str) -> None:
        """Record a failure of the current chunk's row ``index``."""
        row = self.offset + index
        if self._error is None or row < self._error[0]:
            self._error = (row, f"{self.source} row {row + 1}: {message}")

    def check(self) -> None:
        if self._error is not None:
            raise self.error(self._error[1])

    def parse(self, chunks: Iterable[Records]) -> Records:
        """Type and check each chunk (at least one) before taking the next;
        the typed columns of all of them, in schema order."""
        parts: dict = {key: [] for key in self.schema}
        for chunk in chunks:
            length = len(chunk)
            for key, kind in self.schema.items():
                values = chunk.columns.get(key)
                parts[key].append(kind(self, key, (None,) * length if values is None else values))
            if self.unique:
                self._check_unique(*self.unique, [parts[key][-1] for key in self.unique[1]])
            self.check_rows({key: part[-1] for key, part in parts.items()})
            self.check()
            self.offset += length
        return Records({key: kind.join(parts[key]) for key, kind in self.schema.items()}, self.offset)

    def check_rows(self, chunk: dict) -> None:
        """Checks across the fields of each row of one typed ``chunk``, made
        after those of single fields; a subclass reports through :meth:`fail`."""

    def _check_unique(self, name: str, fields: tuple, columns: list) -> None:
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        keys = columns[0] if len(fields) == 1 else zip(*columns)
        for i, key in enumerate(keys, start=self.offset):
            first = self._seen.setdefault(key, i)
            if first != i:
                self.fail(i - self.offset, f"{name} {key!r} repeats row {first + 1}")
                return

    def number(self, index: int, raw, key: str, required: bool, kind: type):
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


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True in ``mask``, or None."""
    return int(mask.argmax()) if mask.any() else None


class Kind:
    """How one field's raw values become typed: calling a kind with
    ``(parser, key, values)`` types one chunk's values (``None`` where a row
    lacks the field) and reports each failing row through
    :meth:`FieldParser.fail`; :meth:`join` makes the column of the parts."""

    def join(self, parts: list):
        if isinstance(parts[0], np.ndarray):
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        return list(chain.from_iterable(parts))


class Text(Kind):
    """Kind: stripped text, "" where the field is empty (a failure when
    ``required``)."""

    def __init__(self, required: bool = True):
        self.required = required

    def __call__(self, rows: FieldParser, key: str, values: Sequence) -> list[str]:
        try:
            out = list(map(str.strip, values))
        except TypeError:  # typed values: JSON numbers, null
            out = list(map(_text, values))
        if self.required and "" in out:
            rows.fail(out.index(""), f"missing '{key}'")
        return out


class Integer(Kind):
    """Kind: a required integer as int64, at least ``minimum`` if given."""

    def __init__(self, minimum: int | None = None):
        self.minimum = minimum
        self.memo = _Memo(_int)

    def __call__(self, rows: FieldParser, key: str, values: Sequence) -> np.ndarray:
        try:  # int() strips whitespace itself, as the field cleaning does
            if not set(map(type, values)) <= _INT_TYPES:
                raise TypeError
            array = np.fromiter(map(self.memo.__getitem__, values), np.int64, len(values))
        except (TypeError, ValueError, OverflowError):  # None, bad text, floats, bools
            parsed = [rows.number(i, v, key, True, int) for i, v in enumerate(values)]
            array = np.array([0 if v is None else v for v in parsed], dtype=np.int64)
        if self.minimum is not None:
            low = _first(array < self.minimum)
            if low is not None:
                rows.fail(low, f"'{key}' must be >= {self.minimum}, got {int(array[low])}")
        return array


class Number(Kind):
    """Kind: ``kind`` values (see :meth:`FieldParser.number`) as a list,
    None where an optional field is empty."""

    def __init__(self, kind: type, required: bool = True):
        self.kind, self.required = kind, required
        self.memo = _Memo(_int)

    def __call__(self, rows: FieldParser, key: str, values: Sequence) -> list:
        out = None
        if self.kind is int and set(map(type, values)) <= _INT_TYPES:
            try:
                out = list(map(self.memo.__getitem__, values))
            except (ValueError, OverflowError):
                pass
        if out is None or (self.required and None in out):
            out = [rows.number(i, v, key, self.required, self.kind) for i, v in enumerate(values)]
        return out


class Coded(Kind):
    """Kind: each value's :meth:`code` as int64, memoized by raw value;
    code -1 means the field is empty (a failure when ``required``)."""

    required = True
    memo_types = _TEXT_TYPES

    def __init__(self):
        self.memo = _Memo(self.code)

    def code(self, raw) -> int:
        raise NotImplementedError

    def __call__(self, rows: FieldParser, key: str, values: Sequence) -> np.ndarray:
        code = self.memo.__getitem__ if set(map(type, values)) <= self.memo_types else self.code
        out = np.fromiter(map(code, values), np.int64, len(values))
        missing = _first(out == -1) if self.required else None
        if missing is not None:
            rows.fail(missing, f"missing '{key}'")
        return out


class Code(Coded):
    """Kind: text interned as consecutive codes in order of first
    appearance, -1 where the field is empty; the column is the pair
    ``(codes, names)``."""

    def __init__(self, required: bool = True):
        self.required = required
        self.names: dict[str, int] = {}
        super().__init__()

    def code(self, raw) -> int:
        value = _text(raw)
        return self.names.setdefault(value, len(self.names)) if value else -1

    def join(self, parts: list) -> tuple[np.ndarray, tuple[str, ...]]:
        return super().join(parts), tuple(self.names)


def _first_repeat(keys: Iterable) -> tuple[int, int] | None:
    """``(row, earlier row)`` of the first key equal to an earlier one, or None."""
    first: dict = {}
    for i, key in enumerate(keys):
        if first.setdefault(key, i) != i:
            return i, first[key]
    return None
