"""Record I/O shared by the data modules: CSV with a header row, or JSON lines.

A file is read a chunk at a time, each chunk's rows held as columns
(:class:`Records`). Given a :class:`FieldParser`, :func:`read_records` types
every chunk as soon as it is read, through the parser's schema (field ->
kind), and keeps only the typed values: int64 arrays, interned codes and the
text a caller keeps. No file-wide column of raw strings is ever built, so a
load holds its typed result plus one chunk. Each chunk is checked before the
next is read, so the error is the first offending row's, in file order. A
file is only ever read through a parser.

CSV has two readers, and a file gives the same columns and the same errors
through either:

* the fast path reads :data:`BLOCK_BYTES` at a time, cut at the block's last
  line end, and finds the fields' bounds in numpy. Each column's distinct
  values are found from their bytes; only they are decoded and typed, in
  order of first appearance, and the typed values are gathered to the rows;
* the csv module reads the rest of a file, :data:`CHUNK_ROWS` rows at a time,
  from the first byte of the first block the fast path refuses: one with a
  double quote, a CR byte, a byte outside printable ASCII, a line without
  the header's number of fields (a blank line among them), or a field longer
  than the csv module's limit. Earlier blocks hold no quote, so that byte
  starts a row.

JSON lines are read :data:`CHUNK_ROWS` lines at a time.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
from contextlib import closing
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = ["BLOCK_BYTES", "CHUNK_ROWS", "Code", "Coded", "FieldParser", "Integer", "Kind", "Number",
           "Records", "Text", "read_records", "write_records"]

#: Rows read, transposed and typed per step. A chunk's raw cells and row
#: lists die young: loading the 10x benchmark corpus (686k rows) runs two
#: generation-0 collections at 256 rows, and at 4096 rows, whose chunk
#: lists survive into the older generations, 1,530/139/12 collections of
#: generations 0/1/2 and about 40% more CPU.
CHUNK_ROWS = 256
#: Bytes the CSV fast path reads per block; a block ends at its last line
#: end, and the rest of the read starts the next one. On the 10x benchmark
#: corpus (2-vCPU x86 VM), reports read in 256 KiB blocks took 10-16% less
#: CPU than in these, but peaked about 3% higher resident.
BLOCK_BYTES = 1 << 16


class Records:
    """The rows of one table, held as columns.

    ``columns`` maps each field to a sequence with one value per row, or, in
    a chunk of the CSV fast path, to the column's distinct values
    (:class:`_Distinct`); it is not to be modified. ``len()`` is the row
    count. Raw columns hold ``None`` where a row lacks the field; typed
    columns are what a :class:`FieldParser` made of them.
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

def _csv_message(exc: csv.Error) -> str:
    """The failure of a row the csv module cannot read."""
    if "field limit" in str(exc):
        return f"field longer than {csv.field_size_limit()} characters"
    return str(exc)


def _csv_rows(reader, header: list[str], parser: "FieldParser") -> Iterator[Records]:
    """Chunks of :data:`CHUNK_ROWS` rows of ``reader``; a row the csv module
    cannot read fails once the rows before it are checked."""
    width = len(header)
    # a repeated header name holds the value of its last column, as in DictReader
    last = {name: i for i, name in enumerate(header)}
    while True:
        chunk, failure = [], None
        try:  # the rows read before a failure stay in the list
            chunk.extend(islice(reader, CHUNK_ROWS))
        except csv.Error as exc:
            failure = _csv_message(exc)
        rows = chunk
        lengths = set(map(len, chunk))
        if 0 in lengths or lengths != {width}:
            # blank lines are skipped, as csv.DictReader does
            rows = [row[:width] + [None] * (width - len(row)) for row in chunk if row]
        columns = list(zip(*rows)) or [()] * width
        yield Records({name: columns[i] for name, i in last.items()}, len(rows))
        if failure is not None:
            parser.fail(0, failure)
            parser.check()
        if len(chunk) < CHUNK_ROWS:
            return


def _blocks(fh, header: list[str]) -> Iterator[Records]:
    """The rows after the header of the binary file ``fh``, a block of
    :data:`BLOCK_BYTES` at a time, while :func:`_split_block` takes them.
    Returns the offset of the first block it refuses, or None at the end of
    the file, after a last, empty chunk."""
    last = {name: i for i, name in enumerate(header)}
    start, carry = fh.tell(), b""
    while True:
        data = fh.read(BLOCK_BYTES)
        block = carry + data
        cut = block.rfind(b"\n") + 1 if data else len(block)
        block, carry = block[:cut], block[cut:]
        if not block:  # no whole line yet, or the end of the file
            if data:
                continue
            yield Records({name: () for name in last}, 0)
            return None
        chunk = _split_block(block if block.endswith(b"\n") else block + b"\n", len(header), last)
        if chunk is None:
            return start
        yield chunk
        start += len(block)


def _csv_chunks(fh, parser: "FieldParser") -> Iterator[Records]:
    """The rows of the binary CSV file ``fh``: :func:`_blocks` while the fast
    path takes the header and the blocks, then the csv module's rows from the
    first byte it refuses."""
    line = fh.readline().removeprefix(codecs.BOM_UTF8).removesuffix(b"\n")
    names = line.split(b",")
    header, start = None, 0
    if line and not line.translate(None, _PLAIN) and max(map(len, names)) <= csv.field_size_limit():
        header = [name.decode("ascii") for name in names]
        start = yield from _blocks(fh, header)
        if start is None:
            return
    fh.seek(start)
    text = io.TextIOWrapper(fh, encoding="utf-8" if start else "utf-8-sig", newline="")
    try:
        reader = csv.reader(text)
        if header is None:
            try:
                header = next(reader, None)
            except csv.Error as exc:
                raise parser.error(f"{parser.source} header: {_csv_message(exc)}") from None
            if header is None:
                yield Records()
                return
        yield from _csv_rows(reader, header, parser)
    finally:
        text.detach()  # ``fh`` stays open for its owner to close


#: The bytes of a block :func:`_split_block` takes: printable ASCII but the
#: double quote, and the line feed. The csv module splits such a line at its
#: commas, and nothing else.
_PLAIN = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n"
#: The low ``k`` bytes of a word, by ``k`` from 0 to 8.
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _hash(words: list[np.ndarray], length: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each field, from its 8-byte words and its length."""
    h = length.astype(np.uint64)
    for word in words:
        h = (h ^ word) * np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(29)
    return h


class _Distinct(NamedTuple):
    """One column of a block: its distinct raw values in order of first
    appearance, the row each first appears at, and each row's value."""

    values: list[str]
    first: np.ndarray
    inverse: np.ndarray


def _texts(block: np.ndarray, start: np.ndarray, length: np.ndarray) -> list[str]:
    """The fields of ``block`` at ``start`` of ``length`` bytes, as text:
    gathered into one comma-separated buffer, decoded and split once."""
    if not len(start):
        return []
    span = length + 1  # each field and the comma after it
    at = np.cumsum(span) - span
    buffer = block[np.arange(int(span.sum()), dtype=np.int32) + np.repeat(start - at, span)]
    buffer[at + length] = 44
    return buffer[:-1].tobytes().decode("ascii").split(",")


def _distinct(view: np.ndarray, block: np.ndarray, start: np.ndarray,
              length: np.ndarray) -> _Distinct | None:
    """The distinct values of the fields of ``block`` at ``start`` of
    ``length`` bytes; None on a hash collision. ``view[i]`` is the 8 bytes
    from byte ``i`` of the block."""
    n = len(start)
    words = [view[start] & _MASKS[np.minimum(length, 8)]]
    for j in range(8, int(length.max()), 8):
        words.append(view[start + j] & _MASKS[np.clip(length - j, 0, 8)])
    # a field of up to 8 bytes, none of them NUL, is its word
    key = words[0] if len(words) == 1 else _hash(words, length)
    order = np.argsort(key)
    sorted_key = key[order]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new[1:])
    first_rows = np.minimum.reduceat(order, np.flatnonzero(new))  # each value's first row
    is_first = np.zeros(n, dtype=bool)
    is_first[first_rows] = True
    inverse = np.empty(n, dtype=np.int32)
    inverse[order] = (np.cumsum(is_first, dtype=np.int32) - 1)[first_rows][np.cumsum(new) - 1]
    first = np.flatnonzero(is_first)
    if len(words) > 1:  # every word of every field equals its value's
        same = length[first][inverse] == length
        for word in words:
            same &= word[first][inverse] == word
        if not same.all():
            return None
    return _Distinct(_texts(block, start[first], length[first]), first, inverse)


def _split_block(block: bytes, width: int, last: dict) -> Records | None:
    """The rows of ``block``, whole lines, as :class:`_Distinct` columns; None
    where the csv module could read a line otherwise (a quote, a CR byte, a
    byte outside printable ASCII, a line not of ``width`` fields, such as a
    blank line), where a field is longer than the csv module's limit, or on
    a hash collision."""
    if block.translate(None, _PLAIN):
        return None
    bytes_ = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero((bytes_ == 44) | (bytes_ == 10)).astype(np.int32)
    rows = len(ends) // width
    newline = bytes_[ends] == 10
    if len(ends) != rows * width or newline.sum() != rows or not newline[width - 1::width].all():
        return None
    start = np.empty_like(ends)
    start[0] = 0
    start[1:] = ends[:-1] + 1
    length = ends - start
    longest = int(length.max())
    if longest > csv.field_size_limit() or (width == 1 and not length.all()):
        return None
    # each field's words, read at its start + 8j, stay inside the zero padding
    padded = block + bytes(longest + 8)
    view = np.ndarray((len(block) + longest,), dtype="<u8", buffer=padded, strides=(1,))
    columns = {}
    for name, i in last.items():
        column = _distinct(view, bytes_, start[i::width], length[i::width])
        if column is None:
            return None
        columns[name] = column
    return Records(columns, rows)


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


def _invalid_utf8(path: Path, exc: UnicodeDecodeError) -> str:
    """Where ``path`` first fails to decode, found by reading it again."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as found:
        line = data.count(b"\n", 0, found.start) + 1
        return f"{path.name} line {line}: invalid UTF-8 byte 0x{data[found.start]:02x}"
    return f"{path.name}: {exc}"


def read_records(path: str | Path, parser: "FieldParser") -> Records:
    """Read tabular records into columns typed by ``parser``, chunk by chunk
    (see :meth:`FieldParser.parse`).

    ``.jsonl``/``.ndjson`` files are parsed one JSON object per line; blank
    lines are skipped, and a key missing from an object is ``None`` in its
    column. Anything else is read as UTF-8 comma-separated text with a header
    row and double-quote escaping; blank lines are skipped, so they shift no
    row number, the fields missing from a short row are ``None``, and fields
    beyond the header are ignored. A leading byte-order mark is skipped.
    Bytes that are not UTF-8, and a CSV field longer than the csv module's
    limit, fail naming the line or the row.
    """
    path = Path(path)
    try:
        if path.suffix.lower() in (".jsonl", ".ndjson"):
            with path.open(encoding="utf-8-sig") as fh:
                return parser.parse(_jsonl_chunks(fh, path.name))
        with path.open("rb") as fh, closing(_csv_chunks(fh, parser)) as chunks:
            return parser.parse(chunks)
    except UnicodeDecodeError as exc:
        raise parser.error(_invalid_utf8(path, exc)) from None


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


def _convert(kind: type, raw):
    """``kind(raw)``, where text holds no underscore and no non-ASCII
    character, which int() and float() would also read."""
    if isinstance(raw, str) and ("_" in raw or not raw.isascii()):
        raise ValueError(raw)
    return kind(raw)


def _int(raw) -> int | None:
    """A raw str or int as an int, None where it is empty; OverflowError
    outside 64 bits."""
    raw = _clean(raw)
    if raw is None:
        return None
    value = _convert(int, raw)
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
    failure names its row in the file. A chunk's column may hold the
    distinct values of its rows (:class:`_Distinct`), in order of first
    appearance: a kind then types each value once, a failure names the row
    the value first appears at, and the typed values are gathered to the
    rows before the checks across rows. After each chunk :meth:`check` raises
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
        self._first: np.ndarray | None = None

    def row(self, index: int) -> int:
        """The row in the file, from 0, of value ``index`` a kind was given."""
        return self.offset + (index if self._first is None else int(self._first[index]))

    def fail(self, index: int, message: str) -> None:
        """Record a failure of the value at ``index`` (see :meth:`row`)."""
        row = self.row(index)
        if self._error is None or row < self._error[0]:
            self._error = (row, f"{self.source} row {row + 1}: {message}")

    def check(self) -> None:
        if self._error is not None:
            raise self.error(self._error[1])

    def parse(self, chunks: Iterable[Records]) -> Records:
        """Type and check each chunk (at least one) before taking the next;
        the typed columns of all of them, in schema order."""
        columns = {key: _Column() for key in self.schema}
        for chunk in chunks:
            length = len(chunk)
            typed = {}
            for key, kind in self.schema.items():
                values = chunk.columns.get(key)
                if isinstance(values, _Distinct):
                    self._first = values.first
                    typed[key] = kind(self, key, values.values)
                    self._first = None
                    if len(values.values) < length:
                        typed[key] = _take(typed[key], values.inverse)
                else:
                    typed[key] = kind(self, key, (None,) * length if values is None else values)
                columns[key].add(typed[key])
            if self.unique:
                self._check_unique(*self.unique, [typed[key] for key in self.unique[1]])
            self.check_rows(typed)
            self.check()
            self.offset += length
        return Records({key: kind.join(columns[key].parts()) for key, kind in self.schema.items()},
                       self.offset)

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
            value = _convert(kind, raw)
        except (TypeError, ValueError, OverflowError):
            self.fail(index, f"'{key}' must be {_KIND_NAMES[kind]}, got {raw!r}")
            return None
        if kind is int and not _INT64.min <= value <= _INT64.max:
            self.fail(index, f"'{key}' must fit in a 64-bit integer, got {value}")
            return None
        if kind is float and not 0 <= value < math.inf:
            self.fail(index, f"'{key}' must be finite and >= 0, got {value!r}")
        return value


#: The most values a slab of a typed array column holds (see :class:`_Column`).
_SLAB_VALUES = 1 << 17


class _Column:
    """One typed column of a file, gathered a chunk at a time: the lists a
    kind returns, or its arrays' values copied into slabs, each as large as
    the values before it, up to :data:`_SLAB_VALUES`. Kept to the end of the
    file, one array per chunk lies among the chunks' temporaries on the
    heap, and what they free at the join comes back in pieces too small for
    the arrays a load allocates next: on the 10x benchmark corpus, read in
    64 KiB blocks, that held about 8 MB more resident."""

    __slots__ = ("_parts", "_filled", "_total")

    def __init__(self):
        self._parts: list = []
        self._filled = 0  # values in the last slab
        self._total = 0

    def add(self, part) -> None:
        if not isinstance(part, np.ndarray):
            self._parts.append(part)
            return
        done = 0
        while done < len(part) or not self._parts:
            if not self._parts or self._filled == len(self._parts[-1]):
                size = min(_SLAB_VALUES, max(self._total, len(part) - done, 1))
                self._parts.append(np.empty(size, dtype=part.dtype))
                self._filled = 0
            n = min(len(part) - done, len(self._parts[-1]) - self._filled)
            self._parts[-1][self._filled:self._filled + n] = part[done:done + n]
            self._filled += n
            self._total += n
            done += n

    def parts(self) -> list:
        """The parts for :meth:`Kind.join`, at least one."""
        if isinstance(self._parts[-1], np.ndarray):
            self._parts[-1] = self._parts[-1][:self._filled]
        return self._parts


def _take(values, rows: np.ndarray):
    """``values`` (an array or a list) at ``rows``."""
    if isinstance(values, np.ndarray):
        return values[rows]
    return list(map(values.__getitem__, rows.tolist()))


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
            return np.concatenate(parts)
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
