"""Record I/O shared by the data modules: CSV with a header row, or JSON lines.

Files are read straight into columns (:class:`Records`), a few hundred rows
at a time, so no per-row object outlives the read.
"""

from __future__ import annotations

import csv
import json
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = ["CHUNK_ROWS", "Records", "read_records", "write_records"]

#: Rows read and transposed into columns per step. A chunk's row lists die
#: in a young-generation collection; transposing a whole file at once keeps
#: millions of them alive, and full collections re-walk them.
CHUNK_ROWS = 256


class Records(Sequence):
    """Read-only rows of one table, held as columns.

    ``columns`` maps each field to a list with one value per row, ``None``
    where a row lacks the field; it is not to be modified. ``len()`` is the
    row count. Indexing or iterating builds each row's dict on demand, with
    the keys that row had in the file: a CSV row has every header field
    (``None`` past the end of a short row) plus, if it is too long, its
    extra values as a list under the key ``None``, as :class:`csv.DictReader`
    gives them; a JSON-lines row has the keys of its own object.
    """

    __slots__ = ("columns", "_length", "_since", "_own_keys")

    def __init__(self):
        self.columns: dict = {}
        self._length = 0
        # field -> first row whose dict holds it unless the row is in _own_keys
        self._since: dict = {}
        # row -> its keys in its own order, for rows where they differ from that default
        self._own_keys: dict[int, tuple] = {}

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping]) -> "Records":
        """Transpose row mappings into columns; a key missing from a row is
        ``None`` in its column."""
        records = cls()
        records._append_rows(rows if isinstance(rows, list) else list(rows))
        return records

    def _append_rows(self, rows: list[Mapping]) -> None:
        start = self._length
        for key in dict.fromkeys(chain.from_iterable(rows)):
            if key not in self.columns:
                self.columns[key] = [None] * start
                self._since[key] = start
        for key, column in self.columns.items():
            try:
                values = list(map(dict.get, rows, repeat(key)))
            except TypeError:  # mappings that are not dicts
                values = [row.get(key) for row in rows]
            column.extend(values)
        keys = tuple(self.columns)
        if not all(map(keys.__eq__, map(tuple, rows))):
            for i, own in enumerate(map(tuple, rows), start):
                if own != keys:
                    self._own_keys[i] = own
        self._length += len(rows)

    def _row(self, index: int) -> dict:
        keys = self._own_keys.get(index)
        if keys is None:
            keys = [key for key, since in self._since.items() if since <= index]
        return {key: self.columns[key][index] for key in keys}

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(i) for i in range(self._length)[index]]
        return self._row(range(self._length)[index])

    def __iter__(self) -> Iterator[dict]:
        return map(self._row, range(self._length))

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
    records._since = dict.fromkeys(last, 0)
    records._length = n
    if extras:
        records.columns[None] = [extras.get(i) for i in range(n)]
        keys = (*last, None)
        records._own_keys = dict.fromkeys(extras, keys)
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


def write_records(path: str | Path, fieldnames: list[str], rows) -> Path:
    """Write dict rows as comma-separated text with a header row."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path
