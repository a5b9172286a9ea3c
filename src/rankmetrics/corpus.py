"""Scientist / publication / authorship data model.

A :class:`Corpus` holds each of its three tables as columns: one list or
integer array per field, one entry per input row, with a scientist's
SDS, UDA and rank as integer codes. Loading types each input
table through one schema, a chunk of rows at a time as a file is read, and
still names the first offending row; checks across rows and files run once
on the typed columns. The corpus is immutable, so every operation here is a
pure read and :func:`filter_active_sds` returns a new corpus instead of
mutating. Records exist only at the edge, where one :class:`RowView` builds
those of the rows asked for from the columns of a corpus table (laid out once
by :meth:`Corpus.table`) or of a result. Per-row counts per UDA and rank are
summed by :func:`tally` into a :class:`Grid`. A snapshot of a corpus's columns
(:func:`save_snapshot`), keyed by its files' SHA-256, is read back through the
same checks across rows and files as a parse (:func:`load_snapshot`).
"""

from __future__ import annotations

import enum
import hashlib
import logging
import math
import operator
import zipfile
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import compress, repeat
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .fileio import (
    Code,
    Coded,
    FieldParser,
    Integer,
    Number,
    Records,
    Text,
    _clean,
    _first,
    _first_repeat,
    _text,
    read_records,
)

if TYPE_CHECKING:
    from .indicators import IndicatorTable

logger = logging.getLogger(__name__)

__all__ = [
    "ActivityCell",
    "Authorship",
    "Corpus",
    "CorpusColumns",
    "CorpusError",
    "Grid",
    "Publication",
    "RANKS",
    "Rank",
    "RosterCell",
    "RosterSummary",
    "RowMap",
    "RowView",
    "SNAPSHOT_NAME",
    "Scientist",
    "activity_rates",
    "decode",
    "dense_codes",
    "file_digests",
    "filter_active_sds",
    "fsum_rows",
    "load_corpus",
    "load_corpus_files",
    "load_snapshot",
    "roster_summary",
    "save_snapshot",
    "stable_order",
    "tally",
]


class CorpusError(ValueError):
    """Input rows violate the corpus schema or one of its invariants."""


class Rank(enum.Enum):
    FULL = "FULL"
    ASSOCIATE = "ASSOCIATE"
    ASSISTANT = "ASSISTANT"


#: Reporting order for tables: senior ranks first.
RANKS = (Rank.FULL, Rank.ASSOCIATE, Rank.ASSISTANT)


@dataclass(frozen=True)
class Scientist:
    scientist_id: str
    sds_code: str
    uda_code: str
    rank: Rank
    birth_year: int | None = None


@dataclass(frozen=True)
class Publication:
    pub_id: str
    year: int
    citation_count: int
    subject_categories: tuple[str, ...]
    author_count: int


@dataclass(frozen=True)
class Authorship:
    pub_id: str
    position: int
    scientist_id: str | None = None
    affiliation_id: str | None = None


def decode(column, rows: slice | np.ndarray = slice(None)) -> Iterable:
    """The values at ``rows`` (a slice or an array of row numbers) of a
    column: of a list as they are, of an integer array as ints, of a float
    array as floats with NaN read as None, and of a ``(codes, names)`` pair
    as ``names[code]``, None where the code is -1."""
    if isinstance(column, tuple):
        codes, names = column
        codes = codes[rows]
        if (codes < 0).any():
            names = [*names, None]
        return map(names.__getitem__, codes.tolist())
    if isinstance(column, np.ndarray):
        values = column[rows]
        if values.dtype.kind == "f" and np.isnan(values).any():
            values = np.where(np.isnan(values), None, values)
        return values.tolist()
    if isinstance(rows, slice):
        return column[rows]
    return map(column.__getitem__, rows.tolist())


class RowView(Sequence):
    """Read-only sequence of ``record`` objects, one per row of the
    ``columns`` (each read by :func:`decode`), built only for the rows asked
    for: an index builds one, a slice its length. A view holds the columns,
    not the corpus. Tuple records are made without a Python frame per row;
    any other record type through its constructor."""

    __slots__ = ("_record", "_columns", "_length")

    def __init__(self, record: type, *columns):
        first = columns[0]
        self._record, self._columns = record, columns
        self._length = len(first[0] if isinstance(first, tuple) else first)

    def take(self, rows: slice | np.ndarray) -> list:
        """The records of ``rows``, a slice or an array of row numbers."""
        fields = [decode(column, rows) for column in self._columns]
        if issubclass(self._record, tuple):
            return list(map(tuple.__new__, repeat(self._record), zip(*fields)))
        return list(map(self._record, *fields))

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        row = range(self._length)[index]
        return self.take(slice(row, row + 1))[0]

    def __iter__(self) -> Iterator:
        return iter(self.take(slice(None)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (RowView, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"RowView({self._length} rows)"


class RowMap(Mapping):
    """Read-only mapping of each key of ``rows`` to the records of ``view`` at
    ``rows[key]``: one record for a row number, a tuple for an array of row
    numbers; built only for the key asked for."""

    def __init__(self, view: RowView, rows: Mapping):
        self._view, self._rows = view, rows

    def __getitem__(self, key):
        rows = self._rows[key]
        return self._view[rows] if isinstance(rows, int) else tuple(self._view.take(rows))

    def __iter__(self) -> Iterator:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def _start(counts: np.ndarray) -> np.ndarray:
    """Offsets of consecutive runs of the given lengths: ``[0, c0, c0+c1, ...]``."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def stable_order(*keys: np.ndarray) -> np.ndarray:
    """The order that sorts rows stably by ``keys``, the first key most
    significant: ``np.lexsort(keys[::-1])``, as one stable ``argsort`` per key
    from the last. An integer key spanning fewer than 2**16 values is sorted
    as its ``uint16`` offset from its minimum, which numpy radix-sorts."""
    order = None
    for key in reversed(keys):
        if order is not None:
            key = key[order]
        if key.dtype.kind in "iu" and key.size:
            low = key.min()
            if int(key.max()) - int(low) < 1 << 16:
                key = (key - low).astype(np.uint16)
        step = np.argsort(key, kind="stable")
        order = step if order is None else order[step]
    return order


def dense_codes(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(key, return_inverse=True)`` of an integer ``key``, counted with
    ``np.bincount`` rather than sorted where it spans at most ``len(key) + 2**16`` values."""
    low, high = (int(key.min()), int(key.max())) if key.size else (0, -1)
    if high - low >= len(key) + (1 << 16):
        return np.unique(key, return_inverse=True)
    present = np.bincount(key - low, minlength=high - low + 1) > 0
    return np.flatnonzero(present) + low, (np.cumsum(present) - 1)[key - low]


class _WeaklyReferenced:  # as dataclass(weakref_slot=True), which needs Python 3.11
    __slots__ = ("__weakref__",)


@dataclass(eq=False, repr=False, slots=True, kw_only=True)
class Corpus(_WeaklyReferenced):
    """Validated, immutable collection of scientists, publications and
    authorships as columns, publications in ``pub_id`` order and authorships
    in (publication, position) order, whatever the order of the files:

    * the roster: ``scientist_ids`` (list of str; ``scientist_index`` maps an
      id to its row), int64 arrays ``scientist_sds`` (position in
      ``sds_codes``, the roster's SDS codes sorted) and ``scientist_rank``
      (position in :data:`RANKS`), and ``scientist_birth_year`` (list, None
      where unknown); ``sds_uda`` is each SDS's position in ``udas``, the
      roster's UDA codes sorted;
    * ``pub_ids`` (list of str) and int64 arrays ``pub_year``,
      ``pub_citations`` and ``pub_author_count``; ``pub_categories`` indexes
      ``category_sets``, the distinct subject-category tuples;
    * int64 arrays ``auth_pub`` and ``auth_scientist`` (row of the
      publication and of the scientist, -1 for an external author) and
      ``auth_position``; ``auth_affiliation`` indexes ``affiliations``, -1
      where the affiliation is missing.

    The constructor takes those columns by keyword and derives the rest:
    ``scientist_index``; ``pub_start``, so publication ``p``'s byline is
    rows ``pub_start[p]:pub_start[p + 1]``; and ``scientist_pub_count``,
    each scientist's number of authorships.

    Row objects exist only at the edge. :meth:`table` declares each input
    table's fields and columns once, for the row views and the CSV writer of
    :mod:`.synth`: ``scientists``, ``publications`` and ``authorships`` are
    :class:`RowView` sequences, and ``scientists_by_id`` and
    ``scientists_by_sds`` (read by the benchmark harness) :class:`RowMap`
    mappings; each builds only the rows indexed, sliced or looked up. Build a
    corpus with :func:`load_corpus`, which enforces the structural invariants
    (unique keys, one UDA per SDS, resolvable references, byline positions
    covering ``1..author_count``) and sets the row order; the constructor
    trusts its columns.
    """

    scientist_ids: list[str]
    scientist_sds: np.ndarray
    scientist_rank: np.ndarray
    scientist_birth_year: list[int | None]
    sds_codes: tuple[str, ...]
    sds_uda: np.ndarray
    udas: tuple[str, ...]
    pub_ids: list[str]
    pub_year: np.ndarray
    pub_citations: np.ndarray
    pub_author_count: np.ndarray
    pub_categories: np.ndarray
    category_sets: Sequence[tuple[str, ...]]
    auth_pub: np.ndarray
    auth_scientist: np.ndarray
    auth_position: np.ndarray
    auth_affiliation: np.ndarray
    affiliations: Sequence[str]
    scientist_index: dict[str, int] = field(init=False)
    pub_start: np.ndarray = field(init=False)
    scientist_pub_count: np.ndarray = field(init=False)

    def __post_init__(self):
        self.scientist_index = dict(zip(self.scientist_ids, range(len(self.scientist_ids))))
        self.pub_start = _start(self.pub_author_count)
        roster = self.auth_scientist[self.auth_scientist >= 0]
        self.scientist_pub_count = np.bincount(roster, minlength=len(self.scientist_ids))

    @property
    def scientist_uda(self) -> np.ndarray:
        """Per scientist row, the position of its UDA in ``udas``; computed on
        each access."""
        return self.sds_uda[self.scientist_sds]

    def rows_of(self, ids: Sequence[str], source: str = "indicator records") -> np.ndarray:
        """The row of each of ``ids``, which must name every roster scientist once; a repeat
        raises naming the first, missing or unknown ids with counts and the first five."""
        rows = np.fromiter(map(self.scientist_index.get, ids, repeat(-1)), np.int64, len(ids))
        seen = np.bincount(rows + 1, minlength=len(self.scientist_ids) + 1)[1:]
        if seen.max(initial=0) > 1:
            raise ValueError(f"repeated indicator record for scientist '{ids[_first_repeat(ids)[0]]}'")
        missing = list(compress(self.scientist_ids, (seen == 0).tolist()))
        extra = list(compress(ids, (rows < 0).tolist()))
        if missing or extra:
            raise ValueError(f"roster mismatch in {source}: {len(ids)} records for {len(seen)} scientists; "
                             f"{len(missing)} missing (first: {', '.join(missing[:5]) or '-'}), "
                             f"{len(extra)} extra (first: {', '.join(extra[:5]) or '-'})")
        return rows

    # -- row objects at the edge --------------------------------------------

    def table(self, name: str) -> dict:
        """The columns of input table ``name`` (``scientists``,
        ``publications`` or ``authorships``) by field, in the order of the
        table's fields in a file and in its row type; each column is read by
        :func:`decode`, ranks as :class:`Rank` members and subject categories
        as tuples."""
        return {
            "scientists": {
                "scientist_id": self.scientist_ids, "sds_code": (self.scientist_sds, self.sds_codes),
                "uda_code": (self.scientist_uda, self.udas), "rank": (self.scientist_rank, RANKS),
                "birth_year": self.scientist_birth_year,
            },
            "publications": {
                "pub_id": self.pub_ids, "year": self.pub_year, "citation_count": self.pub_citations,
                "subject_categories": (self.pub_categories, self.category_sets),
                "author_count": self.pub_author_count,
            },
            "authorships": {
                "pub_id": (self.auth_pub, self.pub_ids), "position": self.auth_position,
                "scientist_id": (self.auth_scientist, self.scientist_ids),
                "affiliation_id": (self.auth_affiliation, self.affiliations),
            },
        }[name]

    scientists = property(lambda self: RowView(Scientist, *self.table("scientists").values()))
    publications = property(lambda self: RowView(Publication, *self.table("publications").values()))
    authorships = property(lambda self: RowView(Authorship, *self.table("authorships").values()))

    @property
    def scientists_by_id(self) -> Mapping[str, Scientist]:
        return RowMap(self.scientists, self.scientist_index)

    @property
    def scientists_by_sds(self) -> Mapping[str, tuple[Scientist, ...]]:
        """Scientists per SDS in row order, SDSs in order of first appearance."""
        order = stable_order(self.scientist_sds)
        start = _start(np.bincount(self.scientist_sds, minlength=len(self.sds_codes)))
        groups = np.split(order, start[1:-1])
        appearance = np.argsort(order[start[:-1]]).tolist()
        return RowMap(self.scientists, {self.sds_codes[code]: groups[code] for code in appearance})


class CorpusColumns:
    """Columns over the rows of their ``corpus``, read as records only at the edge."""

    @classmethod
    def bound(cls, columns, corpus: Corpus):
        """``columns``, a ``cls`` of ``corpus``: TypeError for another type, ValueError for another corpus."""
        if not isinstance(columns, cls):
            raise TypeError(f"expected {cls.__name__}, got {type(columns).__name__}")
        if columns.corpus is not corpus:
            raise ValueError(f"{cls.__name__} is bound to another corpus")
        return columns


# ---------------------------------------------------------------------------
# Loading: each table is typed chunk by chunk as it is read; checks across
# rows and files run once on the typed columns

def _raise_first(problems: list[tuple[int, int, str]]) -> None:
    """Raise the problem of the earliest row; within a row, the check made first."""
    if problems:
        raise CorpusError(min(problems)[2])


def _repeats(order: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Rows that repeat the key of an earlier row; ``order`` sorts the rows
    stably by the keys."""
    same = np.ones(max(len(order) - 1, 0), dtype=bool)
    for key in keys:
        sorted_key = key[order]
        same &= sorted_key[1:] == sorted_key[:-1]
    return order[1:][same]


def _sorted(names: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Each name's position among the sorted names, and the sorted names."""
    ordered = tuple(sorted(names))
    position = dict(zip(ordered, range(len(ordered))))
    return np.array([position[name] for name in names], dtype=np.int64), ordered


class _Rows(FieldParser):
    """One corpus input table; a failure raises :class:`CorpusError`."""

    error = CorpusError


_RANK_POSITION = {rank.value: i for i, rank in enumerate(RANKS)}


class _Ranks(Coded):
    """Kind: the rank as its position in :data:`RANKS`."""

    def code(self, raw) -> int:
        name = _text(raw)
        return _RANK_POSITION.get(name.upper(), -2) if name else -1

    def __call__(self, rows: FieldParser, key: str, values: Sequence) -> np.ndarray:
        out = super().__call__(rows, key, values)
        bad = _first(out == -2)
        if bad is not None:
            name = _text(values[bad])
            rows.fail(bad, f"rank must be one of FULL/ASSOCIATE/ASSISTANT, got {name!r}")
        return out


class _CategorySets(Coded):
    """Kind: subject categories (``;``-separated text or a list) as codes of
    the distinct category tuples, in order of first appearance; a row with
    none fails. The column is the pair ``(codes, category tuples)``."""

    memo_types = {*Coded.memo_types, tuple}

    def __init__(self):
        self.sets: dict[tuple[str, ...], int] = {}
        super().__init__()

    def code(self, raw) -> int:
        value = _clean(raw)
        if value is None:
            return -1
        if isinstance(value, str):
            cats = tuple(c.strip() for c in value.split(";") if c.strip())
        else:
            cats = tuple(str(c).strip() for c in value if str(c).strip())
        return self.sets.setdefault(cats, len(self.sets))

    def __call__(self, rows: FieldParser, key: str, values: Sequence) -> np.ndarray:
        if list in set(map(type, values)):
            # JSON lists as hashable tuples of text, so that the memo keeps
            # [1] and [true] apart (1 == True)
            values = [tuple(map(str, v)) if isinstance(v, list) else v for v in values]
        out = super().__call__(rows, key, values)
        empty = self.sets.get(())
        if empty is not None and (row := _first(out == empty)) is not None:
            rows.fail(row, f"'{key}' must be non-empty")
        return out

    def join(self, parts: list) -> tuple[np.ndarray, tuple[tuple[str, ...], ...]]:
        return super().join(parts), tuple(self.sets)


class _Reference(Text):
    """Kind: text resolved to a row number through ``index``, -2 where the
    index lacks it. Only the first such value is kept: the column is the
    pair ``(rows, (row, text) of the first unknown value or None)``, as an
    unknown reference is reported after every row check."""

    def __init__(self, index: Mapping, required: bool = True):
        super().__init__(required)
        self.index = index
        self.unresolved: tuple[int, str] | None = None

    def _resolve(self, values: Sequence) -> np.ndarray:
        return np.fromiter(map(self.index.get, values, repeat(-2)), np.int64, len(values))

    def __call__(self, rows: FieldParser, key: str, values: Sequence) -> np.ndarray:
        try:  # raw values are mostly the index's keys as they are
            out = self._resolve(values)
        except TypeError:  # unhashable JSON values
            out = None
        if out is None or (out == -2).any():  # stripped text, empty or unknown
            text = super().__call__(rows, key, values)
            out = self._resolve(text)
            unknown = _first(out == -2)
            if self.unresolved is None and unknown is not None:
                self.unresolved = (rows.row(unknown), text[unknown])
        return out

    def join(self, parts: list) -> tuple[np.ndarray, tuple[int, str] | None]:
        return super().join(parts), self.unresolved


def _schema(source: str, scientists: Records | None = None,
            publications: Records | None = None) -> _Rows:
    """The parser of one corpus table, fields in the order a row is checked.
    The authorships resolve their references through the typed roster and
    publications, a chunk at a time."""
    if source == "scientists":
        return _Rows(source, {
            "rank": _Ranks(),
            "scientist_id": Text(),
            "sds_code": Code(),
            "uda_code": Code(),
            "birth_year": Number(int, required=False),
        })
    if source == "publications":
        return _Rows(source, {
            "subject_categories": _CategorySets(),
            "pub_id": Text(),
            "year": Integer(),
            "citation_count": Integer(minimum=0),
            "author_count": Integer(minimum=1),
        })
    ids, pub_ids = scientists.columns["scientist_id"], publications.columns["pub_id"]
    external = {"": -1, None: -1}
    return _Rows(source, {
        "pub_id": _Reference(dict(zip(pub_ids, range(len(pub_ids))))),
        "position": Integer(minimum=1),
        "scientist_id": _Reference({**dict(zip(ids, range(len(ids)))), **external}, False),
        "affiliation_id": Code(required=False),
    })


def load_corpus(
    scientist_records: Iterable[Mapping],
    publication_records: Iterable[Mapping],
    authorship_records: Iterable[Mapping],
) -> Corpus:
    """Parse and validate raw rows into a :class:`Corpus`.

    Malformed rows are rejected with their 1-based record number; duplicate
    keys and dangling references are rejected naming the offending key.
    Integers must fit in 64 bits. Each table of row mappings is typed as one
    chunk through the schema :func:`load_corpus_files` types each chunk of a
    file with, and the tables that function passes are typed already. Row
    checks come first, table by table; then the checks across rows and
    files: duplicate scientists and an SDS in two UDAs, then duplicate
    publications and categories, then unknown references and repeated
    bylines or authorships, then byline coverage. Only then, so that errors
    name rows of the input, do publications move into ``pub_id`` order and
    authorships into (publication, position) order, if they are not in it.
    """
    tables: dict[str, Records] = {}
    for source, table in (("scientists", scientist_records),
                          ("publications", publication_records),
                          ("authorships", authorship_records)):
        if not isinstance(table, Records):  # row mappings
            table = _schema(source, **tables).parse([Records.from_rows(table)])
        tables[source] = table
    scientists, publications, authorships = (table.columns for table in tables.values())
    ranks, ids, (scientist_sds, sds_names), (scientist_uda, uda_names), birth_years = (
        scientists[key] for key in ("rank", "scientist_id", "sds_code", "uda_code", "birth_year"))
    (pub_categories, category_sets), pub_ids, pub_year, pub_citations, pub_author_count = (
        publications[key] for key in ("subject_categories", "pub_id", "year", "citation_count", "author_count"))
    ((auth_pub, unknown_pub), auth_position, (auth_scientist, unknown_scientist),
     (auth_affiliation, affiliations)) = (
        authorships[key] for key in ("pub_id", "position", "scientist_id", "affiliation_id"))

    if len(set(ids)) < len(ids):
        raise CorpusError(f"duplicate scientist_id '{ids[_first_repeat(ids)[0]]}'")
    first_uda = scientist_uda[np.unique(scientist_sds, return_index=True)[1]]  # per SDS code
    row = _first(scientist_uda != first_uda[scientist_sds])
    if row is not None:
        code = scientist_sds[row]
        raise CorpusError(f"SDS '{sds_names[code]}' mapped to both UDA "
                          f"'{uda_names[first_uda[code]]}' and '{uda_names[scientist_uda[row]]}'")

    problems = []
    if len(set(pub_ids)) < len(pub_ids):
        row = _first_repeat(pub_ids)[0]
        problems.append((row, 0, f"duplicate pub_id '{pub_ids[row]}'"))
    repeated = [code for code, cats in enumerate(category_sets) if len(set(cats)) < len(cats)]
    if repeated:
        row = int(np.flatnonzero(np.isin(pub_categories, repeated))[0])
        problems.append((row, 1, f"publication '{pub_ids[row]}': duplicate subject category"))
    _raise_first(problems)

    # Rows move into key order, publications by pub_id and authorships by
    # (publication, position), once every check named its row in the files.
    pubs, auth_key = slice(None), auth_pub
    if any(map(operator.gt, pub_ids[:-1], pub_ids[1:])):
        pubs = np.array(sorted(range(len(pub_ids)), key=pub_ids.__getitem__), dtype=np.int64)
        auth_key = np.where(auth_pub < 0, auth_pub, np.argsort(pubs)[auth_pub])  # unknown: -2

    # A repeat among rows with an unknown publication follows the first of
    # them, whose unknown pub_id is reported instead; so only repeats of rows
    # that resolved count. Whole columns are sorted, so no subset is copied.
    problems = []
    if unknown_pub:
        row, text = unknown_pub
        problems.append((row, 0, f"authorship references unknown pub_id '{text}'"))
    linked = auth_pub >= 0
    auths = stable_order(auth_key, auth_position)
    repeats = _repeats(auths, auth_key, auth_position)
    # kept only if rows move: held to the end, it added 4 MB to the peak RSS of 536k authorships
    auths = auths if (auths[1:] < auths[:-1]).any() else slice(None)
    repeats = repeats[linked[repeats]]
    if repeats.size:
        row = int(repeats.min())
        problems.append((row, 1, f"duplicate byline position {int(auth_position[row])} "
                                 f"for pub_id '{pub_ids[auth_pub[row]]}'"))
    if unknown_scientist:
        row, text = unknown_scientist
        problems.append((row, 2, f"authorship references unknown scientist_id '{text}'"))
    linked &= auth_scientist >= 0
    repeats = _repeats(stable_order(auth_pub, auth_scientist), auth_pub, auth_scientist)
    repeats = repeats[linked[repeats]]
    if repeats.size:
        row = int(repeats.min())
        problems.append((row, 3, f"duplicate authorship ('{pub_ids[auth_pub[row]]}', "
                                 f"'{ids[auth_scientist[row]]}')"))
    _raise_first(problems)

    # With positions >= 1 and unique per publication, a byline covers
    # 1..author_count exactly when it has author_count rows, none beyond it.
    rows_per_pub = np.bincount(auth_pub, minlength=len(pub_ids))
    beyond = auth_position > pub_author_count[auth_pub]
    bad = rows_per_pub != pub_author_count
    bad[auth_pub[beyond]] = True
    if bad.any():
        p = int(np.flatnonzero(bad)[0])
        positions = sorted(auth_position[auth_pub == p].tolist())
        raise CorpusError(
            f"pub_id '{pub_ids[p]}': byline positions {positions} do not cover "
            f"1..{int(pub_author_count[p])}"
        )

    sds_position, sds_codes = _sorted(sds_names)
    uda_position, udas = _sorted(uda_names)
    sds_uda = np.empty(len(sds_codes), dtype=np.int64)
    sds_uda[sds_position] = uda_position[first_uda]
    return Corpus(
        scientist_ids=ids,
        scientist_sds=sds_position[scientist_sds],
        scientist_rank=ranks,
        scientist_birth_year=birth_years,
        sds_codes=sds_codes,
        sds_uda=sds_uda,
        udas=udas,
        pub_ids=pub_ids if isinstance(pubs, slice) else list(map(pub_ids.__getitem__, pubs.tolist())),
        pub_year=pub_year[pubs],
        pub_citations=pub_citations[pubs],
        pub_author_count=pub_author_count[pubs],
        pub_categories=pub_categories[pubs],
        category_sets=category_sets,
        auth_pub=auth_key[auths],
        auth_scientist=auth_scientist[auths],
        auth_position=auth_position[auths],
        auth_affiliation=auth_affiliation[auths],
        affiliations=affiliations,
    )


def load_corpus_files(scientists, publications, authorships) -> Corpus:
    """Load a corpus from three record files (CSV or JSON lines).

    The rules and messages are those of :func:`load_corpus`. Each file is
    typed a chunk at a time as it is read, and read only once the files
    before it are typed and checked, so errors come in file order: the first
    bad row or line of scientists, then of publications, then of
    authorships, and only then the checks across rows and files. An invalid
    JSON line in the authorships is not reached while a scientists row is bad.
    """
    tables: dict[str, Records] = {}
    for source, path in (("scientists", scientists), ("publications", publications),
                         ("authorships", authorships)):
        tables[source] = read_records(path, _schema(source, **tables))
    return load_corpus(*tables.values())


# ---------------------------------------------------------------------------
# Snapshot: the typed input columns of a validated corpus in an .npz of
# numeric arrays, keyed by the SHA-256 of its three files' bytes

#: The file the ``indicators`` step writes beside its outputs.
SNAPSHOT_NAME = "corpus.npz"
#: A snapshot of another format version is ignored. Raise it when the stored
#: columns or the parse's row checks change, as a snapshot skips those checks.
SNAPSHOT_VERSION = 1


def file_digests(paths: Iterable) -> list[str]:
    """The SHA-256 of each file's bytes, in hex, read a MiB at a time."""
    digests = []
    for path in paths:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while block := fh.read(1 << 20):
                digest.update(block)
        digests.append(digest.hexdigest())
    return digests


def save_snapshot(corpus: Corpus, digests: Sequence[str], path) -> Path:
    """Write the input columns of ``corpus`` (those of :meth:`Corpus.table`)
    and ``digests``, the :func:`file_digests` of its files, as an ``.npz`` of
    its int64 columns and of its texts: the UTF-32 code points of all of them
    joined, with their lengths, so each str reads back exactly. Every zip
    member is dated 1980-01-01: the same corpus and digests give the same bytes."""
    texts = (corpus.scientist_ids, corpus.sds_codes, corpus.udas, corpus.pub_ids,
             [cat for cats in corpus.category_sets for cat in cats], corpus.affiliations)
    flat = [text for column in texts for text in column]
    birth = corpus.scientist_birth_year
    arrays = {
        "version": np.array(SNAPSHOT_VERSION), "sha256": np.array(digests, dtype="U64"),
        "text": np.frombuffer("".join(flat).encode("utf-32-le", "surrogatepass"), "<u4"),
        "text_length": np.array(list(map(len, flat)), dtype=np.int64),
        "text_count": np.array(list(map(len, texts)), dtype=np.int64),
        "category_size": np.array(list(map(len, corpus.category_sets)), dtype=np.int64),
        "birth_year": np.array([0 if year is None else year for year in birth], dtype=np.int64),
        "birth_known": np.array([year is not None for year in birth], dtype=np.int64),
        **{f.name: getattr(corpus, f.name) for f in fields(corpus)
           if f.init and isinstance(getattr(corpus, f.name), np.ndarray)},
    }
    with zipfile.ZipFile(path, "w") as zf:
        for key, array in arrays.items():
            with zf.open(zipfile.ZipInfo(f"{key}.npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)
    return Path(path)


def _split(items: Sequence, lengths: np.ndarray) -> list:
    """``items`` cut into consecutive runs of ``lengths``, which must cover it."""
    if int(lengths.sum()) != len(items):
        raise ValueError("lengths do not cover their column")
    end = np.cumsum(lengths).tolist()
    return list(map(items.__getitem__, map(slice, [0, *end[:-1]], end)))


def _snapshot_tables(a: Mapping[str, np.ndarray]) -> tuple[Records, Records, Records]:
    """The typed tables of a snapshot's arrays ``a``, as :func:`load_corpus`
    takes them; ValueError where a column does not fit its table."""
    text = _split(a["text"].tobytes().decode("utf-32-le", "surrogatepass"), a["text_length"])
    ids, sds_names, uda_names, pub_ids, categories, affiliations = _split(text, a["text_count"])
    category_sets = tuple(map(tuple, _split(categories, a["category_size"])))
    # each int64 column: its length and value range, of a code its table, else the parse's minimum
    n_scientists, n_pubs, n_auths = len(ids), len(pub_ids), len(a["auth_pub"])
    for key, rows, low, high in (
        ("scientist_rank", n_scientists, 0, len(RANKS)), ("scientist_sds", n_scientists, 0, len(sds_names)),
        ("sds_uda", len(sds_names), 0, len(uda_names)), ("birth_year", n_scientists, -math.inf, math.inf),
        ("birth_known", n_scientists, 0, 2), ("pub_categories", n_pubs, 0, len(category_sets)),
        ("category_size", len(category_sets), 1, math.inf),
        ("pub_year", n_pubs, -math.inf, math.inf), ("pub_citations", n_pubs, 0, math.inf),
        ("pub_author_count", n_pubs, 1, math.inf), ("auth_pub", n_auths, 0, n_pubs),
        ("auth_position", n_auths, 1, math.inf), ("auth_scientist", n_auths, -1, n_scientists),
        ("auth_affiliation", n_auths, -1, len(affiliations)),
    ):
        column = a[key]
        if column.dtype != np.int64 or column.shape != (rows,) or (
                rows and not low <= column.min() <= column.max() < high):
            raise ValueError(f"column '{key}' does not fit its table")
    birth = zip(a["birth_year"].tolist(), a["birth_known"].tolist())
    return (
        Records({"rank": a["scientist_rank"], "scientist_id": ids,
                 "sds_code": (a["scientist_sds"], tuple(sds_names)),
                 "uda_code": (a["sds_uda"][a["scientist_sds"]], tuple(uda_names)),
                 "birth_year": [year if known else None for year, known in birth]}, n_scientists),
        Records({"subject_categories": (a["pub_categories"], category_sets), "pub_id": pub_ids,
                 "year": a["pub_year"], "citation_count": a["pub_citations"],
                 "author_count": a["pub_author_count"]}, n_pubs),
        Records({"pub_id": (a["auth_pub"], None), "position": a["auth_position"],
                 "scientist_id": (a["auth_scientist"], None),
                 "affiliation_id": (a["auth_affiliation"], tuple(affiliations))}, n_auths),
    )


def load_snapshot(path, sources: Sequence) -> Corpus | None:
    """The corpus of the snapshot at ``path`` (see :func:`save_snapshot`),
    checked across rows and files by :func:`load_corpus` like freshly typed
    tables; None, with the reason logged, unless it loads without unpickling,
    has format :data:`SNAPSHOT_VERSION` and holds the :func:`file_digests`
    of ``sources``, the three corpus files."""
    reason = None
    try:
        with np.load(path, allow_pickle=False) as npz:
            arrays = {key: npz[key] for key in npz.files}
        if int(arrays["version"]) != SNAPSHOT_VERSION:
            reason = "another format version"
        elif arrays["sha256"].tolist() != file_digests(sources):
            reason = "other corpus file contents"
        else:
            tables = _snapshot_tables(arrays)
    except FileNotFoundError:
        reason = "absent"
    except (OSError, EOFError, LookupError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        reason = f"unreadable: {exc}"
    if reason:
        logger.info("corpus snapshot %s not used (%s); parsing the corpus files", path, reason)
        return None
    logger.info("corpus read from snapshot %s", path)
    return load_corpus(*tables)


# ---------------------------------------------------------------------------
# (UDA, rank) grids

@dataclass(frozen=True)
class Grid:
    """One cell of a tuple type per (UDA, rank), in (UDA, rank) order.

    :meth:`cell` pools cells field by field for a UDA, a rank or the whole
    grid, adding them in that order, so a pooled float total follows no row
    order, once: later lookups are dict reads.
    """

    cell_type: type
    cells: Mapping[tuple[str, Rank], tuple]

    @property
    def udas(self) -> tuple[str, ...]:
        return tuple(sorted({u for u, _ in self.cells}))

    @cached_property
    def _pooled(self) -> dict:
        pooled: dict = {}
        for (u, r), c in self.cells.items():
            for key in ((u, r), (u, None), (None, r), (None, None)):
                pooled[key] = self.cell_type(*map(operator.add, pooled.get(key, self.cell_type()), c))
        return pooled

    def cell(self, uda: str | None = None, rank: Rank | None = None) -> tuple:
        return self._pooled.get((uda, rank), self.cell_type())

    def percent(self, field: str, uda: str | None, rank: Rank) -> float | None:
        """``field`` of the (uda, rank) cell as a percent of the UDA's pooled
        ``field`` (of the grand total when ``uda`` is None); None when that is 0."""
        denom = getattr(self.cell(uda), field)
        if denom == 0:
            return None
        return 100.0 * getattr(self.cell(uda, rank), field) / denom


def tally(
    cell_type: type, udas: Sequence[str], uda: np.ndarray, rank: np.ndarray, *columns
) -> Mapping:
    """Sum per-row ``columns``, one per field of ``cell_type``, into one cell
    per distinct (UDA, rank) of the rows, in (UDA, rank) order.

    ``uda`` and ``rank`` are each row's position in ``udas`` and in
    :data:`RANKS`. Each cell adds its rows in the order given, so a float
    column is passed in an order of the data, not of a file; a field is
    cast to the type of its default. Read-only.
    """
    key = uda * len(RANKS) + rank
    sums = [np.bincount(key, weights=column).tolist() for column in columns]
    casts = [type(default) for default in cell_type._field_defaults.values()]
    return MappingProxyType({
        (udas[k // len(RANKS)], RANKS[k % len(RANKS)]):
            cell_type(*(cast(total[k]) for cast, total in zip(casts, sums)))
        for k in np.unique(key).tolist()
    })


def fsum_rows(m: np.ndarray, count) -> np.ndarray:
    """``math.fsum`` of the first ``count`` values of each row of ``m`` (one
    count per row, or one for all), whose sums are finite. Rows of one or two
    values add in numpy, as a float sum of two floats is correctly rounded;
    ``+ 0.0`` makes -0.0 fsum's 0.0."""
    count = np.broadcast_to(count, len(m))
    total = (np.where(count > 1, m[:, 0] + m[:, 1], m[:, 0]) if m.shape[1] > 1 else m[:, 0]) + 0.0
    many = np.flatnonzero(count > 2)
    total[many] = [math.fsum(row[:n]) for row, n in zip(m[many].tolist(), count[many].tolist())]
    return total


# ---------------------------------------------------------------------------
# Roster summary

class RosterCell(NamedTuple):
    headcount: int = 0
    age_total: int = 0
    aged_count: int = 0

    @property
    def mean_age(self) -> float | None:
        return self.age_total / self.aged_count if self.aged_count else None


@dataclass(frozen=True)
class RosterSummary(Grid):
    """Headcounts and ages per UDA and rank, a grid of :class:`RosterCell`:
    a staff share is ``percent("headcount", uda, rank)``."""

    sds_counts: Mapping[str, int]
    reference_year: int | None


def roster_summary(corpus: Corpus, reference_year: int | None = None) -> RosterSummary:
    """Summarize the roster per UDA and rank.

    Ages are computed against ``reference_year``; when omitted it defaults to
    the year after the last observed publication year (the citation-snapshot
    convention). Scientists without a birth year only enter the headcounts.
    A scientist born after ``reference_year`` is an error.
    """
    if reference_year is None and len(corpus.pub_ids):
        reference_year = int(corpus.pub_year.max()) + 1

    years = corpus.scientist_birth_year
    aged = [year is not None and reference_year is not None for year in years]
    ages = [reference_year - year if a else 0 for year, a in zip(years, aged)]
    if ages and min(ages) < 0:
        row = next(i for i, age in enumerate(ages) if age < 0)
        raise ValueError(f"reference year {reference_year} is before the birth year "
                         f"{years[row]} of scientist '{corpus.scientist_ids[row]}'")
    cells = tally(
        RosterCell,
        corpus.udas,
        corpus.scientist_uda,
        corpus.scientist_rank,
        np.ones(len(years)),
        ages,
        aged,
    )
    sds_per_uda = np.bincount(corpus.sds_uda, minlength=len(corpus.udas)).tolist()
    return RosterSummary(
        RosterCell,
        cells,
        sds_counts=dict(zip(corpus.udas, sds_per_uda)),
        reference_year=reference_year,
    )


# ---------------------------------------------------------------------------
# SDS activity filter

def filter_active_sds(corpus: Corpus, threshold: float = 0.5) -> Corpus:
    """Keep only SDSs where the publishing fraction reaches ``threshold``.

    The boundary is inclusive: an SDS with exactly ``threshold`` of its
    scientists holding at least one publication is retained. Publications are
    retained unless all their roster authors were removed; byline rows of
    retained publications that reference a removed scientist keep their
    position but lose the roster link (the author becomes external), which
    preserves both the byline and referential-integrity invariants. The SDS
    and UDA codes are renumbered over the fields and disciplines kept.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")

    sds = corpus.scientist_sds
    n_sds = len(corpus.sds_codes)
    publishing = np.bincount(sds[corpus.scientist_pub_count > 0], minlength=n_sds)
    kept_sds = publishing >= threshold * np.bincount(sds, minlength=n_sds)
    if kept_sds.all():
        return corpus

    kept_scientist = kept_sds[sds]
    kept_uda = np.bincount(corpus.sds_uda[kept_sds], minlength=len(corpus.udas)) > 0
    auth_pub, auth_scientist = corpus.auth_pub, corpus.auth_scientist
    roster = auth_scientist >= 0
    kept_link = roster.copy()
    kept_link[roster] = kept_scientist[auth_scientist[roster]]
    n_pubs = len(corpus.pub_ids)
    kept_pub = (np.bincount(auth_pub[roster], minlength=n_pubs) == 0) | (
        np.bincount(auth_pub[kept_link], minlength=n_pubs) > 0
    )
    kept_auth = kept_pub[auth_pub]
    # new row numbers; a removed scientist, like index -1, maps to -1
    scientist_row = np.append(np.where(kept_scientist, np.cumsum(kept_scientist) - 1, -1), -1)
    pub_row = np.cumsum(kept_pub) - 1
    sds_row = np.cumsum(kept_sds) - 1
    uda_row = np.cumsum(kept_uda) - 1
    kept = kept_scientist.tolist()
    return Corpus(
        scientist_ids=list(compress(corpus.scientist_ids, kept)),
        scientist_sds=sds_row[sds[kept_scientist]],
        scientist_rank=corpus.scientist_rank[kept_scientist],
        scientist_birth_year=list(compress(corpus.scientist_birth_year, kept)),
        sds_codes=tuple(compress(corpus.sds_codes, kept_sds.tolist())),
        sds_uda=uda_row[corpus.sds_uda[kept_sds]],
        udas=tuple(compress(corpus.udas, kept_uda.tolist())),
        pub_ids=list(compress(corpus.pub_ids, kept_pub.tolist())),
        pub_year=corpus.pub_year[kept_pub],
        pub_citations=corpus.pub_citations[kept_pub],
        pub_author_count=corpus.pub_author_count[kept_pub],
        pub_categories=corpus.pub_categories[kept_pub],
        category_sets=corpus.category_sets,
        auth_pub=pub_row[auth_pub[kept_auth]],
        auth_scientist=scientist_row[auth_scientist[kept_auth]],
        auth_position=corpus.auth_position[kept_auth],
        auth_affiliation=corpus.auth_affiliation[kept_auth],
        affiliations=corpus.affiliations,
    )


# ---------------------------------------------------------------------------
# Activity rates

class ActivityCell(NamedTuple):
    headcount: int = 0
    publication_active: int = 0
    citation_active: int = 0


def activity_rates(corpus: Corpus, indicators: IndicatorTable) -> Grid:
    """Per UDA and rank: how many scientists published at all, and how many
    accumulated any citation impact (positive fractional strength), read from
    ``indicators``, an :class:`~.indicators.IndicatorTable` bound to ``corpus``."""
    from .indicators import IndicatorTable
    table = IndicatorTable.bound(indicators, corpus)
    cells = tally(ActivityCell, corpus.udas, corpus.scientist_uda, corpus.scientist_rank,
                  np.ones(len(table)), table.n_p >= 1, table.fss > 0)
    return Grid(ActivityCell, cells)
