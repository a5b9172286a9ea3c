"""Scientist / publication / authorship data model.

A :class:`Corpus` holds each of its three tables as columns: one list or
integer array per field, one entry per input row in file order, with a
scientist's SDS, UDA and rank as integer codes. Loading types each input
table through one schema, a chunk of rows at a time as a file is read, and
still names the first offending row; checks across rows and files run once
on the typed columns. The corpus is immutable, so every operation here is a
pure read and :func:`filter_active_sds` returns a new corpus instead of
mutating. Records exist only at the edge, where one :class:`RowView` builds
those of the rows asked for from the columns of a corpus table (laid out once
by :meth:`Corpus.table`) or of a result. Per-row counts per UDA and rank are
summed by :func:`tally` into a :class:`Grid`.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from itertools import compress, repeat
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
    from .indicators import IndicatorRecord

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
    "Scientist",
    "activity_rates",
    "decode",
    "filter_active_sds",
    "load_corpus",
    "load_corpus_files",
    "roster_summary",
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

    def __reversed__(self) -> Iterator:
        return reversed(self.take(slice(None)))

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


@dataclass(eq=False, repr=False, slots=True, kw_only=True)
class Corpus:
    """Validated, immutable collection of scientists, publications and
    authorships, each table held as columns in input row order:

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
    ``scientist_index``; ``by_pub``, the authorship rows by (publication,
    position), so publication ``p``'s byline is
    ``by_pub[pub_start[p]:pub_start[p + 1]]``; and ``scientist_pub_count``,
    each scientist's number of authorships.

    Row objects exist only at the edge. :meth:`table` declares each input
    table's fields and columns once, for the row views and the CSV writer of
    :mod:`.synth`: ``scientists``, ``publications`` and ``authorships`` are
    :class:`RowView` sequences, and ``scientists_by_id`` and
    ``scientists_by_sds`` (read by the benchmark harness) :class:`RowMap`
    mappings; each builds only the rows indexed, sliced or looked up. Build a
    corpus with :func:`load_corpus`, which enforces the structural invariants
    (unique keys, one UDA per SDS, resolvable references, byline positions
    covering ``1..author_count``); the constructor trusts its columns.
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
    by_pub: np.ndarray = field(init=False)
    scientist_pub_count: np.ndarray = field(init=False)

    def __post_init__(self):
        self.scientist_index = dict(zip(self.scientist_ids, range(len(self.scientist_ids))))
        # Bylines cover 1..author_count, so each row's byline slot is known.
        auth_pub = self.auth_pub
        self.pub_start = _start(self.pub_author_count)
        self.by_pub = np.empty(len(auth_pub), dtype=np.int64)
        self.by_pub[self.pub_start[auth_pub] + self.auth_position - 1] = np.arange(len(auth_pub))
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

    def bound_to(self, corpus: Corpus):
        """Self, bound to ``corpus``; columns of another corpus, as the unfiltered one, raise."""
        if self.corpus is not corpus:
            raise ValueError(f"{type(self).__name__} is bound to another corpus")
        return self


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
                self.unresolved = (rows.offset + unknown, text[unknown])
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
    bylines or authorships, then byline coverage.
    """
    tables: dict[str, Records] = {}
    for source, table in (("scientists", scientist_records),
                          ("publications", publication_records),
                          ("authorships", authorship_records)):
        if not isinstance(table, Records):  # row mappings
            table = _schema(source, **tables).parse([Records.from_rows(table)])
        tables[source] = table
    ranks, ids, (scientist_sds, sds_names), (scientist_uda, uda_names), birth_years = (
        tables["scientists"].columns.values()
    )
    (pub_categories, category_sets), pub_ids, pub_year, pub_citations, pub_author_count = (
        tables["publications"].columns.values()
    )
    ((auth_pub, unknown_pub), auth_position, (auth_scientist, unknown_scientist),
     (auth_affiliation, affiliations)) = tables["authorships"].columns.values()

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

    # A repeat among rows with an unknown publication follows the first of
    # them, whose unknown pub_id is reported instead; so only repeats of rows
    # that resolved count. Whole columns are sorted, so no subset is copied.
    problems = []
    if unknown_pub:
        row, text = unknown_pub
        problems.append((row, 0, f"authorship references unknown pub_id '{text}'"))
    linked = auth_pub >= 0
    repeats = _repeats(stable_order(auth_pub, auth_position), auth_pub, auth_position)
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
        pub_ids=pub_ids,
        pub_year=pub_year,
        pub_citations=pub_citations,
        pub_author_count=pub_author_count,
        pub_categories=pub_categories,
        category_sets=category_sets,
        auth_pub=auth_pub,
        auth_scientist=auth_scientist,
        auth_position=auth_position,
        auth_affiliation=auth_affiliation,
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
# (UDA, rank) grids

@dataclass(frozen=True)
class Grid:
    """One cell of a tuple type per (UDA, rank), in order of first appearance.

    :meth:`cell` pools cells field by field for a UDA, a rank or the whole
    grid, adding them in grid order, so a pooled float total is the same
    sequence of additions on every run.
    """

    cell_type: type
    cells: Mapping[tuple[str, Rank], tuple]

    @property
    def udas(self) -> tuple[str, ...]:
        return tuple(sorted({u for u, _ in self.cells}))

    def cell(self, uda: str | None = None, rank: Rank | None = None) -> tuple:
        total = self.cell_type()
        for (u, r), c in self.cells.items():
            if (uda is None or u == uda) and (rank is None or r == rank):
                total = self.cell_type(*map(operator.add, total, c))
        return total

    def percent(self, field: str, uda: str | None, rank: Rank) -> float | None:
        """``field`` of the (uda, rank) cell as a percent of the UDA's pooled
        ``field`` (of the grand total when ``uda`` is None); None when that is 0."""
        denom = getattr(self.cell(uda), field)
        if denom == 0:
            return None
        return 100.0 * getattr(self.cell(uda, rank), field) / denom


def tally(
    cell_type: type, udas: Sequence[str], uda: np.ndarray, rank: np.ndarray, *columns
) -> dict:
    """Sum per-row ``columns``, one per field of ``cell_type``, into one cell
    per distinct (UDA, rank) of the rows, in order of first appearance.

    ``uda`` and ``rank`` are each row's position in ``udas`` and in
    :data:`RANKS`. Each cell adds its rows in row order, as a loop over the
    rows would; a field is cast to the type of its default.
    """
    key = uda * len(RANKS) + rank
    distinct, first = np.unique(key, return_index=True)
    sums = [np.bincount(key, weights=column).tolist() for column in columns]
    casts = [type(default) for default in cell_type._field_defaults.values()]
    return {
        (udas[k // len(RANKS)], RANKS[k % len(RANKS)]):
            cell_type(*(cast(total[k]) for cast, total in zip(casts, sums)))
        for k in distinct[np.argsort(first)].tolist()
    }


# ---------------------------------------------------------------------------
# Roster summary

class RosterCell(NamedTuple):
    headcount: int = 0
    age_total: int = 0
    aged_count: int = 0


@dataclass(frozen=True)
class RosterSummary(Grid):
    """Headcounts, staff shares and mean ages per UDA and rank."""

    sds_counts: Mapping[str, int]
    reference_year: int | None

    def headcount(self, uda: str | None = None, rank: Rank | None = None) -> int:
        return self.cell(uda, rank).headcount

    def share(self, uda: str | None, rank: Rank) -> float | None:
        """Percent of the UDA staff (or of the grand total when ``uda`` is None)."""
        return self.percent("headcount", uda, rank)

    def mean_age(self, uda: str | None = None, rank: Rank | None = None) -> float | None:
        cell = self.cell(uda, rank)
        return cell.age_total / cell.aged_count if cell.aged_count else None


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


def activity_rates(corpus: Corpus, records: Iterable["IndicatorRecord"]) -> Grid:
    """Per UDA and rank: how many scientists published at all, and how many
    accumulated any citation impact (positive fractional strength); one
    record per roster scientist (see :meth:`Corpus.rows_of`)."""
    records = list(records)
    rows = corpus.rows_of([r.scientist_id for r in records])
    active = np.zeros((2, len(rows)), dtype=bool)
    active[:, rows] = [[r.n_p >= 1 for r in records], [r.fss > 0 for r in records]]
    cells = tally(ActivityCell, corpus.udas, corpus.scientist_uda, corpus.scientist_rank,
                  np.ones(len(rows)), *active)
    return Grid(ActivityCell, cells)
