"""Scientist / publication / authorship data model.

A :class:`Corpus` holds each of its three tables as columns: one list or
integer array per field, one entry per input row in file order, with a
scientist's SDS, UDA and rank as integer codes. Loading parses and
validates the rows a column at a time and still names the first offending
row. The corpus is immutable, so every operation here is a pure read and
:func:`filter_active_sds` returns a new corpus instead of mutating. Row
objects (:class:`Scientist`, :class:`Publication`, :class:`Authorship`)
exist only at the edge, in the views a corpus builds on request. Per-row
counts per UDA and rank are summed by :func:`tally` into a :class:`Grid`.
"""

from __future__ import annotations

import enum
import operator
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .fileio import Records, read_records

if TYPE_CHECKING:
    from .indicators import IndicatorRecord

__all__ = [
    "ActivityCell",
    "Authorship",
    "Corpus",
    "CorpusError",
    "Grid",
    "Publication",
    "RANKS",
    "Rank",
    "RosterCell",
    "RosterSummary",
    "RowView",
    "Scientist",
    "activity_rates",
    "decode",
    "filter_active_sds",
    "load_corpus",
    "load_corpus_files",
    "roster_summary",
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


def decode(column) -> list:
    """A column as a list: a list as it is, an integer array as ints, and a
    ``(codes, names)`` pair as ``names[code]``, None where the code is -1."""
    if isinstance(column, tuple):
        codes, names = column
        names = [*names, None]
        return [names[code] for code in codes.tolist()]
    return column.tolist() if isinstance(column, np.ndarray) else column


class _LazyRows:
    """Rows built on first use by ``build``; ``len()`` builds nothing."""

    __slots__ = ("_length", "_build", "_rows")
    _container: type = tuple

    def __init__(self, length: int, build: Callable[[], Iterable]):
        self._length, self._build, self._rows = length, build, None

    def _materialize(self):
        if self._build is not None:
            self._rows, self._build = self._container(self._build()), None
        return self._rows

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, key):
        return self._materialize()[key]

    def __iter__(self) -> Iterator:
        return iter(self._materialize())


class RowView(_LazyRows, Sequence):
    """Read-only sequence of ``row_type`` objects, one per row of the
    ``columns`` (each read by :func:`decode`). A view holds the columns, not
    the corpus."""

    __slots__ = ()

    def __init__(self, row_type: type, *columns):
        first = columns[0]
        length = len(first[0] if isinstance(first, tuple) else first)
        super().__init__(length, lambda: map(row_type, *map(decode, columns)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (RowView, tuple)):
            return self._materialize() == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"RowView({self._length} rows)"


class _RowMap(_LazyRows, Mapping):
    """Read-only mapping; ``build`` yields its items."""

    __slots__ = ()
    _container = dict


def _start(counts: np.ndarray) -> np.ndarray:
    """Offsets of consecutive runs of the given lengths: ``[0, c0, c0+c1, ...]``."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


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
      where the affiliation is missing;
    * two orderings of the authorship rows: ``by_pub`` by (publication,
      position), so publication ``p``'s byline is
      ``by_pub[pub_start[p]:pub_start[p + 1]]``; and ``by_scientist``, the
      roster rows stably by scientist, ``scientist_pub_count`` of them each.

    Row objects exist only at the edge: ``scientists``, ``publications`` and
    ``authorships`` are :class:`RowView` sequences, and ``scientists_by_id``
    and ``scientists_by_sds`` (read by the benchmark harness) mappings, each
    made afresh on every access from the columns alone; ``len()`` of any of
    them builds no row. Build a corpus with
    :func:`load_corpus`, which enforces the structural invariants (unique
    keys, one UDA per SDS, resolvable references, byline positions covering
    ``1..author_count``); the constructor trusts its columns.
    """

    __slots__ = (
        "scientist_ids",
        "scientist_index",
        "scientist_sds",
        "scientist_rank",
        "scientist_birth_year",
        "sds_codes",
        "sds_uda",
        "udas",
        "pub_ids",
        "pub_year",
        "pub_citations",
        "pub_author_count",
        "pub_categories",
        "category_sets",
        "pub_start",
        "auth_pub",
        "auth_scientist",
        "auth_position",
        "auth_affiliation",
        "affiliations",
        "by_pub",
        "by_scientist",
        "scientist_pub_count",
    )

    def __init__(
        self,
        *,
        scientist_ids: list[str],
        scientist_sds: np.ndarray,
        scientist_rank: np.ndarray,
        scientist_birth_year: list[int | None],
        sds_codes: tuple[str, ...],
        sds_uda: np.ndarray,
        udas: tuple[str, ...],
        pub_ids: list[str],
        pub_year: np.ndarray,
        pub_citations: np.ndarray,
        pub_author_count: np.ndarray,
        pub_categories: np.ndarray,
        category_sets: Sequence[tuple[str, ...]],
        auth_pub: np.ndarray,
        auth_scientist: np.ndarray,
        auth_position: np.ndarray,
        auth_affiliation: np.ndarray,
        affiliations: Sequence[str],
    ):
        self.scientist_ids = scientist_ids
        self.scientist_index = dict(zip(scientist_ids, range(len(scientist_ids))))
        self.scientist_sds = scientist_sds
        self.scientist_rank = scientist_rank
        self.scientist_birth_year = scientist_birth_year
        self.sds_codes = sds_codes
        self.sds_uda = sds_uda
        self.udas = udas

        self.pub_ids = pub_ids
        self.pub_year = pub_year
        self.pub_citations = pub_citations
        self.pub_author_count = pub_author_count
        self.pub_categories = pub_categories
        self.category_sets = category_sets
        self.auth_pub = auth_pub
        self.auth_scientist = auth_scientist
        self.auth_position = auth_position
        self.auth_affiliation = auth_affiliation
        self.affiliations = affiliations

        # Bylines cover 1..author_count, so each row's byline slot is known.
        self.pub_start = _start(pub_author_count)
        self.by_pub = np.empty(len(auth_pub), dtype=np.int64)
        self.by_pub[self.pub_start[auth_pub] + auth_position - 1] = np.arange(len(auth_pub))
        roster = np.flatnonzero(auth_scientist >= 0)
        self.by_scientist = roster[np.argsort(auth_scientist[roster], kind="stable")]
        self.scientist_pub_count = np.bincount(auth_scientist[roster], minlength=len(scientist_ids))

    @property
    def scientist_uda(self) -> np.ndarray:
        """Per scientist row, the position of its UDA in ``udas``; computed on
        each access."""
        return self.sds_uda[self.scientist_sds]

    # -- row objects at the edge --------------------------------------------

    @property
    def scientists(self) -> RowView:
        return RowView(
            Scientist,
            self.scientist_ids,
            (self.scientist_sds, self.sds_codes),
            (self.scientist_uda, self.udas),
            (self.scientist_rank, RANKS),
            self.scientist_birth_year,
        )

    @property
    def publications(self) -> RowView:
        return RowView(
            Publication,
            self.pub_ids,
            self.pub_year,
            self.pub_citations,
            (self.pub_categories, self.category_sets),
            self.pub_author_count,
        )

    @property
    def authorships(self) -> RowView:
        return RowView(
            Authorship,
            (self.auth_pub, self.pub_ids),
            self.auth_position,
            (self.auth_scientist, self.scientist_ids),
            (self.auth_affiliation, self.affiliations),
        )

    @property
    def scientists_by_id(self) -> Mapping[str, Scientist]:
        ids, rows = self.scientist_ids, self.scientists
        return _RowMap(len(ids), lambda: zip(ids, rows))

    @property
    def scientists_by_sds(self) -> Mapping[str, tuple[Scientist, ...]]:
        """Scientists per SDS, SDSs in order of first appearance."""
        rows = self.scientists

        def groups():
            by_sds = defaultdict(list)
            for sci in rows:
                by_sds[sci.sds_code].append(sci)
            return ((sds, tuple(group)) for sds, group in by_sds.items())

        return _RowMap(len(self.sds_codes), groups)


# ---------------------------------------------------------------------------
# Loading: parse a column at a time, fail on the row a row-by-row parse
# would have failed on first

_INT64 = np.iinfo(np.int64)


def _clean(value):
    if isinstance(value, str):
        value = value.strip()
    return None if value in (None, "") else value


def _raise_first(problems: list[tuple[int, int, str]]) -> None:
    """Raise the problem of the earliest row; within a row, the check made first."""
    if problems:
        raise CorpusError(min(problems)[2])


def _first_repeat(keys: Sequence) -> int:
    seen = set()
    for i, key in enumerate(keys):
        if key in seen:
            return i
        seen.add(key)
    raise AssertionError("no repeated key")


def _repeats(order: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Rows that repeat the key of an earlier row; ``order`` sorts the rows
    stably by the keys."""
    same = np.ones(max(len(order) - 1, 0), dtype=bool)
    for key in keys:
        sorted_key = key[order]
        same &= sorted_key[1:] == sorted_key[:-1]
    return order[1:][same]


class _Ints(dict):
    """Memo of ``int()`` by raw value: a column holds few distinct values."""

    def __missing__(self, raw) -> int:
        value = self[raw] = int(raw)
        return value


class _Codes(dict):
    """Interns hashable values as consecutive integer codes; a missing value
    (``None`` or ``""``) is -1."""

    def __init__(self):
        super().__init__({None: -1, "": -1})

    def __missing__(self, key) -> int:
        code = self[key] = len(self) - 2
        return code

    def encode(self, values: list) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, values), np.int64, len(values))

    def names(self) -> tuple:
        return tuple(key for key in self if key not in (None, ""))


class _Rows:
    """One input table, validated a column at a time. Row mappings are
    transposed into columns once; :class:`Records` from a file already are.

    Each check records its first failing row; :meth:`check` raises the
    earliest. Checks are made in the order a row-by-row parse makes them,
    and a later check only wins on a strictly earlier row, so the error is
    the one that parse would have raised.
    """

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
            raise CorpusError(self._error[1])

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

    def _parse_int(self, index: int, raw, key: str, required: bool) -> int | None:
        raw = _clean(raw)
        if raw is None:
            if required:
                self.fail(index, f"missing '{key}'")
            return None
        try:
            value = int(raw)
        except (TypeError, ValueError, OverflowError):
            self.fail(index, f"'{key}' must be an integer, got {raw!r}")
            return None
        if not _INT64.min <= value <= _INT64.max:
            self.fail(index, f"'{key}' must fit in a 64-bit integer, got {value}")
            return None
        return value

    def integers(self, key: str, minimum: int | None = None) -> np.ndarray:
        """A required integer column as int64."""
        values = self.raw(key)
        try:  # int() strips whitespace itself, as the field cleaning does
            array = np.fromiter(map(_Ints().__getitem__, values), np.int64, len(values))
        except (TypeError, ValueError, OverflowError):
            parsed = [self._parse_int(i, v, key, True) for i, v in enumerate(values)]
            array = np.array([0 if v is None else v for v in parsed], dtype=np.int64)
        if minimum is not None:
            low = np.flatnonzero(array < minimum)
            if low.size:
                self.fail(int(low[0]), f"'{key}' must be >= {minimum}, got {int(array[low[0]])}")
        return array

    def optional_integers(self, key: str) -> list[int | None]:
        return [self._parse_int(i, v, key, False) for i, v in enumerate(self.raw(key))]

    def ranks(self) -> np.ndarray:
        """The rank column as positions in :data:`RANKS`, -1 where missing."""
        names = self.text("rank")
        position = {rank.value: i for i, rank in enumerate(RANKS)}
        codes = [position.get(name.upper(), -1) for name in names]
        bad = next((i for i, name in enumerate(names) if name and codes[i] < 0), None)
        if bad is not None:
            self.fail(bad, f"rank must be one of FULL/ASSOCIATE/ASSISTANT, got {names[bad]!r}")
        return np.array(codes, dtype=np.int64)

    def category_sets(self, key: str, codes: "_CategoryCodes") -> np.ndarray:
        """Subject categories (``;``-separated text or a list) as codes into
        ``codes.sets``."""
        values = self.raw(key)
        try:
            out = np.fromiter(map(codes.__getitem__, values), np.int64, len(values))
        except TypeError:  # lists from JSON lines are not hashable
            values = [tuple(v) if isinstance(v, list) else v for v in values]
            out = np.fromiter(map(codes.__getitem__, values), np.int64, len(values))
        missing = np.flatnonzero(out < 0)
        if missing.size:
            self.fail(int(missing[0]), f"missing '{key}'")
        empty = codes.sets.get(())
        if empty is not None:
            self.fail(int(np.flatnonzero(out == empty)[0]), f"'{key}' must be non-empty")
        return out


class _CategoryCodes(dict):
    """Raw subject-categories value -> code of its category tuple in
    ``sets`` (-1 where the field is empty)."""

    def __init__(self):
        super().__init__()
        self.sets = _Codes()

    def __missing__(self, raw) -> int:
        value = _clean(raw)
        if value is None:
            cats = None
        elif isinstance(value, str):
            cats = tuple(c.strip() for c in value.split(";") if c.strip())
        else:
            cats = tuple(str(c).strip() for c in value if str(c).strip())
        code = self[raw] = self.sets[cats]
        return code


def load_corpus(
    scientist_records: Iterable[Mapping],
    publication_records: Iterable[Mapping],
    authorship_records: Iterable[Mapping],
) -> Corpus:
    """Parse and validate raw rows into a :class:`Corpus`.

    Malformed rows are rejected with their 1-based record number; duplicate
    keys and dangling references are rejected naming the offending key.
    Integers must fit in 64 bits.
    """
    rows = _Rows(scientist_records, "scientists")
    ranks = rows.ranks()
    ids = rows.text("scientist_id")
    sds_names = rows.text("sds_code")
    uda_names = rows.text("uda_code")
    birth_years = rows.optional_integers("birth_year")
    rows.check()

    rows = _Rows(publication_records, "publications")
    categories = _CategoryCodes()
    pub_categories = rows.category_sets("subject_categories", categories)
    pub_ids = rows.text("pub_id")
    pub_year = rows.integers("year")
    pub_citations = rows.integers("citation_count", minimum=0)
    pub_author_count = rows.integers("author_count", minimum=1)
    rows.check()

    rows = _Rows(authorship_records, "authorships")
    auth_pub_ids = rows.text("pub_id")
    auth_position = rows.integers("position", minimum=1)
    auth_scientist_ids = rows.text("scientist_id", required=False)
    auth_affiliation_ids = rows.text("affiliation_id", required=False)
    rows.check()

    scientist_index = dict(zip(ids, range(len(ids))))
    if len(scientist_index) < len(ids):
        raise CorpusError(f"duplicate scientist_id '{ids[_first_repeat(ids)]}'")
    sds_to_uda: dict[str, str] = {}
    for sds, uda in zip(sds_names, uda_names):
        first = sds_to_uda.setdefault(sds, uda)
        if first != uda:
            raise CorpusError(f"SDS '{sds}' mapped to both UDA '{first}' and '{uda}'")
    sds_codes = tuple(sorted(sds_to_uda))
    udas = tuple(sorted(set(sds_to_uda.values())))

    problems = []
    pub_index = dict(zip(pub_ids, range(len(pub_ids))))
    if len(pub_index) < len(pub_ids):
        row = _first_repeat(pub_ids)
        problems.append((row, 0, f"duplicate pub_id '{pub_ids[row]}'"))
    category_sets = categories.sets.names()
    repeated = [code for code, cats in enumerate(category_sets) if len(set(cats)) < len(cats)]
    if repeated:
        row = int(np.flatnonzero(np.isin(pub_categories, repeated))[0])
        problems.append((row, 1, f"publication '{pub_ids[row]}': duplicate subject category"))
    _raise_first(problems)

    auth_pub = np.fromiter(
        map(pub_index.get, auth_pub_ids, repeat(-1)), np.int64, len(auth_pub_ids)
    )
    scientist_index[""] = -1  # external author
    auth_scientist = np.fromiter(
        map(scientist_index.get, auth_scientist_ids, repeat(-2)), np.int64, len(auth_scientist_ids)
    )
    problems = []
    unknown = np.flatnonzero(auth_pub < 0)
    if unknown.size:
        row = int(unknown[0])
        problems.append((row, 0, f"authorship references unknown pub_id '{auth_pub_ids[row]}'"))
    repeats = _repeats(np.lexsort((auth_position, auth_pub)), auth_pub, auth_position)
    if repeats.size:
        row = int(repeats.min())
        problems.append((row, 1, f"duplicate byline position {int(auth_position[row])} "
                                 f"for pub_id '{auth_pub_ids[row]}'"))
    unknown = np.flatnonzero(auth_scientist == -2)
    if unknown.size:
        row = int(unknown[0])
        problems.append(
            (row, 2, f"authorship references unknown scientist_id '{auth_scientist_ids[row]}'")
        )
    roster = np.flatnonzero(auth_scientist >= 0)
    order = roster[np.lexsort((auth_scientist[roster], auth_pub[roster]))]
    repeats = _repeats(order, auth_pub, auth_scientist)
    if repeats.size:
        row = int(repeats.min())
        problems.append((row, 3, f"duplicate authorship ('{auth_pub_ids[row]}', "
                                 f"'{auth_scientist_ids[row]}')"))
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

    sds_code = dict(zip(sds_codes, range(len(sds_codes))))
    uda_code = dict(zip(udas, range(len(udas))))
    affiliations = _Codes()
    return Corpus(
        scientist_ids=ids,
        scientist_sds=np.fromiter(map(sds_code.__getitem__, sds_names), np.int64, len(ids)),
        scientist_rank=ranks,
        scientist_birth_year=birth_years,
        sds_codes=sds_codes,
        sds_uda=np.array([uda_code[sds_to_uda[sds]] for sds in sds_codes], dtype=np.int64),
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
        auth_affiliation=affiliations.encode(auth_affiliation_ids),
        affiliations=affiliations.names(),
    )


def load_corpus_files(scientists, publications, authorships) -> Corpus:
    """Load a corpus from three record files (CSV or JSON lines)."""
    return load_corpus(
        read_records(scientists), read_records(publications), read_records(authorships)
    )


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
    """
    if reference_year is None and len(corpus.pub_ids):
        reference_year = int(corpus.pub_year.max()) + 1

    years = corpus.scientist_birth_year
    aged = [year is not None and reference_year is not None for year in years]
    ages = [reference_year - year if a else 0 for year, a in zip(years, aged)]
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
    accumulated any citation impact (positive fractional strength)."""
    by_id = {r.scientist_id: r for r in records}
    try:
        recs = list(map(by_id.__getitem__, corpus.scientist_ids))
    except KeyError as exc:
        raise ValueError(f"no indicator record for scientist '{exc.args[0]}'") from None
    cells = tally(
        ActivityCell,
        corpus.udas,
        corpus.scientist_uda,
        corpus.scientist_rank,
        np.ones(len(recs)),
        [rec.n_p >= 1 for rec in recs],
        [rec.fss > 0 for rec in recs],
    )
    return Grid(ActivityCell, cells)
