"""Scientist / publication / authorship data model.

Scientists are objects; publications and authorships, which are the bulk of
a corpus, are held as columns: one list or integer array per field, one
entry per input row in file order. Loading parses and validates the rows a
column at a time and still names the first offending row. The resulting
:class:`Corpus` is immutable, so every operation here is a pure read and
:func:`filter_active_sds` returns a new corpus instead of mutating. Per-row
counts per UDA and rank are summed by :func:`tally` into a :class:`Grid`.
"""

from __future__ import annotations

import enum
import operator
from collections import Counter, defaultdict
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


class RowView(Sequence):
    """Read-only sequence of row objects, built from a corpus's columns on
    first use. ``len()`` reads the columns and builds nothing."""

    __slots__ = ("_length", "_build", "_rows")

    def __init__(self, length: int, build: Callable[[], Iterable]):
        self._length = length
        self._build = build
        self._rows: tuple | None = None

    def _materialize(self) -> tuple:
        if self._rows is None:
            self._rows = tuple(self._build())
            self._build = None
        return self._rows

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self) -> Iterator:
        return iter(self._materialize())

    def __eq__(self, other) -> bool:
        if isinstance(other, (RowView, tuple)):
            return self._materialize() == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"RowView({self._length} rows)"


def _start(counts: np.ndarray) -> np.ndarray:
    """Offsets of consecutive runs of the given lengths: ``[0, c0, c0+c1, ...]``."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


class Corpus:
    """Validated, immutable collection of scientists, publications and authorships.

    ``scientists`` is a tuple of :class:`Scientist`. Publications and
    authorships are columns in input row order:

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

    ``publications``, ``authorships``, ``publications_by_id``,
    ``authorships_by_pub`` and ``authorships_by_scientist`` are row-object
    views built on first access, as are the integer codes ``sds_codes``,
    ``scientist_sds`` and ``scientist_rank`` that rankings group by. Build a
    corpus with :func:`load_corpus`, which enforces the structural invariants
    (unique keys, resolvable references, byline positions covering
    ``1..author_count``); the constructor trusts its columns.
    """

    __slots__ = (
        "scientists",
        "scientist_index",
        "scientists_by_id",
        "scientists_by_sds",
        "sds_to_uda",
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
        "_views",
    )

    def __init__(
        self,
        scientists: Iterable[Scientist],
        *,
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
        self.scientists = tuple(scientists)
        ids = [sci.scientist_id for sci in self.scientists]
        self.scientist_index = dict(zip(ids, range(len(ids))))
        self.scientists_by_id = dict(zip(ids, self.scientists))
        sds_to_uda: dict[str, str] = {}
        by_sds: dict[str, list[Scientist]] = defaultdict(list)
        for sci in self.scientists:
            sds_to_uda.setdefault(sci.sds_code, sci.uda_code)
            by_sds[sci.sds_code].append(sci)
        self.sds_to_uda = sds_to_uda
        self.scientists_by_sds = {sds: tuple(group) for sds, group in by_sds.items()}
        self.udas = tuple(sorted(set(sds_to_uda.values())))

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
        self.scientist_pub_count = np.bincount(auth_scientist[roster], minlength=len(ids))
        self._views: dict[str, object] = {}

    def publication_count(self, scientist_id: str) -> int:
        index = self.scientist_index.get(scientist_id)
        return 0 if index is None else int(self.scientist_pub_count[index])

    # -- row-object views -------------------------------------------------

    def _view(self, name: str, build: Callable[[], object]):
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = build()
        return view

    @property
    def publications(self) -> RowView:
        def rows():
            sets = self.category_sets
            return map(
                Publication,
                self.pub_ids,
                self.pub_year.tolist(),
                self.pub_citations.tolist(),
                [sets[code] for code in self.pub_categories.tolist()],
                self.pub_author_count.tolist(),
            )

        return self._view("publications", lambda: RowView(len(self.pub_ids), rows))

    @property
    def authorships(self) -> RowView:
        def rows():
            # index -1 (external author, missing affiliation) reads the None at the end
            scientist_ids = [sci.scientist_id for sci in self.scientists] + [None]
            affiliations = [*self.affiliations, None]
            return map(
                Authorship,
                [self.pub_ids[p] for p in self.auth_pub.tolist()],
                self.auth_position.tolist(),
                [scientist_ids[s] for s in self.auth_scientist.tolist()],
                [affiliations[a] for a in self.auth_affiliation.tolist()],
            )

        return self._view("authorships", lambda: RowView(len(self.auth_pub), rows))

    @property
    def publications_by_id(self) -> dict[str, Publication]:
        return self._view("publications_by_id", lambda: dict(zip(self.pub_ids, self.publications)))

    @property
    def authorships_by_pub(self) -> dict[str, tuple[Authorship, ...]]:
        def build():
            rows, order, start = self.authorships, self.by_pub.tolist(), self.pub_start.tolist()
            return {
                pub_id: tuple(rows[i] for i in order[start[p]:start[p + 1]])
                for p, pub_id in enumerate(self.pub_ids)
            }

        return self._view("authorships_by_pub", build)

    @property
    def authorships_by_scientist(self) -> dict[str, tuple[Authorship, ...]]:
        def build():
            rows, order = self.authorships, self.by_scientist.tolist()
            start = _start(self.scientist_pub_count).tolist()
            return {
                sci.scientist_id: tuple(rows[i] for i in order[start[s]:start[s + 1]])
                for s, sci in enumerate(self.scientists)
                if start[s] < start[s + 1]
            }

        return self._view("authorships_by_scientist", build)

    # -- SDS and rank codes -------------------------------------------------

    @property
    def sds_codes(self) -> tuple[str, ...]:
        """Every SDS of the roster, sorted; :attr:`scientist_sds` indexes it."""
        return self._view("sds_codes", lambda: tuple(sorted(self.sds_to_uda)))

    @property
    def scientist_sds(self) -> np.ndarray:
        """Per scientist row, the position of its SDS in :attr:`sds_codes`,
        so that ordering by it orders by SDS code."""
        def build():
            code = {sds: i for i, sds in enumerate(self.sds_codes)}
            sds = (code[sci.sds_code] for sci in self.scientists)
            return np.fromiter(sds, np.int64, len(self.scientists))

        return self._view("scientist_sds", build)

    @property
    def scientist_rank(self) -> np.ndarray:
        """Per scientist row, the position of its rank in :data:`RANKS`."""
        def build():
            ranks = (RANKS.index(sci.rank) for sci in self.scientists)
            return np.fromiter(ranks, np.int64, len(self.scientists))

        return self._view("scientist_rank", build)


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

    def ranks(self) -> list[Rank | None]:
        names = self.text("rank")
        ranks = [Rank.__members__.get(name.upper()) for name in names]
        for i, (name, rank) in enumerate(zip(names, ranks)):
            if name and rank is None:
                self.fail(
                    i, f"rank must be one of FULL/ASSOCIATE/ASSISTANT, got {name!r}"
                )
                break
        return ranks

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
    sds_codes = rows.text("sds_code")
    uda_codes = rows.text("uda_code")
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
    for sds, uda in zip(sds_codes, uda_codes):
        first = sds_to_uda.setdefault(sds, uda)
        if first != uda:
            raise CorpusError(f"SDS '{sds}' mapped to both UDA '{first}' and '{uda}'")

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

    affiliations = _Codes()
    return Corpus(
        map(Scientist, ids, sds_codes, uda_codes, ranks, birth_years),
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


def tally(cell_type: type, udas: Iterable[str], ranks: Iterable[Rank], *columns) -> dict:
    """Sum per-row ``columns``, one per field of ``cell_type``, into one cell
    per distinct (UDA, rank) of the rows, in order of first appearance.

    Each cell adds its rows in row order, as a loop over the rows would; a
    field is cast to the type of its default. A row's cell is coded from
    the UDA's code and the rank's position in :data:`RANKS`, not from a
    ``(uda, rank)`` tuple: hashing one per row costs more than the sums.
    """
    codes = _Codes()
    uda = np.fromiter(map(codes.__getitem__, udas), np.int64)
    key = uda * len(RANKS) + np.fromiter(map(RANKS.index, ranks), np.int64, len(uda))
    distinct, first = np.unique(key, return_index=True)
    names = codes.names()
    sums = [np.bincount(key, weights=column).tolist() for column in columns]
    casts = [type(default) for default in cell_type._field_defaults.values()]
    return {
        (names[k // len(RANKS)], RANKS[k % len(RANKS)]):
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

    scientists = corpus.scientists
    aged = [sci.birth_year is not None and reference_year is not None for sci in scientists]
    ages = [reference_year - sci.birth_year if a else 0 for sci, a in zip(scientists, aged)]
    cells = tally(
        RosterCell,
        [sci.uda_code for sci in scientists],
        [sci.rank for sci in scientists],
        np.ones(len(scientists)),
        ages,
        aged,
    )
    return RosterSummary(
        RosterCell,
        cells,
        sds_counts=dict(Counter(corpus.sds_to_uda.values())),
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
    preserves both the byline and referential-integrity invariants.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")

    publishing = (corpus.scientist_pub_count > 0).tolist()
    kept_sds = {
        sds
        for sds, group in corpus.scientists_by_sds.items()
        if sum(publishing[corpus.scientist_index[s.scientist_id]] for s in group)
        >= threshold * len(group)
    }
    if len(kept_sds) == len(corpus.scientists_by_sds):
        return corpus

    kept_scientist = np.array([s.sds_code in kept_sds for s in corpus.scientists], dtype=bool)
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
    return Corpus(
        compress(corpus.scientists, kept_scientist.tolist()),
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
    scientists = corpus.scientists
    try:
        recs = [by_id[sci.scientist_id] for sci in scientists]
    except KeyError as exc:
        raise ValueError(f"no indicator record for scientist '{exc.args[0]}'") from None
    cells = tally(
        ActivityCell,
        [sci.uda_code for sci in scientists],
        [sci.rank for sci in scientists],
        np.ones(len(recs)),
        [rec.n_p >= 1 for rec in recs],
        [rec.fss > 0 for rec in recs],
    )
    return Grid(ActivityCell, cells)
