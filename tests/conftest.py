from collections import defaultdict
from operator import attrgetter
from typing import NamedTuple

import pytest
from hypothesis import settings

from rankmetrics import (
    RANKS, Indicator, IndicatorRecord, IndicatorTable, Rank, concentration_rows, dominance_counts,
    fileio, load_corpus,
)

# The CI workflow runs with --hypothesis-profile=ci: every job draws the same
# examples, and a slow runner fails no example on time.
settings.register_profile("ci", derandomize=True, deadline=None)


def tiny_rows():
    """3 scientists, 2 publications, 4 authorships; one external co-author."""
    scientists = [
        {"scientist_id": "A1", "sds_code": "S1", "uda_code": "U1", "rank": "FULL", "birth_year": "1949"},
        {"scientist_id": "A2", "sds_code": "S1", "uda_code": "U1", "rank": "ASSISTANT", "birth_year": "1957"},
        {"scientist_id": "A3", "sds_code": "S2", "uda_code": "U1", "rank": "ASSOCIATE", "birth_year": ""},
    ]
    publications = [
        {"pub_id": "P1", "year": "2005", "citation_count": "6", "subject_categories": "C1", "author_count": "2"},
        {"pub_id": "P2", "year": "2006", "citation_count": "0", "subject_categories": "C1;C2", "author_count": "2"},
    ]
    authorships = [
        {"pub_id": "P1", "position": "1", "scientist_id": "A1", "affiliation_id": "U01"},
        {"pub_id": "P1", "position": "2", "scientist_id": "A2", "affiliation_id": "U02"},
        {"pub_id": "P2", "position": "1", "scientist_id": "A3", "affiliation_id": "U01"},
        {"pub_id": "P2", "position": "2", "scientist_id": "", "affiliation_id": "U03"},
    ]
    return scientists, publications, authorships


#: (CHUNK_ROWS, BLOCK_BYTES): the module's sizes, and sizes that put chunk and
#: block boundaries between the interesting rows of a tiny table.
CHUNK_SIZES = [(fileio.CHUNK_ROWS, fileio.BLOCK_BYTES), (1, 1), (2, 7), (3, 24)]


@pytest.fixture(params=CHUNK_SIZES, ids=lambda sizes: str(sizes[0]))
def chunk_rows(request, monkeypatch):
    """Run each case at the module's chunk and block sizes, and at sizes that
    put chunk boundaries, and the CSV fast path's block boundaries, between
    the interesting rows, so that a file can switch from the fast path to the
    csv module mid-file."""
    rows, block = request.param
    monkeypatch.setattr(fileio, "CHUNK_ROWS", rows)
    monkeypatch.setattr(fileio, "BLOCK_BYTES", block)
    return rows


@pytest.fixture
def tiny_corpus():
    return load_corpus(*tiny_rows())


def single_author_corpus(entries, year=2005, category="C1"):
    """Corpus of sole-authored publications, one per citation count.

    Each entry is (scientist_id, sds, uda, rank, citations_list).
    """
    scientists, publications, authorships = [], [], []
    serial = 0
    for sid, sds, uda, rank, citations in entries:
        scientists.append(
            {"scientist_id": sid, "sds_code": sds, "uda_code": uda, "rank": rank, "birth_year": ""}
        )
        for c in citations:
            serial += 1
            pid = f"P{serial}"
            publications.append(
                {"pub_id": pid, "year": year, "citation_count": c,
                 "subject_categories": category, "author_count": 1}
            )
            authorships.append(
                {"pub_id": pid, "position": 1, "scientist_id": sid, "affiliation_id": "U01"}
            )
    return load_corpus(scientists, publications, authorships)


def indicator_table(corpus, records) -> IndicatorTable:
    """The indicator table of ``corpus`` from hand-written
    :class:`IndicatorRecord` values, given in any order."""
    columns = list(zip(*records)) or [()] * 4
    return IndicatorTable.resolve(corpus, *map(list, columns))


def block_table(blocks):
    """A corpus of one block of scientists per ``(uda, rank, sds, values)``
    in ``blocks``, and its indicator table, each scientist's FSS and QI the
    value (QI absent where it is NaN)."""
    scientists, records = [], []
    for b, (uda, rank, sds, values) in enumerate(blocks):
        for j, value in enumerate(values):
            scientists.append({"scientist_id": f"B{b:05d}-{j}", "sds_code": sds, "uda_code": uda,
                               "rank": rank.value, "birth_year": ""})
            records.append(IndicatorRecord(f"B{b:05d}-{j}", 1, value, value))
    corpus = load_corpus(scientists, [], [])
    return corpus, indicator_table(corpus, records)


def _cell(i):
    """The (UDA, rank) cell of case ``i`` of :func:`one_block_table`."""
    return f"U{i // 3:05d}", RANKS[i % 3]


def one_block_table(cases):
    """:func:`block_table` of one (UDA, SDS, rank) block per list of values
    in ``cases``: case ``i`` is SDS ``S{i:05d}`` in the cell :func:`_cell`,
    so every (UDA, rank) cell of :func:`concentration_rows` holds one block."""
    return block_table([(*_cell(i), f"S{i:05d}", values) for i, values in enumerate(cases)])


def one_block_rows(cases, bottom_fraction=0.4, top_fraction=0.2):
    """The FSS :class:`SpreadCell` of each case of :func:`one_block_table`, in order."""
    corpus, table = one_block_table(cases)
    grid = concentration_rows(table, corpus, Indicator.FSS, bottom_fraction, top_fraction)
    return [grid.cell(*_cell(i)) for i in range(len(cases))]


class PairResult(NamedTuple):
    """One counted field's dominance columns."""
    r_diff_a: float
    r_diff_b: float
    b_wins: bool


def pair_results(pairs):
    """The FSS dominance columns of each ``(values_a, values_b)`` pair as a
    :class:`PairResult`, each pair one SDS of FULL members valued
    ``values_a`` and ASSISTANT members valued ``values_b``, in order; None
    where a group is empty."""
    corpus, table = block_table([
        ("U1", rank, f"S{i:05d}", values)
        for i, pair in enumerate(pairs)
        for rank, values in zip((Rank.FULL, Rank.ASSISTANT), pair)
    ])
    counts = dominance_counts(table, corpus, Indicator.FSS)
    columns = (counts.r_diff_a.tolist(), counts.r_diff_b.tolist(), counts.b_wins.tolist())
    results = dict(zip(counts.sds_codes, map(PairResult, *columns)))
    return [results.get(f"S{i:05d}") for i in range(len(pairs))]


# Keyed views of a corpus, built from its row views for the tests that look
# rows up by key; the library itself reads the columns.

def publications_by_id(corpus) -> dict:
    return {pub.pub_id: pub for pub in corpus.publications}


def authorships_by_pub(corpus) -> dict:
    """Every publication's byline, in position order."""
    bylines = {pub.pub_id: [] for pub in corpus.publications}
    for auth in corpus.authorships:
        bylines[auth.pub_id].append(auth)
    return {pid: tuple(sorted(rows, key=attrgetter("position"))) for pid, rows in bylines.items()}


def authorships_by_scientist(corpus) -> dict:
    """Each publishing roster scientist's authorships, in corpus row order (by publication, then position)."""
    rows = defaultdict(list)
    for auth in corpus.authorships:
        if auth.scientist_id is not None:
            rows[auth.scientist_id].append(auth)
    return {sci.scientist_id: tuple(rows[sci.scientist_id])
            for sci in corpus.scientists if rows[sci.scientist_id]}
