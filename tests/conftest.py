from collections import defaultdict
from operator import attrgetter

import pytest

from rankmetrics import load_corpus


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
    """Each publishing roster scientist's authorships, in file order."""
    rows = defaultdict(list)
    for auth in corpus.authorships:
        if auth.scientist_id is not None:
            rows[auth.scientist_id].append(auth)
    return {sci.scientist_id: tuple(rows[sci.scientist_id])
            for sci in corpus.scientists if rows[sci.scientist_id]}
