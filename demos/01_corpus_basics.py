"""Build a small corpus by hand, validate it, and summarize the roster.

The corpus is the unit every other capability works on: scientists belong to
a field (SDS) nested in a discipline (UDA), publications carry citation
snapshots and subject categories, and authorship rows tie byline positions to
roster scientists (or to external co-authors, who have no scientist_id).
"""

from rankmetrics import CorpusError, Rank, filter_active_sds, load_corpus, roster_summary

scientists = [
    {"scientist_id": "ada", "sds_code": "MATH-1", "uda_code": "MATH", "rank": "FULL", "birth_year": 1951},
    {"scientist_id": "bo", "sds_code": "MATH-1", "uda_code": "MATH", "rank": "ASSISTANT", "birth_year": 1975},
    {"scientist_id": "cy", "sds_code": "MATH-2", "uda_code": "MATH", "rank": "ASSOCIATE", "birth_year": 1963},
    {"scientist_id": "dee", "sds_code": "MATH-2", "uda_code": "MATH", "rank": "ASSISTANT", "birth_year": None},
]
publications = [
    {"pub_id": "P1", "year": 2006, "citation_count": 12, "subject_categories": "NUM", "author_count": 2},
    {"pub_id": "P2", "year": 2007, "citation_count": 3, "subject_categories": "NUM;STAT", "author_count": 1},
]
authorships = [
    {"pub_id": "P1", "position": 1, "scientist_id": "ada", "affiliation_id": "U-A"},
    {"pub_id": "P1", "position": 2, "scientist_id": "", "affiliation_id": "U-B"},  # external co-author
    {"pub_id": "P2", "position": 1, "scientist_id": "cy", "affiliation_id": "U-A"},
]

corpus = load_corpus(scientists, publications, authorships)
print(f"loaded {len(corpus.scientists)} scientists, {len(corpus.publications)} publications")

# Validation is strict: a dangling reference is rejected with its key.
try:
    load_corpus(scientists, publications, authorships + [
        {"pub_id": "P9", "position": 1, "scientist_id": "ada", "affiliation_id": ""}
    ])
except CorpusError as exc:
    print(f"rejected bad input: {exc}")

# Roster summary: one cell per UDA and rank, with its headcount and mean age;
# a staff share is the cell's percent of its UDA's headcount.
summary = roster_summary(corpus, reference_year=2009)
for rank in Rank:
    cell = summary.cell("MATH", rank)
    print(
        f"{rank.value:<10} headcount={cell.headcount}"
        f" share={summary.percent('headcount', 'MATH', rank):.1f}%"
        f" mean_age={cell.mean_age}"
    )

# Fields where under half the scientists published are dropped; MATH-2 keeps
# exactly 1 of 2 publishing (the boundary is inclusive), MATH-1 likewise.
filtered = filter_active_sds(corpus, threshold=0.5)
print(f"fields retained at the 50% activity threshold: {list(filtered.sds_codes)}")
