"""Fractional author credit and the three per-scientist indicators.

A publication's standardized score is split across its byline. The default is
an equal split; disciplines where byline order matters (life sciences) use a
positional scheme driven by the boundary authors' affiliations:

* first and last share a university  -> 40% each, middle authors split 20%;
* first two and last two all differ  -> 30% / 15% / ... / 15% / 30%,
  everyone else splitting 10%;
* anything else (or missing data)    -> equal split.
"""

from rankmetrics import coauthor_weights, load_corpus
from rankmetrics.baseline import BaselineCell, BaselineTable, build_baselines
from rankmetrics.indicators import compute_indicators
from rankmetrics.synth import SynthConfig, generate

for n in (1, 2, 4, 6):
    w = coauthor_weights(n, first_last_same=True)
    print(f"n={n} shared first/last:   {[round(x, 4) for x in w]}")
for n in (4, 6):
    w = coauthor_weights(n, boundary_pairs_differ=True)
    print(f"n={n} distinct boundaries: {[round(x, 4) for x in w]}")

# The pattern comes straight from affiliation identifiers in byline order. One
# publication per byline, scoring 1.0, with a roster scientist at every
# position of a positional UDA: each author's FSS is their credit.
bylines = (["U1", "U2", "U1"], ["U1", "U2", "U3", "U4"], ["U1", None, "U3", "U4"])
authors = [[f"P{p}-{pos}" for pos in range(1, len(byline) + 1)] for p, byline in enumerate(bylines)]
corpus = load_corpus(
    [{"scientist_id": sid, "sds_code": "S1", "uda_code": "U1", "rank": "FULL", "birth_year": ""}
     for names in authors for sid in names],
    [{"pub_id": f"P{p}", "year": 2005, "citation_count": 2, "subject_categories": "C1",
      "author_count": len(byline)} for p, byline in enumerate(bylines)],
    [{"pub_id": f"P{p}", "position": pos, "scientist_id": sid, "affiliation_id": affiliation or ""}
     for p, (byline, names) in enumerate(zip(bylines, authors))
     for pos, (affiliation, sid) in enumerate(zip(byline, names), start=1)],
)
credit = compute_indicators(corpus, BaselineTable([BaselineCell(2005, "C1", 2.0, 2.0, 3)]), ["U1"])
print("\npattern detection:")
for byline, names in zip(bylines, authors):
    print(f"  {byline} -> credit {[round(credit[corpus.scientist_index[sid]].fss, 4) for sid in names]}")

# End to end: N_p counts publications, QI averages standardized scores, FSS
# sums score x own-position weight. UDA02 uses the positional scheme here.
# The indicators are columns aligned to the corpus's scientist rows; QI is NaN
# where it is absent, and the record of a row shows it as None.
corpus = generate(SynthConfig(seed=3, n_uda=2, sds_per_uda=1))
table = compute_indicators(corpus, build_baselines(corpus), positional_udas=["UDA02"])

active = table.n_p > 0
print(f"\n{int(active.sum())} active scientists, {int((~active).sum())} without publications")
best = table[int(table.fss.argmax())]
print(f"strongest scientist: n_p={best.n_p}, qi={best.qi:.2f}, fss={best.fss:.2f}")
idle = table[int(active.argmin())]
print(f"inactive scientists report qi=ABSENT, fss=0: {idle.qi is None and idle.fss == 0.0}")
