"""Percentile rankings within fields and the rank-dominance criterion.

Indicator values are only comparable inside an SDS, so every scientist gets a
national percentile there (0 worst, 100 best, ties at midranks). Aggregating
percentiles by UDA and academic rank gives the rank-comparison tables, and
the pooled rank-sum criterion decides, field by field, which of two ranks
sits higher overall.
"""

from rankmetrics import Indicator, IndicatorTable, Rank, load_corpus
from rankmetrics.analysis import dominance_counts
from rankmetrics.baseline import build_baselines
from rankmetrics.indicators import compute_indicators
from rankmetrics.ranking import sds_percentiles, uda_rank_average
from rankmetrics.synth import SynthConfig, generate

# The generator plants a FULL > ASSOCIATE > ASSISTANT productivity effect.
corpus = generate(SynthConfig(seed=4))
records = compute_indicators(corpus, build_baselines(corpus))

# One percentile per ranked scientist row, as columns bound to the corpus.
percentiles = sds_percentiles(records, Indicator.FSS, corpus)
print(f"{len(percentiles)} scientists ranked; overall mean percentile "
      f"{percentiles.percentile.mean():.2f}")
table = uda_rank_average(percentiles, corpus)
print("mean FSS percentile by rank (pooled over all UDAs):")
for rank in Rank:
    print(f"  {rank.value:<10} {table.mean(None, rank):6.2f}  (n={table.cell(None, rank).count})")

# The dominance criterion on one hand-made field, three full professors
# against two assistants: distances to the ideal "every member of my group
# outranks every member of yours" configuration.
members = {"s1": ("FULL", 9.0), "s2": ("FULL", 7.5), "s3": ("FULL", 6.0),
           "j1": ("ASSISTANT", 5.0), "j2": ("ASSISTANT", 2.0)}
field = load_corpus([{"scientist_id": sid, "sds_code": "S1", "uda_code": "U1", "rank": rank,
                      "birth_year": ""} for sid, (rank, _) in members.items()], [], [])
fss = [value for _, value in members.values()]
hand = IndicatorTable.resolve(field, list(members), [1] * len(fss), fss, fss)
# Each counted field is one entry of the result's columns; here only S1.
res = dominance_counts(hand, field, Indicator.FSS, Rank.FULL, Rank.ASSISTANT)
(r_diff_a,), (r_diff_b,), (b_wins,) = res.r_diff_a.tolist(), res.r_diff_b.tolist(), res.b_wins.tolist()
print(f"\nhand-made comparison in {res.sds_codes[0]}: r_diff_a={r_diff_a}, r_diff_b={r_diff_b}, "
      f"assistants win: {b_wins} (identity: {r_diff_a + r_diff_b} == 3*2)")

# Counting fields where assistants outrank full professors:
counts = dominance_counts(records, corpus, Indicator.FSS, Rank.FULL, Rank.ASSISTANT)
wins, counted = counts.total
print(f"\nassistants outrank full professors in {wins} out of {counted} fields")
for uda, (w, c) in sorted(counts.per_uda.items()):
    print(f"  {uda}: {w} out of {c}")
