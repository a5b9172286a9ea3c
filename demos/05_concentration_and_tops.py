"""Inequality of output, top scientists, and excellence-vs-rank association.

Output is concentrated: a Gini coefficient near 1 or a bottom-40%/top-20%
ratio near 0 means a few scientists produce most of the impact. The
top-scientist analysis asks whether senior ranks are over-represented among
the best 20% of each field, normalizing by staff shares (concentration index,
1 = neutral) and testing the association with a Pearson chi-square.
"""

from rankmetrics import Indicator, IndicatorTable, Rank, load_corpus
from rankmetrics.analysis import concentration_rows, top_distribution
from rankmetrics.baseline import build_baselines
from rankmetrics.indicators import compute_indicators
from rankmetrics.ranking import top_scientists
from rankmetrics.synth import SynthConfig, generate
from rankmetrics.tables import build_concentration_table, format_table

# Four hand-made fields, each the only field of its own discipline, so each
# discipline's row shows its one field's Gini coefficient and bottom/top ratio.
fields = {"equal": [4.0] * 4, "one of 100": [0.0] * 99 + [1.0],
          "uniform": [5.0] * 20, "single spike": [0.0, 0.0, 0.0, 0.0, 10.0]}
scientists, ids, fss = [], [], []
for name, values in fields.items():
    for i, value in enumerate(values):
        ids.append(f"{name}-{i}")
        scientists.append({"scientist_id": ids[-1], "sds_code": name, "uda_code": name,
                           "rank": "FULL", "birth_year": ""})
        fss.append(value)
hand = load_corpus(scientists, [], [])
hand_table = IndicatorTable.resolve(hand, ids, [1] * len(ids), fss, fss)
hand_grid = concentration_rows(hand_table, hand, Indicator.FSS)
for name in fields:
    cell = hand_grid.cell(name, Rank.FULL)
    print(f"{name:<12} gini={cell.gini:.3f}  bottom/top={cell.bottom_top_ratio}")

corpus = generate(SynthConfig(seed=8, n_uda=3, sds_per_uda=3))
records = compute_indicators(corpus, build_baselines(corpus))

# One cell per (UDA, rank), each field's Gini and ratio weighted by its
# staff; the report's T9 renders the grid, an empty cell as a blank.
grid = concentration_rows(records, corpus, Indicator.FSS)
print(f"\n{format_table(build_concentration_table(grid))}", end="")

flags = top_scientists(records, Indicator.FSS, corpus, fraction=0.2)
dist = top_distribution(flags, corpus, Indicator.FSS)
print(f"\ntop scientists flagged: {int(flags.is_top.sum())} of {len(flags)}")
print("share of top scientists by rank, concentration index in brackets:")
for rank in Rank:
    share = dist.percent("top_count", None, rank)
    index = dist.index(None, rank)
    print(f"  {rank.value:<10} {share:5.1f}% ({index:.2f})")

chi = dist.chi_square()
print(f"\nexcellence vs rank: chi2={chi.statistic:.2f}, df={chi.degrees_of_freedom}, "
      f"p={chi.p_value:.4f}")
