"""Citation standardization against field-and-year medians.

Raw citation counts are not comparable across years or subject categories, so
each publication is scored as its citation count divided by the median count
of all publications sharing its (year, category) cell. Medians, not means:
citation distributions are strongly right-skewed, and the generator below
shows exactly that.
"""

import statistics

from rankmetrics import build_baselines
from rankmetrics.baseline import standardized_score
from rankmetrics.synth import SynthConfig, generate

corpus = generate(SynthConfig(seed=11, n_uda=2, sds_per_uda=2))
baselines = build_baselines(corpus)

print(f"{len(baselines)} baseline cells from {len(corpus.publications)} publications")
skewed = sum(1 for c in baselines.cells if c.median_citations < c.mean_citations)
print(f"cells with median < mean (right skew): {skewed}/{len(baselines)}")

cell = baselines.cells[0]
print(f"\nexample cell {cell.year}/{cell.category}: "
      f"median={cell.median_citations}, mean={cell.mean_citations:.2f}, n={cell.publication_count}")

# A publication at its cell median scores exactly 1.
at_median = int(cell.median_citations)
print(f"publication cited {at_median}x scores "
      f"{standardized_score(cell.year, at_median, (cell.category,), baselines):.3f}")

# Multi-category publications take the mean of their per-category scores.
other = baselines.cells[1]
print(f"cited 10x in {cell.category}: "
      f"{standardized_score(cell.year, 10, (cell.category,), baselines):.3f}")
if other.year == cell.year:
    two_cat = standardized_score(cell.year, 10, (cell.category, other.category), baselines)
    print(f"cited 10x in {cell.category}+{other.category}: "
          f"{two_cat:.3f} (mean of the two cell scores)")

# Sanity: within a cell, at least half the members score <= 1 by construction.
scores = []
for pub in corpus.publications:
    if pub.year == cell.year and cell.category in pub.subject_categories:
        scores.append(standardized_score(pub.year, pub.citation_count, (cell.category,), baselines))
print(f"\nshare of cell members scoring <= 1: "
      f"{sum(s <= 1 for s in scores)}/{len(scores)} (median score {statistics.median(scores):.2f})")
