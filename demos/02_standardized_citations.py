"""Citation standardization against field-and-year medians.

Raw citation counts are not comparable across years or subject categories, so
each publication is scored as its citation count divided by the median count
of all publications sharing its (year, category) cell. Medians, not means:
citation distributions are strongly right-skewed, and the generator below
shows exactly that.
"""

import statistics

from rankmetrics import build_baselines
from rankmetrics.indicators import require_baselines
from rankmetrics.synth import SynthConfig, generate


def scored(corpus, baselines):
    """(year, citations, categories, score) of every publication. Every
    generated publication has a roster author, so all are scored at once, in
    ``corpus.pub_ids`` order, once the baselines are checked to cover every
    cell they need."""
    scores = require_baselines(corpus, baselines).tolist()
    return [
        (year, citations, corpus.category_sets[cats], score)
        for year, citations, cats, score in zip(
            corpus.pub_year.tolist(), corpus.pub_citations.tolist(), corpus.pub_categories.tolist(), scores)
    ]


corpus = generate(SynthConfig(seed=11, n_uda=2, sds_per_uda=2, categories_per_pub=1))
baselines = build_baselines(corpus)

print(f"{len(baselines)} baseline cells from {len(corpus.pub_ids)} publications")
skewed = sum(1 for c in baselines.cells if c.median_citations < c.mean_citations)
print(f"cells with median < mean (right skew): {skewed}/{len(baselines)}")

publications = scored(corpus, baselines)
cell = baselines.cells[0]
print(f"\nexample cell {cell.year}/{cell.category}: "
      f"median={cell.median_citations}, mean={cell.mean_citations:.2f}, n={cell.publication_count}")

members = [(c, s) for y, c, cats, s in publications if (y, cats) == (cell.year, (cell.category,))]
# A publication cited at its cell median scores exactly 1.
at_median = [s for c, s in members if c == cell.median_citations]
if at_median:
    print(f"publication cited {int(cell.median_citations)}x scores {at_median[0]:.3f}")
# Sanity: within a cell, at least half the members score <= 1 by construction.
scores = [s for _, s in members]
print(f"share of cell members scoring <= 1: "
      f"{sum(s <= 1 for s in scores)}/{len(scores)} (median score {statistics.median(scores):.2f})")

# Multi-category publications take the mean of their per-category scores.
corpus = generate(SynthConfig(seed=11, n_uda=2, sds_per_uda=2, categories_per_pub=2))
baselines = build_baselines(corpus)
year, citations, cats, score = next(p for p in scored(corpus, baselines) if p[1] > 0)
per_category = [citations / baselines.get(year, cat).median_citations for cat in cats]
print(f"\ncited {citations}x in {cats[0]}+{cats[1]} ({year}): {score:.3f} "
      f"(mean of the two cell scores {per_category[0]:.3f} and {per_category[1]:.3f})")
