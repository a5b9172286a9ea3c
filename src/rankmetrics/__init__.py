"""rankmetrics: field-normalized research performance indicators and
academic-rank comparison.

The library evaluates individual research output from publication and
citation records (publication counts, citation scores standardized by
field-and-year medians, fractional co-author credit), ranks scientists as
national percentiles within their field, and compares academic ranks through
percentile averages, rank-sum dominance, inequality measures and
top-scientist concentration.
"""

__version__ = "0.1.0"

from .analysis import (
    ChiSquareResult,
    DominanceCounts,
    SpreadCell,
    TopDistribution,
    chi_square_independence,
    chi_square_upper_tail,
    concentration_index,
    concentration_rows,
    dominance_counts,
    top_distribution,
)
from .baseline import (
    BaselineCell,
    BaselineTable,
    MissingBaselineError,
    build_baselines,
    read_baselines,
    write_baselines,
)
from .corpus import (
    Authorship,
    Corpus,
    CorpusError,
    Grid,
    Publication,
    RANKS,
    Rank,
    RosterSummary,
    Scientist,
    activity_rates,
    filter_active_sds,
    load_corpus,
    load_corpus_files,
    roster_summary,
)
from .indicators import (
    IndicatorRecord,
    IndicatorTable,
    coauthor_weights,
    compute_indicators,
    read_indicators,
    write_indicators,
)
from .pipeline import ReportBundle, RunConfig, analysis_tables, prepare, run_pipeline, write_bundle
from .ranking import (
    Indicator,
    PercentileRecord,
    PercentileTable,
    TopFlag,
    sds_percentiles,
    top_scientists,
    uda_rank_average,
    write_percentiles,
    write_top_flags,
)
from .synth import SynthConfig, generate, write_corpus_csv
from .tables import Table, format_table, parse_table_csv, write_table
