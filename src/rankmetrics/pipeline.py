"""End-to-end run: load, filter, standardize, rank, analyze, report.

The pipeline is deterministic: identical inputs and configuration produce
byte-identical report files (no timestamps in metadata, stable ordering
everywhere).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import __version__
from .analysis import dominance_counts, concentration_rows, top_distribution
from .baseline import build_baselines, read_baselines
from .corpus import (SNAPSHOT_NAME, Corpus, Rank, activity_rates, filter_active_sds, load_corpus_files,
                     load_snapshot, roster_summary)
from .indicators import IndicatorTable, check_baselines, compute_indicators, read_indicators
from .ranking import INDICATORS, Indicator, sds_percentiles, top_scientists, uda_rank_average
from .tables import (
    Table,
    build_activity_table,
    build_age_table,
    build_chi_square_table,
    build_concentration_table,
    build_dominance_table,
    build_percentile_table,
    build_roster_table,
    build_top_distribution_table,
    write_table,
)

__all__ = ["ReportBundle", "RunConfig", "analysis_tables", "prepare", "run_pipeline", "write_bundle"]

FORMAT_EXT = {"text": "txt", "csv": "csv", "md": "md"}


@dataclass
class RunConfig:
    scientists: Path
    publications: Path
    authorships: Path
    baselines: Path | None = None
    positional_udas: tuple[str, ...] = ()
    sds_threshold: float = 0.5
    top_fraction: float = 0.2
    bottom_fraction: float = 0.4
    reference_year: int | None = None
    output_format: str = "text"

    def __post_init__(self):
        self.scientists = Path(self.scientists)
        self.publications = Path(self.publications)
        self.authorships = Path(self.authorships)
        if self.baselines is not None:
            self.baselines = Path(self.baselines)
        # text, as a config file gives it, is typed; typed values are kept as given
        if isinstance(self.positional_udas, str):
            self.positional_udas = [u.strip() for u in self.positional_udas.split(",") if u.strip()]
        self.positional_udas = tuple(self.positional_udas)
        for name, cast in (("sds_threshold", float), ("top_fraction", float),
                           ("bottom_fraction", float), ("reference_year", int)):
            if isinstance(getattr(self, name), str):
                setattr(self, name, cast(getattr(self, name)))

    def validate(self) -> None:
        if not 0.0 <= self.sds_threshold <= 1.0:
            raise ValueError(f"sds_threshold must be in [0, 1], got {self.sds_threshold}")
        for name in ("top_fraction", "bottom_fraction"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        if self.output_format not in FORMAT_EXT:
            raise ValueError(f"format must be one of {sorted(FORMAT_EXT)}, got {self.output_format!r}")
        for name in ("scientists", "publications", "authorships", "baselines"):
            path = getattr(self, name)
            if path is not None and not Path(path).is_file():
                raise FileNotFoundError(f"{name} file not found: {path}")

    def digest(self) -> str:
        """Hash of every field; paths hash as their text."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        text = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class ReportBundle:
    tables: dict[str, Table] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)


def prepare(config: RunConfig, indicators: str | Path | None = None):
    """Load -> activity filter -> baselines -> indicators, returning
    ``(corpus, filtered, baselines, records)``.

    A baselines file must cover every (year, category) the filtered corpus
    needs, also when ``indicators``, the path of a precomputed indicator
    file, is given. The records are then read from that file and must cover
    exactly the filtered roster; ``baselines`` is the file's table, or None
    without one. The corpus comes from the snapshot of the ``indicators``
    step beside the ``indicators`` file, else beside the baselines file,
    where :func:`~.corpus.load_snapshot` accepts it; else from its files."""
    config.validate()
    inputs = (config.scientists, config.publications, config.authorships)
    beside = indicators or config.baselines
    corpus = beside and load_snapshot(Path(beside).with_name(SNAPSHOT_NAME), inputs)
    corpus = corpus or load_corpus_files(*inputs)
    unknown = sorted(set(config.positional_udas) - set(corpus.udas))
    if unknown:
        raise ValueError(f"positional_udas names UDA code(s) not in the corpus: {', '.join(unknown)}; "
                         f"the corpus has {', '.join(corpus.udas)}")
    filtered = filter_active_sds(corpus, config.sds_threshold)
    if not filtered.sds_codes:
        raise ValueError(f"no SDS reaches the activity threshold {config.sds_threshold}: "
                         f"0 of the {len(corpus.sds_codes)} SDSs loaded are kept")
    baselines = None if config.baselines is None else read_baselines(config.baselines)
    if indicators:
        records = read_indicators(indicators, filtered)
        if baselines is not None:
            check_baselines(filtered, baselines)
        return corpus, filtered, baselines, records
    if baselines is None:
        baselines = build_baselines(filtered)
    records = compute_indicators(filtered, baselines, config.positional_udas)
    return corpus, filtered, baselines, records


def analysis_tables(config: RunConfig, filtered: Corpus, records: IndicatorTable) -> list[Table]:
    """T8 dominance, T9 concentration, T10 top distribution and the
    chi-square table, in report order."""
    dominance = {
        indicator: dominance_counts(records, filtered, indicator, Rank.FULL, Rank.ASSISTANT)
        for indicator in INDICATORS
    }
    concentration = concentration_rows(
        records, filtered, Indicator.FSS, config.bottom_fraction, config.top_fraction
    )
    flags = top_scientists(records, Indicator.FSS, filtered, config.top_fraction)
    dist = top_distribution(flags, filtered, Indicator.FSS)
    return [
        build_dominance_table(dominance),
        build_concentration_table(concentration),
        build_top_distribution_table(dist),
        build_chi_square_table(dist),
    ]


def run_pipeline(config: RunConfig) -> ReportBundle:
    """Run the full analysis and return every report table, in report order."""
    corpus, filtered, _, records = prepare(config)
    summary = roster_summary(filtered, config.reference_year)
    activity = activity_rates(filtered, records)

    metadata = {
        "tool": f"rankmetrics {__version__}",
        "config_sha256": config.digest(),
        "scientists": str(len(filtered.scientist_ids)),
        "publications": str(len(filtered.pub_ids)),
        "authorships": str(len(filtered.auth_pub)),
        "sds_loaded": str(len(corpus.sds_codes)),
        "sds_retained": str(len(filtered.sds_codes)),
    }
    if summary.reference_year is not None:
        metadata["reference_year"] = str(summary.reference_year)

    averages = [uda_rank_average(sds_percentiles(records, i, filtered), filtered) for i in INDICATORS]
    tables = [
        build_roster_table(summary),
        build_age_table(summary),
        build_activity_table(activity, "publication"),
        build_activity_table(activity, "citation"),
        *map(build_percentile_table, averages),
        *analysis_tables(config, filtered, records),
    ]
    for table in tables:
        table.metadata = {**metadata, **table.metadata}
    return ReportBundle({table.key: table for table in tables}, metadata)


def write_bundle(bundle: ReportBundle, out_dir: str | Path, fmt: str = "text") -> list[Path]:
    """Write one file per table; returns the written paths."""
    ext = FORMAT_EXT[fmt]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return [
        write_table(table, out_dir / f"{key}.{ext}", fmt) for key, table in bundle.tables.items()
    ]
