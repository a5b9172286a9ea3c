"""Command-line surface.

Subcommands: ``validate``, ``synth``, ``indicators``, ``rank``, ``analyze``
and ``report`` (the full pipeline). Options can come from a config file of
flat ``key = value`` lines under ``[section]`` headers; command-line flags win
over file values. ``RANKMETRICS_LOG={error|info|debug}`` controls diagnostics
on stderr; reports go only to files or stdout.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys
from pathlib import Path

from .analysis import dominance_counts, concentration_rows, top_distribution
from .baseline import build_baselines, read_baselines, write_baselines
from .corpus import CorpusError, Rank, filter_active_sds, load_corpus_files
from .indicators import compute_indicators, read_indicators, write_indicators
from .pipeline import RunConfig, run_pipeline, write_bundle
from .ranking import Indicator, sds_percentiles, top_scientists, write_percentiles, write_top_flags
from .synth import SynthConfig, generate, write_corpus_csv
from .tables import (
    build_chi_square_table,
    build_concentration_table,
    build_dominance_table,
    build_top_distribution_table,
    format_table,
    write_table,
)

logger = logging.getLogger("rankmetrics")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> None:
    raw = os.environ.get("RANKMETRICS_LOG", "error").lower()
    level = _LOG_LEVELS.get(raw, logging.ERROR)
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )
    logging.getLogger("rankmetrics").setLevel(level)


def _read_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    flat: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            flat[key.strip()] = value.strip()
    return flat


def _setting(args: argparse.Namespace, cfg: dict[str, str], key: str, default=None, cast=None):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, key, None)
    if value is None:
        value = cfg.get(key, default)
    if value is None or cast is None:
        return value
    if cast is bool and isinstance(value, str):
        return value.lower() in ("1", "true", "yes")
    return cast(value)


def _split_udas(value) -> tuple[str, ...]:
    if not value:
        return ()
    if isinstance(value, str):
        return tuple(u.strip() for u in value.split(",") if u.strip())
    return tuple(value)


def _input_paths(args, cfg) -> tuple[Path, Path, Path]:
    paths = []
    for key in ("scientists", "publications", "authorships"):
        value = _setting(args, cfg, key)
        if value is None:
            raise ValueError(f"missing required input '--{key}' (flag or config file)")
        paths.append(Path(value))
    return tuple(paths)


def _run_config(args, cfg) -> RunConfig:
    scientists, publications, authorships = _input_paths(args, cfg)
    baselines = _setting(args, cfg, "baselines")
    return RunConfig(
        scientists=scientists,
        publications=publications,
        authorships=authorships,
        baselines=None if baselines is None else Path(baselines),
        positional_udas=_split_udas(_setting(args, cfg, "positional_udas")),
        sds_threshold=_setting(args, cfg, "sds_threshold", 0.5, float),
        top_fraction=_setting(args, cfg, "top_fraction", 0.2, float),
        bottom_fraction=_setting(args, cfg, "bottom_fraction", 0.4, float),
        reference_year=_setting(args, cfg, "reference_year", None, int),
        output_format=_setting(args, cfg, "format", "text"),
    )


def _out_dir(args, cfg, required: bool = True) -> Path | None:
    value = _setting(args, cfg, "out")
    if value is None:
        if required:
            raise ValueError("missing required output directory '--out'")
        return None
    out = Path(value)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _synth_config(args, cfg) -> SynthConfig:
    def per_rank(prefix: str, default: SynthConfig, attr: str, cast=float):
        base = getattr(default, attr)
        return {
            rank: cast(cfg.get(f"{prefix}_{rank.value.lower()}", base[rank]))
            for rank in (Rank.FULL, Rank.ASSOCIATE, Rank.ASSISTANT)
        }

    defaults = SynthConfig()
    seed = _setting(args, cfg, "seed", defaults.seed, int)
    return SynthConfig(
        seed=seed,
        n_uda=int(cfg.get("n_uda", defaults.n_uda)),
        sds_per_uda=int(cfg.get("sds_per_uda", defaults.sds_per_uda)),
        scientists_per_sds=per_rank("scientists_per_sds", defaults, "scientists_per_sds", int),
        pubs_per_scientist=float(cfg.get("pubs_per_scientist", defaults.pubs_per_scientist)),
        count_dispersion=float(cfg.get("count_dispersion", defaults.count_dispersion)),
        citation_dispersion=float(cfg.get("citation_dispersion", defaults.citation_dispersion)),
        citation_mean=float(cfg.get("citation_mean", defaults.citation_mean)),
        authors_per_pub=float(cfg.get("authors_per_pub", defaults.authors_per_pub)),
        rank_effect=per_rank("rank_effect", defaults, "rank_effect"),
        inactive_fraction=per_rank("inactive_fraction", defaults, "inactive_fraction"),
        years=(
            int(cfg.get("year_start", defaults.years[0])),
            int(cfg.get("year_end", defaults.years[1])),
        ),
        categories_per_pub=int(cfg.get("categories_per_pub", defaults.categories_per_pub)),
        n_categories=int(cfg.get("n_categories", defaults.n_categories)),
    )


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_validate(args, cfg) -> int:
    corpus = load_corpus_files(*_input_paths(args, cfg))
    print(f"scientists: {len(corpus.scientists)}")
    print(f"publications: {len(corpus.publications)}")
    print(f"authorships: {len(corpus.authorships)}")
    print(f"sds: {len(corpus.sds_to_uda)}")
    print(f"uda: {len(corpus.udas)}")
    print("OK")
    return 0


def _cmd_synth(args, cfg) -> int:
    out = _out_dir(args, cfg)
    config = _synth_config(args, cfg)
    corpus = generate(config)
    paths = write_corpus_csv(corpus, out)
    logger.info(
        "generated %d scientists, %d publications", len(corpus.scientists), len(corpus.publications)
    )
    for name in ("scientists", "publications", "authorships"):
        print(paths[name])
    return 0


def _prepare(args, cfg):
    """Shared load -> filter -> baselines -> indicators front end."""
    run = _run_config(args, cfg)
    run.validate()
    corpus = load_corpus_files(run.scientists, run.publications, run.authorships)
    filtered = filter_active_sds(corpus, run.sds_threshold)
    indicators_path = _setting(args, cfg, "indicators")
    if indicators_path:
        records = read_indicators(indicators_path)
        _check_roster(records, filtered, indicators_path)
        baselines = None
    else:
        if run.baselines is not None:
            baselines = read_baselines(run.baselines)
        else:
            baselines = build_baselines(filtered)
        records = compute_indicators(filtered, baselines, run.positional_udas)
    return run, filtered, baselines, records


def _check_roster(records, corpus, path, shown: int = 5) -> None:
    """Precomputed indicators must cover exactly the filtered roster."""
    roster = [sci.scientist_id for sci in corpus.scientists]
    missing = [sid for sid in roster if sid not in records]
    extra = [sid for sid in records if sid not in corpus.scientists_by_id]
    if missing or extra:
        raise ValueError(
            f"indicators file {path} does not match the roster: {len(records)} records for "
            f"{len(roster)} scientists; {len(missing)} missing (first: "
            f"{', '.join(missing[:shown]) or '-'}), {len(extra)} extra (first: "
            f"{', '.join(extra[:shown]) or '-'})"
        )


def _cmd_indicators(args, cfg) -> int:
    out = _out_dir(args, cfg)
    run, filtered, baselines, records = _prepare(args, cfg)
    print(write_indicators(records, out / "indicators.csv"))
    if baselines is not None:
        print(write_baselines(baselines, out / "baselines.csv"))
    return 0


def _cmd_rank(args, cfg) -> int:
    out = _out_dir(args, cfg)
    run, filtered, _, records = _prepare(args, cfg)
    percentiles = []
    flags = []
    for indicator in (Indicator.NP, Indicator.FSS, Indicator.QI):
        percentiles.extend(sds_percentiles(records, indicator, filtered))
        flags.extend(top_scientists(records, indicator, filtered, run.top_fraction))
    print(write_percentiles(percentiles, out / "percentiles.csv"))
    print(write_top_flags(flags, out / "top_flags.csv"))
    return 0


def _cmd_analyze(args, cfg) -> int:
    out = _out_dir(args, cfg)
    run, filtered, _, records = _prepare(args, cfg)
    fmt = run.output_format
    ext = {"text": "txt", "csv": "csv", "md": "md"}[fmt]
    dominance = {
        indicator: dominance_counts(records, filtered, indicator, Rank.FULL, Rank.ASSISTANT)
        for indicator in (Indicator.NP, Indicator.FSS, Indicator.QI)
    }
    conc = concentration_rows(records, filtered, Indicator.FSS, run.bottom_fraction, run.top_fraction)
    flags = top_scientists(records, Indicator.FSS, filtered, run.top_fraction)
    dist = top_distribution(flags, filtered, Indicator.FSS)
    for table in (
        build_dominance_table(dominance),
        build_concentration_table(conc),
        build_top_distribution_table(dist),
        build_chi_square_table(dist),
    ):
        print(write_table(table, out / f"{table.key}.{ext}", fmt))
    return 0


def _cmd_report(args, cfg) -> int:
    run = _run_config(args, cfg)
    bundle = run_pipeline(run)
    out = _out_dir(args, cfg, required=False)
    if out is None:
        for table in bundle.tables.values():
            print(format_table(table, run.output_format))
        return 0
    for path in write_bundle(bundle, out, run.output_format):
        print(path)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "synth": _cmd_synth,
    "indicators": _cmd_indicators,
    "rank": _cmd_rank,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file with [section] headers")
    common.add_argument("--scientists", help="scientists record file (CSV or JSON lines)")
    common.add_argument("--publications", help="publications record file")
    common.add_argument("--authorships", help="authorships record file")
    common.add_argument("--baselines", help="baseline override file (year,category,median,mean,count)")
    common.add_argument("--indicators", help="precomputed indicator file (skips recomputation)")
    common.add_argument("--out", help="output directory")
    common.add_argument("--format", choices=["text", "csv", "md"], help="report format (default text)")
    common.add_argument("--sds-threshold", dest="sds_threshold", type=float,
                        help="minimum publishing fraction to keep an SDS (default 0.5)")
    common.add_argument("--top-fraction", dest="top_fraction", type=float,
                        help="top-scientist fraction (default 0.2)")
    common.add_argument("--bottom-fraction", dest="bottom_fraction", type=float,
                        help="bottom block fraction for concentration ratios (default 0.4)")
    common.add_argument("--reference-year", dest="reference_year", type=int,
                        help="reference year for ages (default: last publication year + 1)")
    common.add_argument("--positional-udas", dest="positional_udas",
                        help="comma-separated UDA codes using positional co-author weights")

    parser = argparse.ArgumentParser(
        prog="rankmetrics",
        description="Field-normalized research performance indicators and rank comparison",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common], help="load and validate the corpus files")
    synth = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    synth.add_argument("--seed", type=int, help="generator seed")
    sub.add_parser("indicators", parents=[common], help="export per-scientist indicators and baselines")
    sub.add_parser("rank", parents=[common], help="export percentiles and top-scientist flags")
    sub.add_parser("analyze", parents=[common], help="export dominance, concentration and association tables")
    sub.add_parser("report", parents=[common], help="run the full pipeline and write every table")
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        cfg = _read_config_file(args.config)
        return _COMMANDS[args.command](args, cfg)
    except (CorpusError, ValueError, OSError) as exc:
        logger.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
