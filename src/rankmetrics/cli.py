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
import dataclasses
import logging
import os
import sys
from pathlib import Path
from typing import Mapping

from .baseline import write_baselines
from .corpus import RANKS, SNAPSHOT_NAME, CorpusError, file_digests, load_corpus_files, save_snapshot
from .indicators import write_indicators
from .pipeline import FORMAT_EXT, RunConfig, analysis_tables, prepare, run_pipeline, write_bundle
from .ranking import INDICATORS, sds_percentiles, top_scientists, write_percentiles, write_top_flags
from .synth import SynthConfig, generate, write_corpus_csv
from .tables import format_table, write_table

logger = logging.getLogger("rankmetrics")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> None:
    raw = os.environ.get("RANKMETRICS_LOG", "error").lower()
    level = _LOG_LEVELS.get(raw, logging.ERROR)
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )
    logging.getLogger("rankmetrics").setLevel(level)


_INPUTS = ("scientists", "publications", "authorships")
#: The key of each :class:`RunConfig` field, as a flag and in a config file.
_RUN_KEYS = {f.name: f.name for f in dataclasses.fields(RunConfig)} | {"output_format": "format"}
_SYNTH_DEFAULTS = SynthConfig()


def _synth_keys(name: str) -> tuple[str, ...]:
    """The config keys of a :class:`SynthConfig` field: ``<field>_full``,
    ``<field>_associate`` and ``<field>_assistant`` for a per-rank mapping,
    ``year_start`` and ``year_end`` for ``years``, else the field's name."""
    if isinstance(getattr(_SYNTH_DEFAULTS, name), Mapping):
        return tuple(f"{name}_{rank.value.lower()}" for rank in RANKS)
    return ("year_start", "year_end") if name == "years" else (name,)


_SYNTH_KEYS = {f.name: _synth_keys(f.name) for f in dataclasses.fields(SynthConfig)}
#: Every key that some subcommand reads, so that one file serves them all.
_KNOWN_KEYS = {*_RUN_KEYS.values(), *(key for keys in _SYNTH_KEYS.values() for key in keys),
               "out", "indicators"}


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
    unknown = sorted(flat.keys() - _KNOWN_KEYS)
    if unknown:
        raise ValueError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
    return flat


def _setting(args: argparse.Namespace, cfg: dict[str, str], key: str, default=None, cast=None):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, key, None)
    if value is None:
        value = cfg.get(key, default)
    if value is None or cast is None:
        return value
    return cast(value)


def _input_paths(args, cfg) -> tuple[Path, Path, Path]:
    paths = []
    for key in _INPUTS:
        value = _setting(args, cfg, key)
        if value is None:
            raise ValueError(f"missing required input '--{key}' (flag or config file)")
        paths.append(Path(value))
    return tuple(paths)


def _run_config(args, cfg) -> RunConfig:
    """Each :class:`RunConfig` field from its flag or config key; a field
    given neither keeps its default, and :class:`RunConfig` types text."""
    values = {name: _setting(args, cfg, key) for name, key in _RUN_KEYS.items()}
    values.update(zip(_INPUTS, _input_paths(args, cfg)))
    return RunConfig(**{name: value for name, value in values.items() if value is not None})


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
    """Each :class:`SynthConfig` field from its :func:`_synth_keys`, cast to
    the default's type."""
    values = {}
    for name, keys in _SYNTH_KEYS.items():
        default = getattr(_SYNTH_DEFAULTS, name)
        if isinstance(default, Mapping):
            values[name] = {
                rank: type(default[rank])(cfg.get(key, default[rank])) for rank, key in zip(RANKS, keys)
            }
        elif name == "years":
            values[name] = tuple(int(cfg.get(key, year)) for key, year in zip(keys, default))
        else:
            values[name] = _setting(args, cfg, name, default, type(default))
    return SynthConfig(**values)


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_validate(args, cfg) -> int:
    corpus = load_corpus_files(*_input_paths(args, cfg))
    print(f"scientists: {len(corpus.scientist_ids)}")
    print(f"publications: {len(corpus.pub_ids)}")
    print(f"authorships: {len(corpus.auth_pub)}")
    print(f"sds: {len(corpus.sds_codes)}")
    print(f"uda: {len(corpus.udas)}")
    print("OK")
    return 0


def _cmd_synth(args, cfg) -> int:
    out = _out_dir(args, cfg)
    config = _synth_config(args, cfg)
    corpus = generate(config)
    paths = write_corpus_csv(corpus, out)
    logger.info(
        "generated %d scientists, %d publications", len(corpus.scientist_ids), len(corpus.pub_ids)
    )
    for name in ("scientists", "publications", "authorships"):
        print(paths[name])
    return 0


def _prepare(args, cfg):
    """:func:`pipeline.prepare` on the run settings and the ``--indicators`` file, if any."""
    run = _run_config(args, cfg)
    return (run, *prepare(run, _setting(args, cfg, "indicators")))


def _cmd_indicators(args, cfg) -> int:
    out = _out_dir(args, cfg)
    run = _run_config(args, cfg)
    run.validate()
    # hashed before the parse: an edit in between leaves the snapshot stale, never wrong
    digests = file_digests((run.scientists, run.publications, run.authorships))
    corpus, _, baselines, records = prepare(run)
    print(write_indicators(records, out / "indicators.csv"))
    print(write_baselines(baselines, out / "baselines.csv"))
    print(save_snapshot(corpus, digests, out / SNAPSHOT_NAME))
    return 0


def _cmd_rank(args, cfg) -> int:
    out = _out_dir(args, cfg)
    run, _, filtered, _, records = _prepare(args, cfg)
    percentiles = []
    flags = []
    for indicator in INDICATORS:
        percentiles.extend(sds_percentiles(records, indicator, filtered))
        flags.extend(top_scientists(records, indicator, filtered, run.top_fraction))
    print(write_percentiles(percentiles, out / "percentiles.csv"))
    print(write_top_flags(flags, out / "top_flags.csv"))
    return 0


def _cmd_analyze(args, cfg) -> int:
    out = _out_dir(args, cfg)
    run, _, filtered, _, records = _prepare(args, cfg)
    ext = FORMAT_EXT[run.output_format]
    for table in analysis_tables(run, filtered, records):
        print(write_table(table, out / f"{table.key}.{ext}", run.output_format))
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
    common.add_argument("--out", help="output directory")
    common.add_argument("--format", choices=list(FORMAT_EXT),
                        help=f"report format (default {RunConfig.output_format})")
    common.add_argument("--sds-threshold", dest="sds_threshold", type=float,
                        help="minimum publishing fraction to keep an SDS "
                             f"(default {RunConfig.sds_threshold})")
    common.add_argument("--top-fraction", dest="top_fraction", type=float,
                        help=f"top-scientist fraction (default {RunConfig.top_fraction})")
    common.add_argument("--bottom-fraction", dest="bottom_fraction", type=float,
                        help="bottom block fraction for concentration ratios "
                             f"(default {RunConfig.bottom_fraction})")
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
    rank = sub.add_parser("rank", parents=[common], help="export percentiles and top-scientist flags")
    analyze = sub.add_parser(
        "analyze", parents=[common], help="export dominance, concentration and association tables"
    )
    for staged in (rank, analyze):
        staged.add_argument("--indicators", help="precomputed indicator file (skips recomputation)")
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
