"""Command-line surface: subcommands, config precedence, logging env var."""

import dataclasses
import random

import pytest

from rankmetrics.cli import _build_parser, _read_config_file, _run_config, _synth_config, main
from rankmetrics.corpus import Rank
from rankmetrics.pipeline import RunConfig
from rankmetrics.synth import SynthConfig
from rankmetrics.tables import parse_table_csv


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    assert main(["synth", "--seed", "77", "--out", str(out)]) == 0
    return out


def _inputs(corpus_dir):
    return [
        "--scientists", str(corpus_dir / "scientists.csv"),
        "--publications", str(corpus_dir / "publications.csv"),
        "--authorships", str(corpus_dir / "authorships.csv"),
    ]


def test_synth_writes_three_files(corpus_dir, capsys):
    for name in ("scientists.csv", "publications.csv", "authorships.csv"):
        assert (corpus_dir / name).is_file()


def test_synth_deterministic(tmp_path):
    assert main(["synth", "--seed", "77", "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--seed", "77", "--out", str(tmp_path / "b")]) == 0
    for name in ("scientists.csv", "publications.csv", "authorships.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_validate_ok(corpus_dir, capsys):
    assert main(["validate", *_inputs(corpus_dir)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "scientists:" in out


def test_validate_broken_corpus(tmp_path, capsys):
    (tmp_path / "scientists.csv").write_text(
        "scientist_id,sds_code,uda_code,rank,birth_year\nA,S,U,FULL,\n"
    )
    (tmp_path / "publications.csv").write_text(
        "pub_id,year,citation_count,subject_categories,author_count\nP1,2005,1,C1,1\n"
    )
    (tmp_path / "authorships.csv").write_text(
        "pub_id,position,scientist_id,affiliation_id\nP9,1,A,\n"
    )
    code = main(
        ["validate",
         "--scientists", str(tmp_path / "scientists.csv"),
         "--publications", str(tmp_path / "publications.csv"),
         "--authorships", str(tmp_path / "authorships.csv")]
    )
    assert code == 1
    assert "P9" in capsys.readouterr().err


def test_indicators_and_rank_stage_independently(corpus_dir, tmp_path, capsys):
    stage1 = tmp_path / "stage1"
    assert main(["indicators", *_inputs(corpus_dir), "--out", str(stage1)]) == 0
    assert (stage1 / "indicators.csv").is_file()
    assert (stage1 / "baselines.csv").is_file()

    stage2 = tmp_path / "stage2"
    assert main(
        ["rank", *_inputs(corpus_dir), "--indicators", str(stage1 / "indicators.csv"),
         "--out", str(stage2)]
    ) == 0
    assert (stage2 / "percentiles.csv").is_file()
    assert (stage2 / "top_flags.csv").is_file()


def test_analyze_writes_analysis_tables(corpus_dir, tmp_path):
    out = tmp_path / "analysis"
    assert main(["analyze", *_inputs(corpus_dir), "--out", str(out), "--format", "csv"]) == 0
    for name in ("T8_dominance", "T9_concentration", "T10_top_distribution", "chi_square"):
        assert (out / f"{name}.csv").is_file()


def test_report_full_bundle(corpus_dir, tmp_path):
    out = tmp_path / "report"
    assert main(["report", *_inputs(corpus_dir), "--out", str(out), "--format", "md"]) == 0
    assert len(list(out.glob("*.md"))) == 11


def test_report_to_stdout(corpus_dir, capsys):
    assert main(["report", *_inputs(corpus_dir)]) == 0
    out = capsys.readouterr().out
    assert "T1." in out and "T10." in out


def test_config_file_and_flag_precedence(corpus_dir, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(
        "[inputs]\n"
        f"scientists = {corpus_dir / 'scientists.csv'}\n"
        f"publications = {corpus_dir / 'publications.csv'}\n"
        f"authorships = {corpus_dir / 'authorships.csv'}\n"
        "[analysis]\n"
        "top_fraction = 0.5\n"
        "[output]\n"
        "format = csv\n"
    )
    out1 = tmp_path / "from_file"
    assert main(["report", "--config", str(config), "--out", str(out1)]) == 0
    assert (out1 / "T1_roster.csv").is_file()

    # flag overrides the file's format
    out2 = tmp_path / "flag_wins"
    assert main(["report", "--config", str(config), "--out", str(out2), "--format", "md"]) == 0
    assert (out2 / "T1_roster.md").is_file()
    assert not (out2 / "T1_roster.csv").exists()


def test_run_config_from_input_flags_alone_is_the_default(corpus_dir):
    args = _build_parser().parse_args(["report", *_inputs(corpus_dir)])
    default = RunConfig(*(corpus_dir / f"{name}.csv" for name in ("scientists", "publications", "authorships")))
    built = _run_config(args, {})
    assert built == default and built.digest() == default.digest()


@pytest.mark.parametrize("command, section, key", [
    ("report", "analysis", "top_fracton"),
    ("report", "analysis", "sds-threshold"),
    ("synth", "synth", "seeed"),
])
def test_unknown_config_key_is_rejected(corpus_dir, tmp_path, capsys, command, section, key):
    config = tmp_path / "run.conf"
    config.write_text(f"[{section}]\n{key} = 0.5\n")
    inputs = _inputs(corpus_dir) if command == "report" else []
    assert main([command, *inputs, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert f"unknown config key(s) in {config}: {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_one_config_file_serves_every_subcommand(corpus_dir, tmp_path):
    config = tmp_path / "all.conf"
    config.write_text(
        "[inputs]\n"
        f"scientists = {corpus_dir / 'scientists.csv'}\n"
        f"publications = {corpus_dir / 'publications.csv'}\n"
        f"authorships = {corpus_dir / 'authorships.csv'}\n"
        "[analysis]\n"
        "top_fraction = 0.25\n"
        "[synth]\n"
        "seed = 5\n"
        "n_uda = 1\n"
        "scientists_per_sds_full = 2\n"
        "year_start = 2001\n"
        "[output]\n"
        "format = csv\n"
    )
    for command in ("validate", "synth", "indicators", "rank", "analyze", "report"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0, command


def test_reference_year_before_a_birth_year_fails(corpus_dir, capsys):
    assert main(["report", *_inputs(corpus_dir), "--reference-year", "1900"]) == 1
    assert "reference year 1900 is before the birth year" in capsys.readouterr().err


@pytest.mark.parametrize("baselines", [False, True])
def test_activity_filter_that_keeps_no_sds_is_named(corpus_dir, tmp_path, capsys, baselines):
    args = ["report", *_inputs(corpus_dir), "--sds-threshold", "1.0"]
    if baselines:
        # not a baselines file: the filter fails before it is read
        bogus = tmp_path / "baselines.csv"
        bogus.write_text("not,a,baselines,file\n")
        args += ["--baselines", str(bogus)]
    assert main(args) == 1
    assert "activity threshold 1.0: 0 of the 27 SDSs loaded are kept" in capsys.readouterr().err


def test_positional_udas_not_in_the_corpus_fail(corpus_dir, tmp_path, capsys):
    assert main(["report", *_inputs(corpus_dir), "--positional-udas", "UDA02,NOPE",
                 "--out", str(tmp_path / "out")]) == 1
    assert "positional_udas names UDA code(s) not in the corpus: NOPE; the corpus has UDA01," in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_bad_format_in_a_config_file_names_the_key(corpus_dir, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("[run]\nformat = pdf\n")
    assert main(["report", *_inputs(corpus_dir), "--config", str(config)]) == 1
    assert "error: format must be one of ['csv', 'md', 'text'], got 'pdf'" in capsys.readouterr().err


def test_missing_config_file_errors(capsys):
    assert main(["validate", "--config", "/nonexistent.conf"]) == 1
    assert "config" in capsys.readouterr().err


def test_log_env_var_controls_diagnostics(corpus_dir, tmp_path, monkeypatch, capsys):
    import logging

    monkeypatch.setenv("RANKMETRICS_LOG", "info")
    root = logging.getLogger()
    for handler in list(root.handlers):
        root.removeHandler(handler)
    try:
        assert main(["synth", "--seed", "5", "--out", str(tmp_path / "log")]) == 0
        captured = capsys.readouterr()
        assert "generated" in captured.err
        assert "generated" not in captured.out
    finally:
        for handler in list(root.handlers):
            root.removeHandler(handler)


def test_indicators_must_match_roster(corpus_dir, tmp_path, capsys):
    stage1 = tmp_path / "stage1"
    assert main(["indicators", *_inputs(corpus_dir), "--out", str(stage1)]) == 0
    lines = (stage1 / "indicators.csv").read_text().splitlines(keepends=True)
    removed = [line.split(",")[0] for line in lines[1:51]]
    partial = tmp_path / "partial.csv"
    partial.write_text("".join([lines[0], *lines[51:]]))
    capsys.readouterr()

    code = main(["analyze", *_inputs(corpus_dir), "--indicators", str(partial),
                 "--out", str(tmp_path / "analysis")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{len(lines) - 51} records for {len(lines) - 1} scientists" in err
    assert "50 missing" in err and "0 extra" in err
    shown = err.split("missing (first: ")[1].split(")")[0].split(", ")
    assert len(shown) == 5 and set(shown) <= set(removed)
    assert not (tmp_path / "analysis" / "T8_dominance.txt").exists()

    extra = tmp_path / "extra.csv"
    extra.write_text("".join([*lines, "ghost,1,1.0,1.0\n"]))
    assert main(["rank", *_inputs(corpus_dir), "--indicators", str(extra),
                 "--out", str(tmp_path / "rank")]) == 1
    assert "1 extra (first: ghost)" in capsys.readouterr().err


def test_shuffled_indicators_file_gives_the_same_outputs(corpus_dir, tmp_path):
    stage1 = tmp_path / "stage1"
    assert main(["indicators", *_inputs(corpus_dir), "--out", str(stage1)]) == 0
    header, *rows = (stage1 / "indicators.csv").read_text().splitlines(keepends=True)
    random.Random(5).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("".join([header, *rows]))
    outputs = {}
    for name, path in (("sorted", stage1 / "indicators.csv"), ("shuffled", shuffled)):
        out = tmp_path / name
        for command in ("rank", "analyze"):
            assert main([command, *_inputs(corpus_dir), "--indicators", str(path),
                         "--out", str(out)]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(outputs["sorted"]) == 6
    assert outputs["shuffled"] == outputs["sorted"]


@pytest.mark.parametrize("column, value, message", [
    ("fss", "nan", "'fss' must be finite and >= 0, got nan"),
    ("fss", "-5.0", "'fss' must be finite and >= 0, got -5.0"),
    ("scientist_id", None, "repeats row 1"),
])
def test_precomputed_indicators_rejects_bad_rows(corpus_dir, tmp_path, capsys, column, value, message):
    stage1 = tmp_path / "stage1"
    assert main(["indicators", *_inputs(corpus_dir), "--out", str(stage1)]) == 0
    header, first, second, *rest = (stage1 / "indicators.csv").read_text().splitlines(keepends=True)
    if value is None:  # the second row repeats the first row's id
        second = first.split(",")[0] + "," + second.split(",", 1)[1]
    else:
        fields = second.rstrip("\n").split(",")
        fields[header.rstrip("\n").split(",").index(column)] = value
        second = ",".join(fields) + "\n"
    bad = tmp_path / "bad.csv"
    bad.write_text("".join([header, first, second, *rest]))
    capsys.readouterr()
    for command in ("rank", "analyze"):
        code = main([command, *_inputs(corpus_dir), "--indicators", str(bad),
                     "--out", str(tmp_path / command)])
        assert code == 1
        err = capsys.readouterr().err
        assert "indicators row 2: " in err and message in err
        assert not any((tmp_path / command).glob("*"))


def test_baselines_checked_with_precomputed_indicators(corpus_dir, tmp_path, capsys):
    stage1 = tmp_path / "stage1"
    assert main(["indicators", *_inputs(corpus_dir), "--out", str(stage1)]) == 0
    bogus = tmp_path / "bogus.csv"
    bogus.write_text("year,category,median,mean,count\n1900,NONE,1.0,1.0,1\n")
    capsys.readouterr()
    errors = []
    for argv in (
        ["analyze", "--indicators", str(stage1 / "indicators.csv")],
        ["rank", "--indicators", str(stage1 / "indicators.csv")],
        ["report"],
    ):
        out = tmp_path / argv[0]
        assert main([*argv, *_inputs(corpus_dir), "--baselines", str(bogus), "--out", str(out)]) == 1
        errors.append(capsys.readouterr().err)
        assert not any(out.glob("*"))
    assert "no baseline cell for" in errors[0]
    assert errors[0] == errors[1] == errors[2]

    # the baselines the indicators were computed with pass
    assert main(["analyze", *_inputs(corpus_dir), "--indicators", str(stage1 / "indicators.csv"),
                 "--baselines", str(stage1 / "baselines.csv"), "--out", str(tmp_path / "ok")]) == 0


@pytest.mark.parametrize("command", ["validate", "synth", "indicators", "report"])
def test_indicators_flag_only_on_rank_and_analyze(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--indicators", "x.csv"])
    assert info.value.code == 2
    assert "--indicators" in capsys.readouterr().err
    for staged in ("rank", "analyze"):
        assert _build_parser().parse_args([staged, "--indicators", "x.csv"]).indicators == "x.csv"


def test_analyze_agrees_with_report(corpus_dir, tmp_path):
    analyze, report = tmp_path / "analyze", tmp_path / "report"
    assert main(["analyze", *_inputs(corpus_dir), "--format", "csv", "--out", str(analyze)]) == 0
    assert main(["report", *_inputs(corpus_dir), "--format", "csv", "--out", str(report)]) == 0
    for key in ("T8_dominance", "T9_concentration", "T10_top_distribution", "chi_square"):
        metadata, header, rows = parse_table_csv(analyze / f"{key}.csv")
        assert "config_sha256" not in metadata
        assert (header, rows) == parse_table_csv(report / f"{key}.csv")[1:]


def test_synth_config_from_file(tmp_path):
    config = tmp_path / "synth.conf"
    config.write_text(
        "[synth]\n"
        "seed = 5\n"
        "n_uda = 2\n"
        "sds_per_uda = 4\n"
        "scientists_per_sds_full = 3\n"
        "scientists_per_sds_associate = 4\n"
        "scientists_per_sds_assistant = 5\n"
        "pubs_per_scientist = 6.5\n"
        "count_dispersion = 0.3\n"
        "citation_dispersion = 0.7\n"
        "citation_mean = 4.5\n"
        "authors_per_pub = 2.5\n"
        "rank_effect_full = 1.4\n"
        "rank_effect_associate = 1.2\n"
        "rank_effect_assistant = 0.9\n"
        "inactive_fraction_full = 0.01\n"
        "inactive_fraction_associate = 0.02\n"
        "inactive_fraction_assistant = 0.03\n"
        "year_start = 2001\n"
        "year_end = 2003\n"
        "categories_per_pub = 3\n"
        "n_categories = 7\n"
    )
    expected = SynthConfig(
        seed=5,
        n_uda=2,
        sds_per_uda=4,
        scientists_per_sds={Rank.FULL: 3, Rank.ASSOCIATE: 4, Rank.ASSISTANT: 5},
        pubs_per_scientist=6.5,
        count_dispersion=0.3,
        citation_dispersion=0.7,
        citation_mean=4.5,
        authors_per_pub=2.5,
        rank_effect={Rank.FULL: 1.4, Rank.ASSOCIATE: 1.2, Rank.ASSISTANT: 0.9},
        inactive_fraction={Rank.FULL: 0.01, Rank.ASSOCIATE: 0.02, Rank.ASSISTANT: 0.03},
        years=(2001, 2003),
        categories_per_pub=3,
        n_categories=7,
    )
    for field in dataclasses.fields(SynthConfig):  # the file sets every field
        assert getattr(expected, field.name) != getattr(SynthConfig(), field.name), field.name

    args = _build_parser().parse_args(["synth"])
    built = _synth_config(args, _read_config_file(str(config)))
    assert built == expected
    assert type(built.scientists_per_sds[Rank.FULL]) is int
    assert type(built.rank_effect[Rank.FULL]) is float
    assert _synth_config(args, {}) == SynthConfig()
    # the flag wins over the file
    args = _build_parser().parse_args(["synth", "--seed", "9"])
    assert _synth_config(args, _read_config_file(str(config))).seed == 9
