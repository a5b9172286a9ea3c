"""Metamorphic relations: two runs on inputs that differ only in what the
results must not depend on give the same results, and a run on inputs that
differ in one known direction moves its results only that way."""

import csv
import dataclasses

import numpy as np
from hypothesis import example, given, settings, strategies as st

from rankmetrics import Indicator, RunConfig, build_baselines, compute_indicators, run_pipeline, sds_percentiles
from rankmetrics.cli import main
from rankmetrics.synth import SynthConfig, generate, write_corpus_csv

#: The fields of each corpus file that hold an SDS, UDA, scientist or publication id.
ID_FIELDS = {
    "scientists": ("scientist_id", "sds_code", "uda_code"),
    "publications": ("pub_id",),
    "authorships": ("pub_id", "scientist_id"),
}


def _renamed(paths, prefix, out):
    """Copies of the corpus files ``paths`` in ``out`` with every id of
    :data:`ID_FIELDS` prefixed by ``prefix``, which keeps their order (an
    empty scientist id, an external author, stays empty); and the map from
    each new id back to its old one."""
    out.mkdir()
    renamed, back = {}, {}
    for name, path in paths.items():
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            fields, rows = reader.fieldnames, list(reader)
        for row in rows:
            for key in ID_FIELDS[name]:
                if row[key]:
                    back[prefix + row[key]] = row[key]
                    row[key] = prefix + row[key]
        renamed[name] = out / path.name
        with renamed[name].open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    return renamed, back


def _bundle(paths, positional, back):
    """Every report table with its UDA column read through ``back``, and
    its metadata without ``config_sha256``, which hashes the input paths."""
    bundle = run_pipeline(RunConfig(**paths, positional_udas=positional))
    return {
        key: (table.title, table.columns,
              {k: v for k, v in table.metadata.items() if k != "config_sha256"},
              repr([[back.get(row[0], row[0]), *row[1:]] for row in table.rows]))
        for key, table in bundle.tables.items()
    }


def _ranked(paths, positional, out, back):
    """The rows of the ``rank`` command's percentile and top-flag files, scientist ids read through ``back``."""
    args = [f"--{name}={path}" for name, path in paths.items()]
    assert main(["rank", *args, f"--positional-udas={','.join(positional)}", f"--out={out}"]) == 0
    files = {}
    for name in ("percentiles.csv", "top_flags.csv"):
        with (out / name).open(newline="", encoding="utf-8") as fh:
            files[name] = [[back.get(row[0], row[0]), *row[1:]] for row in csv.reader(fh)]
    return files


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_uda=st.integers(1, 3),
    sds_per_uda=st.integers(1, 2),
    prefix=st.sampled_from(["Q", "0_", "zz-"]),
)
@example(seed=3, n_uda=3, sds_per_uda=2, prefix="Q")
@example(seed=7, n_uda=3, sds_per_uda=2, prefix="Q")
def test_order_preserving_renames_give_the_same_results(tmp_path_factory, seed, n_uda, sds_per_uda, prefix):
    # ids of one prefix sort as before, so grid keys, table rows and output files keep their order
    root = tmp_path_factory.mktemp("rename")
    corpus = generate(SynthConfig(seed=seed, n_uda=n_uda, sds_per_uda=sds_per_uda))
    paths = write_corpus_csv(corpus, root / "plain")
    renamed, back = _renamed(paths, prefix, root / "renamed")
    positional = corpus.udas[:1]
    assert _bundle(renamed, [prefix + uda for uda in positional], back) == _bundle(paths, positional, {})
    assert _ranked(renamed, [prefix + uda for uda in positional], root / "ranked-renamed", back) == (
        _ranked(paths, positional, root / "ranked-plain", {})
    )


def _fss_and_percentiles(corpus, baselines, positional):
    """Each scientist row's FSS and FSS percentile within its SDS."""
    table = compute_indicators(corpus, baselines, positional)
    column = sds_percentiles(table, Indicator.FSS, corpus)
    percentile = np.empty(len(table))
    percentile[column.rows] = column.percentile
    return table.fss, percentile


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_uda=st.integers(1, 3),
    sds_per_uda=st.integers(1, 2),
    positional=st.booleans(),
    picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=5),
    raise_by=st.integers(1, 500),
)
@example(seed=3, n_uda=3, sds_per_uda=2, positional=True, picks=[0, 97, 1000], raise_by=1)
@example(seed=7, n_uda=3, sds_per_uda=2, positional=True, picks=[5, 333], raise_by=40)
@example(seed=11, n_uda=3, sds_per_uda=2, positional=False, picks=[12, 4000], raise_by=500)
def test_citations_raised_for_a_sole_roster_author_only_raise_their_fss(
    seed, n_uda, sds_per_uda, positional, picks, raise_by
):
    # One roster author, so the raise credits no one else: a co-author in the
    # same SDS with a larger share of the byline would gain more and could
    # overtake the author.
    corpus = generate(SynthConfig(seed=seed, n_uda=n_uda, sds_per_uda=sds_per_uda))
    baselines = build_baselines(corpus)  # built once: the raise moves no baseline
    udas = corpus.udas[:1] if positional else ()
    fss, percentile = _fss_and_percentiles(corpus, baselines, udas)
    roster = corpus.auth_scientist >= 0
    sole = np.flatnonzero(np.bincount(corpus.auth_pub[roster], minlength=len(corpus.pub_ids)) == 1)
    for pick in picks:
        pub = sole[pick % len(sole)]
        author = int(corpus.auth_scientist[roster & (corpus.auth_pub == pub)][0])
        citations = corpus.pub_citations.copy()
        citations[pub] += raise_by
        raised = dataclasses.replace(corpus, pub_citations=citations)
        new_fss, new_percentile = _fss_and_percentiles(raised, baselines, udas)
        others = np.arange(len(fss)) != author
        assert new_fss[others].tobytes() == fss[others].tobytes()
        assert new_fss[author] >= fss[author] and new_percentile[author] >= percentile[author]
        assert (new_percentile[others] <= percentile[others]).all()
