"""Metamorphic relations: two runs on inputs that differ only in what the
results must not depend on give the same results, and a run on inputs that
differ in one known direction moves its results only that way."""

import csv
import dataclasses
import random

import numpy as np
from hypothesis import example, given, settings, strategies as st

from rankmetrics import (
    RANKS, Indicator, RunConfig, build_baselines, compute_indicators, dominance_counts, run_pipeline,
    sds_percentiles, write_bundle,
)
from rankmetrics.cli import main
from rankmetrics.ranking import INDICATORS
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


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_uda=st.integers(1, 3),
    citation_mean=st.sampled_from([1.5, 6.0]),  # about a fifth of the cells at 1.5 have a zero median
    positional=st.booleans(),
    factor=st.sampled_from([2, 3, 7]),
)
@example(seed=3, n_uda=3, citation_mean=1.5, positional=True, factor=3)
def test_scaled_citations_keep_fss_and_qi_where_every_cell_has_a_median(
    seed, n_uda, citation_mean, positional, factor
):
    # Every citation count and every median scale by the factor exactly, so
    # (k c) / (k m) rounds to the same float as c / m. A cell with a zero
    # median divides by its mean, fsum(k c) / n, which is not exactly k times
    # the rounded fsum(c) / n: its publications' authors are left out.
    corpus = generate(SynthConfig(seed=seed, n_uda=n_uda, sds_per_uda=2, citation_mean=citation_mean))
    scaled = dataclasses.replace(corpus, pub_citations=corpus.pub_citations * factor)
    udas = corpus.udas[:1] if positional else ()
    before, after = (compute_indicators(c, build_baselines(c), udas) for c in (corpus, scaled))
    baselines = build_baselines(corpus)
    fallback = np.array([
        any(baselines.get(year, cat).median_citations == 0 for cat in corpus.category_sets[cats])
        for year, cats in zip(corpus.pub_year.tolist(), corpus.pub_categories.tolist())
    ], dtype=bool)
    roster = corpus.auth_scientist >= 0
    left_out = np.bincount(corpus.auth_scientist[roster], fallback[corpus.auth_pub[roster]],
                           minlength=len(corpus.scientist_ids)) > 0
    kept = ~left_out
    assert (kept & (corpus.scientist_pub_count > 0)).any()
    for column in ("fss", "qi"):
        assert getattr(after, column)[kept].tobytes() == getattr(before, column)[kept].tobytes()


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_uda=st.integers(1, 3),
    sds_per_uda=st.integers(1, 3),
    groups=st.permutations(RANKS).map(lambda ranks: ranks[:2]),
)
def test_swapped_groups_swap_their_distances(seed, n_uda, sds_per_uda, groups):
    corpus = generate(SynthConfig(seed=seed, n_uda=n_uda, sds_per_uda=sds_per_uda))
    table = compute_indicators(corpus, build_baselines(corpus), corpus.udas[:1])
    a, b = groups
    for indicator in INDICATORS:
        ab, ba = dominance_counts(table, corpus, indicator, a, b), dominance_counts(table, corpus, indicator, b, a)
        assert ab.sds_codes == ba.sds_codes and ab.excluded_sds == ba.excluded_sds
        assert ab.r_diff_a.tobytes() == ba.r_diff_b.tobytes() and ab.r_diff_b.tobytes() == ba.r_diff_a.tobytes()
        uda = [corpus.udas[corpus.sds_uda[corpus.sds_codes.index(code)]] for code in ab.sds_codes]
        tied = ab.r_diff_a == ab.r_diff_b
        assert list(ab.per_uda) == list(ba.per_uda)
        for name, (b_wins, counted) in ab.per_uda.items():
            a_wins, counted_too = ba.per_uda[name]
            ties = sum(t for u, t in zip(uda, tied.tolist()) if u == name)
            assert counted == counted_too == b_wins + a_wins + ties


def _shuffle_rows(path, seed):
    """Permute the data rows of the CSV file at ``path`` in place, its header first."""
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(seed).shuffle(rows)
    path.write_text(header + "".join(rows), encoding="utf-8")


def _outputs(paths, positional, out):
    """The bytes of the files of the ``indicators`` and ``rank`` commands and
    of the report bundle, by name, and the raw rows of every report table.
    The corpus snapshot is left out: it holds the digests of the files."""
    args = [f"--{name}={path}" for name, path in paths.items()]
    for command in ("indicators", "rank"):
        assert main([command, *args, f"--positional-udas={','.join(positional)}", f"--out={out / command}"]) == 0
    bundle = run_pipeline(RunConfig(**paths, positional_udas=positional))
    write_bundle(bundle, out / "report")
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file() and p.name != "corpus.npz"}
    return files, {key: repr(table.rows) for key, table in bundle.tables.items()}


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_uda=st.integers(1, 3),
    sds_per_uda=st.integers(1, 2),
    shuffled=st.sampled_from([("scientists",), ("publications",), ("authorships",),
                              ("scientists", "publications", "authorships")]),
    order=st.integers(0, 2**32),
)
@example(seed=3, n_uda=3, sds_per_uda=2, shuffled=("authorships",), order=1)
@example(seed=3, n_uda=3, sds_per_uda=2, shuffled=("scientists",), order=1)
@example(seed=7, n_uda=3, sds_per_uda=2, shuffled=("scientists", "publications", "authorships"), order=2)
def test_permuted_rows_give_the_same_results(tmp_path_factory, seed, n_uda, sds_per_uda, shuffled, order):
    # the shuffled files are written to the same paths, so even config_sha256 is unchanged
    root = tmp_path_factory.mktemp("permuted")
    corpus = generate(SynthConfig(seed=seed, n_uda=n_uda, sds_per_uda=sds_per_uda))
    paths = write_corpus_csv(corpus, root / "input")
    positional = corpus.udas[:1]
    before = _outputs(paths, positional, root / "before")
    for name in shuffled:
        _shuffle_rows(paths[name], order)
    after = _outputs(paths, positional, root / "after")
    assert sorted(after[0]) == sorted(before[0])
    for name, content in before[0].items():
        assert after[0][name] == content, f"{name} differs after shuffling {', '.join(shuffled)}"
    assert [key for key, rows in before[1].items() if after[1][key] != rows] == []
