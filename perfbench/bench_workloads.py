"""The benchmark's three workloads, each a closed loop with one caller.

A workload runs in passes. A pass performs the workload's operations one
after the other, each starting when the previous one has finished, and checks
the outputs inside ``Checks.timed`` blocks, whose time the harness subtracts
from the pass's wall time. An operation is
one pipeline run (``report_10x``), one sweep configuration
(``sweep_small_sds``) or one CLI invocation (``staged_jsonl``); it fails on an
exception, a non-zero exit code or a failed output check.

Program functions are always looked up on their ``rankmetrics`` module at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
import statistics
import time
import traceback
from pathlib import Path

POSITIONAL_UDAS = ("UDA05", "UDA06")
TOP_FRACTIONS = (0.05, 0.1, 0.2, 0.3)
# At the default 0.5, about one seed in six leaves a field of 18 with too few
# active scientists; dropping it rebuilds the whole corpus (about 4 s at this
# size, a third of a pass). At 0.25 no seed drops a field, so the sweep costs
# the same work on every seed.
SWEEP_SDS_THRESHOLD = 0.25
ANALYZE_KEYS = ("T8_dominance", "T9_concentration", "T10_top_distribution", "chi_square")


class Checks:
    """Output checks of one run. A failed check fails its operation.

    ``elapsed`` and ``cpu_elapsed`` accumulate the wall and CPU time spent
    checking, so that passes can leave it out of their own times. ``inject_failure`` makes the next check fail,
    which the benchmark's own tests use to see failures counted.
    """

    def __init__(self, inject_failure: bool = False):
        self.failures: list[str] = []
        self.elapsed = 0.0
        self.cpu_elapsed = 0.0
        self._inject = inject_failure

    def __call__(self, ok: bool, message: str) -> bool:
        if self._inject:
            ok, message, self._inject = False, f"injected failure: {message}", False
        if not ok:
            self.failures.append(message)
        return ok

    @contextlib.contextmanager
    def timed(self):
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.elapsed += time.perf_counter() - start
            self.cpu_elapsed += time.process_time() - cpu_start


class Pass:
    """One pass: operations attempted and failed, and the wall and CPU
    seconds the harness measured around it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def error(self, exc: BaseException) -> None:
        self.errors.append("".join(traceback.format_exception_only(type(exc), exc)).strip())


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(directory)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _sds_means_ok(groups: dict, checks: Checks, label: str) -> bool:
    """Midrank percentiles average exactly 50 in every SDS (100 for a
    one-scientist field)."""
    for key, values in groups.items():
        expected = 100.0 if len(values) == 1 else 50.0
        if abs(statistics.fmean(values) - expected) > 1e-9:
            return checks(False, f"{label}: SDS {key} mean percentile {statistics.fmean(values)!r}")
    return checks(True, label)


def _ordering_ok(full, associate, assistant, checks: Checks, label: str) -> bool:
    return checks(
        None not in (full, associate, assistant) and full > associate > assistant,
        f"{label}: planted FSS ordering not recovered ({full}, {associate}, {assistant})",
    )


class Workload:
    name = ""
    min_passes = 1
    loads_in_setup = False  # whether ``setup`` loads the corpus (and is part of setup_s)

    def __init__(self, rm, inputs: dict, out_dir: Path):
        self.rm = rm
        self.paths = inputs["paths"]
        self.out_dir = out_dir
        self.bundle_digest: str | None = None  # outputs of the first pass, for information

    def setup(self) -> None:
        """Load the corpus, for workloads with ``loads_in_setup``."""

    def run_pass(self, index: int, checks: Checks, max_ops: int | None = None) -> Pass:
        """Run one pass; ``max_ops`` stops it after that many operations."""
        raise NotImplementedError


class Report10x(Workload):
    """``run_pipeline`` then ``write_bundle`` in text format, from CSV files."""

    name = "report_10x"
    min_passes = 2  # the bundles of two passes must be byte-identical

    def run_pass(self, index, checks, max_ops=None):
        rm = self.rm
        result = Pass()
        out = self.out_dir / f"pass{index}"
        result.attempted = 1
        try:
            config = rm.RunConfig(
                self.paths["scientists"], self.paths["publications"], self.paths["authorships"],
                positional_udas=POSITIONAL_UDAS,
            )
            bundle = rm.run_pipeline(config)
            rm.write_bundle(bundle, out, "text")
        except Exception as exc:  # an operation that raises is counted, not fatal
            result.failed = 1
            result.error(exc)
            return result
        with checks.timed():
            ok = True
            total = bundle.tables["T6_percentile_fss"].rows[-1]
            ok &= _ordering_ok(total[1], total[2], total[3], checks, "T6 total row")
            digest = _tree_digest(out)
            if self.bundle_digest is None:
                self.bundle_digest = digest
            else:
                ok &= checks(digest == self.bundle_digest,
                             f"bundle of pass {index} differs from the first pass")
            if not ok:
                result.failed = 1
        return result


class SweepSmallSds(Workload):
    """Sensitivity sweep over weighting sets and top fractions on a corpus
    loaded once in set-up."""

    name = "sweep_small_sds"
    loads_in_setup = True

    def __init__(self, rm, inputs, out_dir):
        super().__init__(rm, inputs, out_dir)
        self.corpus = None

    def setup(self):
        self.corpus = None  # free the previous load before loading again
        self.corpus = self.rm.load_corpus_files(
            self.paths["scientists"], self.paths["publications"], self.paths["authorships"]
        )

    def run_pass(self, index, checks, max_ops=None):
        rm = self.rm
        result = Pass()
        digest = hashlib.sha256()
        planned = 2 * len(TOP_FRACTIONS) if max_ops is None else max_ops
        try:
            filtered = rm.filter_active_sds(self.corpus, SWEEP_SDS_THRESHOLD)
            baselines = rm.build_baselines(filtered)
            summary = rm.roster_summary(filtered)
            weighting_sets = ((), filtered.udas)  # no UDA positional, then all of them
            for udas in weighting_sets:
                records = rm.compute_indicators(filtered, baselines, udas)
                activity = rm.activity_rates(filtered, records.values())
                for top in TOP_FRACTIONS:
                    if result.attempted == planned:
                        break
                    result.attempted += 1
                    try:
                        ok = self._configuration(
                            filtered, summary, activity, records, top, checks, digest
                        )
                    except Exception as exc:
                        ok = False
                        result.error(exc)
                    result.failed += not ok
        except Exception as exc:  # configurations not reached count as failed
            result.error(exc)
            missed = planned - result.attempted
            result.attempted += missed
            result.failed += missed
        if self.bundle_digest is None:
            self.bundle_digest = digest.hexdigest()
        return result

    def _configuration(self, filtered, summary, activity, records, top, checks, digest) -> bool:
        rm = self.rm
        tables = rm.tables
        ok = True
        averages, dominance = {}, {}
        for indicator in (rm.Indicator.NP, rm.Indicator.FSS, rm.Indicator.QI):
            percentiles = rm.sds_percentiles(records, indicator, filtered)
            with checks.timed():
                groups: dict[str, list[float]] = {}
                for p in percentiles:
                    groups.setdefault(p.sds_code, []).append(p.percentile)
                ok &= _sds_means_ok(groups, checks, f"sweep {indicator.value} top={top}")
            averages[indicator] = rm.uda_rank_average(percentiles, filtered)
            dominance[indicator] = rm.dominance_counts(
                records, filtered, indicator, rm.Rank.FULL, rm.Rank.ASSISTANT
            )
        conc = rm.concentration_rows(records, filtered, rm.Indicator.FSS, 0.4, top)
        flags = rm.top_scientists(records, rm.Indicator.FSS, filtered, top)
        dist = rm.top_distribution(flags, filtered, rm.Indicator.FSS)
        built = [
            tables.build_roster_table(summary),
            tables.build_age_table(summary),
            tables.build_activity_table(activity, "publication"),
            tables.build_activity_table(activity, "citation"),
            *(tables.build_percentile_table(averages[i]) for i in averages),
            tables.build_dominance_table(dominance),
            tables.build_concentration_table(conc),
            tables.build_top_distribution_table(dist),
            tables.build_chi_square_table(dist),
        ]
        text = "".join(rm.format_table(table, "text") for table in built)
        with checks.timed():
            digest.update(text.encode())
            fss = averages[rm.Indicator.FSS]
            ok &= _ordering_ok(fss.mean(None, rm.Rank.FULL), fss.mean(None, rm.Rank.ASSOCIATE),
                               fss.mean(None, rm.Rank.ASSISTANT), checks, f"sweep top={top}")
        return ok


def _md_rows(path: Path) -> list[list[str]]:
    """Body rows of a Markdown table written by ``format_table``."""
    rows, in_table = [], False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("| --- "):
            in_table = True
        elif in_table and line.startswith("| "):
            rows.append([cell.strip() for cell in line.strip()[1:-1].split(" | ")])
    return rows


_NUMBER = re.compile(r"-?\d[\d,]*(?:\.\d+)?")


def _numbers(cells: list[str]) -> list[str]:
    return [m.group().replace(",", "") for cell in cells for m in _NUMBER.finditer(cell)]


class StagedJsonl(Workload):
    """The staged command line through ``cli.main``: indicators, rank,
    analyze, report; JSON-lines inputs."""

    name = "staged_jsonl"

    def __init__(self, rm, inputs, out_dir):
        super().__init__(rm, inputs, out_dir)
        from rankmetrics.tables import parse_table_csv  # unwrapped: used by checks only

        self.parse_table_csv = parse_table_csv
        self.roster = {}
        with self.paths["scientists"].open(encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                self.roster[row["scientist_id"]] = (row["sds_code"], row["rank"])

    def _commands(self, out: Path) -> list[list[str]]:
        common = [
            "--scientists", str(self.paths["scientists"]),
            "--publications", str(self.paths["publications"]),
            "--authorships", str(self.paths["authorships"]),
            "--positional-udas", ",".join(POSITIONAL_UDAS),
        ]
        indicators = str(out / "indicators" / "indicators.csv")
        baselines = str(out / "indicators" / "baselines.csv")
        return [
            ["indicators", *common, "--out", str(out / "indicators")],
            ["rank", *common, "--indicators", indicators, "--out", str(out / "rank")],
            ["analyze", *common, "--indicators", indicators, "--baselines", baselines,
             "--format", "csv", "--out", str(out / "analyze")],
            ["report", *common, "--baselines", baselines, "--format", "md",
             "--out", str(out / "report")],
        ]

    def run_pass(self, index, checks, max_ops=None):
        result = Pass()
        out = self.out_dir / f"pass{index}"
        commands = self._commands(out)
        completed = 0
        for argv in commands[:max_ops]:
            result.attempted += 1
            captured = io.StringIO()
            try:
                with contextlib.redirect_stdout(captured):
                    code = self.rm.cli.main(argv)
            except (Exception, SystemExit) as exc:
                result.error(exc)
                code = None
            if code != 0:
                result.failed += 1
                result.errors.append(f"{argv[0]} exited with {code}")
            else:
                completed += 1
        if completed == len(commands):
            with checks.timed():
                if not self._check_outputs(out, checks):
                    result.failed += 1
        return result

    def _check_outputs(self, out: Path, checks: Checks) -> bool:
        groups: dict[tuple[str, str], list[float]] = {}
        by_rank: dict[str, list[float]] = {}
        with (out / "rank" / "percentiles.csv").open(encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                sds, rank = self.roster[row["scientist_id"]]
                value = float(row["percentile"])
                groups.setdefault((row["indicator"], sds), []).append(value)
                if row["indicator"] == "fss":
                    by_rank.setdefault(rank, []).append(value)
        ok = _sds_means_ok(groups, checks, "percentiles.csv")
        means = [statistics.fmean(by_rank[r]) if by_rank.get(r) else None
                 for r in ("FULL", "ASSOCIATE", "ASSISTANT")]
        ok &= _ordering_ok(*means, checks, "percentiles.csv")
        for key in ANALYZE_KEYS:
            _, _, csv_rows = self.parse_table_csv(out / "analyze" / f"{key}.csv")
            md_rows = _md_rows(out / "report" / f"{key}.md")
            same = len(csv_rows) == len(md_rows) and all(
                c[0] == m[0] and [x for x in c[1:] if x] == _numbers(m[1:])
                for c, m in zip(csv_rows, md_rows)
            )
            ok &= checks(same, f"analyze {key}.csv disagrees with report {key}.md")
        if self.bundle_digest is None:
            self.bundle_digest = _tree_digest(out / "report")
        return ok


WORKLOADS = {cls.name: cls for cls in (Report10x, SweepSmallSds, StagedJsonl)}
