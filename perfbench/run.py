"""rankmetrics benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload report_10x --seed 20240409 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one fresh process each

Workloads (inputs generated from ``--seed``, same sizes on every commit):

* ``report_10x``: ``run_pipeline`` then ``write_bundle`` (text) from CSV,
  16.2k scientists in 270 SDSs of 60.
* ``sweep_small_sds``: 8 configurations (2 weighting sets x 4 top
  fractions) of ranking, analysis and tables on a corpus loaded in set-up,
  16.2k scientists in 900 SDSs of 18.
* ``staged_jsonl``: ``indicators``, ``rank``, ``analyze``, ``report``
  through ``cli.main`` from typed JSON lines, 4.9k scientists.

Each workload runs in this one process and thread, as a closed loop with one
caller: passes run back to back until ``--seconds`` have been measured
(``report_10x`` always runs two, whose bundles must be byte-identical).

``--trace 0`` prints, with unit and sample count: ``wall_s`` and ``cpu_s``
(median wall and CPU seconds of a pass), ``setup_s`` (CPU seconds of the
program-side set-up: the median of five imports of ``rankmetrics``, four of
them in fresh interpreters, plus on ``sweep_small_sds`` the median of two
corpus loads), ``peak_rss_mb`` and ``error_rate``. The JSON line carries
``cpu_s``, ``setup_s`` and ``peak_rss_mb``: on a shared virtual machine the
wall time of this single-threaded process also counts time the host gave to
other machines, which CPU time leaves out.

``--trace 1`` runs the first operation of a pass under ``tracemalloc``, one
pass with spans around every public function and one untraced pass, and
reports per-layer metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--smoke`` runs the same code on
1x inputs in a few seconds; the benchmark's own tests use it.
"""

from __future__ import annotations

import os

# One thread per process for every numeric library, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_inputs
from bench_inputs import DEFAULT_SEED, ROOT, SRC, InputError

IMPORT_SAMPLES = 5
LOAD_SAMPLES = 2
OUT_ROOT = bench_inputs.BENCH_DIR / ".out"

_IMPORT_PROBE = (
    "import time; t, c = time.perf_counter(), time.process_time(); import rankmetrics; "
    "print(time.perf_counter() - t, time.process_time() - c)"
)

# Per-layer metrics in the JSON line of a traced run: self times of the
# functions every workload calls. Those only some workloads call are printed
# above it instead, with the full per-function table.
LAYER_TIMES = (
    "fileio.read_records", "corpus.load_corpus", "corpus.filter_active_sds",
    "corpus.roster_summary", "corpus.activity_rates", "baseline.build_baselines",
    "indicators.compute_indicators", "ranking.sds_percentiles", "ranking.uda_rank_average",
    "ranking.top_scientists", "analysis.dominance_counts", "analysis.concentration_rows",
    "analysis.top_distribution", "tables.build", "tables.format_table",
)
WORKLOAD_SPECIFIC_TIMES = (
    "fileio.write_records", "baseline.read_baselines", "indicators.write_indicators",
    "indicators.read_indicators", "ranking.write_percentiles", "ranking.write_top_flags",
    "tables.write_table", "pipeline.run_pipeline", "pipeline.write_bundle", "cli.main",
)
LAYER_COUNTS = (
    ("fileio.read_records.rows", "fileio.read_records", "rows_out"),
    ("fileio.read_records.bytes", "fileio.read_records", "bytes"),
    ("fileio.write_records.rows", "fileio.write_records", "rows_out"),
    ("corpus.filter_active_sds.sds_dropped", "corpus.filter_active_sds", "sds_dropped"),
    ("baseline.build_baselines.cells", "baseline.build_baselines", "rows_out"),
    ("indicators.compute_indicators.calls", "indicators.compute_indicators", "calls"),
    ("analysis.dominance_counts.excluded_sds", "analysis.dominance_counts", "excluded_sds"),
    ("cli.main.calls", "cli.main", "calls"),
)
LAYER_PEAKS = ("corpus.load_corpus", "indicators.compute_indicators")
LOAD_SPANS = ("fileio.read_records", "corpus.load_corpus", "corpus.load_corpus_files")


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _print_metric(name: str, m: dict, note: str = "") -> None:
    value = m["value"]
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<44} {shown:>14} {m['unit']:<8} n={m['samples']}{note}")


def _listing(values) -> str:
    return ", ".join(f"{v:.3f}" for v in values)


class Clock:
    """Wall and CPU seconds of one timed section."""

    def __enter__(self) -> "Clock":
        self.wall, self.cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self.wall
        self.cpu = time.process_time() - self.cpu


def _import_samples() -> list[tuple[float, float]]:
    """(wall, CPU) seconds of importing rankmetrics in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES - 1):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise InputError(f"importing rankmetrics failed:\n{proc.stderr.strip()}")
        wall, cpu = proc.stdout.split()
        samples.append((float(wall), float(cpu)))
    return samples


def run_workload(args) -> int:
    if not (SRC / "rankmetrics" / "__init__.py").is_file():
        print(f"error: no rankmetrics sources under {SRC}", file=sys.stderr)
        return 2
    try:
        inputs = bench_inputs.prepare(args.workload, args.seed, args.smoke)
        imports = _import_samples()
    except (InputError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with Clock() as clock:
        sys.path.insert(0, str(SRC))
        import rankmetrics
        import rankmetrics.cli  # noqa: F401  (submodules the workloads call through)
        import rankmetrics.tables  # noqa: F401
    imports.append((clock.wall, clock.cpu))

    import bench_workloads

    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        workload = bench_workloads.WORKLOADS[args.workload](rankmetrics, inputs, out_dir)
        checks = bench_workloads.Checks(inject_failure=args.inject_failure)
        loads = []
        # A traced run loads inside its traced sections instead.
        for _ in range(LOAD_SAMPLES if workload.loads_in_setup and not args.trace else 0):
            with Clock() as clock:
                workload.setup()
            loads.append((clock.wall, clock.cpu))
        if args.trace:
            result = _traced(workload, checks)
        else:
            result = _timed(workload, checks, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    result["imports"], result["loads"] = imports, loads
    _report(args, inputs, workload, checks, result)
    return 0


def _one_pass(workload, checks, index, max_ops=None):
    """Run one pass; its ``wall_s`` and ``cpu_s`` leave out check time."""
    checked, checked_cpu = checks.elapsed, checks.cpu_elapsed
    with Clock() as clock:
        counts = workload.run_pass(index, checks, max_ops)
    counts.wall_s = clock.wall - (checks.elapsed - checked)
    counts.cpu_s = clock.cpu - (checks.cpu_elapsed - checked_cpu)
    return counts


def _timed(workload, checks, seconds: float) -> dict:
    passes = []
    measured = 0.0
    while len(passes) < workload.min_passes or measured < seconds:
        passes.append(_one_pass(workload, checks, len(passes)))
        measured += passes[-1].wall_s
    return {"passes": passes, "timed": passes}


def _traced(workload, checks) -> dict:
    """A memory pass under tracemalloc that stops after the first operation
    (which already holds the corpus load and the indicators), one pass with
    spans, then one untraced pass. Both traced sections include the set-up
    load, where the workload has one, so the untraced pass runs on a corpus
    loaded without tracemalloc, as the traced pass does."""
    from bench_trace import Tracer

    def traced_section(tracer, index, max_ops=None):
        setup_wall = 0.0
        with tracer:
            if workload.loads_in_setup:
                with Clock() as clock:
                    workload.setup()
                setup_wall = clock.wall
            counts = _one_pass(workload, checks, index, max_ops)
        return setup_wall, counts

    memory, tracer = Tracer(memory=True), Tracer()
    _, first = traced_section(memory, 0, max_ops=1)
    setup_wall, second = traced_section(tracer, 1)
    third = _one_pass(workload, checks, 2)
    return {
        "passes": [first, second, third],
        "traced_wall": setup_wall + second.wall_s,
        "overhead": second.wall_s - third.wall_s,
        "tracer": tracer,
        "memory_tracer": memory,
    }


def _layer_metrics(result: dict):
    """Metrics for the JSON line, workload-specific self times printed only,
    and the per-function span and memory aggregates."""
    tracer, memory = result["tracer"], result["memory_tracer"]
    agg = tracer.by_name()
    build = {"self_s": 0.0, "calls": 0}
    for name, values in agg.items():
        if name.startswith("tables.build_"):
            build["self_s"] += values["self_s"]
            build["calls"] += values["calls"]
    agg["tables.build"] = build
    peaks = memory.by_name()
    traced_wall = result["traced_wall"]
    spans = len(tracer.spans)

    def self_time(name):
        return _metric(agg.get(name, {}).get("self_s", 0.0), "s", agg.get(name, {}).get("calls", 0))

    metrics = {f"{name}.self_s": self_time(name) for name in LAYER_TIMES}
    for metric, name, key in LAYER_COUNTS:
        metrics[metric] = _metric(agg.get(name, {}).get(key, 0), "count", 1)
    for name in LAYER_PEAKS:
        metrics[f"{name}.peak_mb"] = _metric(peaks.get(name, {}).get("peak_mb", 0.0), "MB",
                                             peaks.get(name, {}).get("calls", 0))
    load = sum(agg.get(name, {}).get("self_s", 0.0) for name in LOAD_SPANS)
    metrics["trace.wall_s"] = _metric(traced_wall, "s", 1)
    metrics["trace.overhead_s"] = _metric(result["overhead"], "s", 1)
    metrics["trace.span_coverage"] = _metric(tracer.covered() / traced_wall, "fraction", spans)
    metrics["trace.load_share"] = _metric(load / traced_wall, "fraction", spans)
    metrics["trace.absent"] = _metric(len(tracer.absent), "count", 1)
    extra = {f"{name}.self_s": self_time(name) for name in WORKLOAD_SPECIFIC_TIMES}
    return metrics, extra, agg, peaks


def _print_trace(result: dict) -> dict:
    metrics, extra, agg, peaks = _layer_metrics(result)
    print("  per-function spans (traced pass; peak_mb from the memory pass):")
    print(f"    {'span':<36} {'calls':>5} {'self_s':>9} {'total_s':>9} {'rows_in':>9} "
          f"{'rows_out':>9} {'peak_mb':>8}")
    for name, values in sorted(agg.items()):
        if name == "tables.build":
            continue
        print(f"    {name:<36} {values['calls']:>5} {values['self_s']:>9.4f} "
              f"{values['total_s']:>9.4f} {values['rows_in']:>9} {values['rows_out']:>9} "
              f"{peaks.get(name, {}).get('peak_mb', 0.0):>8.1f}")
    if result["tracer"].absent:
        print(f"  absent functions: {', '.join(result['tracer'].absent)}")
    print("  per-layer metrics:")
    for name, m in metrics.items():
        _print_metric(name, m)
    print("  workload-specific self times (not in the JSON line):")
    for name, m in extra.items():
        _print_metric(name, m)
    return metrics


def _print_end_to_end(result: dict, attempted: int, failed: int) -> dict:
    timed, imports, loads = result["timed"], result["imports"], result["loads"]
    walls = [p.wall_s for p in timed]
    cpus = [p.cpu_s for p in timed]
    setup_cpu = statistics.median(c for _, c in imports)
    setup_wall = statistics.median(w for w, _ in imports)
    if loads:
        setup_cpu += statistics.median(c for _, c in loads)
        setup_wall += statistics.median(w for w, _ in loads)
    setup_n = len(imports) + len(loads)
    metrics = {
        "cpu_s": _metric(statistics.median(cpus), "s", len(cpus)),
        "setup_s": _metric(setup_cpu, "s", setup_n),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
        ),
    }
    print("  end-to-end metrics:")
    _print_metric("wall_s", _metric(statistics.median(walls), "s", len(walls)),
                  f"  (passes: {_listing(walls)})")
    _print_metric("cpu_s", metrics["cpu_s"], f"  (passes: {_listing(cpus)})")
    _print_metric("setup_s", metrics["setup_s"],
                  f"  (CPU; imports: {_listing(c for _, c in imports)}"
                  + (f"; loads: {_listing(c for _, c in loads)}" if loads else "") + ")")
    _print_metric("setup_wall_s", _metric(setup_wall, "s", setup_n))
    _print_metric("peak_rss_mb", metrics["peak_rss_mb"])
    _print_metric("error_rate", _metric(failed / attempted, "fraction", attempted))
    return metrics


def _report(args, inputs, workload, checks, result) -> None:
    passes = result["passes"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors] + checks.failures

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print(f"  inputs ({'pinned' if inputs['pinned'] else 'unpinned'} seed, "
          f"{'generated' if inputs['generated'] else 'cached'}):")
    for name, digest in inputs["sha256"].items():
        print(f"    {inputs['paths'][name].name:<18} sha256 {digest}")
    synth = inputs["synth"]
    print(f"  input preparation (in no metric): synth.generate.s {synth['generate_s']:.3f}, "
          f"synth.write.s {synth['write_s']:.3f}; {synth['scientists']} scientists, "
          f"{synth['publications']} publications, {synth['authorships']} authorships")
    print(f"  bundle digest (information only): {workload.bundle_digest}")
    print(f"  operations: attempted {attempted}, failed {failed}")
    for error in errors[:10]:
        print(f"  FAILED: {error}")

    if args.trace:
        metrics = _print_trace(result)
    else:
        metrics = _print_end_to_end(result, attempted, failed)

    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))


def run_all(args) -> int:
    """Run every workload in its own fresh process, one after the other."""
    results = {}
    status = 0
    for name in bench_inputs.SIZES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rankmetrics benchmark")
    parser.add_argument("--workload", required=True, choices=[*bench_inputs.SIZES, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="1x inputs, for the benchmark's tests")
    parser.add_argument("--inject-failure", action="store_true",
                        help="fail the first output check (tests that failures are counted)")
    parser.add_argument("--save", help="with --workload all: write the result lines to this file")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
