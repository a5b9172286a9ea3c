"""Spans around the public functions of ``rankmetrics``, installed from outside.

:class:`Tracer` wraps each function listed in :data:`TARGETS` at every name
a ``rankmetrics`` module holds it under (``rankmetrics.pipeline.load_corpus_files``,
``rankmetrics.corpus.read_records``, the package namespace, ...), so calls
between modules are seen without changing the program. Each call records a
span: name, start, end, parent, and the rows going in and out. A function
that no longer exists is recorded as absent.

With ``memory=True`` the tracer also records, per span, the peak memory
``tracemalloc`` saw while the span was open. That pass is slower and is kept
apart from the timing pass.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

# Layer (module of src/rankmetrics) -> public functions to wrap.
TARGETS = {
    "fileio": ("read_records", "write_records"),
    "corpus": ("load_corpus_files", "load_corpus", "filter_active_sds", "roster_summary",
               "activity_rates"),
    "baseline": ("build_baselines", "read_baselines", "write_baselines"),
    "indicators": ("compute_indicators", "write_indicators", "read_indicators"),
    "ranking": ("sds_percentiles", "uda_rank_average", "top_scientists", "write_percentiles",
                "write_top_flags"),
    "analysis": ("dominance_counts", "concentration_rows", "top_distribution"),
    "tables": ("build_roster_table", "build_age_table", "build_activity_table",
               "build_percentile_table", "build_dominance_table", "build_concentration_table",
               "build_top_distribution_table", "build_chi_square_table", "format_table",
               "write_table"),
    "pipeline": ("run_pipeline", "write_bundle"),
    "cli": ("main",),
}

_MB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    rows_in: int | None = None
    rows_out: int | None = None
    extra: dict = field(default_factory=dict)
    peak_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(obj) -> int | None:
    """Row count of a value crossing a layer boundary: a corpus counts all
    its rows, a container its items, anything else None."""
    try:
        if hasattr(obj, "scientists_by_id"):
            return len(obj.scientists) + len(obj.publications) + len(obj.authorships)
        return len(obj)
    except (TypeError, AttributeError):
        return None


class _CountingIterable:
    def __init__(self, rows):
        self._rows = rows
        self.count = 0

    def __iter__(self):
        for row in self._rows:
            self.count += 1
            yield row


class Tracer:
    """Collects spans while installed; :meth:`uninstall` restores every name."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._child_peak: dict[int, int] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rankmetrics" or n.startswith("rankmetrics."))]
        for layer, names in TARGETS.items():
            try:
                module = importlib.import_module(f"rankmetrics.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{n}" for n in names)
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))
        if self.memory:
            tracemalloc.start()
        return self

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if self.memory:
                self._note_peak(parent)
            span = Span(name, 0.0, parent=parent)
            if args:
                span.rows_in = _rows(args[0])
            counter = None
            if name == "fileio.write_records" and len(args) >= 3:
                counter = _CountingIterable(args[2])
                args = (*args[:2], counter, *args[3:])
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if self.memory:
                    self._close_peak(index, parent)
            span.rows_out = counter.count if counter is not None else _rows(result)
            self._annotate(span, args, result)
            return result

        return wrapper

    def _note_peak(self, parent: int | None) -> None:
        # Fold the peak since the last reset into the open span, then reset
        # so the new span's peak starts from the current level.
        _, peak = tracemalloc.get_traced_memory()
        if parent is not None:
            self._child_peak[parent] = max(self._child_peak.get(parent, 0), peak)
        tracemalloc.reset_peak()

    def _close_peak(self, index: int, parent: int | None) -> None:
        _, peak = tracemalloc.get_traced_memory()
        peak = max(peak, self._child_peak.pop(index, 0))
        self.spans[index].peak_bytes = peak
        if parent is not None:
            self._child_peak[parent] = max(self._child_peak.get(parent, 0), peak)
        tracemalloc.reset_peak()

    @staticmethod
    def _annotate(span: Span, args, result) -> None:
        if span.name == "fileio.read_records" and args:
            try:
                span.extra["bytes"] = os.path.getsize(args[0])
            except (OSError, TypeError):
                pass
        elif span.name == "corpus.filter_active_sds" and args:
            before = getattr(args[0], "scientists_by_sds", None)
            after = getattr(result, "scientists_by_sds", None)
            if before is not None and after is not None:
                span.extra["sds_dropped"] = len(before) - len(after)
        elif span.name == "analysis.dominance_counts":
            excluded = getattr(result, "excluded_sds", None)
            if excluded is not None:
                span.extra["excluded_sds"] = excluded

    # -- summaries --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.
        Calls are synchronous, so children never overlap one another."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child_time)]

    def covered(self) -> float:
        """Seconds covered by top-level spans."""
        return sum(s.duration for s in self.spans if s.parent is None)

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, self_s, rows in/out, extra counters summed,
        peak_mb the largest seen."""
        out: dict[str, dict] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            agg = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                             "rows_in": 0, "rows_out": 0, "peak_mb": 0.0})
            agg["calls"] += 1
            agg["self_s"] += self_s
            agg["total_s"] += span.duration
            agg["rows_in"] += span.rows_in or 0
            agg["rows_out"] += span.rows_out or 0
            agg["peak_mb"] = max(agg["peak_mb"], span.peak_bytes / _MB)
            for key, value in span.extra.items():
                agg[key] = agg.get(key, 0) + value
        return out

    def check_nesting(self) -> list[str]:
        """Problems with the span tree: a child that is not inside its
        parent's interval, or siblings that overlap."""
        problems = []
        last_end: dict[int | None, float] = {}
        for i, span in enumerate(self.spans):
            if span.end < span.start:
                problems.append(f"span {i} {span.name} ends before it starts")
            if span.parent is not None:
                parent = self.spans[span.parent]
                if span.parent >= i or span.start < parent.start or span.end > parent.end:
                    problems.append(f"span {i} {span.name} is not inside its parent {parent.name}")
            if span.start < last_end.get(span.parent, float("-inf")):
                problems.append(f"span {i} {span.name} overlaps its previous sibling")
            last_end[span.parent] = span.end
        return problems
