"""The mutation register: hand-made mutants of ``src/rankmetrics`` and the
tests that kill them (DeMillo, Lipton & Sayward 1978).

Usage, from the root of a checkout::

    python3 tests/mutants.py                # every mutant
    python3 tests/mutants.py minimum word   # the mutants whose name holds a word given

Each mutant replaces one exact source text, found once in its file, with
another. The script copies the checkout's files (those git tracks or does
not ignore) to a temporary directory, applies each mutant there in turn and runs only its listed tests,
with ``-x``, against that copy; the checkout is never edited. A mutant is

* ``caught`` when its tests fail, ``survived`` when they pass;
* ``equivalent`` when it carries a reason instead of tests: no test can
  tell it from the source, and none is run;
* ``stale`` when its source text is no longer in the file. A stale mutant
  stays listed, so the register keeps what was once checked.

The script prints one line per mutant, then the totals, and exits 1 when a
mutant survived or its tests could not run. It is not a tier-1 test: each
mutant costs a pytest run.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/rankmetrics
    old: str
    new: str
    tests: tuple[str, ...] = ()
    equivalent: str = ""


CORPUS = "tests/test_corpus.py"
FILEIO = "tests/test_fileio.py"
FILE_CASES = f"{CORPUS}::test_file_errors_match_row_errors_at_every_chunk_size"
PERMUTED = "tests/test_relations.py::test_permuted_rows_give_the_same_results"

MUTANTS = [
    # The typing loop: one value function per field kind
    Mutant("int memo keyed by floats", "fileio.py",
           "Kind.memo_keys | {int} if kind is int", "Kind.memo_keys | {int, float} if kind is int",
           (f"{CORPUS}::test_json_float_or_boolean_in_an_integer_field_names_its_row", FILE_CASES)),
    Mutant("minimum made inclusive", "fileio.py",
           "value < self.minimum", "value <= self.minimum",
           (f"{CORPUS}::test_zero_author_count_message", FILE_CASES, "tests/test_baseline.py")),
    Mutant("bool check dropped", "fileio.py",
           "isinstance(raw, (bool, float) if self.kind is int else bool)",
           "isinstance(raw, float if self.kind is int else ())",
           (f"{CORPUS}::test_json_float_or_boolean_in_an_integer_field_names_its_row", FILE_CASES)),
    Mutant("failure row off by one", "fileio.py",
           "rows.fail(len(out), exc", "rows.fail(len(out) + 1, exc",
           (CORPUS, FILEIO)),
    Mutant("finiteness check dropped", "fileio.py",
           "not 0 <= value < math.inf", "not 0 <= value",
           ("tests/test_baseline.py", FILEIO)),
    Mutant("rank case kept", "corpus.py",
           "_RANK_POSITION.get(name.upper())", "_RANK_POSITION.get(name)",
           (f"{CORPUS}::test_rank_is_read_stripped_and_in_any_case", "tests/test_snapshot.py")),
    Mutant("nested category list taken as text", "corpus.py",
           " or not {str, int, float}.issuperset(map(type, value))", "",
           (f"{CORPUS}::test_json_value_that_is_not_text_in_a_text_field_names_its_row",)),
    Mutant("null and booleans in a category list taken as text", "corpus.py",
           "{str, int, float}.issuperset(map(type, value))",
           "{str, int, float, bool, type(None)}.issuperset(map(type, value))",
           (f"{CORPUS}::test_json_value_that_is_not_text_in_a_text_field_names_its_row",
            f"{CORPUS}::test_json_category_lists_keep_their_text")),
    Mutant("JSON list taken as text", "fileio.py",
           "if isinstance(raw, (list, dict)):\n        raise", "if False:\n        raise",
           (f"{CORPUS}::test_json_value_that_is_not_text_in_a_text_field_names_its_row",)),
    # The CSV fast path: distinct values of a block, found exactly
    Mutant("only the first word compared", "fileio.py",
           "for word in words:  # a run", "for word in words[:1]:  # a run",
           (f"{FILEIO}::test_distinct_values_are_found_over_every_word",
            f"{FILEIO}::test_generated_files_take_the_fast_path_whole")),
    Mutant("first row from the unstable sort's first", "fileio.py",
           "first_rows = np.minimum.reduceat(order, np.flatnonzero(new))", "first_rows = order[new]",
           (f"{FILEIO}::test_generated_files_take_the_fast_path_whole",)),
    Mutant("FieldParser.fail naming a row without the first rows", "fileio.py",
           "row = self.offset + (index if self._first is None else int(self._first[index]))",
           "row = self.offset + index",
           (FILE_CASES,)),
    Mutant("double quote allowed", "fileio.py",
           """_PLAIN = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\\n\"""",
           """_PLAIN = bytes(range(0x20, 0x7F)) + b"\\n\"""",
           (f"{FILEIO}::test_csv_rows_match_dict_reader",)),
    Mutant("blank-line check of one-column files dropped", "fileio.py",
           "longest > csv.field_size_limit() or (width == 1 and not length.all())",
           "longest > csv.field_size_limit()",
           (f"{FILEIO}::test_csv_rows_match_dict_reader",)),
    Mutant("hash collision check dropped", "fileio.py",
           "        if not same.all():\n            return None\n", "",
           (f"{FILEIO}::test_a_hash_collision_sends_the_block_to_the_csv_module",)),
    Mutant("BOM not stripped", "fileio.py",
           "line = fh.readline().removeprefix(codecs.BOM_UTF8).removesuffix(",
           "line = fh.readline().removesuffix(",
           (f"{FILEIO}::test_generated_files_take_the_fast_path_whole",)),
    Mutant("width check reduced to the field count", "fileio.py",
           "if len(ends) != rows * width or newline.sum() != rows or not newline[width - 1::width].all():",
           "if len(ends) != rows * width:",
           (f"{FILEIO}::test_csv_rows_match_dict_reader",)),
    # Load checks: each row check in the parse, each key by first_repeat
    Mutant("reference fail dropped", "corpus.py",
           """rows.fail(int(unknown[0]), f"unknown {key} {text[unknown[0]]!r}")""", "pass",
           (FILE_CASES, f"{CORPUS}::test_one_fault_is_named_at_its_row_in_every_format")),
    Mutant("repeated-category check dropped", "corpus.py",
           "if repeat := first_repeat(cats):", "if False:",
           (f"{CORPUS}::test_duplicate_category_rejected", FILE_CASES)),
    Mutant("snapshot category sets not checked for repeats", "corpus.py",
           "if any(map(first_repeat, category_sets)):", "if False:",
           ("tests/test_snapshot.py::test_a_damaged_or_foreign_snapshot_is_ignored",)),
    Mutant("external authors counted in the authorship repeat", "corpus.py",
           "roster = np.flatnonzero(auth_scientist >= 0)", "roster = np.flatnonzero(auth_scientist >= -1)",
           (f"{CORPUS}::test_two_external_authors_on_one_byline_load",)),
    Mutant("first repeat taken by max instead of min", "fileio.py",
           "at = later[order[later].argmin()]", "at = later[order[later].argmax()]",
           (f"{FILEIO}::test_first_repeat_names_the_first_row_repeating_an_earlier_one",
            f"{CORPUS}::test_one_fault_is_named_at_its_row_in_every_format")),
    # One row order, set at load: publications by pub_id, bylines by position
    Mutant("no publication reorder", "corpus.py",
           "if any(map(operator.gt, pub_ids[:-1], pub_ids[1:])):", "if False:",
           (PERMUTED,)),
    Mutant("no authorship reorder", "corpus.py",
           "auths = auths if (auths[1:] < auths[:-1]).any() else slice(None)", "auths = slice(None)",
           (PERMUTED,)),
    Mutant("PercentileColumn tallying in out order", "ranking.py",
           "        order = ranking.order\n", "        order = ranking.out\n",
           (PERMUTED,)),
    Mutant("block total from the unsorted values", "analysis.py",
           "total = xs.sum(axis=1)", "total = values[starts[idx, None] + np.arange(n)].sum(axis=1)",
           (PERMUTED,)),
    Mutant("tally in first-appearance order", "corpus.py",
           "for k in np.unique(key).tolist()", "for k in dict.fromkeys(key.tolist())",
           equivalent="every float tally receives its rows in an order of the data, so first "
                      "appearance is data-defined; the tallies over roster rows in file order sum integers"),
    # Kernels: the mutants of the ROADMAP re-anchor at PR 25
    Mutant("activity filter made exclusive", "corpus.py",
           "kept_sds = publishing >= threshold", "kept_sds = publishing > threshold",
           (f"{CORPUS}::test_filter_boundary_is_inclusive",)),
    Mutant("default reference year without its + 1", "corpus.py",
           "reference_year = int(corpus.pub_year.max()) + 1", "reference_year = int(corpus.pub_year.max())",
           (f"{CORPUS}::test_reference_year_defaults_to_snapshot",)),
    Mutant("a cell's share over the grand total", "corpus.py",
           "denom = getattr(self.cell(uda), field)", "denom = getattr(self.cell(None), field)",
           (CORPUS, "tests/test_golden.py")),
    Mutant("k_top by ceil", "ranking.py",
           "k = np.maximum(1, np.floor(fraction * n)", "k = np.maximum(1, np.ceil(fraction * n)",
           ("tests/test_ranking.py", "tests/test_ranking_reference.py")),
    Mutant("dominance keeping fields with one empty group", "analysis.py",
           "kept = np.flatnonzero((n_a > 0) & (n_b > 0))", "kept = np.flatnonzero((n_a > 0) | (n_b > 0))",
           ("tests/test_analysis.py", "tests/test_ranking_reference.py")),
    Mutant("missing-affiliation guard dropped from first-equals-last", "indicators.py",
           "same = multi & (first >= 0) & (first == last)", "same = multi & (first == last)",
           ("tests/test_indicators.py", "tests/test_scoring_reference.py")),
    Mutant("uniform coauthor weights for 2 authors", "indicators.py",
           "if n == 1 or not (first_last_same", "if n <= 2 or not (first_last_same",
           equivalent="both positional patterns renormalize to [0.5, 0.5] on a byline of 2"),
]


def _copy_checkout(to: Path) -> None:
    """The checkout's files that git tracks or would track, as they are on disk, under ``to``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True)
    for name in filter(None, listed.stdout.decode().split("\0")):
        if (ROOT / name).is_file():
            (to / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, to / name)


def _run(mutant: Mutant, copy: Path) -> str:
    path = copy / "src" / "rankmetrics" / mutant.file
    source = path.read_text(encoding="utf-8")
    found = source.count(mutant.old)
    if found == 0:
        return "stale"
    if found > 1:
        return f"error: its source text is in {mutant.file} {found} times"
    if mutant.equivalent:
        return "equivalent"
    path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=copy, capture_output=True, text=True)
    finally:
        path.write_text(source, encoding="utf-8")
    if proc.returncode in (0, 1):
        return "survived" if proc.returncode == 0 else "caught"
    return f"error: pytest exited {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main(words: list[str]) -> int:
    chosen = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    totals: Counter = Counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        _copy_checkout(copy)
        for mutant in chosen:
            status = _run(mutant, copy)
            totals[status.split(":")[0]] += 1
            reason = f" ({mutant.equivalent})" if status == "equivalent" else ""
            print(f"{status:<10} {mutant.file}: {mutant.name}{reason}", flush=True)
    print(", ".join(f"{totals[k]} {k}" for k in ("caught", "survived", "equivalent", "stale", "error")),
          f"of {len(chosen)}")
    return 1 if totals["survived"] or totals["error"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
