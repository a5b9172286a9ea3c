"""Golden report bundles: the text and csv reports, the indicator export and
the ``rank`` export (percentiles and top flags) of two small synthetic
corpora must stay byte-identical.

The inputs are written and read through relative paths, because the
``config_sha256`` metadata line hashes the input paths. To record new
goldens after an intended output change, run from the repository root::

    PYTHONPATH=src python3 tests/test_golden.py
"""

import os
import shutil
from pathlib import Path

import pytest

from rankmetrics.cli import main
from rankmetrics.synth import SynthConfig, generate, write_corpus_csv

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    # uniform weights everywhere; no SDS falls under the default threshold
    "equal": (SynthConfig(seed=20240409, n_uda=3, sds_per_uda=2), []),
    # positional weights on two UDAs; the 0.88 threshold drops one SDS
    "positional": (
        SynthConfig(seed=1811, n_uda=3, sds_per_uda=2),
        ["--positional-udas", "UDA01,UDA03", "--sds-threshold", "0.88"],
    ),
}


def write_case(name: str, out: Path) -> None:
    """Write one case's bundles under ``out``, which must be relative to the
    working directory."""
    config, options = CASES[name]
    paths = write_corpus_csv(generate(config), out / "input")
    inputs = [f"--{key}={path}" for key, path in paths.items()]
    for fmt in ("text", "csv"):
        argv = ["report", *inputs, *options, "--format", fmt, "--out", str(out / fmt)]
        assert main(argv) == 0
    assert main(["indicators", *inputs, *options, "--out", str(out / "indicators")]) == 0
    assert main(["rank", *inputs, *options, "--out", str(out / "rank")]) == 0


def _files(root: Path) -> dict[str, bytes]:
    # The indicators step's corpus snapshot (indicators/corpus.npz) is a
    # binary cache of the inputs, not a report; test_snapshot.py checks that
    # it is byte-deterministic and reads back as the parsed corpus.
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and "input" not in p.relative_to(root).parts
        and p.relative_to(root).as_posix() != "indicators/corpus.npz"
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_bundle_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_case(name, Path(name))
    capsys.readouterr()
    expected = _files(GOLDEN / name)
    actual = _files(tmp_path / name)
    assert sorted(actual) == sorted(expected)
    for rel, content in expected.items():
        assert actual[rel] == content, f"{name}/{rel} differs from the golden file"


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for case in CASES:
        shutil.rmtree(case, ignore_errors=True)
        write_case(case, Path(case))
        shutil.rmtree(Path(case) / "input")
