"""Workload inputs: seeded synthetic corpora on disk, pinned by SHA-256.

Each workload's corpus comes from ``rankmetrics.synth`` with the workload's
size and the run's ``--seed`` as the generator seed. Generation is input
preparation, so it runs in its own child process (see ``main``) and never
touches the workload process's memory or clock. Generated files are kept
under ``perfbench/.inputs/`` keyed by workload, seed and a digest of the
generator sources, with the SHA-256 of every file in ``manifest.json``.
Before any timing the harness re-hashes the files and compares them with the
manifest and, for the seeds listed in ``pinned_inputs.json``, with the pinned
digests, so a change to the generator cannot silently change a workload.

Run as a script it writes one corpus and prints its timings as JSON::

    python3 perfbench/bench_inputs.py --workload report_10x --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE_DIR = BENCH_DIR / ".inputs"
PINNED_FILE = BENCH_DIR / "pinned_inputs.json"

DEFAULT_SEED = 20240409  # SynthConfig's own default seed
HELD_OUT_SEED = 1811  # never used while writing a change; claims must hold here too

# Generator sources whose change invalidates cached inputs.
_GENERATOR_SOURCES = ("synth.py", "corpus.py", "fileio.py")

# Corpus sizes. ``smoke`` sizes are the 1x configuration used by the
# benchmark's own tests.
SIZES = {
    "report_10x": {"sds_per_uda": 30, "per_rank": 20, "format": "csv"},
    "sweep_small_sds": {"sds_per_uda": 100, "per_rank": 6, "format": "csv"},
    "staged_jsonl": {"sds_per_uda": 9, "per_rank": 20, "format": "jsonl"},
}
SMOKE_SIZES = {
    "report_10x": {"sds_per_uda": 3, "per_rank": 20, "format": "csv"},
    "sweep_small_sds": {"sds_per_uda": 10, "per_rank": 6, "format": "csv"},
    "staged_jsonl": {"sds_per_uda": 3, "per_rank": 20, "format": "jsonl"},
}
FILE_NAMES = ("scientists", "publications", "authorships")


class InputError(RuntimeError):
    """Inputs could not be generated or do not match their recorded digests."""


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def generator_digest() -> str:
    digest = hashlib.sha256()
    for name in _GENERATOR_SOURCES:
        path = SRC / "rankmetrics" / name
        if not path.is_file():
            raise InputError(f"generator source missing: {path}")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def input_paths(directory: Path, fmt: str) -> dict[str, Path]:
    return {name: directory / f"{name}.{fmt}" for name in FILE_NAMES}


def _pinned(workload: str, seed: int, smoke: bool) -> dict[str, str] | None:
    if smoke or not PINNED_FILE.is_file():
        return None
    pins = json.loads(PINNED_FILE.read_text(encoding="utf-8"))
    return pins.get(workload, {}).get(str(seed))


def prepare(workload: str, seed: int, smoke: bool = False) -> dict:
    """Return the checked input files of one workload and seed.

    Generates them in a child process when they are not cached. The result
    holds ``paths`` (name -> Path), ``sha256`` (name -> hex digest),
    ``generated`` (whether this call generated them) and the generator's
    ``synth`` timings from when they were made.
    """
    size = (SMOKE_SIZES if smoke else SIZES)[workload]
    tag = f"{workload}{'-smoke' if smoke else ''}-seed{seed}-{generator_digest()}"
    directory = CACHE_DIR / tag
    manifest_path = directory / "manifest.json"
    generated = False
    if not manifest_path.is_file():
        _generate_in_child(workload, seed, smoke, directory)
        generated = True
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    paths = input_paths(directory, size["format"])
    digests = {name: sha256_file(path) for name, path in paths.items()}
    if digests != manifest["sha256"]:
        raise InputError(f"input files in {directory} no longer match their manifest")
    pinned = _pinned(workload, seed, smoke)
    if pinned is not None and pinned != digests:
        raise InputError(
            f"{workload} seed {seed}: generated inputs differ from pinned_inputs.json; "
            "the generator changed the workload"
        )
    return {
        "paths": paths,
        "sha256": digests,
        "pinned": pinned is not None,
        "generated": generated,
        "synth": manifest["synth"],
    }


def _generate_in_child(workload: str, seed: int, smoke: bool, directory: Path) -> None:
    tmp = directory.with_name(directory.name + ".tmp")
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--out", str(tmp)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise InputError(f"input generation failed:\n{proc.stderr.strip()}")
    synth = json.loads(proc.stdout.strip().splitlines()[-1])
    size = (SMOKE_SIZES if smoke else SIZES)[workload]
    paths = input_paths(tmp, size["format"])
    manifest = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "sha256": {name: sha256_file(path) for name, path in paths.items()},
        "synth": synth,
    }
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    os.replace(tmp, directory)


def write_corpus_jsonl(corpus, out_dir: Path) -> dict[str, Path]:
    """Write the corpus as JSON lines with typed values: integers as JSON
    numbers, subject categories as arrays, empty optional fields as null."""
    rows = {
        "scientists": (
            {"scientist_id": s.scientist_id, "sds_code": s.sds_code, "uda_code": s.uda_code,
             "rank": s.rank.value, "birth_year": s.birth_year}
            for s in corpus.scientists
        ),
        "publications": (
            {"pub_id": p.pub_id, "year": p.year, "citation_count": p.citation_count,
             "subject_categories": list(p.subject_categories), "author_count": p.author_count}
            for p in corpus.publications
        ),
        "authorships": (
            {"pub_id": a.pub_id, "position": a.position, "scientist_id": a.scientist_id,
             "affiliation_id": a.affiliation_id}
            for a in corpus.authorships
        ),
    }
    paths = input_paths(out_dir, "jsonl")
    for name, records in rows.items():
        with paths[name].open("w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from rankmetrics.corpus import RANKS
    from rankmetrics.synth import SynthConfig, generate, write_corpus_csv

    size = (SMOKE_SIZES if args.smoke else SIZES)[args.workload]
    config = SynthConfig(
        seed=args.seed,
        sds_per_uda=size["sds_per_uda"],
        scientists_per_sds={rank: size["per_rank"] for rank in RANKS},
    )
    out = Path(args.out)
    t0 = time.perf_counter()
    corpus = generate(config)
    t1 = time.perf_counter()
    if size["format"] == "csv":
        write_corpus_csv(corpus, out)
    else:
        write_corpus_jsonl(corpus, out)
    t2 = time.perf_counter()
    print(json.dumps({
        "generate_s": t1 - t0,
        "write_s": t2 - t1,
        "scientists": len(corpus.scientists),
        "publications": len(corpus.publications),
        "authorships": len(corpus.authorships),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
