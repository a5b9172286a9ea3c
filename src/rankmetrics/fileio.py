"""Record I/O shared by the data modules: CSV with a header row, or JSON lines."""

from __future__ import annotations

import csv
import json
from pathlib import Path


def read_records(path: str | Path) -> list[dict]:
    """Read tabular records as a list of dicts keyed by field name.

    ``.jsonl``/``.ndjson`` files are parsed one JSON object per line; anything
    else is read as UTF-8 comma-separated text with a header row and
    double-quote escaping. A leading byte-order mark is skipped.
    """
    path = Path(path)
    if path.suffix.lower() in (".jsonl", ".ndjson"):
        records = []
        with path.open(encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path.name} line {lineno}: invalid JSON record ({exc.msg})") from None
                if not isinstance(obj, dict):
                    raise ValueError(f"{path.name} line {lineno}: expected a JSON object")
                records.append(obj)
        return records
    with path.open(encoding="utf-8-sig", newline="") as fh:
        return [dict(row) for row in csv.DictReader(fh)]


def write_records(path: str | Path, fieldnames: list[str], rows) -> Path:
    """Write dict rows as comma-separated text with a header row."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path
