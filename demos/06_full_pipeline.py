"""The whole run in one call: synthetic corpus -> report bundle on disk.

`run_pipeline` chains load -> activity filter -> baselines -> indicators ->
percentiles -> analyses and renders the full set of report tables (T1-T10
plus the chi-square summary). Identical inputs and configuration always
produce byte-identical files.
"""

import tempfile
from pathlib import Path

from rankmetrics import RunConfig, format_table, run_pipeline, write_bundle
from rankmetrics.synth import SynthConfig, generate, write_corpus_csv

workdir = Path(tempfile.mkdtemp(prefix="rankmetrics_demo_"))
paths = write_corpus_csv(generate(SynthConfig(seed=2024)), workdir / "corpus")
print(f"synthetic corpus in {workdir / 'corpus'}")

config = RunConfig(
    scientists=paths["scientists"],
    publications=paths["publications"],
    authorships=paths["authorships"],
    positional_udas=("UDA05", "UDA06"),  # pretend these are life sciences
    output_format="text",
)
bundle = run_pipeline(config)

written = write_bundle(bundle, workdir / "report", "text")
print(f"wrote {len(written)} tables to {workdir / 'report'}:")
for path in written:
    print(f"  {path.name}")

print()
print(format_table(bundle.tables["T5_percentile_np"], "text"))
print(format_table(bundle.tables["T8_dominance"], "text"))

again = run_pipeline(config)
identical = all(
    format_table(a, "csv") == format_table(b, "csv")
    for a, b in zip(bundle.tables.values(), again.tables.values())
)
print(f"rerun is byte-identical: {identical}")
