"""SHA-256s of the JSON, CSV and SVG reports `poumetrics analyze` writes
for a few fixed samples and option sets.

`tests/test_report.py` compares them with `tests/reports/expected.json`,
so a change to ranking or rendering that alters a single byte shows.
Run this file to rewrite the golden digests from the current code:

    PYTHONPATH=src python tests/golden_reports.py

Only do that when a change to the reports is intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

TESTS = Path(__file__).parent
CORPUS = TESTS / "corpus"
REPORTS = TESTS / "reports"
GOLDEN = REPORTS / "expected.json"

# name -> (inputs, extra options).  The `metric-dropped` sample has a
# zero fifo median; the zero-weight config zeroes one weight per profile.
CONFIGS = {
    "whole-sample": ([CORPUS], []),
    "whole-sample-normalize": ([CORPUS], ["--normalize"]),
    "per-language": ([CORPUS], ["--group-by-language"]),
    "per-language-normalize": ([CORPUS], ["--group-by-language", "--normalize"]),
    "zero-weight": ([CORPUS], ["--config", str(REPORTS / "zero_weight.json")]),
    "metric-dropped": ([REPORTS / "dropped", CORPUS / "sfc_linear.xml"], []),
}
FORMATS = ("json", "csv", "chart")


def report_digests() -> dict:
    """Config name -> {format: SHA-256 of the report file}."""
    from poumetrics.cli import main

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (inputs, options) in CONFIGS.items():
            outputs = {fmt: Path(tmp, "%s.%s" % (name, fmt)) for fmt in FORMATS}
            argv = ["analyze", *map(str, inputs), *options]
            for fmt, path in outputs.items():
                argv += ["--" + fmt, str(path)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(argv)
            digests[name] = {fmt: hashlib.sha256(path.read_bytes()).hexdigest() for fmt, path in outputs.items()}
    return digests


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(report_digests(), indent=2) + "\n", encoding="utf-8")
