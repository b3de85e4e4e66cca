"""End-to-end and per-layer benchmark for `poumetrics analyze`.

    python3 perfbench/run.py --workload st_generated --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  The run generates the workload's
corpus from the seed, then keeps one client in a closed loop for
`--seconds`: each analysis is a fresh `python3` process, because the CLI
is one-shot and users pay interpreter start and import on every run.

--trace 0 reports the end-to-end metrics: `analyze_s` (median wall time
of one `cli.main` call, after import), `setup_s` (median time from
process start to `import poumetrics.cli` done, over many cheap starts)
and `peak_rss_mb` (median `ru_maxrss` of the analyzing process).  Both
times are scaled by the host's speed, sampled inside the timed process
(speedprobe.py); the summary also prints them unscaled.
--trace 1 alternates untraced and traced processes and reports the
per-layer metrics of tracing.py plus `trace.overhead_s`.

Every sample is checked: the exit code, byte-identical JSON/CSV/SVG
reports across the samples of one run, and every POU's metrics against
the generator's independent oracle (corpora.py).  `error_rate` is failed
POU checks over POU checks attempted; the last line's `attempted` and
`failed` carry the same counts.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpora
import speedprobe
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

END_TO_END = (("analyze_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
# Import-only starts per analysis, so setup_s has many samples.
SETUP_STARTS_PER_ANALYSIS = 2
MIN_ANALYSES = 3
CHILD_TIMEOUT_S = 150
# Warning codes that drop a POU or file (README "Warning codes").
SKIP_CODES = frozenset({"il-body-skipped", "body-language-unsupported", "pou-parse-error", "xml-malformed"})
REPORTS = ("report.json", "report.csv", "report.svg")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def build() -> None:
    """Check the checkout holds the program, and byte-compile it once so
    every timed start reads cached bytecode, as an installed copy would."""
    for needed in ("src/poumetrics/cli.py", "tests/stgen.py", "tests/corpus/expected_metrics.json"):
        if not (ROOT / needed).is_file():
            raise SystemExit("perfbench: %s is missing; run from a full checkout" % needed)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )


class Sampler:
    """Starts child processes one at a time and collects their results."""

    def __init__(self, work: Path, corpus_dir: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.argv = ["analyze", str(corpus_dir)] + [
            opt for flag, name in zip(("--json", "--csv", "--chart"), REPORTS) for opt in (flag, str(work / name))
        ]

    def start(self, mode: str) -> dict:
        result_path = self.work / "child.json"
        result_path.unlink(missing_ok=True)
        args = [sys.executable, str(HERE / "child.py"), str(result_path), mode]
        if mode != "import":
            args += self.argv
            for name in REPORTS:
                (self.work / name).unlink(missing_ok=True)
        with open(self.work / "child.out", "wb") as out, open(self.work / "child.err", "wb") as err:
            started = now()
            proc = subprocess.run(args, stdout=out, stderr=err, env=self.env, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not result_path.exists():
            tail = (self.work / "child.err").read_text(errors="replace")[-2000:]
            raise RuntimeError("child %s exited with %d:\n%s" % (mode, proc.returncode, tail))
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["imported"] - started
        return result

    def report_hashes(self) -> tuple[str, ...]:
        paths = [self.work / name for name in REPORTS]
        return tuple(hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else "missing" for p in paths)


class Checker:
    """Counts failed POUs per analysis sample against the oracle."""

    def __init__(self, expected: dict[str, dict[str, object]]):
        self.expected = expected
        self.reference: tuple[str, ...] | None = None
        self.by_hash: dict[tuple[str, ...], list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, result: dict, hashes: tuple[str, ...], report_json: Path) -> None:
        self.attempted += len(self.expected)
        if self.reference is None:
            self.reference = hashes
        if result["exit_code"] != 0:
            bad = ["exit code %d" % result["exit_code"]] * len(self.expected)
        elif hashes != self.reference:
            bad = ["report bytes differ from the first sample"] * len(self.expected)
        else:
            if hashes not in self.by_hash:
                self.by_hash[hashes] = self.oracle_failures(json.loads(report_json.read_text(encoding="utf-8")))
            bad = self.by_hash[hashes]
        self.failed += len(bad)
        self.failures.extend(bad[:5])

    def oracle_failures(self, report: dict) -> list[str]:
        rows = {row["name"]: row for row in report["pous"]}
        skipped = {w["pou"] for w in report["warnings"] if w["code"] in SKIP_CODES}
        bad = []
        for name, cells in self.expected.items():
            row = rows.get(name)
            if row is None or name in skipped:
                bad.append("%s: missing or skipped" % name)
                continue
            wrong = {col: (row.get(col), want) for col, want in cells.items() if row.get(col) != want}
            if wrong:
                bad.append("%s: (got, expected) %s" % (name, wrong))
        bad.extend("%s: not written by the generator" % name for name in sorted(set(rows) - set(self.expected)))
        return bad


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    work = WORK / ("%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        corpus = corpora.build(workload, seed)
        corpus.write(work / "corpus")
        return measure(workload, seed, seconds, trace, corpus, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(workload, seed, seconds, trace, corpus, work) -> dict:
    sampler = Sampler(work, work / "corpus")
    checker = Checker(corpus.expected)
    untraced: list[dict] = []
    traced: list[dict] = []
    traced_s: list[float] = []
    setup: list[float] = []
    wall = {"analyze_s": [], "setup_s": []}

    def analysis(mode: str) -> dict:
        result = sampler.start(mode)
        checker.check(result, sampler.report_hashes(), work / REPORTS[0])
        add_setup(result)
        result["scaled_s"] = speedprobe.scale(result["analyze_s"], result["probe"])
        return result

    def add_setup(result: dict) -> None:
        wall["setup_s"].append(result["setup_s"])
        setup.append(speedprobe.scale(result["setup_s"], result["import_probe"]))

    deadline = now() + seconds
    while True:
        result = analysis("analyze")
        untraced.append(result)
        wall["analyze_s"].append(result["analyze_s"])
        if trace:
            result = analysis("traced")
            traced_s.append(result["scaled_s"])
            factor = result["scaled_s"] / result["analyze_s"]
            spans = [[name, start * factor, end * factor, parent] for name, start, end, parent in result["spans"]]
            traced.append(tracing.layer_metrics(spans, result["counters"]))
        else:
            for _ in range(SETUP_STARTS_PER_ANALYSIS):
                add_setup(sampler.start("import"))
        if now() >= deadline and len(untraced) >= MIN_ANALYSES:
            break

    analyze_s = [r["scaled_s"] for r in untraced]
    samples = {
        "analyze_s": analyze_s,
        "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    if trace:
        layers = tracing.median_metrics(traced)
        layers["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(analyze_s)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in END_TO_END}

    return {
        "workload": workload,
        "seed": seed,
        "files": len(corpus.files),
        "bytes": corpus.size_bytes,
        "pous": len(corpus.expected),
        "samples": samples,
        "wall": wall,
        "hashes": dict(zip(REPORTS, checker.reference)),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures[:10],
        "metrics": metrics,
    }


def summary(res: dict) -> str:
    lines = [
        "%s seed %d: %d files, %.2f MB, %d POUs written"
        % (res["workload"], res["seed"], res["files"], res["bytes"] / 1e6, res["pous"])
    ]
    for name, unit in END_TO_END:
        q1, q2, q3 = quartiles(res["samples"][name])
        lines.append(
            "  %-12s median %.4f %s  quartiles %.4f..%.4f  n=%d" % (name, q2, unit, q1, q3, len(res["samples"][name]))
        )
        if name in res["wall"]:
            q1, q2, q3 = quartiles(res["wall"][name])
            lines.append("  %-12s median %.4f %s  quartiles %.4f..%.4f  (unscaled wall time)" % ("", q2, unit, q1, q3))
    rate = res["failed"] / res["attempted"]
    lines.append("  %-12s %.6f ratio  (%d of %d POU checks failed)" % ("error_rate", rate, res["failed"], res["attempted"]))
    for failure in res["failures"]:
        lines.append("    failed: %s" % failure)
    lines.append("  report sha256 " + " ".join("%s=%s" % kv for kv in res["hashes"].items()))
    if "trace.overhead_s" in res["metrics"]:
        for name, unit, _ in tracing.PER_LAYER:
            lines.append("  %-36s %.6g %s" % (name, res["metrics"][name]["value"], unit))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpora.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build()
    workloads = corpora.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        res = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(summary(res), flush=True)
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
