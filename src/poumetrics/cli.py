"""Command line entry point.

    poumetrics analyze PATH [PATH ...] [options]

Analyzes every POU found under the given files or directories, prints a
ranking to stdout (most complex first) and optionally writes JSON, CSV
and SVG reports.  Exit status: 0 clean, 2 finished but some POUs were
skipped, 1 fatal problem, or an output that could not be written.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .aggregate import Grouping
from .chart import write_chart
from .config import AnalysisConfig, load_config
from .errors import AnalysisError, InvalidConfig, NoPousFound
from .report import analyze_paths, render_table, write_csv, write_json

# perfbench/tracing.py looks the writers' string forms up here; main
# streams each report to its file through the `write_*` form instead.
from .chart import render_chart  # noqa: F401
from .report import emit_csv, emit_json  # noqa: F401


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poumetrics",
        description="Complexity profiling and ranking for IEC 61131-3 POUs.",
    )
    parser.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="compute metrics and rank POUs")
    analyze.add_argument("paths", nargs="+", help="source files or directories")
    analyze.add_argument("--config", help="JSON configuration file")
    analyze.add_argument("--json", dest="json_path", metavar="FILE", help="write the JSON report here")
    analyze.add_argument("--csv", dest="csv_path", metavar="FILE", help="write the CSV report here")
    analyze.add_argument("--chart", dest="chart_path", metavar="FILE", help="write the SVG chart here")
    analyze.add_argument(
        "--group-by-language",
        action="store_true",
        help="compute medians per language instead of over the whole sample",
    )
    analyze.add_argument(
        "--normalize",
        action="store_true",
        help="rescale overall values so the largest becomes 100",
    )
    analyze.add_argument("--top", type=int, metavar="N", help="print only the N most complex POUs")
    return parser


def _resolve_config(args) -> AnalysisConfig:
    cfg = load_config(args.config) if args.config else AnalysisConfig()
    overrides = {}
    if args.group_by_language:
        overrides["grouping"] = Grouping.PER_LANGUAGE
    if args.normalize:
        overrides["normalize"] = True
    return cfg._replace(**overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.top is not None and args.top < 0:
            raise InvalidConfig("--top must not be negative, got %d" % args.top)
        cfg = _resolve_config(args)
        run = analyze_paths(args.paths, cfg)
    except (AnalysisError, OSError) as exc:
        # The warnings say why no POU survived: they come before the error.
        warnings = exc.warnings if isinstance(exc, NoPousFound) else ()
        _put(sys.stderr, "".join(w.render() + "\n" for w in warnings) + "error: %s\n" % exc)
        return 1

    # Each output is written whatever became of the ones before it, and
    # the first that failed is the run's one error line.
    failures = []
    failure = _put(sys.stderr, "".join(w.render() + "\n" for w in run.warnings))
    if failure is not None:
        failures.append("cannot write to stderr: %s" % failure)
    for path, write in ((args.json_path, write_json), (args.csv_path, write_csv), (args.chart_path, write_chart)):
        if path:
            try:
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    write(run, fh)
            except OSError as exc:
                failures.append(str(exc))
    failure = _put(sys.stdout, render_table(run, args.top))
    if failure is not None:
        failures.append("cannot write to stdout: %s" % failure)
    if failures:
        _put(sys.stderr, "error: %s\n" % failures[0])
        return 1
    return run.exit_code


def _put(stream, text: str) -> OSError | None:
    """Write `text` to a standard stream and flush it: None, or the error
    that stopped it.  A stream that failed is pointed at os.devnull, so
    that neither a later write nor the flush at exit fails again."""
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, stream.fileno())
            finally:
                os.close(devnull)
        except (OSError, ValueError):  # no file descriptor behind the stream
            pass
        return exc
    return None


if __name__ == "__main__":
    sys.exit(main())
