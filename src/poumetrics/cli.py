"""Command line entry point.

    poumetrics analyze PATH [PATH ...] [options]

Analyzes every POU found under the given files or directories, prints a
ranking to stdout (most complex first) and optionally writes JSON, CSV
and SVG reports.  Exit status: 0 clean, 2 finished but some POUs were
skipped, 1 fatal problem.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .aggregate import Grouping
from .chart import render_chart
from .config import AnalysisConfig, load_config
from .errors import AnalysisError, InvalidConfig, NoPousFound
from .report import analyze_paths, emit_csv, emit_json, render_table


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

        for warning in run.warnings:
            print(warning.render(), file=sys.stderr)

        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(emit_json(run))
        if args.csv_path:
            with open(args.csv_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(emit_csv(run))
        if args.chart_path:
            with open(args.chart_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(render_chart(run.results))
    except (AnalysisError, OSError) as exc:
        # The warnings say why no POU survived: they come before the error.
        for warning in exc.warnings if isinstance(exc, NoPousFound) else ():
            print(warning.render(), file=sys.stderr)
        print("error: %s" % exc, file=sys.stderr)
        return 1

    sys.stdout.write(render_table(run, args.top))
    return run.exit_code


if __name__ == "__main__":
    sys.exit(main())
