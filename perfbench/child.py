"""One poumetrics process, as a user starts it, timed from inside.

    python3 child.py RESULT_JSON MODE [poumetrics argv ...]

MODE is `import` (start and import only), `analyze` (one untraced
`cli.main(argv)` call) or `traced` (the same call with spans around the
public functions, see tracing.py).  During the import and during the
call, speedprobe.py samples the host's speed, so the parent can scale
the times it reports.  The timestamp taken right after
`import poumetrics.cli` uses the system-wide monotonic clock, so the
parent can subtract the moment it started this process.  The result is
written to RESULT_JSON.
"""

import time

import speedprobe

_import_probe = speedprobe.SpeedProbe(0.001)
_import_probe.start()

from poumetrics import cli  # noqa: E402

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)
IMPORT_PROBE = _import_probe.stop()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    result = {"imported": IMPORTED, "import_probe": IMPORT_PROBE}
    if mode in ("analyze", "traced"):
        tracer = None
        if mode == "traced":
            import poumetrics
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(poumetrics)
        probe = speedprobe.SpeedProbe(0.005)
        probe.start()
        start = time.perf_counter()
        exit_code = cli.main(argv)
        result["analyze_s"] = time.perf_counter() - start
        result["probe"] = probe.stop()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["exit_code"] = exit_code
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counters"] = tracer.finish()
    elif mode != "import":
        raise SystemExit("unknown mode %r" % mode)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
