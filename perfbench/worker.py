"""One benchmark pass in a fresh process (started by run.py).

Reads a job from stdin: the operations to run, the directory for their
outputs, and whether to trace.  Each operation is one pcikit.cli.main call
with stdout written to its own file, as a user redirecting the CLI's output
would.  Prints one JSON object with the time the process was ready (on the
system-wide monotonic clock, so the parent can subtract its launch time),
each operation's exit code, duration and calibration time, the peak
resident memory and, when tracing, the per-layer metrics.

The calibration time is that of a fixed pure-Python loop, run before the
first operation and after each one; an operation's calibration is the mean
of the loops on either side of it.  It tells the parent how fast the
machine ran at that moment (see ``calibrate``).
"""

import time  # first, so the ready time covers only interpreter start and imports

import contextlib
import functools
import io
import json
import os
import resource
import sys
import traceback

import pcikit
import pcikit.cli

READY = time.monotonic()
CALIBRATION_LOOPS = 50_000


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - t0


def main() -> None:
    job = json.load(sys.stdin)
    if job.get("setup_only"):
        print(json.dumps({"ready": READY, "calibration_s": calibrate()}))
        return
    run_op = pcikit.cli.main
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.install()
        run_op = functools.partial(tracing.traced_main, tracer)
    results = []
    before = first = calibrate()
    for index, argv in job["ops"]:
        path = os.path.join(job["out_dir"], f"{index}.out")
        error = None
        with open(path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(
            out
        ), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = run_op(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code, error = None, traceback.format_exc()
            seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += os.path.getsize(path)
        after = calibrate()
        results.append({
            "index": index, "code": code, "seconds": seconds, "error": error,
            "calibration_s": (before + after) / 2,
        })
        before = after
    report = {
        "ready": READY,
        "calibration_s": first,
        "ops": results,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": pcikit.active_backend(),
        "numpy": pcikit.kernels.np.__version__,
        "numba_importable": pcikit.kernels.numba is not None,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
