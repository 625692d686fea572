"""One benchmark pass, run in a fresh interpreter by run.py.

    python3 perfbench/child.py <spawn time on the monotonic clock>

Reads {"items": [argv, ...], "trace": bool} on stdin, runs every argv through
`orispec.cli.main` in this process with stdout and stderr captured, and
writes one JSON object to stdout.  Set-up time runs from the parent's spawn
time to the moment `orispec.cli` is imported and the kernel backend is known;
CLOCK_MONOTONIC is shared by all processes on Linux, which makes the
difference meaningful.
"""

import sys
import time

SPAWNED_AT = float(sys.argv[1])

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from orispec import cli, kernel  # noqa: E402

BACKEND = kernel.backend_name()
SETUP_S = time.monotonic() - SPAWNED_AT


def peak_rss_mb() -> float:
    """High-water RSS of this process image.  Unlike ru_maxrss, VmHWM does
    not carry over the parent's RSS from before exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_item(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing item is a failed item, not a failed pass
        error = traceback.format_exc()
    end = time.perf_counter()
    return {
        "rc": rc,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "seconds": end - start,
    }


def main() -> int:
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        sys.path.insert(0, HERE)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for index, argv in enumerate(request["items"]):
        if tracer is not None:
            tracer.begin_item(index)
        results.append(run_item(argv))
        if tracer is not None:
            tracer.end_item()
    json.dump(
        {
            "setup_s": SETUP_S,
            "backend": BACKEND,
            "orispec_file": cli.__file__,
            "python": sys.version.split()[0],
            "peak_rss_mb": peak_rss_mb(),
            "items": results,
            "trace": None if tracer is None else tracer.report(),
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
