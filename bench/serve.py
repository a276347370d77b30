"""Serving process: runs CLI requests one at a time, in this process.

Reads ``{"src": dir, "requests": [argv, ...], "trace": bool}`` as JSON on
stdin and writes one JSON object on stdout when every request has ended:
per request its exit code, stdout, stderr, uncaught exception, seconds and
the time of the speed probe run just before it (``speed.py``);
this process's peak resident memory; and, when tracing, the layer
statistics and spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    from coreduce import cli

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import speed

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.install()
    clock = time.perf_counter
    results = []
    for argv in job["requests"]:
        out, err = io.StringIO(), io.StringIO()
        exc = None
        probe = speed.probe()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = tracer.request(cli.main, argv) if tracer else cli.main(argv)
            except Exception:
                rc, exc = None, traceback.format_exc()
        s = clock() - t0
        results.append(
            {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "exc": exc, "s": s, "probe_s": probe}
        )
    report = {
        "results": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        report["trace"] = {
            "calls": {name: st[1] for name, st in tracer.stats.items()},
            "self_s": {name: st[2] for name, st in tracer.stats.items()},
            "layer_self_s": tracer.layer_self_s(),
            "extra": tracer.extra,
            "spans": tracer.spans,
            "dropped_spans": tracer.dropped_spans,
        }
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
