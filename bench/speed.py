"""Machine-speed probe.

On a shared machine the speed of pure-Python code drifts by a fifth within
seconds, which is more than the changes the benchmark must resolve.  A fixed
piece of work like the program's own (tuple-keyed dict inserts and integer
arithmetic) is timed next to every request, on the same CPU, and each
request's time is scaled by ``REFERENCE_S / probe time``: the time it would
have taken at the probe's reference speed.  Timing the probe once per run,
or on the other CPU, does not follow the drift.
"""

from __future__ import annotations

import gc
import statistics
import time

# the probe's time at the reference speed: about its median on the machine
# the benchmark was made on
REFERENCE_S = 0.0015
# a request's time is scaled by the median of the probes of the requests
# this many places before and after it, and its own
WINDOW = 10


def probe() -> float:
    """Seconds the fixed work takes.  The garbage collector is off meanwhile,
    so the time does not grow with the heap of the process it runs in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        d = {}
        for i in range(3000):
            d[(i, i % 7)] = (i, -i)
        x = 0
        for i in range(3000):
            x += i * i % 7
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(times: list[float], probes: list[list[float]], window: int = WINDOW) -> list[float]:
    """Scale each time by the median of the probes taken with it and with
    the ``window`` neighbours on each side."""
    out = []
    for i, t in enumerate(times):
        near = [p for ps in probes[max(0, i - window) : i + window + 1] for p in ps]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out
