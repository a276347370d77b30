"""Benchmark of the coreduce command line.

    python3 bench/run.py --workload {paper,queries,weights} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ``./src``.
Requests go to the public entry point ``coreduce.cli.main`` in a serving
process (``serve.py``), one at a time with one client (a closed loop):
``paper`` starts a fresh process per ``verify-paper`` suite, ``queries`` and
``weights`` stream their requests through one process.  Every output is
checked (``checks.py``).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (``spans.py``) next to
an untraced run of the same requests.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Without ``--workload`` every workload runs untraced, each metric is printed
by name with its unit, and the exit code is 1 if any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("paper", "queries", "weights")
# requests per second of --seconds, so a run of the program at the commit
# the benchmark was made on lasts about --seconds
RATE = {"queries": 26, "weights": 30}
SETUP_PROBES = 7
RUN_BUDGET_S = 170
# paper suites short enough to run both untraced and traced in one run
SHORT_SUITES = ("torus", "sl2", "classical", "semisimple", "sl3", "appendixA")


class RunError(Exception):
    pass


class Harness:
    def __init__(self, root: str) -> None:
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "coreduce", "cli.py")):
            raise RunError(f"no program: {self.src}/coreduce/cli.py is missing")
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.out_dir = os.path.join(root, ".bench_out")
        self.deadline = time.monotonic() + RUN_BUDGET_S
        # this process and its children share one CPU, so the speed probes
        # run here see the speed the program runs at
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunError(f"run exceeded {RUN_BUDGET_S} s")
        return left

    def setup_s(self) -> float:
        """Median time from starting an interpreter to ``import coreduce.cli``
        done, scaled by the median of the probes run before and after each
        start; one unmeasured start first compiles the bytecode."""
        code = "import time, coreduce.cli; print(time.monotonic())"
        times, probes = [], []
        for _ in range(SETUP_PROBES + 1):
            probes.append(speed.probe())
            t0 = time.monotonic()
            done = subprocess.run(
                [sys.executable, "-c", code], env=self.env, cwd=self.root,
                capture_output=True, text=True, timeout=self._timeout(),
            )
            if done.returncode != 0:
                raise RunError("import coreduce.cli failed:\n" + done.stderr)
            times.append(float(done.stdout) - t0)
        probes.append(speed.probe())
        return statistics.median(times[1:]) * speed.REFERENCE_S / statistics.median(probes)

    def serve(self, requests: list[list[str]], trace: bool, probes: list | None = None) -> dict:
        """Run ``serve.py`` on the requests; with ``probes``, also time the
        speed probe every 50 ms until it exits."""
        job = json.dumps({"src": self.src, "requests": requests, "trace": trace})
        os.makedirs(self.out_dir, exist_ok=True)
        with tempfile.TemporaryFile("w+", dir=self.out_dir) as out, \
                tempfile.TemporaryFile("w+", dir=self.out_dir) as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "serve.py")], env=self.env, cwd=self.root,
                stdin=subprocess.PIPE, stdout=out, stderr=err, text=True,
            )
            try:
                proc.stdin.write(job)
                proc.stdin.close()
                while probes is not None and proc.poll() is None:
                    time.sleep(0.05)
                    probes.append(speed.probe())
                    self._timeout()
                proc.wait(timeout=self._timeout())
            except (RunError, subprocess.TimeoutExpired):
                proc.kill()
                proc.wait()
                raise RunError(f"run exceeded {RUN_BUDGET_S} s")
            if proc.returncode != 0:
                err.seek(0)
                raise RunError("serving process failed:\n" + err.read())
            out.seek(0)
            return json.load(out)


def make_requests(workload: str, seed: int, seconds: int) -> list[list[str]]:
    if workload == "paper":
        return workloads.paper()
    generate = workloads.queries if workload == "queries" else workloads.weights
    return generate(seed, RATE[workload] * seconds)


def serve_workload(h: Harness, workload: str, requests, trace: bool) -> dict:
    """Run the requests.  ``paper`` starts one process per suite, timed from
    its start to its exit; the others stream through one process.  Each
    request's time is scaled to the reference speed (``speed.py``)."""
    if workload != "paper":
        rep = h.serve(requests, trace)
        rep["raw_s"] = [r["s"] for r in rep["results"]]
        rep["probe_s"] = [r["probe_s"] for r in rep["results"]]
        rep["latency_s"] = speed.scaled(rep["raw_s"], [[p] for p in rep["probe_s"]])
        rep["traces"] = [rep.pop("trace")] if trace else []
        return rep
    merged: dict = {"results": [], "raw_s": [], "maxrss_kb": 0, "traces": []}
    probes = []
    for argv in requests:
        probes.append([speed.probe()])
        t0 = time.perf_counter()
        rep = h.serve([argv], trace, probes[-1])
        merged["raw_s"].append(time.perf_counter() - t0)
        merged["results"] += rep["results"]
        merged["maxrss_kb"] = max(merged["maxrss_kb"], rep["maxrss_kb"])
        if trace:
            merged["traces"].append(rep["trace"])
    merged["latency_s"] = speed.scaled(merged["raw_s"], probes, window=0)
    merged["probe_s"] = [p for ps in probes for p in ps]
    return merged


def judge_all(requests, rep, reference) -> tuple[int, int, list[str]]:
    failed = wrong = 0
    reasons = []
    for argv, res in zip(requests, rep["results"]):
        status, why = checks.judge(argv, res, reference)
        if status != "ok":
            failed += 1
            wrong += status == "wrong"
            reasons.append(f"{status}: {' '.join(argv)}: {why}")
    return failed, wrong, reasons


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, requests, rep, setup) -> tuple[dict, list[str]]:
    lat = rep["latency_s"]
    metrics = {
        "wall_s": (sum(lat), "s"),
        "req_p50_ms": (1000 * statistics.median(lat), "ms"),
        "req_p90_ms": (1000 * percentile(lat, 90), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rep["maxrss_kb"] / 1024, "MB"),
    }
    seen: set[tuple[str, ...]] = set()
    repeats = 0
    for argv in requests:
        repeats += tuple(argv) in seen
        seen.add(tuple(argv))
    notes = [
        f"requests {len(requests)} (latency samples), repeat share {repeats / len(requests):.3f}",
        f"unscaled wall {sum(rep['raw_s']):.3f} s, p50 {1000 * statistics.median(rep['raw_s']):.3f} ms, "
        f"p90 {1000 * percentile(rep['raw_s'], 90):.3f} ms, "
        f"speed probe median {1000 * statistics.median(rep['probe_s']):.4f} ms",
    ]
    if workload == "paper":
        notes += [f"suite.{a[2]}_s {s:.3f} s" for a, s in zip(requests, lat)]
    return metrics, notes


def _merge(traces: list[dict]) -> dict:
    out: dict = {"calls": {}, "self_s": {}, "layer_self_s": {}, "extra": {}, "spans": []}
    for i, t in enumerate(traces):
        for key in ("calls", "self_s", "layer_self_s", "extra"):
            for k, v in t[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["spans"] += [[i, *s] for s in t["spans"]]
    return out


def per_layer(trace: dict, traced_wall: float, overhead: float) -> dict:
    calls, self_s, extra = trace["calls"], trace["self_s"], trace["extra"]
    layer = trace["layer_self_s"]

    def frac(num: str, den: int) -> float:
        return extra.get(num, 0) / den if den else 0.0

    hilbert_searches = extra.get("monoid.hilbert.searches", 0)
    m = {
        "monoid.hilbert.self_s": (self_s.get("monoid.hilbert", 0.0), "s"),
        "monoid.hilbert.calls": (calls.get("monoid.hilbert", 0), "count"),
        "monoid.hilbert.generators": (extra.get("monoid.hilbert.generators", 0), "count"),
        "monoid.hilbert.early_exit_frac": (frac("monoid.hilbert.early_exits", hilbert_searches), "frac"),
        "monoid.exists_sum.self_s": (self_s.get("monoid.exists_sum", 0.0), "s"),
        "monoid.exists_sum.calls": (calls.get("monoid.exists_sum", 0), "count"),
        "monoid.exists_sum.feasible_frac": (
            frac("monoid.exists_sum.feasible", calls.get("monoid.exists_sum", 0)), "frac"),
        "nullcone.chambers.self_s": (self_s.get("nullcone.chambers", 0.0), "s"),
        "nullcone.chambers.calls": (calls.get("nullcone.chambers", 0), "count"),
        "nullcone.chambers.sets": (extra.get("nullcone.chambers.sets", 0), "count"),
        "nullcone.chambers.repeat_frac": (
            frac("nullcone.chambers.repeats", calls.get("nullcone.chambers", 0)), "frac"),
        "repthy.diagram.self_s": (self_s.get("repthy.diagram", 0.0), "s"),
        "repthy.diagram.calls": (calls.get("repthy.diagram", 0), "count"),
        "repthy.diagram.repeat_frac": (
            frac("repthy.diagram.repeats", calls.get("repthy.diagram", 0)), "frac"),
        "repthy.expand.self_s": (self_s.get("repthy.expand", 0.0), "s"),
        "repthy.expand.points": (extra.get("repthy.expand.points", 0), "count"),
        "repthy.sympow.self_s": (self_s.get("repthy.sympow", 0.0), "s"),
        "repthy.sympow.calls": (calls.get("repthy.sympow", 0), "count"),
        "rootsys.reflect.calls": (calls.get("rootsys.reflect", 0), "count"),
        "rootsys.dominantize.calls": (calls.get("rootsys.dominantize", 0), "count"),
        "slices.cert_frac": (
            frac("slices.bad_slice.certificates", calls.get("slices.bad_slice", 0)), "frac"),
    }
    for name in ("rootsys", "repthy", "monoid", "slices", "nullcone", "classify", "cli"):
        m[f"{name}.self_s"] = (layer.get(name, 0.0), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


def run_workload(h: Harness, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    reference = {(g, m): v for g, m, v, *_ in workloads.load_modules()}
    requests = make_requests(workload, seed, seconds)
    if not trace:
        setup = h.setup_s()
        rep = serve_workload(h, workload, requests, False)
        failed, wrong, reasons = judge_all(requests, rep, reference)
        attempted = len(requests)
        metrics, lines = end_to_end(workload, requests, rep, setup)
    else:
        # untraced and traced runs of the same requests give the overhead; on
        # paper only the short suites run both ways, because the two long
        # suites twice would not fit in one run
        both = [workload != "paper" or a[2] in SHORT_SUITES for a in requests]
        base_reqs = [a for a, b in zip(requests, both) if b]
        base = serve_workload(h, workload, base_reqs, False)
        rep = serve_workload(h, workload, requests, True)
        traced_both = sum(s for s, b in zip(rep["latency_s"], both) if b)
        overhead = traced_both / sum(base["latency_s"]) - 1
        f1, w1, r1 = judge_all(base_reqs, base, reference)
        f2, w2, r2 = judge_all(requests, rep, reference)
        failed, wrong, reasons = f1 + f2, w1 + w2, r1 + r2
        attempted = len(base_reqs) + len(requests)
        trace_data = _merge(rep["traces"])
        metrics = per_layer(trace_data, sum(rep["latency_s"]), overhead)
        dropped = sum(t["dropped_spans"] for t in rep["traces"])
        lines = [f"traced wall {sum(rep['latency_s']):.3f} s, spans {len(trace_data['spans'])}"
                 f" ({dropped} over the cap not kept)"]
        ranked = sorted(trace_data["self_s"].items(), key=lambda kv: -kv[1])[:12]
        lines += [f"  self {v:9.3f} s  calls {trace_data['calls'].get(k, 0):>10}  {k}" for k, v in ranked]
        os.makedirs(h.out_dir, exist_ok=True)
        with open(os.path.join(h.out_dir, f"spans-{workload}-{seed}.json"), "w") as fh:
            json.dump({"fields": ["process", "request", "span", "parent", "name", "start", "end"],
                       "spans": trace_data["spans"]}, fh)
    lines.append(f"fail_frac {failed / attempted:.6f} ({failed} of {attempted})")
    lines += reasons[:20]
    return {
        "workload": workload, "lines": lines, "correct": wrong == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        h = Harness(os.getcwd())
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = []
        for name in names:
            if not args.workload:
                h.deadline = time.monotonic() + RUN_BUDGET_S
            res = run_workload(h, name, args.seed, args.seconds, bool(args.trace) and bool(args.workload))
            results.append(res)
            for line in res["lines"]:
                print(f"[{name}] {line}")
            for k, v in res["metrics"].items():
                print(f"[{name}] {k} {v['value']:.6g} {v['unit']}")
    except RunError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    for res in results:
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
