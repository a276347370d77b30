"""Regenerate the benchmark's tables in ``bench/data``:

- ``modules.json``: the classify domain of the ``queries`` workload, one row
  ``[group, module, reference verdict, classify ms, components ms,
  covariant target, covariant degree, covariant-vanish ms]``, the last five
  null above rank 3;
- ``weights.json``: the pool of ``weights`` requests, one row
  ``[group, highest weight, Weyl dimension, first-call ms, repeat ms]``;
- ``torus.json``: the pool of ``torus-check`` and ``hilbert-basis``
  requests, one row ``[command, --weights argument, ms]``.

The verdicts are the reference that later versions of the program are
checked against.  The times only predict the cost of a request, so that a
run can take a sample with the same cost profile on every seed: each is the
median over three passes of the whole table, shuffled, through the serving
process, scaled to the reference speed of ``speed.py`` as in a run.

Run from the repository root: ``python3 bench/tables.py``.  Regenerate only
on purpose, say why, and measure the baseline again.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys

import lie
import speed
import workloads

PASSES = 3
TORUS_POOL = 300


def stream(argvs: list[list[str]]) -> tuple[dict, dict]:
    """Per argv, its scaled ms in each pass (twice listed: first and repeat
    times), and its output in the first pass."""
    times: dict[tuple, list[list[float]]] = {}
    outputs: dict[tuple, dict] = {}
    src = os.path.join(os.getcwd(), "src")
    for p in range(PASSES):
        order = list(argvs)
        random.Random(f"pass-{p}").shuffle(order)
        job = json.dumps({"src": src, "requests": order, "trace": False})
        done = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__), "serve.py")],
            input=job, capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        results = json.loads(done.stdout)["results"]
        scaled = speed.scaled([r["s"] for r in results], [[r["probe_s"]] for r in results])
        seen: dict[tuple, int] = {}
        for argv, res, s in zip(order, results, scaled):
            key = tuple(argv)
            k = seen[key] = seen.get(key, -1) + 1
            times.setdefault(key, [[] for _ in range(2)])[min(k, 1)].append(1000 * s)
            outputs.setdefault(key, res)
        print(f"pass {p}: {len(order)} requests", flush=True)
    return times, outputs


def median_ms(values: list[float]) -> float:
    return round(statistics.median(values), 3)


def covariant_argv(group: str, module: str) -> list[str]:
    rng = random.Random(f"covariant-{group}-{module}")
    target = "[" + ",".join(str(rng.randint(0, 1)) for _ in range(lie.rank(group))) + "]"
    degree = str(rng.randint(1, 6))
    return ["covariant-vanish", group, module, "--target", target, "--degree", degree]


def modules_table() -> list[list]:
    domain = workloads.classify_domain()
    argvs = [["classify", g, m] for g, m in domain]
    chamber = [(g, m) for g, m in domain if lie.rank(g) <= workloads.CHAMBER_MAX_RANK]
    argvs += [["components", g, m] for g, m in chamber]
    argvs += [covariant_argv(g, m) for g, m in chamber]
    times, outputs = stream(argvs)
    rows = []
    for g, m in domain:
        res = outputs[("classify", g, m)]
        if res["rc"] not in (0, 1):
            raise SystemExit(f"classify {g} {m}: exit {res['rc']}\n{res['exc'] or res['err']}")
        verdict = json.loads(res["out"])["rows"][0]["coreduced"]
        row = [g, m, verdict, median_ms(times[("classify", g, m)][0]), None, None, None, None]
        if (g, m) in chamber:
            cov = covariant_argv(g, m)
            row[4:] = [median_ms(times[("components", g, m)][0]), cov[4], int(cov[6]),
                       median_ms(times[tuple(cov)][0])]
        rows.append(row)
    return rows


def weights_pool(size: int = 1200) -> list[tuple[str, str, int]]:
    """Requests drawn by the workload's rule, duplicates kept: a group, then
    each label from 0..4 with probability 0.6 and 0 otherwise, redrawn
    unless 0 < Weyl dim <= 2e6."""
    rng = random.Random("weights-pool")
    pool = []
    while len(pool) < size:
        g = rng.choice(workloads.WEIGHT_GROUPS)
        hw = tuple(rng.randint(0, 4) if rng.random() < 0.6 else 0 for _ in range(lie.rank(g)))
        dim = lie.weyl_dim(g, hw) if any(hw) else 0
        if 0 < dim <= workloads.WEIGHTS_MAX_DIM:
            pool.append((g, "[" + ",".join(map(str, hw)) + "]", dim))
    return pool


def weights_table() -> list[list]:
    pool = weights_pool()
    distinct = sorted({(g, hw) for g, hw, _ in pool})
    # every request twice: the first call pays for the diagram, a repeat finds it cached
    times, _ = stream([["weights", g, hw] for g, hw in distinct] * 2)
    return [
        [g, hw, dim, *(median_ms(t) for t in times[("weights", g, hw)])] for g, hw, dim in pool
    ]


def torus_table() -> list[list]:
    rng = random.Random("torus-pool")
    pool = [
        [rng.choice(["torus-check", "hilbert-basis"]), f"--weights={workloads.torus_weights(rng)}"]
        for _ in range(TORUS_POOL)
    ]
    times, _ = stream(pool)
    return [[*argv, median_ms(times[tuple(argv)][0] + times[tuple(argv)][1])] for argv in pool]


def write(name: str, rows: list[list]) -> None:
    with open(os.path.join(workloads.DATA, name), "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")


if __name__ == "__main__":
    which = sys.argv[1:] or ["torus", "weights", "modules"]
    for name, make in (("torus", torus_table), ("weights", weights_table), ("modules", modules_table)):
        if name in which:
            write(f"{name}.json", make())
