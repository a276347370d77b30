"""Seeded request generators.  Each workload is a list of CLI argv lists;
the program sees only these, never the seed.  The same seed gives the same
list.

Request costs are heavy-tailed (one rank-3 ``components`` call costs as much
as a thousand ``classify`` calls), so the streams are stratified.  Every kind
of request has a fixed count; rows of the tables in ``bench/data`` are taken
at equal steps through the rows sorted by cost; and of several such samples
of a kind the one whose predicted total cost is nearest the mean of them all
is kept.  Every seed then gets nearly the same cost profile with different
rows, repeats and order.  Costs are predicted from
the tables, which were timed at the commit they were made on; otherwise the
spread between seeds would hide any change in the program.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
from functools import lru_cache

import lie

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

PAPER_SUITES = (
    "torus", "sl2", "exceptional", "classical", "semisimple", "sl3", "appendixA", "appendixB",
)

QUERY_GROUPS = (
    "A1 A2 B2 G2 A3 B3 C3 D4 F4 A1xA1 A1xA2 A2xA2 A1xG2 B2xB2 A1xA1xA1".split()
)
# groups whose classify driver wants modules of the adjoint group
ADJOINT_DRIVER_GROUPS = ("B2", "G2", "A3", "B3", "C3", "D4", "F4")
CHAMBER_MAX_RANK = 3
MAX_QUERY_DIM = 48

# share of each request kind in the queries stream
QUERY_MIX = (
    ("classify", 0.57),
    ("covariant", 0.15),
    ("components", 0.10),
    ("torus", 0.10),
    ("outside", 0.0533),
    ("reducible", 0.0267),
)
QUERY_REPEAT = 0.4
# modules whose components or covariant-vanish call took longer than this
# when the table was made (two A1xA2 modules, 5.5-6.8 s) are left out of the
# chamber pool: with a few dozen chamber requests per run, drawing one of
# them or not would swing a run by half
CHAMBER_MAX_MS = 4000
# samples of each kind of request per seed, of which the one nearest the
# mean cost is used
BALANCE_TRIES = 301

WEIGHT_GROUPS = "A1 A2 A3 A4 B2 B3 B4 C3 C4 D4 D5 G2 F4 E6 E7".split()
WEIGHTS_MAX_DIM = 2_000_000
# with the duplicates the rule draws by itself, about a third of the
# requests repeat an earlier one
WEIGHTS_REPEAT = 0.26


def module_text(summands) -> str:
    return "+".join(
        ("" if c == 1 else f"{c}*") + "[" + ",".join(map(str, hw)) + "]" for c, hw in summands
    )


def _candidates(group: str):
    """Modules with 1-2 summands, labels 0..2, multiplicity 1..3, dim <= 48."""
    hws = [hw for hw in itertools.product(range(3), repeat=lie.rank(group)) if any(hw)]
    dims = {hw: lie.weyl_dim(group, hw) for hw in hws}
    for hw in hws:
        for c in (1, 2, 3):
            if c * dims[hw] <= MAX_QUERY_DIM:
                yield ((c, hw),)
    for a, b in itertools.combinations(hws, 2):
        for ca, cb in itertools.product((1, 2, 3), repeat=2):
            if ca * dims[a] + cb * dims[b] <= MAX_QUERY_DIM:
                yield ((ca, a), (cb, b))


def _in_domain(group: str, summands) -> bool:
    if "x" in group:
        return len(summands) == 1 and summands[0][0] == 1
    if group in ADJOINT_DRIVER_GROUPS:
        return all(lie.in_root_lattice(group, hw) for _, hw in summands)
    return True


def classify_domain() -> list[tuple[str, str]]:
    return [
        (g, module_text(s)) for g in QUERY_GROUPS for s in _candidates(g) if _in_domain(g, s)
    ]


@lru_cache(maxsize=None)
def outside_domain() -> dict[str, list[tuple[str, str]]]:
    """Requests whose correct outcome is exit 2, by reason."""
    out: dict[str, list[tuple[str, str]]] = {"outside": [], "reducible": []}
    for g in QUERY_GROUPS:
        for s in _candidates(g):
            if g in ADJOINT_DRIVER_GROUPS and not _in_domain(g, s):
                out["outside"].append((g, module_text(s)))
            elif "x" in g and not _in_domain(g, s):
                out["reducible"].append((g, module_text(s)))
    return out


@lru_cache(maxsize=None)
def _table(name: str) -> tuple:
    with open(os.path.join(DATA, name)) as fh:
        return tuple(tuple(r) for r in json.load(fh))


def load_modules() -> tuple:
    """Rows ``(group, module, reference verdict, classify ms, components ms,
    covariant target, covariant degree, covariant ms)``; the last four are
    None above rank 3."""
    return _table("modules.json")


def _kind_counts(n: int, mix) -> dict[str, int]:
    counts = {k: int(n * share) for k, share in mix}
    rest = sorted(mix, key=lambda kv: -(n * kv[1] - int(n * kv[1])))
    for k, _ in rest[: n - sum(counts.values())]:
        counts[k] += 1
    return counts


def _systematic(rng: random.Random, rows: list, k: int) -> list:
    """k rows at equal steps through ``rows`` from a random start: every row
    is equally likely to be taken, and the sample keeps the order statistics
    of the whole list."""
    n = len(rows)
    start = rng.random()
    return [rows[int((start + i) * n / k)] for i in range(k)] if n and k > 0 else []


def _stratified(rng: random.Random, rows, cost, k: int, repeat: float) -> list:
    """k rows, a share ``repeat`` of them repeats of earlier ones, both taken
    at equal steps through rows sorted by cost.  Of ``BALANCE_TRIES`` such
    samples the one whose total cost is nearest the mean of them all is kept,
    so each kind of request costs about the same on every seed."""
    n_repeat = int(k * repeat)
    ordered = sorted(rows, key=cost)
    samples = []
    for _ in range(BALANCE_TRIES):
        first = _systematic(rng, ordered, k - n_repeat)
        sample = first + _systematic(rng, sorted(first, key=cost), n_repeat)
        samples.append((sum(map(cost, sample)), sample))
    mean = statistics.fmean(total for total, _ in samples)
    return min(samples, key=lambda ts: abs(ts[0] - mean))[1]


def _with_repeats(rng: random.Random, make, k: int, repeat: float) -> list:
    first = [make() for _ in range(k - int(k * repeat))]
    return first + [rng.choice(first) for _ in range(int(k * repeat))] if first else []


def torus_weights(rng: random.Random) -> str:
    """A --weights value: rank 1, 2-8 weights in -6..6; rank 2, 2-6 in -3..3."""
    if rng.random() < 0.5:
        ws = [rng.choice([x for x in range(-6, 7) if x]) for _ in range(rng.randint(2, 8))]
        return ",".join(map(str, ws))
    vecs = [v for v in itertools.product(range(-3, 4), repeat=2) if any(v)]
    ws = [rng.choice(vecs) for _ in range(rng.randint(2, 6))]
    return ";".join(f"({a},{b})" for a, b in ws)


def queries(seed: int, n: int) -> list[list[str]]:
    rng = random.Random(f"queries-{seed}")
    counts = _kind_counts(n, QUERY_MIX)
    rows = load_modules()
    chamber = [r for r in rows if r[4] is not None and max(r[4], r[7]) <= CHAMBER_MAX_MS]
    ood = outside_domain()
    out = [
        ["classify", r[0], r[1]]
        for r in _stratified(rng, rows, lambda r: r[3], counts["classify"], QUERY_REPEAT)
    ]
    out += [
        ["components", r[0], r[1]]
        for r in _stratified(rng, chamber, lambda r: r[4], counts["components"], QUERY_REPEAT)
    ]
    out += [
        ["covariant-vanish", r[0], r[1], "--target", r[5], "--degree", str(r[6])]
        for r in _stratified(rng, chamber, lambda r: r[7], counts["covariant"], QUERY_REPEAT)
    ]
    out += [
        [command, weights]
        for command, weights, _ in _stratified(
            rng, _table("torus.json"), lambda r: r[2], counts["torus"], QUERY_REPEAT
        )
    ]
    for kind in ("outside", "reducible"):
        out += _with_repeats(
            rng, lambda: ["classify", *rng.choice(ood[kind])], counts[kind], QUERY_REPEAT
        )
    rng.shuffle(out)
    return out


def weights(seed: int, n: int) -> list[list[str]]:
    rng = random.Random(f"weights-{seed}")
    pool = _table("weights.json")
    # the costliest request (E6 [0,0,0,0,3,0], dim 1.6e6) sets the peak memory
    # of a run, 10 % above the next; it is drawn on every seed so that the
    # peak does not depend on the seed
    top = max(pool, key=lambda r: r[3])
    rest = [r for r in pool if r[:2] != top[:2]]
    rows = [top] + _stratified(rng, rest, lambda r: r[3], n - 1, WEIGHTS_REPEAT)
    rng.shuffle(rows)
    return [["weights", g, hw] for g, hw, *_ in rows]


def paper() -> list[list[str]]:
    return [["verify-paper", "--suite", s] for s in PAPER_SUITES]
