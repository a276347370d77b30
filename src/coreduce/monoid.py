"""Hilbert bases of weight-relation monoids and bounded integer feasibility.

The central object is the monoid of nonnegative integer relations
``sum_i m_i * a_i = 0`` among a list of integer vectors ``a_i`` (torus
weights in scaled coordinates).  Its unique minimal generating set — the
indecomposable relations — is computed by Contejean–Devié completion.  A
weight list is *coreduced for the torus* exactly when every generator has
all coefficients in {0, 1}.

Both searches skip work that cannot change an answer:

- The minimality test of the completion is indexed.  Generators are kept
  by (coordinate, coefficient) and by support bitmask; a child ``x + e_j``
  of a candidate is compared only with generators whose j-th coefficient
  equals the child's, and a popped candidate only with generators found
  after it was pushed.  Candidates, their order and the generators are
  those of the plain scan.
- ``exists_sum`` bounds every partial sum by the values a linear
  functional can still add: with ``rem`` summands left, each worth between
  ``lo`` and ``hi``, a state of value ``v`` survives only if
  ``v + rem*lo <= T <= v + rem*hi`` for the target value ``T``.  The bound
  holds for each coordinate and for an optional grading, such as the
  cocharacter of an admissible set, which is positive on every weight.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .config import DEFAULT_LIMITS, Limits, ResourceLimitError

Vec = tuple[int, ...]


@dataclass(frozen=True)
class Relation:
    """Nonnegative coefficients with sum_i coeffs[i] * weights[i] = 0."""

    coeffs: Vec

    @property
    def degree(self) -> int:
        return sum(self.coeffs)

    @property
    def max_coeff(self) -> int:
        return max(self.coeffs, default=0)

    def verify(self, weights: Sequence[Vec]) -> bool:
        dim = len(weights[0]) if weights else 0
        return all(
            sum(m * w[j] for m, w in zip(self.coeffs, weights)) == 0 for j in range(dim)
        )


@dataclass(frozen=True)
class HilbertBasis:
    weights: tuple[Vec, ...]
    generators: tuple[Relation, ...]


# A generator as the minimality index stores it: its support bitmask and its
# nonzero (index, coefficient) pairs.
_Gen = tuple[int, tuple[tuple[int, int], ...]]


def _covers(y: Vec, ymask: int, gen: _Gen) -> bool:
    """y >= gen componentwise; the support mask rejects most pairs at once."""
    mask, items = gen
    return not mask & ~ymask and all(y[i] >= c for i, c in items)


def iter_hilbert_basis(
    weights: Sequence[Vec], limits: Limits = DEFAULT_LIMITS
) -> Iterator[Relation]:
    """Yield the indecomposable relations among ``weights`` (Contejean–Devié).

    Candidates are explored in order of increasing coefficient sum, so each
    solution is emitted before any solution it could decompose through; the
    minimality pruning against previously found generators is therefore
    complete, and early consumers (e.g. the 0/1 test) may stop at the first
    interesting generator.

    The minimality test is indexed rather than a scan of every generator.
    A candidate is pushed only if it dominates none of the generators known
    at that moment, so when it is popped only the generators found since
    need checking.  Its child ``y = x + e_j`` can dominate a generator ``m``
    only if ``m[j] == y[j]`` (x dominates none of them), so the child is
    checked against that one bucket of the index.
    """
    n = len(weights)
    if n == 0:
        return
    dim = len(weights[0])
    if any(len(w) != dim for w in weights):
        raise ValueError("weights must share a dimension")
    if any(all(x == 0 for x in w) for w in weights):
        raise ValueError("zero weights must be discarded before basis computation")

    def dot(a: Vec, b: Vec) -> int:
        return sum(x * y for x, y in zip(a, b))

    found: list[_Gen] = []
    by_coord: dict[tuple[int, int], list[_Gen]] = {}  # (j, m[j]) -> generators
    visited: set[Vec] = set()
    # heap entries: (degree, coeffs, support mask, len(found) at push, value);
    # coeffs are unique, so the last three never take part in the ordering
    heap: list[tuple[int, Vec, int, int, Vec]] = []
    for i, w in enumerate(weights):
        e = tuple(int(j == i) for j in range(n))
        heap.append((1, e, 1 << i, 0, w))
        visited.add(e)
    heapq.heapify(heap)
    examined = 0
    while heap:
        deg, x, xmask, known, val = heapq.heappop(heap)
        examined += 1
        if examined > limits.max_candidates:
            raise ResourceLimitError(
                f"hilbert basis search exceeded {limits.max_candidates} candidates"
            )
        if any(_covers(x, xmask, m) for m in found[known:]):
            continue
        if all(v == 0 for v in val):
            gen = (xmask, tuple((i, c) for i, c in enumerate(x) if c))
            found.append(gen)
            for i, c in gen[1]:
                by_coord.setdefault((i, c), []).append(gen)
            if len(found) > limits.max_generators:
                raise ResourceLimitError(
                    f"hilbert basis exceeded {limits.max_generators} generators"
                )
            yield Relation(x)
            continue
        for j, w in enumerate(weights):
            if dot(val, w) < 0:
                y = x[:j] + (x[j] + 1,) + x[j + 1 :]
                if y in visited:
                    continue
                ymask = xmask | 1 << j
                if any(_covers(y, ymask, m) for m in by_coord.get((j, y[j]), ())):
                    continue
                visited.add(y)
                heapq.heappush(
                    heap,
                    (deg + 1, y, ymask, len(found), tuple(a + b for a, b in zip(val, w))),
                )


def hilbert_basis(weights: Sequence[Vec], limits: Limits = DEFAULT_LIMITS) -> HilbertBasis:
    ws = tuple(tuple(w) for w in weights)
    gens = tuple(iter_hilbert_basis(ws, limits))
    return HilbertBasis(ws, gens)


@dataclass(frozen=True)
class TorusVerdict:
    coreduced: bool
    weights: tuple[Vec, ...]
    certificate: Optional[Relation]  # a generator with a coefficient >= 2


def is_torus_coreduced(
    weights: Sequence[Vec], limits: Limits = DEFAULT_LIMITS
) -> TorusVerdict:
    """Decide whether every indecomposable relation has 0/1 coefficients.

    Zero weights are discarded first (they impose no relation constraints
    beyond a free coordinate).  Stops at the first violating generator.
    """
    ws = tuple(tuple(w) for w in weights if any(x != 0 for x in w))
    for gen in iter_hilbert_basis(ws, limits):
        if gen.max_coeff >= 2:
            return TorusVerdict(False, ws, gen)
    return TorusVerdict(True, ws, None)


# ---------------------------------------------------------------------------
# Bounded feasibility: sum x_i w_i = target with a count constraint.


@dataclass(frozen=True)
class SumWitness:
    feasible: bool
    # indices into the weight list, one per summand, sorted
    chosen: Optional[tuple[int, ...]]


def exists_sum(
    weights: Sequence[Vec],
    target: Vec,
    count: int,
    mode: str = "exact_count",
    limits: Limits = DEFAULT_LIMITS,
    grading: Optional[Sequence[Fraction | int]] = None,
) -> SumWitness:
    """Decide solvability of sum_i x_i * weights[i] = target, x_i in N.

    mode "exact_count": sum x_i = count; mode "at_most": sum x_i <= count.
    Level-by-level dynamic programming with exact arithmetic; a witness
    multiset (as a tuple of weight indices) is reconstructed.

    States that cannot reach the target are dropped.  For a linear
    functional f with lo <= f(w) <= hi over the weights, a partial sum s with
    ``rem`` steps left must satisfy f(s) + rem*lo <= f(target) <= f(s) +
    rem*hi (in "at_most" mode the remainder lies in [min(0, rem*lo),
    max(0, rem*hi)]).  This is applied to every coordinate and, when given,
    to the rational functional ``grading`` (scaled once to integers).  A
    grading positive on every weight, such as a cocharacter on its
    admissible set, bounds the degree: the search then often ends before
    the first level.
    """
    if mode not in ("exact_count", "at_most"):
        raise ValueError(f"unknown mode {mode!r}")
    target = tuple(target)
    ws = [tuple(w) for w in weights]
    if any(len(w) != len(target) for w in ws):
        raise ValueError("weight/target dimension mismatch")
    if all(x == 0 for x in target) and (mode == "at_most" or count == 0):
        return SumWitness(True, ())
    if not ws:
        return SumWitness(False, None)
    if grading is not None:
        # the value becomes one more coordinate of every vector
        if len(grading) != len(target):
            raise ValueError("grading/target dimension mismatch")
        scale = math.lcm(*(Fraction(g).denominator for g in grading))
        ints = [int(g * scale) for g in grading]
        target += (sum(g * x for g, x in zip(ints, target)),)
        ws = [w + (sum(g * x for g, x in zip(ints, w)),) for w in ws]
    lo = [min(col) for col in zip(*ws)]
    hi = [max(col) for col in zip(*ws)]

    def window(lvl: int) -> list[tuple[int, int]]:
        rem = count - lvl
        if mode == "exact_count":
            return [(t - rem * h, t - rem * l) for t, l, h in zip(target, lo, hi)]
        return [
            (t - max(0, rem * h), t - min(0, rem * l))
            for t, l, h in zip(target, lo, hi)
        ]

    def reachable(s: Vec, win: list[tuple[int, int]]) -> bool:
        return all(a <= x <= b for x, (a, b) in zip(s, win))

    zero = tuple(0 for _ in target)
    if count < 1 or not reachable(zero, window(0)):
        return SumWitness(False, None)
    # parent[(level, sum)] = (previous sum, weight index)
    parent: dict[tuple[int, Vec], tuple[Vec, int]] = {}
    level: set[Vec] = {zero}
    states = 1

    def witness(lvl: int, s: Vec) -> tuple[int, ...]:
        out = []
        while lvl > 0:
            s_prev, j = parent[(lvl, s)]
            out.append(j)
            s, lvl = s_prev, lvl - 1
        return tuple(sorted(out))

    for lvl in range(1, count + 1):
        win = window(lvl)
        nxt: set[Vec] = set()
        dropped: set[Vec] = set()
        for s in level:
            for j, w in enumerate(ws):
                t = tuple(a + b for a, b in zip(s, w))
                if t in nxt or t in dropped:
                    continue
                if not reachable(t, win):
                    dropped.add(t)
                    continue
                nxt.add(t)
                states += 1
                if states > limits.dp_state_limit:
                    raise ResourceLimitError("exists_sum state limit exceeded")
                parent[(lvl, t)] = (s, j)
        if target in nxt and (mode == "at_most" or lvl == count):
            return SumWitness(True, witness(lvl, target))
        level = nxt
    return SumWitness(False, None)

