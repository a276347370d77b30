"""Hilbert bases of weight-relation monoids and bounded integer feasibility.

The central object is the monoid of nonnegative integer relations
``sum_i m_i * a_i = 0`` among a list of integer vectors ``a_i`` (torus
weights in scaled coordinates).  Its unique minimal generating set — the
indecomposable relations — is computed by Contejean–Devié completion.  A
weight list is *coreduced for the torus* exactly when every generator has
all coefficients in {0, 1}.

The Hilbert search runs on packed integers, and both searches skip work
that cannot change an answer:

- A candidate's coefficients ``x`` over ``n`` weights are one int with a
  field per weight, ``x[0]`` in the most significant, so int order is
  tuple order.  A field has ``(HILBERT_COORD_CAP // n + 1).bit_length()``
  bits, enough for any coefficient the cap lets the search reach, and a
  guard bit on top: ``m <= y`` componentwise exactly when
  ``(y | GUARD) - m`` keeps every guard bit.  The pairings ``<val, w>`` of
  the candidate's value ``val = sum_i x_i * a_i`` with each weight
  are a second int, one biased byte-aligned field each, summed from the
  candidate's support by the packed Gram rows of its weights when it is
  expanded, and a child's is its parent's plus one row.  A negative pairing
  is a field with its top bit clear.  Above them the int holds ``val``.
- A stored candidate is its coefficient int and its support mask, and
  nothing more: a level's relations are kept apart from the candidates it
  expands, and each candidate is dropped as it is expanded.
- The completion runs one degree at a time: a candidate ``x`` names its
  child ``x + e_j`` that is a relation, ``val(x) == -w_j``, as it is
  made, and a degree's generators are yielded, sorted, before its other
  candidates are made.  The F4 slice of the ``exceptional`` suite answers
  at degree 6 after 2,018 candidates, never making the 5,534 others of
  degree 6.  Each candidate is checked once, as it is made, against the
  generators of lower degree, the only ones it can dominate.  The check is
  indexed: generators are kept by (coordinate, coefficient) and by support
  bitmask, and a child ``x + e_j`` is compared only with generators whose
  j-th coefficient equals the child's.  The generators and their order are
  those of the plain scan.
- Multiplicities do not change the search.  A relation is indecomposable
  exactly when the relation it induces on the distinct weights is, since a
  decomposition of the induced relation splits back over the copies, so
  the Hilbert basis of a list is every way to spread each generator of its
  distinct weights over the copies.  The search runs on the distinct
  weights, ordered by their last copy, where spreading a relation onto the
  last copies keeps the tuple order: the torus verdict puts its first
  violating generator there and spreads nothing, and
  ``iter_hilbert_basis`` lists every spread of each degree, merged lazily,
  each counted against both caps.  The list ``(-1,-2,2)`` three times,
  ``(2,2,-1)``, ``(-1,1,-2)`` twice answers ``coreduced`` after 573
  candidates in 295 degrees on its three distinct weights.
- A symmetry of a list of distinct weights, given as index permutations
  (the simple reflections acting on a toral slice), shrinks the search: it
  starts from one weight per orbit, and each level's generators are closed
  under the permutations.  The F4 slice of the ``exceptional``
  suite, 24 weights in one W(F4)-orbit, stores 2,018 candidates instead of
  18,818.
- ``exists_sum`` bounds every partial sum by the values a linear
  functional can still add: with ``rem`` summands left, each worth between
  ``lo`` and ``hi``, a state of value ``v`` survives only if
  ``v + rem*lo <= T <= v + rem*hi`` for the target value ``T``.  The bound
  holds for each coordinate and for an optional grading, such as the
  cocharacter of an admissible set, which is positive on every weight.

Each search is a pure function of its input, so each is memoized in a
bounded ``functools.lru_cache`` keyed on that input as tuples, in the order
given (the order fixes the coefficient order of a certificate, so no key is
sorted), ``config.MEMO_SIZE`` entries each: ``is_torus_coreduced`` on the
nonzero weights and the symmetry permutations, ``hilbert_basis`` on the weights,
and ``exists_sum`` on the weights, target, count and grading.  Only
immutable values are stored: the frozen ``TorusVerdict``, ``Relation`` and
``SumWitness``, and tuples of them.  A search stopped by a cap raises, and
``lru_cache`` stores no exception, so a repeat runs the search again and
stops at the same count.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from math import comb, prod
from typing import Iterator, NamedTuple, Optional, Sequence

from .config import MEMO_SIZE, ResourceLimitError, require
from .rootsys import closure

Vec = tuple[int, ...]

# The caps of the two searches.  A hit raises ResourceLimitError (the CLI
# exits 3) instead of running until memory is exhausted.
SUM_STATE_CAP = 50_000_000
"""DP states that ``exists_sum`` may create."""
HILBERT_COORD_CAP = 16_000_000
"""Coordinates the Hilbert search may store: the candidates it has stored
times the number of weights, checked as each candidate is stored.  The
largest search of the recorded paper computations stores 48,432 (2,018
candidates of 24 coefficients, F4 in the ``exceptional`` suite); the two
toral slices that once filled a 1 GB address space did so at 111 and 125
million.  The cap also fixes the width of a packed coefficient field: it
bounds the degree, and so every coefficient, of a candidate the search
reaches."""
HILBERT_GENERATOR_CAP = 100_000
"""Generators the Hilbert search may find."""

class Relation(NamedTuple):
    """Nonnegative coefficients with sum_i coeffs[i] * weights[i] = 0."""

    coeffs: Vec

    @property
    def degree(self) -> int:
        return sum(self.coeffs)


def _check_stored(candidates: int, n: int) -> None:
    if candidates * n > HILBERT_COORD_CAP:
        raise ResourceLimitError(
            "monoid.hilbert", "HILBERT_COORD_CAP", HILBERT_COORD_CAP, candidates * n,
            f"hilbert basis search: {candidates} candidates of {n} coefficients "
            "make {count} coordinates",
        )


def _repunit(width: int, count: int) -> int:
    """``count`` fields of ``width`` bits, each holding 1."""
    return ((1 << width * count) - 1) // ((1 << width) - 1)


def _check_found(found: int) -> None:
    if found > HILBERT_GENERATOR_CAP:
        raise ResourceLimitError(
            "monoid.hilbert", "HILBERT_GENERATOR_CAP", HILBERT_GENERATOR_CAP, found,
            "hilbert basis search found {count} generators",
        )


def _distinct(ws: Sequence[Vec]) -> tuple[list[Vec], list[list[int]]]:
    """The distinct weights of ``ws``, ordered by their last copy, and the
    increasing indices of each one's copies.  A list without repeats is its
    own distinct list, in its own order."""
    copies: dict[Vec, list[int]] = {}
    for j, w in enumerate(ws):
        copies.setdefault(w, []).append(j)
    distinct = sorted(copies, key=lambda w: copies[w][-1])
    return distinct, [copies[w] for w in distinct]


def _spread(generator: Vec, copies: list[list[int]], n: int) -> Iterator[Vec]:
    """Every way to spread the coefficients of ``generator``, a relation
    among distinct weights, over the copies of each weight (``copies[k]``
    the indices of weight k's copies among ``n``), in increasing order.
    The least puts each coefficient on its weight's last copy.  The next
    after ``x`` raises by 1 the last index j whose weight holds something
    at a later copy, taking the 1 from there, and puts what each weight
    then holds after j on its last copy: the least spread above ``x``."""
    x = [0] * n
    free = []  # (index, weight, whether it is the weight's last copy)
    for k, c in enumerate(generator):
        if c:
            x[copies[k][-1]] = c
            free += [(j, k, j == copies[k][-1]) for j in copies[k]]
    free.sort()
    while True:
        yield tuple(x)
        after = [0] * len(generator)  # what each weight holds after index j
        for i in range(len(free) - 1, -1, -1):
            j, k, _ = free[i]
            if after[k]:
                break
            after[k] += x[j]
        else:
            return
        x[j] += 1
        after[k] -= 1
        for j, k, last in free[i + 1 :]:
            x[j] = after[k] if last else 0


def iter_hilbert_basis(weights: Sequence[Vec]) -> Iterator[Relation]:
    """Yield the indecomposable relations among ``weights`` (Contejean–Devié),
    in order of degree and, within a degree, of coefficient tuple, one
    degree at a time, so early consumers may stop at the first interesting
    generator.

    A relation is indecomposable exactly when the relation it induces on
    the distinct weights is: a decomposition of the induced relation splits
    back over the copies.  So the search runs on the distinct weights,
    ordered by their last copy, and each degree lists every way to spread
    each of its generators over the copies, merged lazily.  Each listed
    relation counts against both caps, so what a caller keeps stays under
    ``HILBERT_COORD_CAP``: a degree's spreads, c + m - 1 choose c for a
    coefficient c on m copies, count against it before any is listed."""
    ws = [tuple(w) for w in weights]
    n = len(ws)
    distinct, copies = _distinct(ws)
    found = 0
    for generators in _degrees(distinct, ()):
        if len(distinct) < n:
            spreads = sum(
                prod(comb(c + len(js) - 1, c) for c, js in zip(g, copies)) for g in generators
            )
            # a cap error names the first relation past the cap
            _check_stored(min(found + spreads, HILBERT_COORD_CAP // n + 1), n)
            generators = heapq.merge(*(_spread(g, copies, n) for g in generators))
        for coeffs in generators:
            found += 1
            _check_found(found)
            yield Relation(coeffs)


def _degrees(weights: Sequence[Vec], symmetry: Sequence[Sequence[int]]) -> Iterator[list[Vec]]:
    """The indecomposable relations among the distinct ``weights``, one
    degree at a time, each degree's generators sorted.

    The completion runs level by level, relations first.  A child ``x +
    e_j`` is a relation exactly when ``val(x) == -w_j``, so ``x`` names at
    most one, the weights being distinct, as it is made.  Each is checked
    once against every generator of lower degree, so the relations kept
    are minimal, and the degree is yielded before its other candidates are
    made, which happens only if the consumer resumes.  A child can
    dominate only generators of lower degree, so that one check is complete.

    The check is indexed rather than a scan of every generator.  A child
    ``y = x + e_j`` of ``x`` can dominate a generator ``m`` only if
    ``m[j] == y[j]``, because ``x`` dominates none of them, so the child is
    compared only with that one bucket of the index.

    ``symmetry`` lists permutations of the indices that map the weight list
    onto itself, such as the simple reflections acting on a Weyl-invariant
    list.  The search then starts from one index per orbit, and each
    level's generators are closed under the permutations before they are
    indexed and yielded.  Every generator orbit has a member whose support
    meets a starting index, and the completion from ``e_r`` reaches every
    minimal relation with ``r`` in its support, so the generators are those
    of the plain search, in the same order.  Each image is checked to be a
    relation.

    A stored candidate is its packed coefficients and its support mask.  A
    level keeps its relations, which are never expanded, in a dict of their
    own.  A candidate is popped as it is expanded, and its pairings are
    summed again from its support.
    """
    n = len(weights)
    if n == 0:
        return
    dim = len(weights[0])
    if any(len(w) != dim for w in weights):
        raise ValueError("weights must share a dimension")
    if any(all(x == 0 for x in w) for w in weights):
        raise ValueError("zero weights must be discarded before basis computation")
    perms = [tuple(p) for p in symmetry]
    if any(sorted(p) != list(range(n)) for p in perms):
        raise ValueError("a symmetry must permute the weight indices")
    starts: list[int] = []  # the least index of each orbit
    seen: set[int] = set()
    for i in range(n):
        if i not in seen:
            starts.append(i)
            seen.update(closure((i,), lambda j: [p[j] for p in perms]))
    stored = len(starts)
    _check_stored(stored, n)  # the unit vectors that start the search

    # Coefficients: field i of the int x holds x[i], x[0] in the most
    # significant field, so comparing ints compares tuples.  A coefficient
    # is at most the degree, and a candidate's degree is at most the number
    # of stored candidates (its ancestors are all stored), which
    # _check_stored keeps at most cap // n while children one degree higher
    # are made: cb - 1 bits hold every coefficient, so no field overflows,
    # and the top bit of each field is a guard for the dominance check.  A symmetry
    # image has the coefficients of a stored generator.
    max_stored = HILBERT_COORD_CAP // n
    deg_cap = max_stored + 1
    cb = deg_cap.bit_length() + 1
    fmask = (1 << cb - 1) - 1
    shift = [cb * (n - 1 - j) for j in range(n)]
    unit = [1 << s for s in shift]
    guard = _repunit(cb, n) << cb - 1

    # Pairings: the int d holds <val, w> for each weight w in a field of nb
    # bytes, plus half the field's range, so a pairing is negative exactly
    # when the top bit of its field is clear.  A pairing is at most
    # deg_cap * max |w|^2 in size, below that half.  Packing is linear, so
    # the Gram row of a weight is its coordinates times the packed
    # coordinate columns, a candidate's d is bias plus its coefficients
    # times the rows of its support, and a child's d its parent's plus one
    # row.
    nb = (deg_cap * max(sum(a * a for a in w) for w in weights)).bit_length() // 8 + 1
    nbytes = nb * n
    half = 1 << 8 * nb - 1
    bias = _repunit(8 * nb, n) << 8 * nb - 1
    cols = [
        int.from_bytes(b"".join((half + w[c]).to_bytes(nb, "little") for w in weights), "little")
        - bias
        for c in range(dim)
    ]
    gram = [sum(a * col for a, col in zip(w, cols)) for w in weights]
    # Values: above the pairings, d holds val in dim signed fields of vb
    # bits, each coordinate below half their range, so d >> top is val's
    # int, and a child's is cheap to read as it is made: its parent's plus
    # one weight's.
    top = 8 * nbytes
    vb = (deg_cap * max(abs(a) for w in weights for a in w)).bit_length() + 1
    value = [sum(a << vb * c for c, a in enumerate(w)) for w in weights]
    # support bit of weight j -> (shift of its field, its Gram row and value)
    unit_row = {1 << j: (shift[j], gram[j] + (value[j] << top)) for j in range(n)}
    # val(x) -> the one j whose child x + e_j is a relation (the weights are
    # distinct)
    zero_child = {-v: j for j, v in enumerate(value)}

    def images(x: int) -> list[int]:
        """The images of the generator x under the permutations, each added
        to ``batch`` with its support the first time it is seen; a new image
        must be a relation."""
        support = batch[x]
        out = []
        for p in perms:
            y = sum(c << shift[p[j]] for j, c in support)
            if y not in batch:
                moved = [(p[j], c) for j, c in support]
                require(
                    not sum(c * value[j] for j, c in moved),
                    "a symmetry maps a relation to a non-relation",
                )
                batch[y] = moved
            out.append(y)
        return out

    def keep(into: dict[int, int], y: int, ymask: int, j: int) -> bool:
        """Store the child ``y = x + e_j`` of a stored ``x`` in ``into``
        unless it dominates a generator; whether it did."""
        nonlocal stored
        # y >= some generator m componentwise: no field of (y | guard) - m
        # borrows from its guard bit; the support masks reject most pairs first
        yg, outside = y | guard, ~ymask
        for mmask, m in by_coord.get((y >> shift[j] & fmask) * n + j, ()):
            if not mmask & outside and (yg - m) & guard == guard:
                return False
        stored += 1
        if stored > max_stored:
            _check_stored(stored, n)
        into[y] = ymask
        return True

    # the minimality index: m[j] * n + j -> (support mask, m) of the
    # generators m
    by_coord: dict[int, list[tuple[int, int]]] = {}
    # the candidates of one degree that are not relations, x -> its support
    # mask, and (x, mask, j) for those whose child x + e_j is a relation
    level = {unit[j]: 1 << j for j in starts}
    pending = [(unit[j], 1 << j, zero_child[value[j]]) for j in starts if value[j] in zero_child]
    yield []  # a weight is never a relation
    while level:
        # the relations of the next degree, before any other candidate of it
        relations: dict[int, int] = {}
        for x, xmask, j in pending:
            y = x + unit[j]
            if y not in relations:
                keep(relations, y, xmask | 1 << j, j)
        # its generators, as sparse supports [(j, x[j])]
        batch = {
            x: [(j, x >> shift[j] & fmask) for j in range(n) if xmask >> j & 1]
            for x, xmask in relations.items()
        }
        if perms:
            closure(list(batch), images)
        generators: list[Vec] = []
        for x in sorted(batch):
            support = batch[x]
            xmask = 0
            coeffs = [0] * n
            for j, c in support:
                xmask |= 1 << j
                coeffs[j] = c
            for j, c in support:
                by_coord.setdefault(c * n + j, []).append((xmask, x))
            generators.append(tuple(coeffs))
        if generators:
            yield generators
        # the relations are in nxt while it is made, so none is made again
        nxt: dict[int, int] = dict.fromkeys(relations, 0)
        pending = []
        while level:
            # a candidate is dropped as it is expanded, and its pairings are
            # summed again from its support
            x, xmask = level.popitem()
            d, rest = bias, xmask
            while rest:
                low = rest & -rest
                at, row = unit_row[low]
                d += (x >> at & fmask) * row
                rest ^= low
            v = d >> top
            # the top byte of each field: 0x80 where the pairing is negative
            negative = (~d & bias).to_bytes(nbytes, "little")[nb - 1 :: nb]
            j = negative.find(0x80)
            while j >= 0:
                y = x + unit[j]
                if y not in nxt and keep(nxt, y, xmask | 1 << j, j):
                    k = zero_child.get(v + value[j])
                    if k is not None:
                        pending.append((y, nxt[y], k))
                j = negative.find(0x80, j + 1)
        for y in relations:
            del nxt[y]
        if nxt and not generators:  # an empty degree, once it has candidates
            yield generators
        level = nxt


def hilbert_basis(weights: Sequence[Vec]) -> tuple[Relation, ...]:
    """Every indecomposable relation among ``weights``, in search order."""
    return _hilbert_basis(tuple(tuple(w) for w in weights))


@lru_cache(maxsize=MEMO_SIZE)
def _hilbert_basis(weights: tuple[Vec, ...]) -> tuple[Relation, ...]:
    return tuple(iter_hilbert_basis(weights))


class TorusVerdict(NamedTuple):
    coreduced: bool
    weights: tuple[Vec, ...]
    certificate: Optional[Relation]  # a generator with a coefficient >= 2


def is_torus_coreduced(
    weights: Sequence[Vec], symmetry: Optional[Sequence[Sequence[int]]] = None
) -> TorusVerdict:
    """Decide whether every indecomposable relation has 0/1 coefficients.

    Zero weights are discarded first (they impose no relation constraints
    beyond a free coordinate); ``symmetry`` (see :func:`_degrees`) needs a
    list without them and without repeated weights.  Stops at the first
    violating generator.
    """
    ws = tuple(tuple(w) for w in weights if any(x != 0 for x in w))
    if symmetry:
        if len(ws) < len(weights):
            raise ValueError("a symmetry needs a weight list without zero weights")
        if len(set(ws)) < len(ws):
            raise ValueError("a symmetry needs a weight list without repeated weights")
    return _torus_verdict(ws, tuple(tuple(p) for p in symmetry or ()))


@lru_cache(maxsize=MEMO_SIZE)
def _torus_verdict(ws: tuple[Vec, ...], symmetry: tuple[tuple[int, ...], ...]) -> TorusVerdict:
    """The first generator with a coefficient >= 2 in the order of
    :func:`iter_hilbert_basis`.  A generator has one exactly when the
    relation it induces on the distinct weights does, and the least way to
    spread a relation over the copies puts each coefficient on its weight's
    last copy, so the search runs on the distinct weights, ordered by last
    copy, and nothing is spread.  Their generators count against
    ``HILBERT_GENERATOR_CAP``."""
    distinct, copies = _distinct(ws)
    found = 0
    for generators in _degrees(distinct, symmetry):
        gen = next((c for c in generators if max(c) >= 2), None)
        if gen is not None:
            coeffs = [0] * len(ws)
            for js, c in zip(copies, gen):
                coeffs[js[-1]] = c
            return TorusVerdict(False, ws, Relation(tuple(coeffs)))
        found += len(generators)
        _check_found(found)
    return TorusVerdict(True, ws, None)


# ---------------------------------------------------------------------------
# Bounded feasibility: sum x_i w_i = target with a count constraint.


class SumWitness(NamedTuple):
    # a wrapper only because the benchmark's tracer reads ``result.feasible``
    feasible: bool


def exists_sum(
    weights: Sequence[Vec],
    target: Vec,
    count: int,
    grading: Optional[Sequence[int]] = None,
) -> SumWitness:
    """Decide whether ``target``, an integer vector, is a sum of exactly
    ``count`` of the integer ``weights``, repetition allowed.

    Level-by-level dynamic programming with exact arithmetic.  States that
    cannot reach the target are dropped: for a linear functional f with
    lo <= f(w) <= hi over the weights, a partial sum s with ``rem`` summands
    left must satisfy f(s) + rem*lo <= f(target) <= f(s) + rem*hi.  This is
    applied to every coordinate and, when given, to the integer functional
    ``grading``.  A grading positive on every weight, such as a cocharacter
    on its admissible set, bounds the degree: the search then often ends
    before the first level.
    """
    ws = tuple(tuple(w) for w in weights)
    return _exists_sum(ws, tuple(target), count, None if grading is None else tuple(grading))


@lru_cache(maxsize=MEMO_SIZE)
def _exists_sum(
    ws: tuple[Vec, ...], target: Vec, count: int, grading: Optional[Vec]
) -> SumWitness:
    if any(len(w) != len(target) for w in ws):
        raise ValueError("weight/target dimension mismatch")
    if count == 0 and all(x == 0 for x in target):
        return SumWitness(True)
    if grading is not None:
        # the value becomes one more coordinate of every vector
        if len(grading) != len(target):
            raise ValueError("grading/target dimension mismatch")
        target += (sum(g * x for g, x in zip(grading, target)),)
        ws = tuple(w + (sum(g * x for g, x in zip(grading, w)),) for w in ws)
    lo = [min(col) for col in zip(*ws)]
    hi = [max(col) for col in zip(*ws)]

    def window(lvl: int) -> list[tuple[int, int]]:
        rem = count - lvl
        return [(t - rem * h, t - rem * l) for t, l, h in zip(target, lo, hi)]

    def reachable(s: Vec, win: list[tuple[int, int]]) -> bool:
        return all(a <= x <= b for x, (a, b) in zip(s, win))

    zero = tuple(0 for _ in target)
    if count < 1 or not reachable(zero, window(0)):
        return SumWitness(False)
    level: set[Vec] = {zero}
    states = 1
    for lvl in range(1, count + 1):
        win = window(lvl)
        nxt: set[Vec] = set()
        dropped: set[Vec] = set()
        for s in level:
            for w in ws:
                t = tuple(a + b for a, b in zip(s, w))
                if t in nxt or t in dropped:
                    continue
                if not reachable(t, win):
                    dropped.add(t)
                    continue
                nxt.add(t)
                states += 1
                if states > SUM_STATE_CAP:
                    raise ResourceLimitError(
                        "monoid.exists_sum", "SUM_STATE_CAP", SUM_STATE_CAP, states,
                        "exists_sum created {count} DP states",
                    )
        level = nxt
    return SumWitness(target in level)
