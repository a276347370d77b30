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
  the candidate's value ``val = sum_i x_i * a_i`` with each distinct weight
  are a second int, one biased byte-aligned field each, and a child steps
  them by the packed Gram row of its weight.  A negative pairing is a field
  with its top bit clear, and ``val == 0`` exactly when the int equals the
  bias (every pairing 0), because ``val`` lies in the span of the weights
  and is then orthogonal to it.
- The completion runs one degree at a time: a level's generators are
  yielded, sorted, before the next level's candidates are made, and each
  candidate is checked once, as it is made, against the generators of
  lower degree, the only ones it can dominate.  The check is indexed:
  generators are kept by (coordinate, coefficient) and by support bitmask,
  and a child ``x + e_j`` is compared only with generators whose j-th
  coefficient equals the child's.  The generators and their order are
  those of the plain scan.
- Equal weights are interchangeable, so the search grows only
  *copy-ascending* candidates, whose coefficients do not decrease along the
  copies of each weight.  Each degree is handed on as its copy-ascending
  generators, sorted, with the count of all their arrangements over the
  copies: ``iter_hilbert_basis`` lists the arrangements, merged lazily, and
  the torus verdict reads only the generators, as the least copy-ascending
  one with a coefficient >= 2 is the first such generator of its degree.
  A weight of multiplicity m no longer makes each relation be found once
  per arrangement.  The other arrangements of a generator still count
  against the coordinate cap, as the plain search stores them, so the cap
  bounds what a caller keeps, and against the generator cap as one total
  per degree; the verdict lists a degree that would pass the generator
  cap, so it answers or stops where the listing does.  The B2 slice of
  ``3*[0,2]+3*[1,0]``, 28 weights of which 8 are distinct, grows 39
  candidates and counts 521 instead of 875, and its verdict lists none of
  the 258 generators that come before its certificate; the G2 slice of
  ``3*[0,2]``, which stopped at the cap, counts 27,300 of the 78,431 it
  allows at its certificate.  A list of distinct weights has one
  arrangement per generator and counts none.
- A symmetry of the weight list, given as index permutations (the simple
  reflections acting on a toral slice), shrinks the search: it starts from
  the last copy of one weight per orbit, and each level's generators are
  closed under the permutations.  The F4 slice of the ``exceptional``
  suite, 24 weights in one W(F4)-orbit, stores 7,552 candidates instead of
  79,013.
- ``exists_sum`` bounds every partial sum by the values a linear
  functional can still add: with ``rem`` summands left, each worth between
  ``lo`` and ``hi``, a state of value ``v`` survives only if
  ``v + rem*lo <= T <= v + rem*hi`` for the target value ``T``.  The bound
  holds for each coordinate and for an optional grading, such as the
  cocharacter of an admissible set, which is positive on every weight.

Each search is a pure function of its input, so each is memoized in a
bounded ``functools.lru_cache`` keyed on that input as tuples, in the order
given (the order fixes the coefficient order of a certificate, so no key is
sorted), ``MEMO_SIZE`` entries each: ``is_torus_coreduced`` on the nonzero
weights and the symmetry permutations, ``hilbert_basis`` on the weights,
and ``exists_sum`` on the weights, target, count and grading.  Only
immutable values are stored: the frozen ``TorusVerdict``, ``Relation`` and
``SumWitness``, and tuples of them.  A search stopped by a cap raises, and
``lru_cache`` stores no exception, so a repeat runs the search again and
stops at the same count.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from math import comb
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .config import ResourceLimitError, require
from .rootsys import closure

Vec = tuple[int, ...]

# The caps of the two searches.  A hit raises ResourceLimitError (the CLI
# exits 3) instead of running until memory is exhausted.
SUM_STATE_CAP = 50_000_000
"""DP states that ``exists_sum`` may create."""
HILBERT_COORD_CAP = 16_000_000
"""Coordinates the Hilbert search may store: the candidates it has stored
times the number of weights, checked as each candidate is stored.  The
largest search of the recorded paper computations stores 181,248 (7,552
candidates of 24 coefficients, F4 in the ``exceptional`` suite); the two
toral slices that once filled a 1 GB address space did so at 111 and 125
million.  The cap also fixes the width of a packed coefficient field: it
bounds the degree, and so every coefficient, of a candidate the search
reaches."""
HILBERT_GENERATOR_CAP = 100_000
"""Generators the Hilbert search may find."""

MEMO_SIZE = 256
"""Entries each memo of the three searches keeps: above the distinct inputs
of a session of a few hundred CLI requests (at most 35 torus verdicts, 16
Hilbert bases and 61 bounded sums in 260 ``queries`` requests)."""


class Relation(NamedTuple):
    """Nonnegative coefficients with sum_i coeffs[i] * weights[i] = 0."""

    coeffs: Vec

    @property
    def degree(self) -> int:
        return sum(self.coeffs)

    @property
    def max_coeff(self) -> int:
        return max(self.coeffs, default=0)


def _check_stored(candidates: int, n: int) -> None:
    if candidates * n > HILBERT_COORD_CAP:
        raise ResourceLimitError(
            "monoid.hilbert", "HILBERT_COORD_CAP", HILBERT_COORD_CAP, candidates * n,
            f"hilbert basis search: {candidates} candidates of {n} coefficients "
            "make {count} coordinates",
        )


def _dominates(x: int, xmask: int, gens: list[tuple[int, int]], guard: int) -> bool:
    """Packed ``x`` >= some packed generator ``m`` componentwise: no field of
    ``(x | guard) - m`` borrows from its guard bit.  The support masks
    reject most pairs first."""
    xg, outside = x | guard, ~xmask
    for mmask, m in gens:
        if not mmask & outside and (xg - m) & guard == guard:
            return True
    return False


def _repunit(width: int, count: int) -> int:
    """``count`` fields of ``width`` bits, each holding 1."""
    return ((1 << width * count) - 1) // ((1 << width) - 1)


class _Degree(NamedTuple):
    """The generators of one degree of the Hilbert search."""

    generators: list[Vec]  # the copy-ascending ones, in increasing order
    count: int  # all their arrangements over the copies
    arrangements: Callable[[Vec], Iterator[Vec]]  # of one generator, increasing

    def listed(self) -> Iterator[Vec]:
        """Every generator of the degree, in increasing order: the
        arrangements of all copy-ascending ones, merged lazily, so that a
        degree with more than ``HILBERT_GENERATOR_CAP`` is never listed
        whole.  Tuples compare as the packed candidates do."""
        if self.count == len(self.generators):
            return iter(self.generators)  # each is its only arrangement
        return heapq.merge(*map(self.arrangements, self.generators))


def _check_found(found: int) -> None:
    if found > HILBERT_GENERATOR_CAP:
        raise ResourceLimitError(
            "monoid.hilbert", "HILBERT_GENERATOR_CAP", HILBERT_GENERATOR_CAP, found,
            "hilbert basis search found {count} generators",
        )


def iter_hilbert_basis(
    weights: Sequence[Vec], symmetry: Optional[Sequence[Sequence[int]]] = None
) -> Iterator[Relation]:
    """Yield the indecomposable relations among ``weights`` (Contejean–Devié),
    in order of degree and, within a degree, of coefficient tuple: every
    arrangement of each generator that :func:`_degrees` finds, one degree
    at a time, so early consumers may stop at the first interesting
    generator.  ``symmetry`` is as in :func:`_degrees`."""
    found = 0
    for degree in _degrees(weights, symmetry):
        for coeffs in degree.listed():
            found += 1
            _check_found(found)
            yield Relation(coeffs)


def _degrees(
    weights: Sequence[Vec], symmetry: Optional[Sequence[Sequence[int]]]
) -> Iterator[_Degree]:
    """The indecomposable relations among ``weights``, one degree at a time.

    The completion runs level by level.  All candidates of degree d are
    made before any generator of degree d is known, each checked once
    against every generator of lower degree, so the relations among them
    are minimal; the degree is yielded before the children of degree
    d + 1 are made.  A child can dominate only generators of lower degree,
    so that one check is complete.

    The check is indexed rather than a scan of every generator.  A child
    ``y = x + e_j`` of ``x`` can dominate a generator ``m`` only if
    ``m[j] == y[j]``, because ``x`` dominates none of them, so the child is
    compared only with that one bucket of the index.

    Equal weights are interchangeable, so the search grows only
    *copy-ascending* candidates, whose coefficients do not decrease along
    the copies of each weight (in index order): it starts from the last
    copy of each weight, and grows a copy other than the last only while
    its coefficient is below the next copy's.  Each generator's orbit under
    swapping copies holds exactly one copy-ascending member, and the search
    finds just those; a degree yields them with the count of their distinct
    arrangements over the copies and the function that lists them, so that
    listing them all gives the generators of the plain search in its
    order.  The copy-ascending arrangement is the least in tuple order, so
    the least copy-ascending generator with a coefficient >= 2 is the first
    such generator of its degree.  The search stays complete: from
    a copy-ascending ``y`` below a copy-ascending minimal relation ``s``,
    the Contejean–Devié step takes a copy ``k`` of some weight with
    ``y[k] < s[k]``; the last copy ``j`` with ``y[j] == y[k]`` has
    ``y[j] < s[k] <= s[j]``, and ``y + e_j`` is copy-ascending.  The
    index needs only copy-ascending generators: if a copy-ascending ``y``
    dominates a generator, it dominates the generator with each weight's
    coefficients sorted along its copies, because sorting keeps ``m <= y``.
    Each generator's other arrangements count as stored candidates before
    its degree is yielded, as the plain search has stored them by then, so
    without a symmetry the search reaches the coordinate cap only where the
    plain one does, and no search yields a degree whose arrangements pass
    it.  A list of distinct weights has one arrangement per generator.

    ``symmetry`` lists permutations of the indices that map the weight list
    onto itself, such as the simple reflections acting on a Weyl-invariant
    list; each must send the k-th copy of a weight to the k-th copy of its
    image, so that it maps copy-ascending candidates to copy-ascending ones.
    The search then starts from one last copy per orbit of indices, and
    each level's generators are closed under the permutations before they
    are indexed and yielded.  Every generator orbit has a member whose
    support meets a starting index, and the completion from ``e_r``
    reaches every copy-ascending minimal relation with ``r`` in its
    support, so the generators are those of the plain search, in the same
    order.  Each image is checked to be a relation.
    """
    n = len(weights)
    if n == 0:
        return
    dim = len(weights[0])
    if any(len(w) != dim for w in weights):
        raise ValueError("weights must share a dimension")
    if any(all(x == 0 for x in w) for w in weights):
        raise ValueError("zero weights must be discarded before basis computation")
    distinct = list(dict.fromkeys(map(tuple, weights)))
    field = {w: f for f, w in enumerate(distinct)}
    members: list[list[int]] = [[] for _ in distinct]  # field -> weight indices
    for j, w in enumerate(weights):
        members[field[tuple(w)]].append(j)
    copy = [(0, 0)] * n  # j -> (field of its weight, its rank among the copies)
    for f, js in enumerate(members):
        for k, j in enumerate(js):
            copy[j] = (f, k)
    perms = [tuple(p) for p in symmetry or ()]
    if any(sorted(p) != list(range(n)) for p in perms):
        raise ValueError("a symmetry must permute the weight indices")
    for p in perms:
        image = [copy[p[js[0]]][0] for js in members]  # field -> field of its image
        if any(copy[p[j]] != (image[f], k) for j, (f, k) in enumerate(copy)):
            raise ValueError(
                "a symmetry must send the k-th copy of a weight to the k-th copy of its image"
            )
    starts: list[int] = []  # the least last copy of each orbit of indices
    seen: set[int] = set()
    for i in sorted(js[-1] for js in members):
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
    # and the top bit of each field is a guard for _dominates.  A symmetry
    # image and an arrangement have the coefficients of a stored generator.
    max_stored = HILBERT_COORD_CAP // n
    deg_cap = max_stored + 1
    cb = deg_cap.bit_length() + 1
    fmask = (1 << cb - 1) - 1
    shift = [cb * (n - 1 - j) for j in range(n)]
    unit = [1 << s for s in shift]
    guard = _repunit(cb, n) << cb - 1
    # the copies of each weight a child may grow: (j, shift of the next
    # copy), or (j, None) for the last copy, which always may
    grow = [[(j, shift[k]) for j, k in zip(js, js[1:])] + [(js[-1], None)] for js in members]
    repeated = [js for js in members if len(js) > 1]

    # Pairings: the int d holds <val, w> for each distinct weight w in a
    # field of nb bytes, plus half the field's range, so a pairing is
    # negative exactly when the top bit of its field is clear.  A pairing is
    # at most deg_cap * max |w|^2 in size, below that half.  Packing is
    # linear, so the Gram row of a weight is its coordinates times the
    # packed coordinate columns, and a child's d is its parent's plus that
    # row.  val lies in the span of the weights, so val == 0 exactly when
    # every pairing is 0, that is when d == bias.
    nb = (deg_cap * max(sum(a * a for a in w) for w in distinct)).bit_length() // 8 + 1
    nbytes = nb * len(distinct)
    half = 1 << 8 * nb - 1
    bias = _repunit(8 * nb, len(distinct)) << 8 * nb - 1
    cols = [
        int.from_bytes(b"".join((half + w[c]).to_bytes(nb, "little") for w in distinct), "little")
        - bias
        for c in range(dim)
    ]
    gram = [sum(a * col for a, col in zip(w, cols)) for w in distinct]

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
                    not any(sum(c * weights[j][a] for j, c in moved) for a in range(dim)),
                    "a symmetry maps a relation to a non-relation",
                )
                batch[y] = moved
            out.append(y)
        return out

    def arrangement_count(coeffs: list[int]) -> int:
        """How many distinct arrangements over the copies of each weight the
        copy-ascending generator ``coeffs`` has: a multinomial per weight
        whose copies hold more than one value."""
        count = 1
        for js in repeated:
            if coeffs[js[0]] != coeffs[js[-1]]:
                left = len(js)
                for m in Counter(coeffs[j] for j in js).values():
                    count *= comb(left, m)
                    left -= m
        return count

    def arrangements(generator: Vec) -> Iterator[Vec]:
        """The copy-ascending ``generator`` and its other distinct
        arrangements over the copies of each weight, in increasing order.
        Each next one raises the last copy that a larger value among the
        later copies of its weight can fill, to the least such value, and
        refills the copies after it with what is left of each weight's
        values, ascending: the least arrangement above.  Only the copies of
        weights whose copies hold more than one value move."""
        coeffs = list(generator)
        free = sorted(j for js in repeated if coeffs[js[0]] != coeffs[js[-1]] for j in js)
        while True:
            yield tuple(coeffs)
            # field -> the values of its copies after i; ascending, as none of
            # those copies could take a larger value from the ones after it
            later: dict[int, list[int]] = {}
            for i in range(len(free) - 1, -1, -1):
                j = free[i]
                values = later.setdefault(copy[j][0], [])
                k = bisect_right(values, coeffs[j])
                if k < len(values):
                    break
                values.append(coeffs[j])
            else:
                return
            values[k], coeffs[j] = coeffs[j], values[k]
            refill = {f: iter(vs) for f, vs in later.items()}
            for j in free[i + 1 :]:
                coeffs[j] = next(refill[copy[j][0]])

    # the minimality index: m[j] * n + j -> (support mask, m) of the
    # copy-ascending generators m
    by_coord: dict[int, list[tuple[int, int]]] = {}
    # the candidates of one degree: x -> (support mask, pairings)
    level = {unit[j]: (1 << j, bias + gram[field[tuple(weights[j])]]) for j in starts}
    while level:
        # the copy-ascending generators of this degree, as sparse supports
        # [(j, x[j])]
        batch: dict[int, list[tuple[int, int]]] = {}
        for x, (xmask, d) in level.items():
            if d == bias:
                batch[x] = [(j, x >> shift[j] & fmask) for j in range(n) if xmask >> j & 1]
        if perms:
            closure(list(batch), images)
        generators: list[Vec] = []
        count = 0
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
            count += 1
            if repeated:
                # its other arrangements count as stored candidates, as the
                # plain search stores them, so what is yielded stays under
                # the cap; a cap error names the first one past it
                others = arrangement_count(coeffs) - 1
                count += others
                stored = min(stored + others, max_stored + 1)
                if stored > max_stored:
                    _check_stored(stored, n)
        yield _Degree(generators, count, arrangements)
        nxt: dict[int, tuple[int, int]] = {}
        for x, (xmask, d) in level.items():
            if d == bias:
                continue
            # the top byte of each field: 0x80 where the pairing is negative
            negative = (~d & bias).to_bytes(nbytes, "little")[nb - 1 :: nb]
            f = negative.find(0x80)
            while f >= 0:
                for j, after in grow[f]:
                    if after is not None and (x >> shift[j]) & fmask >= (x >> after) & fmask:
                        continue  # y would not be copy-ascending
                    y = x + unit[j]
                    if y in nxt:
                        continue
                    ymask = xmask | 1 << j
                    bucket = by_coord.get(((y >> shift[j]) & fmask) * n + j)
                    if bucket and _dominates(y, ymask, bucket, guard):
                        continue
                    stored += 1
                    if stored > max_stored:
                        _check_stored(stored, n)
                    nxt[y] = (ymask, d + gram[f])
                f = negative.find(0x80, f + 1)
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
    beyond a free coordinate); ``symmetry`` (see ``iter_hilbert_basis``)
    needs a list without them.  Stops at the first violating generator.
    """
    ws = tuple(tuple(w) for w in weights if any(x != 0 for x in w))
    if symmetry and len(ws) < len(weights):
        raise ValueError("a symmetry needs a weight list without zero weights")
    return _torus_verdict(ws, tuple(tuple(p) for p in symmetry or ()))


@lru_cache(maxsize=MEMO_SIZE)
def _torus_verdict(ws: tuple[Vec, ...], symmetry: tuple[tuple[int, ...], ...]) -> TorusVerdict:
    """The first generator with a coefficient >= 2 in the order of
    :func:`iter_hilbert_basis`: the least copy-ascending one of its degree,
    so no arrangement is listed.  A degree whose arrangements would pass
    ``HILBERT_GENERATOR_CAP`` is listed, so that the verdict, or the cap
    error, is the one the listing reaches."""
    found = 0
    for degree in _degrees(ws, symmetry):
        if found + degree.count > HILBERT_GENERATOR_CAP:
            for coeffs in degree.listed():
                found += 1
                _check_found(found)
                if max(coeffs) >= 2:
                    return TorusVerdict(False, ws, Relation(coeffs))
        else:
            gen = next((c for c in degree.generators if max(c) >= 2), None)
            if gen is not None:
                return TorusVerdict(False, ws, Relation(gen))
            found += degree.count
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
    if not ws:
        return SumWitness(False)
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
