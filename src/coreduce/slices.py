"""Toral slices at generic zero-weight vectors and bad-slice certificates.

When every root of the group occurs among the weights of the module, a
generic zero-weight vector has the maximal torus as its identity-component
stabilizer and the slice at it is, as a torus module, the nonzero weights of
the module with one copy of each root removed.  The module is then not
coreduced as soon as that torus weight list admits an indecomposable
relation with a coefficient at least 2.

The slice is written down once, at the dominant level
(:func:`slice_diagram`): the module's nonzero dominant weights
(``ModuleSpec.diagram``) less one copy at each dominant root.
:func:`bad_toral_slice` builds it once per call, sizes the listing off
it, and then either lists the slice by expanding its orbits or, past the
search's bound, reads a violating pair off it (:func:`diagram_pair`), as
every line through 0 is the Weyl image of one through a dominant weight.
No module weight multiset is built.

:func:`bad_toral_slice` is the one test, for every caller.  Multiplicities
do not matter to it: a relation of the slice is indecomposable exactly when
the relation it induces on the distinct weights is (see ``monoid``), so it
reads the distinct slice weights once, sorted, with the simple reflections
as permutations of them (:func:`weyl_symmetric_list`).  It first scans
them for circuits, minimal dependent sets of weights, of two or three
weights (:func:`violating_circuit`), and runs the Hilbert search to its
first such generator only when the scan finds none.  The nonnegative
relations on a circuit form a ray, so its primitive relation (coefficients
of gcd 1) is indecomposable among the circuit's weights: a sub-relation
below it is a rational multiple of it, and primitivity makes the multiple
0 or 1.  It is indecomposable in the whole slice too, because any
decomposition of a relation has its support inside the relation's
support.  The scan returns the least violating circuit in the search's
own order, so where the search's first violating generator is a circuit
of at most three weights, the scan finds that very generator.  Finding no
violating circuit proves nothing.

The test keeps nothing itself: the classify drivers that call it sit under
``classify.classify_module``'s memo, and ``monoid`` keeps the Hilbert
search, so a repeated call lists the slice again but searches nothing.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Collection, Iterable, Iterator, NamedTuple, Optional, Sequence

from .config import ResourceLimitError, require
from .monoid import Relation, TorusVerdict, Vec, _check_stored, is_torus_coreduced
from .repthy import ModuleSpec, expand_orbits, min_root_multiplicity
from .rootsys import Coords, GroupSpec, dominantize, orbit_size, reflect, root_scaled_of_dynkin


class _BadSliceFields(NamedTuple):
    kind: str  # toral_relation (a Hilbert generator or a circuit) | roots_mult2
    weights: tuple[Vec, ...]
    coeffs: tuple[int, ...]
    note: str = ""


class BadSliceCertificate(_BadSliceFields):
    """A witnessed failure of torus coreducedness for a slice representation.

    ``weights`` are the (root_scaled) slice weights in the support of the
    violating relation; ``coeffs`` are the matching relation coefficients
    (some coefficient is >= 2, their gcd is 1 and the weighted sum is
    exactly zero), which construction checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> BadSliceCertificate:
        self = super().__new__(cls, *args, **kwargs)
        self.validate()
        return self

    def relation_sum(self) -> Vec:
        dim = len(self.weights[0]) if self.weights else 0
        return tuple(
            sum(c * w[j] for c, w in zip(self.coeffs, self.weights)) for j in range(dim)
        )

    def validate(self) -> None:
        if self.coeffs:
            require(any(c >= 2 for c in self.coeffs), "certificate needs a coefficient >= 2")
            require(gcd(*self.coeffs) == 1, "a relation must be primitive (coefficients of gcd 1)")
            require(all(x == 0 for x in self.relation_sum()), "relation must sum to zero")


def has_toral_slice(m: ModuleSpec) -> bool:
    """Whether every root of the group is a weight of the module (a torus
    has none to miss), so that there is a toral slice; read off the
    root-lattice dominant diagram, with no orbit expanded."""
    return not m.group.simple_factors or min_root_multiplicity(m)[0] >= 1


def slice_diagram(m: ModuleSpec) -> Optional[dict[Coords, int]]:
    """The toral slice at the dominant level, each weight mapped to its
    nonzero multiplicity: the module's nonzero dominant weights less one
    copy at each dominant root, which is one copy off each root of its
    orbit; None when there is no toral slice."""
    if not has_toral_slice(m):
        return None
    roots = set(m.group.root_data.dominant_roots)
    counts = {d: c - (d in roots) for d, c in m.diagram.items() if any(d)}
    return {d: c for d, c in counts.items() if c}


def weyl_symmetric_list(g: GroupSpec, weights: Iterable[Coords]) -> tuple[list[Vec], list[list[int]]]:
    """The distinct weights of a Weyl-invariant set (Dynkin labels) as a
    sorted list in root_scaled coordinates, and the simple reflections as
    permutations of its indices."""
    distinct = sorted((root_scaled_of_dynkin(g, w), w) for w in weights)
    index = {w: i for i, (_, w) in enumerate(distinct)}
    symmetry = [
        [index[reflect(g, w, i)] for _, w in distinct] for i in range(g.rank - g.torus_rank)
    ]
    return [c for c, _ in distinct], symmetry


def bad_toral_slice(m: ModuleSpec) -> Optional[BadSliceCertificate]:
    """A violating relation of the toral slice as a ``toral_relation``
    certificate on its support, in sorted root_scaled coordinates; None
    when the slice is coreduced or there is none.

    The relation is the least violating circuit of two or three weights
    (:func:`violating_circuit`), which is the Hilbert search's first
    violating generator whenever that generator is such a circuit, and
    failing one the search's first violating generator.  On A1 ``[1]+[6]``
    the search's first is ``(1,2,1)`` on the three weights ``-4, -1, 6`` of
    one line, not a circuit, and the relation is the pair ``(4,1)`` on
    ``-1, 4``, which comes later.  Both read the distinct slice weights,
    sorted, once; the search has the simple reflections as symmetries.
    The listing is sized first, off :func:`slice_diagram`: the search
    starts from one weight per Weyl orbit, so the slice's dominant weights
    times the weights of their orbits must be within ``HILBERT_COORD_CAP``.
    Within it, the slice is listed from the orbits of that same diagram;
    past it, the relation is a pair read off the diagram
    (:func:`diagram_pair`), and without one the test refuses."""
    diagram = slice_diagram(m)
    if diagram is None:
        return None
    g = m.group
    try:
        _check_stored(len(diagram), sum(orbit_size(g, d) for d in diagram))
    except ResourceLimitError:
        found = diagram_pair(g, diagram)
        if found is None:
            raise
        return found
    ws, symmetry = weyl_symmetric_list(g, expand_orbits(g, diagram).entries)
    found = violating_circuit(ws)
    if found is not None:
        return relation_certificate(TorusVerdict(False, tuple(ws), found))
    return relation_certificate(is_torus_coreduced(ws, symmetry))


def diagram_pair(g: GroupSpec, diagram: dict[Coords, int]) -> Optional[BadSliceCertificate]:
    """A violating pair of the toral slice as a ``toral_relation``
    certificate, read off ``diagram``, its :func:`slice_diagram`, with no
    orbit listed; None when the slice has no violating pair.

    Every line through 0 is the Weyl image of a line through a dominant
    weight, and the slice is Weyl-invariant.  So the slice holds a pair
    ``k u, l (-u)`` with ``k != l`` exactly when it holds one ``k p,
    l (-p)`` with ``p`` primitive and dominant: ``k p`` and ``l q``, ``q =
    -w0 p`` the dominant weight of ``-p``, are in the slice diagram.
    ``-w0`` is linear, so ``q`` is read off the dominant weights of the
    negated fundamental weights.  The rule: the pair of least degree
    ``(k + l) / gcd(k, l)``, then of least ``p`` in Dynkin labels, then of
    least ``k``, printed on ``k p`` and ``l (-p)``."""
    rays: dict[Coords, set[int]] = {}  # primitive dominant direction -> multiples
    for d in diagram:
        k = gcd(*d)
        rays.setdefault(tuple(x // k for x in d), set()).add(k)
    # -w0 of each fundamental weight, the dominant weight of its negative
    unit = [tuple(-int(i == j) for j in range(g.rank)) for i in range(g.rank)]
    images = [dominantize(g, e)[0] for e in unit]
    best = None
    for p, ks in rays.items():
        q = tuple(sum(x * image[j] for x, image in zip(p, images)) for j in range(g.rank))
        for k, l in _line_pairs(ks, rays.get(q, ()), best and best[0]):
            key = ((k + l) // gcd(k, l), p, k, l)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    _, p, k, l = best
    a, b = (root_scaled_of_dynkin(g, tuple(c * x for x in p)) for c in (k, -l))
    t = gcd(k, l)
    (wa, ca), (wb, cb) = sorted(((a, l // t), (b, k // t)))
    return BadSliceCertificate(kind="toral_relation", weights=(wa, wb), coeffs=(ca, cb))


def relation_certificate(verdict: TorusVerdict, note: str = "") -> Optional[BadSliceCertificate]:
    """The violating relation of a torus verdict as a validated
    ``toral_relation`` certificate on the relation's support; None when
    the weights are coreduced."""
    gen = verdict.certificate
    if gen is None:
        return None
    support = [(w, c) for w, c in zip(verdict.weights, gen.coeffs) if c]
    return BadSliceCertificate(
        kind="toral_relation",
        weights=tuple(w for w, _ in support),
        coeffs=tuple(c for _, c in support),
        note=note,
    )


def roots_mult2_rule(m: ModuleSpec) -> Optional[BadSliceCertificate]:
    """Certificate when every root occurs with multiplicity at least 2.

    After removing one copy per root, every root and every negated simple
    root remains a slice weight.  A simple factor not of type A has a root
    with a coefficient >= 2 in its simple-root expansion, giving the relation
    alpha + sum_i n_i (-alpha_i) = 0 with some n_j >= 2.  If every factor is
    of type A the certificate records the reduction path instead of a
    relation (the slice contains a smaller bad module, not a direct toral
    relation).
    """
    g = m.group
    if not g.simple_factors:
        return None
    mult, _witness = min_root_multiplicity(m)
    if mult < 2:
        return None
    data = g.root_data
    for k, (t, lo, hi) in enumerate(data.factors):
        if t.family == "A":
            continue
        root = max((r[lo:hi] for r in data.root_coords if any(r[lo:hi])), key=max)
        require(max(root) >= 2, f"{t} has no root with a coefficient >= 2")
        # the simple roots in the root's support, in Dynkin labels: rows of
        # the Cartan matrix
        simple = [(n_i, data.cartan[lo + i]) for i, n_i in enumerate(root) if n_i]
        alpha = tuple(sum(n_i * row[j] for n_i, row in simple) for j in range(g.rank))
        weights = [alpha] + [tuple(-x for x in row) for _, row in simple]
        return BadSliceCertificate(
            kind="roots_mult2",
            weights=tuple(root_scaled_of_dynkin(g, w) for w in weights),
            coeffs=(1,) + tuple(n_i for n_i, _ in simple),
            note=f"factor {k} ({t}) root with a coefficient-2 expansion",
        )
    return BadSliceCertificate(
        kind="roots_mult2",
        weights=(),
        coeffs=(),
        note=(
            "all factors of type A: the slice contains the doubled root system "
            "of a type-A factor, reducing to a smaller non-coreduced module"
        ),
    )


def violating_circuit(ws: Sequence[Vec]) -> Optional[Relation]:
    """The least primitive relation with a coefficient >= 2 on a circuit of
    two or three of the distinct nonzero weights ``ws``, in the Hilbert
    search's order; None when there is none.

    A pair is ``k p`` and ``l (-p)`` with ``k != l`` for a primitive
    direction ``p``, with relation ``(l, k) / gcd(k, l)``.  A triple has
    its second and third weight in the plane of its first, off its line,
    and the three 2x2 minors, the relation's coefficients, of one sign.  A
    violating pair has degree at least 3 and a violating triple at least
    4, and at equal degree the later the first index, the smaller.  So
    triples are scanned by first index, the last first, each with partners
    of higher index only, and the scan stops when no triple through an
    earlier first index can come before the least relation found: one of
    degree 3, or of degree 4 with a later first index.  Where the search's
    first violating generator is a circuit of at most three weights, this
    is that generator.
    """
    found = _least_pair(ws)
    for k in range(len(ws) - 1, -1, -1):
        if found is not None:
            degree = sum(c for _, c in found)
            if degree == 3 or (degree == 4 and found[0][0] > k):
                break
        for triple in _triples(ws, k):
            if found is None or _search_order(triple) < _search_order(found):
                found = triple
    if found is None:
        return None
    coeffs = dict(found)
    return Relation(tuple(coeffs.get(i, 0) for i in range(len(ws))))


def _search_order(support: tuple[tuple[int, int], ...]) -> tuple:
    """The Hilbert search's order on relations given by their (index,
    coefficient) pairs, sorted by index: degree, then the tuple of all
    coefficients, in which the later the first index, the smaller."""
    return sum(c for _, c in support), tuple((-i, c) for i, c in support)


def _primitive(*support: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    k = gcd(*(c for _, c in support))
    return tuple(sorted((i, c // k) for i, c in support))


def _least_pair(ws: Sequence[Vec]) -> Optional[tuple[tuple[int, int], ...]]:
    """The least violating pair in the search's order, None when there is
    none: on each line through 0, the pairs of least degree
    (:func:`_line_pairs`), each line looked through only up to the least
    degree an earlier line holds."""
    rays: dict[Vec, dict[int, int]] = {}  # primitive direction -> multiple -> index
    for i, w in enumerate(ws):
        k = gcd(*w)
        rays.setdefault(tuple(x // k for x in w), {})[k] = i
    best = None
    for p, ks in rays.items():
        neg = tuple(-x for x in p)
        if p < neg:
            continue  # each line once
        ls = rays.get(neg, {})
        for k, l in _line_pairs(ks, ls, best and _search_order(best)[0]):
            t = gcd(k, l)
            pair = tuple(sorted(((ks[k], l // t), (ls[l], k // t))))
            if best is None or _search_order(pair) < _search_order(best):
                best = pair
    return best


def _line_pairs(ks: Collection[int], ls: Collection[int], most: Optional[int]) -> list[tuple[int, int]]:
    """The pairs ``(k, l)``, ``k`` in ``ks`` and ``l`` in ``ls`` with
    ``k != l``, of least degree ``(k + l) / gcd(k, l)`` if that is at most
    ``most`` (any when None), else none: the multiples of a direction and
    of its opposite that carry a violating pair.  Such a pair is ``a t`` and
    ``b t`` with ``a, b`` coprime and unequal, of degree ``a + b``.  The
    degrees are looked through upward, each with one lookup per split
    ``a + b`` and multiple of the smaller side, so a degree-3 pair ``w,
    -2w`` is one set lookup per weight, and no other pair is listed."""
    if not ks or not ls or len(ks) == len(ls) == 1 and set(ks) == set(ls):
        return []
    small, large = (ks, ls) if len(ks) <= len(ls) else (ls, ks)
    for degree in itertools.count(3):
        if most is not None and degree > most:
            return []
        found = [
            (s, s // a * (degree - a))
            for a in range(1, degree)
            if gcd(a, degree) == 1
            for s in small
            if not s % a and s // a * (degree - a) in large
        ]
        if found:
            return found if small is ks else [(k, l) for l, k in found]


def _triples(ws: Sequence[Vec], i: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The violating circuits of three weights of ``ws``: the one at index
    ``i`` and two of higher index."""
    # b - (b_s / a_s) a, scaled to integers, is zero exactly when b is on
    # a's line, and its direction names the plane of a and b
    a = ws[i]
    s = next(j for j, x in enumerate(a) if x)
    planes: dict[Vec, list[tuple[int, list[int]]]] = {}
    for j, b in enumerate(ws[i + 1 :], i + 1):
        v = [a[s] * y - b[s] * x for x, y in zip(a, b)]
        if any(v):
            k = gcd(*v)
            k = k if next(x for x in v if x) > 0 else -k
            planes.setdefault(tuple(x // k for x in v), []).append((j, v))
    for plane, bs in planes.items():
        # the plane's coordinates s and t, on which z = det(a, b) is v_b[t]
        t = next(j for j, x in enumerate(plane) if x)
        for n, (j, vb) in enumerate(bs):
            b = ws[j]
            for l, vc in bs[n + 1 :]:
                c = ws[l]
                x, y, z = b[s] * c[t] - b[t] * c[s], -vc[t], vb[t]
                if (x > 0 and y > 0 and z > 0) or (x < 0 and y < 0 and z < 0):
                    support = _primitive((i, abs(x)), (j, abs(y)), (l, abs(z)))
                    if max(coeff for _, coeff in support) >= 2:
                        yield support
