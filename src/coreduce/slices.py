"""Toral slices at generic zero-weight vectors and bad-slice certificates.

When every root of the group occurs among the weights of the module, a
generic zero-weight vector has the maximal torus as its identity-component
stabilizer and the slice at it is, as a torus module, the nonzero weights of
the module with one copy of each root removed.  The module is then not
coreduced as soon as that torus weight list admits an indecomposable
relation with a coefficient at least 2.

:func:`bad_toral_slice` is the complete test: it runs the Hilbert search
to its first such generator.  :func:`slice_certificate` first scans for
circuits, minimal dependent sets of distinct weights, of two or three
weights (:func:`violating_circuit`), and runs the same search only when the
scan finds none.  The nonnegative relations on a circuit form a ray, so
its primitive relation (coefficients of gcd 1) is indecomposable among the
circuit's weights: a sub-relation below it is a rational multiple of it,
and primitivity makes the multiple 0 or 1.  It is indecomposable in the
whole slice too, because any decomposition of a relation has its support
inside the relation's support; so a violating generator of a sub-list of
the slice is a violating generator of the slice.  The slice is
Weyl-invariant and the Weyl group maps circuits to circuits with the same
coefficients, so every Weyl orbit of circuits has a member through a
dominant weight, and the scan for three-weight circuits starts only there.
Finding no violating circuit proves nothing.

The generic vector itself is never materialized: genericity is part of the
certificate's hypotheses.  Neither function keeps anything itself: the
classify drivers that call them sit under ``classify.classify_module``'s
memo, and ``monoid`` keeps the Hilbert search, so a repeated call lists the
slice again but searches nothing.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .config import require
from .monoid import HILBERT_COORD_CAP, Relation, TorusVerdict, Vec, _check_stored, is_torus_coreduced
from .repthy import ModuleSpec, dominant_diagram, min_root_multiplicity, weight_counts
from .rootsys import Coords, GroupSpec, orbit_size, reflect, root_scaled_of_dynkin

GENERIC_HYPOTHESIS = "generic zero weight vector"


class _BadSliceFields(NamedTuple):
    kind: str  # toral_relation (a Hilbert generator or a circuit) | roots_mult2
    weights: tuple[Vec, ...]
    coeffs: tuple[int, ...]
    hypotheses: tuple[str, ...] = (GENERIC_HYPOTHESIS,)
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


def _has_every_root(m: ModuleSpec) -> bool:
    """Whether every root of the group is a weight of the module (a torus
    has none to miss)."""
    return not m.group.simple_factors or min_root_multiplicity(m)[0] >= 1


def toral_slice(m: ModuleSpec) -> Optional[dict[Coords, int]]:
    """The torus weights of the slice at a generic zero-weight vector: the
    nonzero module weights (Dynkin coordinates) with one copy of each root
    removed, mapped to their multiplicities; None when some root of the
    group is not a weight of the module, so that there is no toral slice."""
    return _slice_counts(m) if _has_every_root(m) else None


def _slice_counts(m: ModuleSpec) -> dict[Coords, int]:
    """The toral slice of a module that has every root as a weight."""
    counts = m.weights.nonzero_weights()
    for d in m.group.root_data.roots:
        counts[d] -= 1
    return {w: c for w, c in counts.items() if c}


def weyl_symmetric_list(
    g: GroupSpec, counts: dict[Coords, int], distinct: Optional[list[tuple[Vec, Coords]]] = None
) -> tuple[list[Vec], list[list[int]]]:
    """The weights of the Weyl-invariant multiset ``counts`` (Dynkin labels)
    as a sorted list in root_scaled coordinates, and the simple reflections
    as permutations of its indices: each sends the k-th copy of a weight to
    the k-th copy of its image.  ``distinct`` is the distinct weights as
    sorted (root_scaled, Dynkin) pairs, where the caller has them."""
    if distinct is None:
        distinct = sorted((root_scaled_of_dynkin(g, w), w) for w in counts)
    ws: list[Vec] = []
    first: dict[Coords, int] = {}  # Dynkin weight -> index of its first copy
    for c, w in distinct:
        first[w] = len(ws)
        ws += [c] * counts[w]
    symmetry = [
        [first[reflect(g, w, i)] + k for _, w in distinct for k in range(counts[w])]
        for i in range(g.rank - g.torus_rank)
    ]
    return ws, symmetry


def bad_toral_slice(m: ModuleSpec) -> Optional[BadSliceCertificate]:
    """The direct test: Hilbert-basis 0/1 criterion on the toral slice
    weights, with multiplicity, in sorted root_scaled coordinates, searched
    with the Weyl group's simple reflections as symmetries; None when
    the slice is coreduced or there is none.  Whether there is a slice, and
    the size of the search, are read off the dominant diagram before any
    orbit is expanded; only then is the slice listed."""
    if not _has_every_root(m):
        return None
    n = weight_counts(m)[1] - len(m.group.root_data.roots)
    _check_stored(n, n)
    ws, symmetry = weyl_symmetric_list(m.group, _slice_counts(m))
    return relation_certificate(is_torus_coreduced(ws, symmetry))


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


def slice_certificate(m: ModuleSpec) -> Optional[BadSliceCertificate]:
    """The toral slice's violating circuit of two or three distinct weights
    (:func:`violating_circuit`) as a ``toral_relation`` certificate, its
    weights in sorted slice order; failing one, :func:`bad_toral_slice`'s
    certificate, searched on the same sorted list; None when the slice is
    coreduced or there is none.  The scan lists distinct weights only, and
    only while the module's distinct nonzero weights times its distinct
    nonzero dominant ones, read off the dominant diagrams, are within
    ``HILBERT_COORD_CAP``: a larger module has more weights than the
    search admits, and :func:`bad_toral_slice` refuses it unlisted."""
    if not _has_every_root(m):
        return None
    g = m.group
    dominant = {d for _, hw in m.collected for d in dominant_diagram(g, hw) if any(d)}
    if len(dominant) * sum(orbit_size(g, d) for d in dominant) > HILBERT_COORD_CAP:
        return bad_toral_slice(m)
    counts = _slice_counts(m)
    distinct = sorted((root_scaled_of_dynkin(g, w), w) for w in counts)
    ws = [c for c, _ in distinct]
    found = violating_circuit(ws, [c for c, w in distinct if min(w) >= 0])
    if found is not None:
        return relation_certificate(TorusVerdict(False, tuple(ws), found))
    n = sum(counts.values())
    _check_stored(n, n)
    return relation_certificate(is_torus_coreduced(*weyl_symmetric_list(g, counts, distinct)))


def violating_circuit(ws: Sequence[Vec], starts: Iterable[Vec]) -> Optional[Relation]:
    """A primitive relation with a coefficient >= 2 on a circuit of two or
    three distinct nonzero weights of ``ws``, each at its last copy; None
    when there is none.

    A pair is ``k p`` and ``l (-p)`` with ``k != l`` for a primitive
    direction ``p``, with relation ``(l, k) / gcd(k, l)``; the least one in
    the Hilbert search's order is returned.  Only without a pair are
    triples scanned: each runs through a weight of ``starts``, with the
    other two in its plane and the three 2x2 minors, the relation's
    coefficients, of one sign.  The least such triple in the
    same order is returned.
    """
    last = {w: i for i, w in enumerate(ws)}  # weight -> index of its last copy
    found = min(_pairs(last), key=_search_order, default=None) or min(
        _triples(last, dict.fromkeys(starts)), key=_search_order, default=None
    )
    if found is None:
        return None
    coeffs = dict(found)
    return Relation(tuple(coeffs.get(i, 0) for i in range(len(ws))))


def _search_order(support: tuple[tuple[int, int], ...]) -> tuple:
    """The Hilbert search's order on relations given by their (index,
    coefficient) pairs, sorted by index: degree, then the tuple of all
    coefficients, in which the later the first index, the smaller.  The
    least arrangement of a relation over the copies of a weight is the one
    on its last copy."""
    return sum(c for _, c in support), tuple((-i, c) for i, c in support)


def _primitive(*support: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    k = gcd(*(c for _, c in support))
    return tuple(sorted((i, c // k) for i, c in support))


def _pairs(last: dict[Vec, int]) -> Iterator[tuple[tuple[int, int], ...]]:
    rays: dict[Vec, list[tuple[int, int]]] = {}  # primitive direction -> (multiple, index)
    for w, i in last.items():
        k = gcd(*w)
        rays.setdefault(tuple(x // k for x in w), []).append((k, i))
    for p, ks in rays.items():
        for l, j in rays.get(tuple(-x for x in p), ()):
            yield from (_primitive((i, l), (j, k)) for k, i in ks if k != l)


def _triples(last: dict[Vec, int], starts: Iterable[Vec]) -> Iterator[tuple[tuple[int, int], ...]]:
    for a in starts:
        # b - (b_s / a_s) a, scaled to integers, is zero exactly when b is
        # on a's line, and its direction names the plane of a and b
        s = next(j for j, x in enumerate(a) if x)
        planes: dict[Vec, list[tuple[Vec, list[int]]]] = {}
        for b in last:
            v = [a[s] * y - b[s] * x for x, y in zip(a, b)]
            if any(v):
                k = gcd(*v)
                k = k if next(x for x in v if x) > 0 else -k
                planes.setdefault(tuple(x // k for x in v), []).append((b, v))
        for plane, bs in planes.items():
            # the plane's coordinates s and t, on which z = det(a, b) is v_b[t]
            t = next(j for j, x in enumerate(plane) if x)
            for n, (b, vb) in enumerate(bs):
                for c, vc in bs[n + 1 :]:
                    x, y, z = b[s] * c[t] - b[t] * c[s], -vc[t], vb[t]
                    if (x > 0 and y > 0 and z > 0) or (x < 0 and y < 0 and z < 0):
                        support = _primitive((last[a], abs(x)), (last[b], abs(y)), (last[c], abs(z)))
                        if max(coeff for _, coeff in support) >= 2:
                            yield support
