"""Toral slices at generic zero-weight vectors and bad-slice certificates.

When every root of the group occurs among the weights of the module, a
generic zero-weight vector has the maximal torus as its identity-component
stabilizer and the slice at it is, as a torus module, the nonzero weights of
the module with one copy of each root removed.  The module is then not
coreduced as soon as that torus weight list admits an indecomposable
relation with a coefficient at least 2.

The generic vector itself is never materialized: genericity is part of the
certificate's hypotheses.  :func:`bad_toral_slice` keeps nothing itself:
the classify drivers that call it sit under ``classify.classify_module``'s
memo, and ``monoid`` keeps the Hilbert search it runs, so a repeated call
lists the slice again but searches nothing.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .config import require
from .monoid import TorusVerdict, Vec, _check_stored, is_torus_coreduced
from .repthy import ModuleSpec, min_root_multiplicity, weight_counts
from .rootsys import Coords, GroupSpec, reflect, root_scaled_of_dynkin

GENERIC_HYPOTHESIS = "generic zero weight vector"


class _BadSliceFields(NamedTuple):
    kind: str  # toral_relation | roots_mult2 | product_rule
    weights: tuple[Vec, ...]
    coeffs: tuple[int, ...]
    hypotheses: tuple[str, ...] = (GENERIC_HYPOTHESIS,)
    note: str = ""


class BadSliceCertificate(_BadSliceFields):
    """A witnessed failure of torus coreducedness for a slice representation.

    ``weights`` are the (root_scaled) slice weights in the support of the
    violating relation; ``coeffs`` are the matching relation coefficients
    (some coefficient is >= 2 and the weighted sum is exactly zero), which
    construction checks.
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
    g: GroupSpec, counts: dict[Coords, int]
) -> tuple[list[Vec], list[list[int]]]:
    """The weights of the Weyl-invariant multiset ``counts`` (Dynkin labels)
    as a sorted list in root_scaled coordinates, and the simple reflections
    as permutations of its indices: each sends the k-th copy of a weight to
    the k-th copy of its image."""
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


def product_group_rule(m: ModuleSpec) -> Optional[BadSliceCertificate]:
    """Bad-slice relation for irreducible tensor modules over product groups.

    For k > 2 simple factors with simple roots alpha, beta, gamma one per
    factor: (a+b) + (b+c) + (a+c) + 2(-a-b-c) = 0.  For k = 2 with
    rk G1 > 1 and adjacent simple roots alpha, beta of G1, gamma of G2:
    (a+c) + (a-c) + 2(b-c) + 2(-(a+b)+c) = 0.  Absent exactly when the
    module is the A1 x A1 tensor square of the natural SL2-module (where no
    such relation exists).  Every participating weight is verified to occur
    among the slice weights ``toral_slice(m)`` (the relation is linear, so it
    is built in Dynkin coordinates and converted to root_scaled ones for the
    certificate).
    """
    g = m.group
    k = len(g.simple_factors)
    if k < 2 or len(m.summands) != 1 or m.summands[0][0] != 1:
        raise ValueError("rule applies to irreducible tensor modules over >= 2 factors")
    counts = toral_slice(m)
    if counts is None:
        raise ValueError("some root of the group is not a weight of the module")

    data = g.root_data

    def block_root(factor: int, local: int) -> Coords:
        # a simple root's Dynkin labels are its row of the Cartan matrix
        return data.cartan[data.factors[factor][1] + local]

    def combo(*terms: tuple[int, Coords]) -> Vec:
        out = [0] * g.rank
        for sgn, vec in terms:
            out = [a + sgn * b for a, b in zip(out, vec)]
        return tuple(out)

    if k > 2:
        a, b, c = block_root(0, 0), block_root(1, 0), block_root(2, 0)
        weights = (
            combo((1, a), (1, b)),
            combo((1, b), (1, c)),
            combo((1, a), (1, c)),
            combo((-1, a), (-1, b), (-1, c)),
        )
        coeffs = (1, 1, 1, 2)
    else:
        ranks = [t.rank for t in g.simple_factors]
        if max(ranks) == 1:
            # A1 x A1: the rule is silent (sl2 tensor sl2 is the exception)
            return None
        big = 0 if ranks[0] > 1 else 1
        other = 1 - big
        _t, lo, hi = data.factors[big]
        # adjacent pair of simple roots in the higher-rank factor
        i, j = next(
            (i, j) for i in range(lo, hi) for j in range(lo, hi) if i != j and data.cartan[i][j]
        )
        a, b = data.cartan[i], data.cartan[j]
        c = block_root(other, 0)
        weights = (
            combo((1, a), (1, c)),
            combo((1, a), (-1, c)),
            combo((1, b), (-1, c)),
            combo((-1, a), (-1, b), (1, c)),
        )
        coeffs = (1, 1, 2, 2)
    for w in weights:
        if counts.get(w, 0) < 1:
            raise ValueError(f"expected slice weight {w} is absent")
    return BadSliceCertificate(
        kind="product_rule",
        weights=tuple(root_scaled_of_dynkin(g, w) for w in weights),
        coeffs=coeffs,
    )
