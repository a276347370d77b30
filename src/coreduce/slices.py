"""Toral slices at generic zero-weight vectors and bad-slice certificates.

When every root of the group occurs among the weights of the module, a
generic zero-weight vector has the maximal torus as its identity-component
stabilizer and the slice at it is, as a torus module, the nonzero weights of
the module with one copy of each root removed.  The module is then not
coreduced as soon as that torus weight list admits an indecomposable
relation with a coefficient at least 2.

The generic vector itself is never materialized: genericity is part of the
certificate's hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .config import require
from .monoid import Vec, is_torus_coreduced
from .repthy import (
    ModuleSpec,
    max_nonzero_weight_multiplicity,
    min_root_multiplicity,
    module_weights,
    zero_weight_multiplicity,
)
from .rootsys import Coords, GroupSpec, in_root_lattice, root_scaled_of_dynkin

GENERIC_HYPOTHESIS = "generic zero weight vector"


@dataclass(frozen=True)
class BadSliceCertificate:
    """A witnessed failure of torus coreducedness for a slice representation.

    ``weights`` are the (root_scaled) slice weights in the support of the
    violating relation; ``coeffs`` are the matching relation coefficients
    (some coefficient is >= 2 and the weighted sum is exactly zero).
    """

    kind: str  # toral_relation | roots_mult2 | criterion_a_{i,ii,iii} | product_rule
    weights: tuple[Vec, ...]
    coeffs: tuple[int, ...]
    hypotheses: tuple[str, ...] = (GENERIC_HYPOTHESIS,)
    note: str = ""

    def relation_sum(self) -> Vec:
        dim = len(self.weights[0]) if self.weights else 0
        return tuple(
            sum(c * w[j] for c, w in zip(self.coeffs, self.weights)) for j in range(dim)
        )

    def validate(self) -> None:
        if self.coeffs:
            require(any(c >= 2 for c in self.coeffs), "certificate needs a coefficient >= 2")
            require(all(x == 0 for x in self.relation_sum()), "relation must sum to zero")


def has_toral_slice(m: ModuleSpec) -> bool:
    """True iff every root of every simple factor is a weight of the module."""
    chi = module_weights(m)
    return all(chi.mult(d) >= 1 for d in m.group.roots_dynkin())


def toral_slice_weights(m: ModuleSpec) -> list[Vec]:
    """Nonzero module weights minus one copy of each root, root_scaled coords.

    Returned with multiplicity, sorted, as the torus weight list of the slice
    at a generic zero-weight vector.
    """
    ws = _slice_weights(m)
    if ws is None:
        raise ValueError("some root of the group is not a weight of the module")
    return ws


def _slice_weights(m: ModuleSpec) -> Optional[list[Vec]]:
    """:func:`toral_slice_weights`, or None when there is no toral slice;
    one weight computation, and no coordinate change before the root test."""
    g = m.group
    chi = module_weights(m)
    if not all(chi.mult(d) >= 1 for d in g.roots_dynkin()):
        return None
    counts: dict[Vec, int] = {}
    for w, mult in chi.nonzero_weights().items():
        counts[root_scaled_of_dynkin(g, w)] = mult
    for d in g.roots_dynkin():
        r = root_scaled_of_dynkin(g, d)
        counts[r] -= 1
        require(counts[r] >= 0, "a root is counted twice")
    out: list[Vec] = []
    for w in sorted(counts):
        out.extend([w] * counts[w])
    return out


def bad_toral_slice(m: ModuleSpec) -> Optional[BadSliceCertificate]:
    """The direct test: Hilbert-basis 0/1 criterion on the toral slice
    weights; None when the slice is coreduced or there is none."""
    ws = _slice_weights(m)
    if ws is None:
        return None
    verdict = is_torus_coreduced(ws)
    gen = verdict.certificate
    if gen is None:
        return None
    support = [(w, c) for w, c in zip(verdict.weights, gen.coeffs) if c]
    cert = BadSliceCertificate(
        kind="toral_relation",
        weights=tuple(w for w, _ in support),
        coeffs=tuple(c for _, c in support),
    )
    cert.validate()
    return cert


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
    for k, (t, rs) in enumerate(zip(g.simple_factors, (f for f in g.root_systems))):
        if t.family == "A":
            continue
        lo, hi = g.blocks[k]
        root = max(rs.positive_roots, key=max)
        require(max(root) >= 2, f"{t} has no root with a coefficient >= 2")
        weights: list[Vec] = []
        coeffs: list[int] = []
        full = [0] * g.rank
        alpha_d = rs.dynkin_of_root(root)
        full[lo:hi] = alpha_d
        weights.append(root_scaled_of_dynkin(g, tuple(full)))
        coeffs.append(1)
        for i, n_i in enumerate(root):
            if n_i == 0:
                continue
            full = [0] * g.rank
            full[lo:hi] = tuple(-x for x in rs.cartan[i])
            weights.append(root_scaled_of_dynkin(g, tuple(full)))
            coeffs.append(n_i)
        cert = BadSliceCertificate(
            kind="roots_mult2",
            weights=tuple(weights),
            coeffs=tuple(coeffs),
            note=f"factor {k} ({t}) root with a coefficient-2 expansion",
        )
        cert.validate()
        return cert
    return BadSliceCertificate(
        kind="roots_mult2",
        weights=(),
        coeffs=(),
        note=(
            "all factors of type A: the slice contains the doubled root system "
            "of a type-A factor, reducing to a smaller non-coreduced module"
        ),
    )


def criterion_a(
    g: GroupSpec, phi: Coords, psi: Coords
) -> Optional[BadSliceCertificate]:
    """Bad-slice test for the Cartan product V(phi + psi).

    Fires when (i) V(phi) itself has a bad toral slice, (ii) the Cartan
    product has a nonzero weight of multiplicity > 1, or (iii) the zero
    weight of V(phi) has multiplicity > 1 (which implies (ii)).  Both phi and
    psi must have a zero weight (root-lattice membership).
    """
    for lam in (phi, psi):
        if not in_root_lattice(g, lam):
            raise ValueError("criterion applies to root-lattice highest weights only")
    m_phi = ModuleSpec(g, ((1, phi),))
    inner = bad_toral_slice(m_phi)
    if inner is not None:
        return BadSliceCertificate(
            kind="criterion_a_i",
            weights=inner.weights,
            coeffs=inner.coeffs,
            note="the first factor already has a bad toral slice",
        )
    if zero_weight_multiplicity(g, phi) > 1:
        # the specific case is reported first: it implies the multiplicity case
        return BadSliceCertificate(
            kind="criterion_a_iii",
            weights=(),
            coeffs=(),
            note=f"zero weight of V({list(phi)}) has multiplicity > 1",
        )
    product = tuple(a + b for a, b in zip(phi, psi))
    mult, witness = max_nonzero_weight_multiplicity(g, product)
    if mult > 1:
        require(witness is not None, "a repeated nonzero weight without a witness")
        # the doubled weight gives the relation (2w) + 2(-w) = 0 on the slice
        w = root_scaled_of_dynkin(g, witness)
        return BadSliceCertificate(
            kind="criterion_a_ii",
            weights=(tuple(2 * x for x in w), tuple(-x for x in w)),
            coeffs=(1, 2),
            note="nonzero weight of multiplicity > 1 in the Cartan product",
        )
    return None


def product_group_rule(m: ModuleSpec) -> Optional[BadSliceCertificate]:
    """Bad-slice relation for irreducible tensor modules over product groups.

    For k > 2 simple factors with simple roots alpha, beta, gamma one per
    factor: (a+b) + (b+c) + (a+c) + 2(-a-b-c) = 0.  For k = 2 with
    rk G1 > 1 and adjacent simple roots alpha, beta of G1, gamma of G2:
    (a+c) + (a-c) + 2(b-c) + 2(-(a+b)+c) = 0.  Absent exactly when the
    module is the A1 x A1 tensor square of the natural SL2-module (where no
    such relation exists).  Every participating weight is verified to occur
    among the slice weights.
    """
    g = m.group
    k = len(g.simple_factors)
    if k < 2 or len(m.summands) != 1 or m.summands[0][0] != 1:
        raise ValueError("rule applies to irreducible tensor modules over >= 2 factors")
    slice_counts: dict[Vec, int] = {}
    for w in toral_slice_weights(m):
        slice_counts[w] = slice_counts.get(w, 0) + 1

    def block_root(factor: int, local: int) -> Coords:
        lo, hi = g.blocks[factor]
        rs = g.root_systems[factor]
        full = [0] * g.rank
        full[lo:hi] = rs.cartan[local]
        return root_scaled_of_dynkin(g, tuple(full))

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
        rs = g.root_systems[big]
        # adjacent pair of simple roots in the higher-rank factor
        i, j = next(
            (i, j)
            for i in range(rs.rank)
            for j in range(rs.rank)
            if i != j and rs.cartan[i][j] != 0
        )
        a, b = block_root(big, i), block_root(big, j)
        c = block_root(other, 0)
        weights = (
            combo((1, a), (1, c)),
            combo((1, a), (-1, c)),
            combo((1, b), (-1, c)),
            combo((-1, a), (-1, b), (1, c)),
        )
        coeffs = (1, 1, 2, 2)
    for w in weights:
        if slice_counts.get(w, 0) < 1:
            raise ValueError(f"expected slice weight {w} is absent")
    cert = BadSliceCertificate(kind="product_rule", weights=weights, coeffs=coeffs)
    cert.validate()
    return cert
