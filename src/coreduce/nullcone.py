"""One-parameter-subgroup machinery for null-cone components.

A rational cocharacter pairs with the weight lattice; its strictly positive
weights cut out a positive weight space whose saturation can be a component
of the null cone.  This module enumerates the chambers of the weight
hyperplane arrangement exactly and in integers, applies the sufficient
dominance criteria, decides covariant vanishing by integer feasibility, and
implements the support-matrix rank bound used for the 52-dimensional
two-copy computation over F4.

Rank 2 sorts the lines by angle.  Rank 3 and 4 enumerate cells in the
manner of Avis and Fukuda's reverse search (1996): every chamber of an
essential central arrangement is a pointed cone with an extreme ray, and
near that ray it is a chamber of the rank - 1 arrangement of the hyperplanes
through the ray, so taking every ray cut out by rank - 1 normals and
recursing around it reaches every chamber.  The tests count the chambers
against Zaslavsky's theorem (1975).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Callable, Optional, Sequence

from .config import ResourceLimitError, require
from .monoid import Vec, exists_sum
from .repthy import (
    Character,
    CovariantCertificate,
    ModuleSpec,
    covariant_generator_exists,
    module_weights,
    weight_diagram,
)
from .rootsys import (
    Coords,
    GroupSpec,
    RootSystemError,
    SimpleType,
    _det,
    closure,
    dynkin_to_eps,
    reflect,
    root_scaled_of_dynkin,
    simple_reflections,
    sl3_root_coords,
)

Q = Fraction


@dataclass(frozen=True)
class Cocharacter:
    """A rational cocharacter given by its pairing with root_scaled coordinates."""

    values: tuple[Fraction, ...]
    group: GroupSpec

    def value(self, dynkin: Coords) -> Fraction:
        rs = root_scaled_of_dynkin(self.group, dynkin)
        return sum((v * c for v, c in zip(self.values, rs)), Q(0))

    def is_dominant(self) -> bool:
        return all(self.value(d) > 0 for d in self.group.positive_roots_dynkin())


@dataclass
class AdmissibleSet:
    """The strictly positive weights of a module for a generic cocharacter."""

    weights: tuple[Coords, ...]  # Dynkin coords, with multiplicity, sorted
    defining: Cocharacter
    status: str = "unknown"  # dominant | dominated | unknown | not_by_these_criteria
    dominated_by: Optional[int] = None

    def weight_set(self) -> frozenset[Coords]:
        return frozenset(self.weights)

    def root_scaled(self) -> list[Vec]:
        g = self.defining.group
        return [root_scaled_of_dynkin(g, w) for w in self.weights]

    def dimension(self) -> int:
        return len(self.weights)

    def verify(self, chi: Character) -> None:
        counts: dict[Coords, int] = {}
        for w in self.weights:
            counts[w] = counts.get(w, 0) + 1
        for w, c in counts.items():
            require(self.defining.value(w) > 0, f"weight {w} is not positive on the cocharacter")
            require(chi.mult(w) == c, f"weight {w} occurs {c} times, not {chi.mult(w)}")


def _positive_set(chi: Character, rho: Cocharacter) -> tuple[Coords, ...]:
    return tuple(w for w, v, m in weight_values(chi, rho) if v > 0 for _ in range(m))


def weight_values(chi: Character, rho: Cocharacter) -> list[tuple[Coords, Fraction, int]]:
    """(weight, value on rho, multiplicity) for each nonzero weight of chi,
    in weight order; rho must be generic (no weight pairs to 0)."""
    out: list[tuple[Coords, Fraction, int]] = []
    for w, m in sorted(chi.nonzero_weights().items()):
        v = rho.value(w)
        if v == 0:
            raise RootSystemError(f"cocharacter is not generic: weight {w} pairs to 0")
        out.append((w, v, m))
    return out


# ---------------------------------------------------------------------------
# Chamber enumeration


CHAMBER_RANK_CAP = 4
"""Largest rank whose chambers ``admissible_sets`` enumerates."""


def admissible_sets(m: ModuleSpec, mod_weyl: bool = True) -> list[AdmissibleSet]:
    """One admissible set per chamber of the weight hyperplane arrangement.

    ``mod_weyl`` restricts to strictly dominant cocharacters (one chamber per
    Weyl-group orbit for a simple group), with the root walls added to the
    arrangement.  Rank 1 and 2 are decomposed by angle.  Rank 3 and 4 use
    Avis-Fukuda cell enumeration: every chamber of an essential central
    arrangement is a pointed cone with an extreme ray cut out by rank - 1
    normals, and near that ray it is a chamber of the rank - 1 arrangement
    through the ray, so lifting those chambers from every ray reaches all of
    them (the tests count them against Zaslavsky's theorem).  Larger ranks are
    refused.
    """
    g = m.group
    chi = module_weights(m)
    rank = g.rank
    if rank > CHAMBER_RANK_CAP:
        raise ResourceLimitError(
            f"chamber enumeration got rank {rank}, over CHAMBER_RANK_CAP = {CHAMBER_RANK_CAP}"
        )
    lines = sorted({_line(root_scaled_of_dynkin(g, w)) for w in chi.nonzero_weights()})
    walls = [_primitive(root_scaled_of_dynkin(g, d)) for d in g.positive_roots_dynkin()]
    if rank == 1:
        samples = [(Q(1),)] if (mod_weyl and walls) else [(Q(1),), (Q(-1),)]
    elif rank == 2:
        samples = _rank2_samples(lines, walls if mod_weyl else [])
    else:
        samples = _chamber_samples(lines, rank, walls if mod_weyl else [])
    out: list[AdmissibleSet] = []
    seen: set[tuple[Coords, ...]] = set()
    for vals in samples:
        rho = Cocharacter(tuple(Q(x) for x in vals), g)
        if mod_weyl and walls and not rho.is_dominant():
            continue
        pos = _positive_set(chi, rho)
        if pos in seen:
            continue
        seen.add(pos)
        adm = AdmissibleSet(pos, rho)
        adm.verify(chi)
        out.append(adm)
    return out


def _primitive(v: Vec) -> Vec:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in v)


def _rank2_samples(
    lines: Sequence[Vec], cone_walls: Sequence[Vec]
) -> list[tuple[Fraction, ...]]:
    """Interior sample points of the angular sectors cut by the given lines."""
    dirs: set[tuple[Fraction, Fraction]] = set()
    for a, b in list(lines) + list(cone_walls):
        # the line {x : a*x0 + b*x1 = 0} has directions (-b, a) and (b, -a)
        d = _primitive((-b, a))
        dirs.add(tuple(Q(x) for x in d))
        dirs.add(tuple(-Q(x) for x in d))

    def angle_key(d: tuple[Fraction, Fraction]):
        x, y = d
        if y > 0 or (y == 0 and x > 0):
            half = 0
        else:
            half = 1
        # within a half-turn, order by slope (cot decreasing): use cross products
        return (half, d)

    ordered = sorted(dirs, key=angle_key)
    # sort each half-turn by true angle via pairwise cross product (insertion)
    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    halves: dict[int, list] = {0: [], 1: []}
    for d in ordered:
        halves[angle_key(d)[0]].append(d)
    for h in halves.values():
        # insertion sort by cross product (all within an open half-plane)
        for i in range(1, len(h)):
            j = i
            while j > 0 and cross(h[j - 1], h[j]) < 0:
                h[j - 1], h[j] = h[j], h[j - 1]
                j -= 1
    cycle = halves[0] + halves[1]
    samples = []
    n = len(cycle)
    for i in range(n):
        d1 = cycle[i]
        d2 = cycle[(i + 1) % n]
        if cross(d1, d2) <= 0 and i + 1 < n:
            continue  # duplicate direction
        mid = (d1[0] + d2[0], d1[1] + d2[1])
        if mid != (0, 0):
            samples.append((Q(mid[0]), Q(mid[1])))
    return samples


def _chamber_samples(
    normals: Sequence[Vec], rank: int, cone: Sequence[Vec]
) -> list[Vec]:
    """One integer interior point of every chamber of the hyperplanes
    ``normals`` and ``cone`` (rank 3 or 4); with ``cone`` walls given, only
    the chambers strictly inside the cone they bound.

    Every chamber of an essential central arrangement is a pointed cone, so
    it has an extreme ray r, the common kernel of rank - 1 of the normals.
    Near r the chamber is a chamber of the hyperplanes through r, which form
    a rank - 1 arrangement on the slice x_k = 0 (any k with r[k] != 0); a
    sample s there lifts to N*r + s with N = 1 + max |h.s|, which keeps the
    sign of every other hyperplane as it is on r, since |h.r| >= 1.
    """
    hyper = sorted({_line(h) for h in (*normals, *cone)})
    rays = _rays(hyper, rank)
    if not any(_dot(h, r) for h in hyper for r in rays):
        # the normals do not span; the coordinate hyperplanes make the
        # arrangement essential and only refine its chambers
        hyper = sorted(set(hyper) | {tuple(int(i == j) for j in range(rank)) for i in range(rank)})
        rays = _rays(hyper, rank)
    found: dict[tuple[bool, ...], Vec] = {}
    for r in sorted(rays):
        # a chamber inside the cone has no extreme ray outside it
        if any(_dot(w, r) < 0 for w in cone):
            continue
        k = next(i for i, x in enumerate(r) if x)

        def drop(h: Vec) -> Vec:
            return _line(h[:k] + h[k + 1 :])

        local = sorted({drop(h) for h in hyper if _dot(h, r) == 0})
        if rank == 3:
            slices = [tuple(int(x) for x in s) for s in _rank2_samples(local, [])]
        else:
            slices = _chamber_samples(local, 3, [drop(w) for w in cone if _dot(w, r) == 0])
        for s in slices:
            s = s[:k] + (0,) + s[k:]
            n = 1 + max(abs(_dot(h, s)) for h in hyper)
            p = tuple(n * a + b for a, b in zip(r, s))
            if all(_dot(w, p) > 0 for w in cone):
                found.setdefault(tuple(_dot(h, p) > 0 for h in hyper), p)
    return list(found.values())


def _rays(hyper: Sequence[Vec], rank: int) -> set[Vec]:
    """Both primitive directions of every line cut out by rank - 1 of the
    hyperplanes: the signed maximal minors of the normals."""
    rays: set[Vec] = set()
    for sub in combinations(hyper, rank - 1):
        r = tuple((-1) ** j * _det([h[:j] + h[j + 1 :] for h in sub]) for j in range(rank))
        if any(r):
            r = _primitive(r)
            rays |= {r, tuple(-x for x in r)}
    return rays


def _dot(a: Vec, b: Vec) -> int:
    return sum(x * y for x, y in zip(a, b))


def _line(h: Vec) -> Vec:
    """The primitive normal of a hyperplane, of a fixed sign."""
    h = _primitive(h)
    return max(h, tuple(-x for x in h))


def maximal_sets(sets: Sequence[AdmissibleSet]) -> list[AdmissibleSet]:
    out = []
    for a in sets:
        sa = a.weight_set()
        if any(sa < b.weight_set() for b in sets):
            continue
        out.append(a)
    return out


# ---------------------------------------------------------------------------
# Dominance: the sufficient criteria


def dominance(lam1: AdmissibleSet, lam2: AdmissibleSet) -> str:
    """Sufficient test for "the second set dominates the first".

    Returns "dominated" when a Weyl element sigma maps all of the first set
    into the second (subset rule, sigma possibly the identity), or when the
    part not mapped into the second set has total multiplicity one and that
    missing weight is reachable from the mapped part by adding a positive
    root (density of the Borel sweep).  Otherwise "not_by_these_criteria".
    The images sigma(w) are the Weyl orbit of the tuple of distinct weights.
    """
    g = lam1.defining.group
    w2 = lam2.weight_set()
    counts1: dict[Coords, int] = {}
    for w in lam1.weights:
        counts1[w] = counts1.get(w, 0) + 1
    pos_roots = g.positive_roots_dynkin()
    refls = simple_reflections(g)

    def reflections(ws: tuple[Coords, ...]) -> list[tuple[Coords, ...]]:
        return [tuple(reflect(g, w, r) for w in ws) for r in refls]

    for images in closure((tuple(counts1),), reflections):
        kept: list[Coords] = []
        missing: list[tuple[Coords, int]] = []
        for (w, c), image in zip(counts1.items(), images):
            if image in w2:
                kept.append(w)
            else:
                missing.append((w, c))
        total_missing = sum(c for _, c in missing)
        if total_missing == 0:
            return "dominated"
        if total_missing == 1:
            (w0, _c), = missing
            kept_set = set(kept)
            if any(
                tuple(a - b for a, b in zip(w0, r)) in kept_set for r in pos_roots
            ):
                return "dominated"
    return "not_by_these_criteria"


def sl3_two_quadrant_dominant(adm: AdmissibleSet, all_sets: Sequence[AdmissibleSet]) -> bool:
    """Sufficient dominance criterion for a maximal admissible set over A2.

    Requires nonzero member weights of the forms (-a, b) and (c, -d) in
    root coordinates with nonnegative coefficients.
    """
    g = adm.defining.group
    if len(g.simple_factors) != 1 or str(g.simple_factors[0]) != "A2" or g.torus_rank:
        raise RootSystemError("two-quadrant criterion is specific to A2")
    sa = adm.weight_set()
    if any(sa < b.weight_set() for b in all_sets):
        return False  # not maximal
    has_1 = has_2 = False
    for w in sa:
        p, q = sl3_root_coords(w)
        if p <= 0 and q >= 0 and (p, q) != (0, 0):
            has_1 = True
        if p >= 0 and q <= 0 and (p, q) != (0, 0):
            has_2 = True
    return has_1 and has_2


def classify_components_sl3(m: ModuleSpec) -> list[AdmissibleSet]:
    """Admissible sets of an A2 module with dominance statuses filled in."""
    sets = admissible_sets(m, mod_weyl=True)
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i == j or a.weight_set() == b.weight_set():
                continue
            if dominance(a, b) == "dominated":
                a.status = "dominated"
                a.dominated_by = j
                break
    for a in sets:
        if a.status != "unknown":
            continue
        if sl3_two_quadrant_dominant(a, sets):
            a.status = "dominant"
    return sets


def sl3_critical_ratios(m: ModuleSpec) -> set[Fraction]:
    """Positive ratios t where a weight of the module pairs to zero with
    the dominant cocharacter normalized to value 1 on the first simple root."""
    chi = module_weights(m)
    out: set[Fraction] = set()
    for w in chi.nonzero_weights():
        p, q = sl3_root_coords(w)
        if q != 0 and -p / q > 0:
            out.add(-p / q)
    return out


# ---------------------------------------------------------------------------
# Covariant vanishing by integer feasibility


def covariant_vanishes(
    adm: AdmissibleSet,
    lam_star: Coords,
    d: int,
    all_degrees: bool = False,
) -> bool:
    """True when no degree-d monomial in the positive weight space has the
    weight ``lam_star`` (so every degree-d covariant of that type vanishes on
    the saturation of the positive weight space).  With ``all_degrees`` the
    check covers every degree 1..d.

    The defining cocharacter is positive on every weight of the set, so a
    degree-e monomial has a value between e*min and e*max of the weight
    values; ``exists_sum`` drops every partial monomial that can no longer
    meet the value of ``lam_star`` (and likewise per coordinate), and
    answers at once when degree e is out of that range.
    """
    if d < 1:
        raise ValueError(f"covariant degree must be at least 1, got {d}")
    g = adm.defining.group
    ws = adm.root_scaled()
    target = root_scaled_of_dynkin(g, lam_star)
    degrees = range(1, d + 1) if all_degrees else [d]
    for e in degrees:
        if exists_sum(ws, target, e, grading=adm.defining.values).feasible:
            return False
    return True


# ---------------------------------------------------------------------------
# Degree/rank screens from the rho-value bookkeeping


@dataclass(frozen=True)
class ScreenResult:
    max_useful_degree: Optional[int]  # degrees above this have vanishing differentials
    invariants_available: int  # number of generating invariants of degree <= that
    rank_bound: int  # complement weight-space dimensions reachable by the value DP
    codim: int

    @property
    def degree_rule_fires(self) -> bool:
        return (
            self.max_useful_degree is not None
            and self.invariants_available < self.codim
        )

    @property
    def rank_rule_fires(self) -> bool:
        return self.rank_bound < self.codim

    @property
    def not_reduced(self) -> bool:
        return self.degree_rule_fires or self.rank_rule_fires


def negative_weight_degree_screen(
    chi: Character,
    rho: Cocharacter,
    codim: int,
    invariant_degrees: Sequence[int],
) -> ScreenResult:
    """Bound the rank of the invariant differentials on a positive weight space.

    Only monomials with exactly one factor from the complement (the
    nonpositive weights) contribute to the differentials there.  The degree
    bound is the largest total degree of a zero-weight monomial of that
    shape; the rank bound counts the complement weight-space dimensions that
    can appear in such a monomial at all.
    """
    return value_screen([(v, m) for _, v, m in weight_values(chi, rho)], codim, invariant_degrees)


def value_screen(
    values: Sequence[tuple[Fraction, int]],
    codim: int,
    invariant_degrees: Sequence[int],
) -> ScreenResult:
    """Like :func:`negative_weight_degree_screen` but on a raw multiset of
    nonzero cocharacter values (value, multiplicity)."""
    ks = [k for k in positive_factor_counts(values) if k is not None]
    max_degree = max(ks) + 1 if ks else None
    avail = (
        len(list(invariant_degrees))
        if max_degree is None
        else sum(1 for d in invariant_degrees if d <= max_degree)
    )
    return ScreenResult(max_degree, avail, len(ks), codim)


def positive_factor_counts(values: Sequence[tuple[Fraction, int]]) -> list[Optional[int]]:
    """For each negative value, repeated by its multiplicity, the largest
    number of positive values (with repetition) summing to minus it: the
    positive factors of a zero-weight monomial with that single negative
    factor.  None when no such monomial exists."""
    pos: list[Fraction] = []
    neg: list[Fraction] = []
    for v, m in values:
        require(v != 0, "cocharacter values must be nonzero")
        (pos if v > 0 else neg).extend([abs(Fraction(v))] * m)
    den = lcm(*(v.denominator for v in pos + neg))
    pvals = sorted({int(v * den) for v in pos})
    best: dict[Fraction, Optional[int]] = {}
    for v in neg:
        if v not in best:
            reach = _representable_counts(pvals, int(v * den))
            best[v] = max(reach) if reach else None
    return [best[v] for v in neg]


def _representable_counts(pos_vals: Sequence[int], target: int) -> set[int]:
    """All k >= 1 such that target is a sum of k of the given positive values
    (with repetition)."""
    reach: dict[int, set[int]] = {0: {0}}
    frontier = {0}
    while frontier:
        nxt: set[int] = set()
        for s in frontier:
            for v in pos_vals:
                t = s + v
                if t > target:
                    continue
                ks = {k + 1 for k in reach[s]}
                cur = reach.setdefault(t, set())
                new = ks - cur
                if new:
                    cur |= new
                    nxt.add(t)
        frontier = nxt
    return {k for k in reach.get(target, set()) if k >= 1}


# ---------------------------------------------------------------------------
# Support-matrix rank bound (weight bookkeeping for dim of a tangent image)

Label = tuple  # ("w", weight, copy) or ("0", cls, copy)
Column = frozenset


def column_reduce(columns: set[Column]) -> set[Column]:
    """Repeatedly take a singleton column {r} and delete r from all others."""
    cols = set(columns)
    done_rows: set = set()
    while True:
        singleton = next(
            (c for c in cols if len(c) == 1 and next(iter(c)) not in done_rows), None
        )
        if singleton is None:
            return cols
        (r,) = singleton
        done_rows.add(r)
        out: set[Column] = set()
        for c in cols:
            if c == singleton or r not in c:
                out.add(c)
            else:
                reduced = c - {r}
                if reduced:
                    out.add(reduced)
        cols = out


def row_reduce(columns: set[Column]) -> set[Column]:
    """Rows appearing in exactly one column force that column to a singleton."""
    cols = set(columns)
    while True:
        row_count: dict = {}
        for c in cols:
            for r in c:
                row_count[r] = row_count.get(r, 0) + 1
        target = None
        for c in cols:
            if len(c) > 1:
                for r in c:
                    if row_count[r] == 1:
                        target = (c, r)
                        break
            if target:
                break
        if target is None:
            return cols
        c, r = target
        cols.remove(c)
        cols.add(frozenset([r]))


def support_rank_bound(columns: set[Column]) -> tuple[int, dict]:
    """Lower bound for the rank of a matrix with the given 0/1 column supports."""
    reduced = column_reduce(columns)
    singles_after_columns = sum(1 for c in reduced if len(c) == 1)
    final = row_reduce(reduced)
    bound = len({next(iter(c)) for c in final if len(c) == 1})
    stats = {
        "columns": len(columns),
        "after_column_reduction": len(reduced),
        "singletons_after_column_reduction": singles_after_columns,
        "after_row_reduction": len(final),
        "bound": bound,
    }
    return bound, stats


def support_orbit_dim_bound(
    m: ModuleSpec,
    v_support: Sequence[tuple[Coords, int]],
    zero_class: Optional[Callable[[Coords], object]] = None,
) -> tuple[int, dict]:
    """Certified lower bound for dim G·v at a generic vector with the given
    weight support, via support-matrix reduction.  ``v_support`` lists
    (weight in Dynkin coordinates, summand copy index).  ``zero_class``
    refines the labelling of root-vector images inside the zero weight space;
    the default lumps them together, which is always safe but may be weak.
    """
    if not v_support:
        return 0, {"columns": 0, "bound": 0}
    g = m.group
    copies: list[dict[Coords, int]] = []
    for coeff, hw in m.summands:
        diag = weight_diagram(g, hw).entries
        copies.extend([dict(diag)] * coeff)
    roots = g.roots_dynkin()
    cls = zero_class if zero_class is not None else (lambda delta: "0")
    cols = support_columns(copies, roots, v_support, cls)
    return support_rank_bound(cols)


def support_columns(
    copies: Sequence[dict[Coords, int]],
    roots: Sequence[Coords],
    v_support: Sequence[tuple[Coords, int]],
    zero_class: Callable[[Coords], object],
) -> set[Column]:
    """Weight supports of the root-vector images of v, plus the torus images.

    ``copies``: weight multiset of each summand copy (coordinates in any fixed
    integral basis, e.g. doubled epsilon coordinates); nonzero weight spaces
    must be one-dimensional.  ``v_support``: (weight, copy index) components of
    v, distinct within each copy.  ``zero_class`` labels the line that a root
    vector image takes inside the zero weight space.
    """
    for diag in copies:
        for w, m in diag.items():
            if any(w) and m != 1:
                raise ValueError("support bookkeeping needs 1-dim nonzero weight spaces")
    cols: set[Column] = set()
    for w, copy in v_support:
        if copies[copy].get(w, 0) < 1:
            raise ValueError(f"support weight {w} not in copy {copy}")
        cols.add(frozenset([("w", w, copy)]))
    zero = tuple(0 for _ in roots[0])
    for delta in roots:
        support: set = set()
        for w, copy in v_support:
            t = tuple(a + b for a, b in zip(w, delta))
            if t == zero:
                support.add(("0", zero_class(delta), copy))
            elif copies[copy].get(t, 0) >= 1:
                support.add(("w", t, copy))
        if support:
            cols.add(frozenset(support))
    return cols


# ---------------------------------------------------------------------------
# Fixture: null-cone models for two copies each of the standard rank-2
# special linear module and its dual, paired with a second copy of the group.
# The cocharacter is recorded by its six diagonal weights
# (a, b, c, abar, bbar, cbar) with a >= b >= c, abar >= bbar >= cbar and
# a > abar after symmetry reduction; the derived sign vector of
# (c-bbar, c-cbar, c+abar, b+abar, b-cbar, b-bbar) selects the chamber.

SL3_PAIR_SIGN_PATTERNS: tuple[tuple[int, ...], ...] = (
    (-1, -1, -1, -1, -1, -1),
    (-1, -1, -1, 1, -1, -1),
    (-1, -1, -1, 1, 1, -1),
    (-1, -1, -1, 1, 1, 1),
    (-1, -1, 1, 1, -1, -1),
    (-1, -1, 1, 1, 1, -1),
    (-1, -1, 1, 1, 1, 1),
    (-1, 1, 1, 1, 1, -1),
)

SL3_PAIR_MODELS: tuple[tuple[int, ...], ...] = (
    (4, -2, -2, 1, 0, -1),
    (8, -3, -5, 4, -2, -2),
    (4, -1, -3, 2, 0, -2),
    (3, 0, -3, 2, -1, -1),
    (6, -3, -3, 4, -2, -2),
    (8, -3, -5, 6, -2, -4),
    (7, -2, -5, 6, -3, -3),
    (4, -2, -2, 3, 0, -3),
)


def sl3_pair_sign_vector(model: Sequence[int]) -> tuple[int, ...]:
    a, b, c, ab, bb, cb = model
    vals = (c - bb, c - cb, c + ab, b + ab, b - cb, b - bb)
    if any(v == 0 for v in vals):
        raise ValueError(f"model {model} lies on a wall")
    return tuple(1 if v > 0 else -1 for v in vals)


def sl3_pair_validate_model(idx: int) -> None:
    """Each model realizes its sign row and the chamber inequalities;
    raises :class:`CertificateError` otherwise."""
    model = SL3_PAIR_MODELS[idx]
    a, b, c, ab, bb, cb = model
    bad = f"model row {idx} {model}"
    require(a >= b >= c and ab >= bb >= cb and a > ab, f"{bad} is not ordered")
    require(a + b + c == 0 and ab + bb + cb == 0, f"{bad} does not sum to zero")
    chain = (c - bb, c - cb, c + ab, b + ab, b - cb, b - bb)
    require(chain[0] <= chain[1] <= chain[2] <= chain[3], f"{bad} breaks the rising chain")
    require(chain[3] >= chain[4] >= chain[5], f"{bad} breaks the falling chain")
    require(chain[0] < 0, f"{bad} has a nonnegative first chain entry")
    require(not (chain[1] > 0 and chain[5] > 0), f"{bad} has both outer chain entries positive")
    signs = sl3_pair_sign_vector(model)
    require(signs == SL3_PAIR_SIGN_PATTERNS[idx], f"{bad} misses its sign row")


def sl3_pair_component_weights(model: Sequence[int]) -> list[list[int]]:
    """Cocharacter weights on the four 9-dimensional summands.

    The summands pair each factor's standard module or its dual with the
    other factor's, so their weights are x+y, x-y, -x+y, -x-y.
    """
    a, b, c, ab, bb, cb = model
    first, second = (a, b, c), (ab, bb, cb)
    comps = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            comps.append(sorted(s1 * x + s2 * y for x in first for y in second))
    # order: (+,+), (+,-), (-,+), (-,-)
    return [comps[0], comps[1], comps[2], comps[3]]


def sl3_pair_differential_vanishes(model: Sequence[int]) -> tuple[bool, dict]:
    """Degree argument for a multidegree-(3,3,3,3) invariant.

    A monomial of the invariant with exactly one negative-weight factor has
    its positive weights summing to at least three minimal positives per
    summand (two in the summand carrying the negative factor); the
    differential vanishes on the positive weight space when that floor beats
    every negative weight.
    """
    comps = sl3_pair_component_weights(model)
    pos = [[v for v in comp if v > 0] for comp in comps]
    neg = [[-v for v in comp if v < 0] for comp in comps]
    max_negative = max((v for comp in neg for v in comp), default=0)
    floors = []
    vanishes = True
    for i in range(4):
        if not neg[i]:
            floors.append(None)
            continue
        if any(not p for p in pos):
            floors.append(0)  # no such monomial exists at all
            continue
        floor = sum(3 * min(p) for p in pos) - min(pos[i])
        floors.append(floor)
        if floor <= max(neg[i]):
            vanishes = False
    stats = {
        "component_positive_weights": pos,
        "max_negative": max_negative,
        "floors": floors,
    }
    return vanishes, stats


# ---------------------------------------------------------------------------
# Fixture: the sixteen maximal positive weight spaces of the 7x7-dimensional
# module over the product of two copies of the rank-2 exceptional group.
# A cocharacter is recorded by (a, b, a2, b2): its values on the short simple
# root and the middle short root of each factor; normalization
# a,b,a2,b2 > 0, a >= b, a2 >= b2, disjoint value triples, plus the swap.

G2XG2_MODEL_PARAMS: tuple[tuple[int, int, int, int], ...] = (
    (5, 4, 2, 1),
    (6, 4, 3, 2),
    (6, 5, 4, 3),
    (5, 2, 3, 1),
    (6, 4, 5, 3),
    (7, 1, 4, 2),
    (6, 2, 4, 3),
    (6, 2, 5, 4),
)


def g2xg2_group() -> GroupSpec:
    return GroupSpec((SimpleType("G", 2), SimpleType("G", 2)))


G2XG2_HW = (1, 0, 1, 0)  # the 7-dim module of each factor, tensored
G2XG2_TARGET = (0, 0, 1, 0)  # the adjoint module of the second factor
G2XG2_DEGREE = 9


def g2xg2_cocharacter(a: int, b: int, a2: int, b2: int) -> Cocharacter:
    """Values (a, b-a, a2, b2-a2) on root coordinates: the short simple root
    pairs to a and the middle short root (sum of the simple roots) to b."""
    g = g2xg2_group()
    return Cocharacter((Q(a), Q(b - a), Q(a2), Q(b2 - a2)), g)


def g2xg2_model_admissible_sets() -> list[AdmissibleSet]:
    """The eight models and their copy-swaps, as admissible sets of the
    7x7 module; each has 24 of the 48 nonzero weights."""
    g = g2xg2_group()
    m = ModuleSpec(g, ((1, G2XG2_HW),))
    chi = module_weights(m)
    out = []
    for a, b, a2, b2 in G2XG2_MODEL_PARAMS:
        for params in ((a, b, a2, b2), (a2, b2, a, b)):
            rho = g2xg2_cocharacter(*params)
            triple = {params[0], params[1], params[0] + params[1]}
            triple2 = {params[2], params[3], params[2] + params[3]}
            require(
                all(x > 0 for x in params) and params[0] >= params[1] and params[2] >= params[3]
                and not triple & triple2,
                f"model {params} is not normalized",
            )
            adm = AdmissibleSet(_positive_set(chi, rho), rho)
            adm.verify(chi)
            require(adm.dimension() == 24, f"model {params} gives dimension {adm.dimension()}")
            out.append(adm)
    return out


def g2xg2_covariant_vanishes(sets: Sequence[AdmissibleSet]) -> bool:
    """Does the degree-9 covariant of adjoint type vanish on every set?"""
    return all(covariant_vanishes(a, G2XG2_TARGET, G2XG2_DEGREE, False) for a in sets)


def g2xg2_covariant_series() -> CovariantCertificate:
    """Multiplicities of the adjoint target and invariant dimensions in
    degrees 1..9 of the symmetric algebra of the 49-dimensional module, and
    the degree-9 ideal bound."""
    m = ModuleSpec(g2xg2_group(), ((1, G2XG2_HW),))
    return covariant_generator_exists(m, G2XG2_TARGET, G2XG2_DEGREE)


# ---------------------------------------------------------------------------
# Fixture: triality-orbit block checks for the 8+8+8-dimensional module of
# the rank-4 orthogonal group.  Each case lists the four-element positive
# weight sets of the three summand families in epsilon coordinates; the
# blocks are the positive weights of their exterior squares (pairwise sums).

_E = [
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
]


def _half(signs: str) -> tuple[Fraction, ...]:
    return tuple(Q(1 if s == "+" else -1, 2) for s in signs)


D4_TRIALITY_CASES: tuple[dict, ...] = (
    {
        "vector": tuple(_E),
        "spinor_plus": ("++++", "+-+-", "++--", "-++-"),
        "spinor_minus": ("+++-", "+-++", "++-+", "-+++"),
    },
    {
        "vector": tuple(_E),
        "spinor_plus": ("++++", "+-+-", "++--", "+--+"),
        "spinor_minus": ("+++-", "+-++", "++-+", "+---"),
    },
    {
        "vector": tuple(_E),
        "spinor_plus": ("++++", "+-+-", "++--", "+--+"),
        "spinor_minus": ("+++-", "+-++", "++-+", "-+++"),
    },
)


def _pairwise_sums(vectors: Sequence[Sequence[Fraction]]) -> list[Vec]:
    out = []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            s = tuple(x + y for x, y in zip(vectors[i], vectors[j]))
            require(all(f == int(f) for f in s), f"pairwise sum {s} is not integral")
            out.append(tuple(int(f) for f in s))
    return out


def d4_wedge_blocks(case: dict) -> list[list[Vec]]:
    """Positive weights of the exterior square of each summand family."""
    vec = [tuple(Q(x) for x in v) for v in case["vector"]]
    sp = [_half(s) for s in case["spinor_plus"]]
    sm = [_half(s) for s in case["spinor_minus"]]
    return [_pairwise_sums(vec), _pairwise_sums(sp), _pairwise_sums(sm)]


def d4_adjoint_target_reachable(case: dict) -> bool:
    """Can the adjoint highest weight e1+e2 be a sum of one positive exterior
    square weight from each of the three families?  Each weight carries its
    family's indicator, so a sum of three with indicators (1, 1, 1) takes one
    from each."""
    blocks = d4_wedge_blocks(case)
    tagged = [
        w + tuple(int(i == k) for i in range(len(blocks)))
        for k, block in enumerate(blocks)
        for w in block
    ]
    target = (1, 1, 0, 0) + (1,) * len(blocks)
    return exists_sum(tagged, target, len(blocks)).feasible


# ---------------------------------------------------------------------------
# Fixture: the support matrix for two copies of the 26-dimensional module of
# the rank-4 exceptional group.  Doubled epsilon coordinates keep everything
# integral: the module's nonzero weights are the 24 short roots, split into
# the eight "integral" ones (doubled: +-2e_i) and the sixteen half-sum ones
# (doubled: all coordinates +-1); the 24 long roots are +-2e_i +- 2e_j.


def f4_roots_doubled() -> tuple[list[Vec], list[Vec]]:
    """The short and the long roots of the rank-4 exceptional root system,
    in doubled epsilon coordinates."""
    t = SimpleType("F", 4)
    short: list[Vec] = []
    long: list[Vec] = []
    for d in GroupSpec((t,)).roots_dynkin():
        v = tuple(int(2 * x) for x in dynkin_to_eps(t, d))
        (short if sum(x * x for x in v) == 4 else long).append(v)
    return short, long


def f4_two_26_support_bound() -> tuple[int, dict]:
    """Support-matrix rank bound at the witness vector with weight components
    (e3, (e1-e2-e3+e4)/2) in the first copy and (e2, (e1-e2-e3-e4)/2) in the
    second; the two zero-weight image lines are distinguished by whether the
    acting root vector carries an integral short root."""
    short, long = f4_roots_doubled()
    diag = {w: 1 for w in short}
    diag[(0, 0, 0, 0)] = 2
    copies = [dict(diag), dict(diag)]
    roots = short + long
    v_support = [
        ((0, 0, 2, 0), 0),
        ((1, -1, -1, 1), 0),
        ((0, 2, 0, 0), 1),
        ((1, -1, -1, -1), 1),
    ]

    def zero_class(delta: Vec) -> str:
        return "0_int" if any(abs(x) == 2 for x in delta) else "0_half"

    cols = support_columns(copies, roots, v_support, zero_class)
    return support_rank_bound(cols)
