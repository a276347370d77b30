"""One-parameter-subgroup machinery for null-cone components.

A cocharacter pairs with the weight lattice; its strictly positive
weights cut out a positive weight space whose saturation can be a component
of the null cone.  This module enumerates the chambers of the weight
hyperplane arrangement exactly and in integers, applies the sufficient
dominance criteria, decides covariant vanishing by integer feasibility, and
implements the support-matrix rank bound used for the 52-dimensional
two-copy computation over F4.

Every rank enumerates cells in the manner of Avis and Fukuda's reverse
search (1996): every chamber of an essential central arrangement is a pointed
cone with an extreme ray, and near that ray it is a chamber of the rank - 1
arrangement of the hyperplanes through the ray, so taking every ray cut out
by rank - 1 normals and recursing around it, down to the two half-lines of
rank 1, reaches every chamber.  The tests count the chambers against
Zaslavsky's theorem (1975).  Each chamber met at a ray is told apart by its
sign vector, read off the ray: the ray's signs, overwritten on the
hyperplanes through the ray by those of the local chamber's point.  That is
the sign vector of the point lifted from the local chamber to near the ray,
which is the argument for the key; the lift itself is never built.
``admissible_sets`` sorts a module's nonzero weights once and reads each
chamber's positive weights off that list with the chamber's cocharacter,
after sizing the module against ``CHAMBER_WEIGHT_CAP``.

The enumeration is a pure function of its hyperplanes, so
``_chamber_samples`` is memoized in a bounded ``functools.lru_cache``
(``CHAMBER_MEMO_SIZE`` entries) keyed on the normals, the rank and the cone
walls as tuples, in the order given: the recursion reuses the
sub-arrangements around rays it has met before, within one enumeration and
across requests.  It stores only tuples of points; ``admissible_sets``
builds fresh ``AdmissibleSet`` objects from them, because callers write
their ``status``.  A rank over ``CHAMBER_RANK_CAP`` is refused before the
memo is read, so no stopped enumeration is ever stored.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

from .config import CertificateError, ResourceLimitError, require
from .monoid import Vec, exists_sum
from .repthy import Character, ModuleSpec, weight_counts, weight_diagram
from .rootsys import (
    Coords,
    GroupSpec,
    RootSystemError,
    SimpleType,
    _det,
    closure,
    dynkin_to_eps,
    parse_weight,
    reflect,
    root_scaled_of_dynkin,
    sl3_root_coords,
)


class _CocharacterFields(NamedTuple):
    values: tuple[int, ...]
    group: GroupSpec


class Cocharacter(_CocharacterFields):
    """A cocharacter given by its integer pairing with root_scaled
    coordinates.  ``pairing`` holds the same functional on Dynkin labels (its
    values on the fundamental weights), computed once and left out of
    equality, hash and repr."""

    @cached_property
    def pairing(self) -> tuple[int, ...]:
        # the value on the i-th fundamental weight: the values times its
        # root_scaled coordinates, the i-th entries of the columns
        rows = zip(*self.group.root_data.root_scaled)
        return tuple(sum(map(mul, self.values, row)) for row in rows)

    def value(self, dynkin: Coords) -> int:
        return sum(map(mul, self.pairing, dynkin))

    def is_dominant(self) -> bool:
        return all(self.value(d) > 0 for d in self.group.root_data.positive_roots)


class AdmissibleSet:
    """The strictly positive weights of a module for a generic cocharacter."""

    __slots__ = ("weights", "defining", "status")

    def __init__(self, weights: tuple[Coords, ...], defining: Cocharacter) -> None:
        self.weights = weights  # Dynkin coords, with multiplicity, sorted
        self.defining = defining
        self.status = "unknown"  # dominant | dominated | unknown | not_by_these_criteria

    def weight_set(self) -> frozenset[Coords]:
        return frozenset(self.weights)

    def root_scaled(self) -> list[Vec]:
        g = self.defining.group
        return [root_scaled_of_dynkin(g, w) for w in self.weights]

    def dimension(self) -> int:
        return len(self.weights)

    def verify(self, chi: Character) -> None:
        # explicit tests rather than require, so the success path builds no
        # message
        for w, c in Counter(self.weights).items():
            if self.defining.value(w) <= 0:
                raise CertificateError(f"weight {w} is not positive on the cocharacter")
            if chi.mult(w) != c:
                raise CertificateError(f"weight {w} occurs {c} times, not {chi.mult(w)}")


def weight_values(chi: Character, rho: Cocharacter) -> list[tuple[Coords, int, int]]:
    """(weight, value on rho, multiplicity) for each nonzero weight of chi,
    in weight order; rho must be generic (no weight pairs to 0)."""
    out: list[tuple[Coords, int, int]] = []
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
CHAMBER_WEIGHT_CAP = 10_000
"""Nonzero weights, counted with multiplicity, of a module whose admissible
sets ``admissible_sets`` lists: each set holds its weights with
multiplicity, so the count bounds every set.  It is read off the dominant
diagram (``repthy.weight_counts``) before the first chamber.  The largest
module whose sets the tests, the benchmark or the paper suites list has 48
nonzero weights (the Appendix B module); ``99999999999*[1,1]`` over A2 has
about 6e11."""
CHAMBER_MEMO_SIZE = 1024
"""Arrangements whose chamber points ``_chamber_samples`` keeps: above the
sub-arrangements met in a session of a few hundred CLI requests (under 100)
and in one rank-4 enumeration (41 for the Appendix B module)."""


def admissible_sets(m: ModuleSpec, mod_weyl: bool = True) -> list[AdmissibleSet]:
    """One admissible set per chamber of the weight hyperplane arrangement.

    ``mod_weyl`` restricts to strictly dominant cocharacters (one chamber per
    Weyl-group orbit for a simple group), with the root walls added to the
    arrangement as the walls of a cone.  Every rank up to ``CHAMBER_RANK_CAP``
    goes through :func:`_chamber_samples`, and each chamber's cocharacter is
    the sum of its primitive extreme rays (the tests count the chambers
    against Zaslavsky's theorem).  Larger ranks, modules with more than
    ``CHAMBER_WEIGHT_CAP`` nonzero weights and modules without a nonzero
    weight are refused.  The nonzero weights are sorted once, and each
    chamber's positive set is read off that list with its cocharacter.
    """
    g = m.group
    rank = g.rank
    if rank > CHAMBER_RANK_CAP:
        raise ResourceLimitError(
            "nullcone.chambers", "CHAMBER_RANK_CAP", CHAMBER_RANK_CAP, rank,
            "chamber enumeration got rank {count}",
        )
    count = weight_counts(m)[1]
    if count > CHAMBER_WEIGHT_CAP:
        raise ResourceLimitError(
            "nullcone.chambers", "CHAMBER_WEIGHT_CAP", CHAMBER_WEIGHT_CAP, count,
            "chamber enumeration got a module of {count} nonzero weights",
        )
    chi = m.weights
    nonzero = sorted(chi.nonzero_weights().items())
    lines = tuple(sorted({_line(root_scaled_of_dynkin(g, w)) for w, _m in nonzero}))
    if not lines:
        # a zero-dimensional positive weight space answers every question vacuously
        raise ValueError("need a nontrivial module with no trivial summands")
    copies = [(w, (w,) * mult) for w, mult in nonzero]
    walls = tuple(_primitive(root_scaled_of_dynkin(g, d)) for d in g.root_data.positive_roots)
    out: list[AdmissibleSet] = []
    seen: set[tuple[Coords, ...]] = set()
    for vals in _chamber_samples(lines, rank, walls if mod_weyl else ()):
        rho = Cocharacter(vals, g)
        require(not mod_weyl or rho.is_dominant(), f"chamber point {vals} is not dominant")
        pairing = rho.pairing
        positive: list[Coords] = []
        for w, ws in copies:
            v = sum(map(mul, pairing, w))
            if v > 0:
                positive += ws
            elif not v:
                raise RootSystemError(f"cocharacter is not generic: weight {w} pairs to 0")
        pos = tuple(positive)
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


@lru_cache(maxsize=CHAMBER_MEMO_SIZE)
def _chamber_samples(
    normals: tuple[Vec, ...], rank: int, cone: tuple[Vec, ...]
) -> tuple[Vec, ...]:
    """The sum of the primitive extreme rays of every chamber of the
    hyperplanes ``normals`` and ``cone``, an integer interior point that
    depends only on the chamber; with ``cone`` walls given, only the chambers
    strictly inside the cone they bound.  At rank 1 the chambers are the two
    half-lines.  When the normals do not span, the coordinate hyperplanes
    refine the chambers, and each refined chamber gets its point.

    Every chamber of an essential central arrangement is a pointed cone, so
    it has an extreme ray r, the common kernel of rank - 1 of the normals.
    Near r the chamber is a chamber of the hyperplanes through r, which form
    an essential rank - 1 arrangement on the slice x_k = 0 (any k with
    r[k] != 0).  A point s there lifts to N*r + s with N = 1 + max |h.s|,
    which has the sign of s on every hyperplane through r and, since
    |h.r| >= 1, the sign of r on every other one.  So the chamber's sign
    vector is r's, overwritten on the hyperplanes through r by s's, and
    neither N nor the lift is built.  A chamber is met once at each of its
    extreme rays, and only there, so the rays add up to its point as they
    are visited.
    """
    if rank == 1:
        return tuple(p for p in ((1,), (-1,)) if all(_dot(w, p) > 0 for w in cone))
    hyper = sorted({_line(h) for h in (*normals, *cone)})
    rays = _rays(hyper, rank)
    if not any(_dot(h, r) for h in hyper for r in rays):
        # the normals do not span; the coordinate hyperplanes make the
        # arrangement essential and only refine its chambers
        hyper = sorted(set(hyper) | {tuple(int(i == j) for j in range(rank)) for i in range(rank)})
        rays = _rays(hyper, rank)
    sums: dict[tuple[bool, ...], Vec] = {}
    for r in sorted(rays):
        # a chamber inside the cone has no extreme ray outside it; the cone
        # walls not through r are then positive on every lift from r
        if any(_dot(w, r) < 0 for w in cone):
            continue
        k = next(i for i, x in enumerate(r) if x)
        dots = [_dot(h, r) for h in hyper]
        through = [i for i, x in enumerate(dots) if not x]
        local = tuple(hyper[i][:k] + hyper[i][k + 1 :] for i in through)
        local_cone = tuple(w[:k] + w[k + 1 :] for w in cone if _dot(w, r) == 0)
        signs = [x > 0 for x in dots]
        for s in _chamber_samples(local, rank - 1, local_cone):
            for i, h in zip(through, local):
                signs[i] = _dot(h, s) > 0
            key = tuple(signs)
            sums[key] = tuple(a + b for a, b in zip(sums.get(key, (0,) * rank), r))
    return tuple(sums.values())


def _rays(hyper: Sequence[Vec], rank: int) -> set[Vec]:
    """Both primitive directions of every line cut out by rank - 1 of the
    hyperplanes: the signed maximal minors of the normals.  Each line is
    computed once: its hyperplanes are marked on every rank - 2 of them, and
    such a subset skips the marked hyperplanes, which with it cut out no
    line or that one."""
    rays: set[Vec] = set()
    marked: dict[tuple[int, ...], set[int]] = {}
    for sub in combinations(range(len(hyper)), rank - 2):
        skip = marked.setdefault(sub, set())
        rows = [hyper[i] for i in sub]
        for c in range(sub[-1] + 1 if sub else 0, len(hyper)):
            if c in skip:
                continue
            m = rows + [hyper[c]]
            r = tuple((-1) ** j * _det([h[:j] + h[j + 1 :] for h in m]) for j in range(rank))
            if any(r):
                r = _primitive(r)
                on = [i for i, h in enumerate(hyper) if not _dot(h, r)]
                for s in combinations(on, rank - 2):
                    marked.setdefault(s, set()).update(on)
                rays |= {r, tuple(-x for x in r)}
        del marked[sub]
    return rays


def _dot(a: Vec, b: Vec) -> int:
    return sum(map(mul, a, b))


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
    pos_roots = g.root_data.positive_roots
    refls = range(g.rank - g.torus_rank)

    def reflections(ws: tuple[Coords, ...]) -> list[tuple[Coords, ...]]:
        return [tuple(reflect(g, w, i) for w in ws) for i in refls]

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
    sets = admissible_sets(m)
    for a in sets:
        for b in sets:
            if a is b or a.weight_set() == b.weight_set():
                continue
            if dominance(a, b) == "dominated":
                a.status = "dominated"
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
    out: set[Fraction] = set()
    for w in m.weights.nonzero_weights():
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
    if any(x < 0 for x in lam_star[: g.rank - g.torus_rank]):
        raise ValueError(f"covariant target {lam_star} is not a dominant weight")
    ws = adm.root_scaled()
    target = root_scaled_of_dynkin(g, lam_star)
    degrees = range(1, d + 1) if all_degrees else [d]
    for e in degrees:
        if exists_sum(ws, target, e, grading=adm.defining.values).feasible:
            return False
    return True


# ---------------------------------------------------------------------------
# Degree/rank screens from the rho-value bookkeeping


class ScreenResult(NamedTuple):
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
    values: Sequence[tuple[int, int]],
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


def positive_factor_counts(values: Sequence[tuple[int, int]]) -> list[Optional[int]]:
    """For each negative value, repeated by its multiplicity, the largest
    number of positive values (with repetition) summing to minus it: the
    positive factors of a zero-weight monomial with that single negative
    factor.  None when no such monomial exists."""
    pos: list[int] = []
    neg: list[int] = []
    for v, m in values:
        require(v != 0, "cocharacter values must be nonzero")
        (pos if v > 0 else neg).extend([abs(v)] * m)
    pvals = sorted(set(pos))
    best: dict[int, Optional[int]] = {}
    for v in neg:
        if v not in best:
            reach = _representable_counts(pvals, v)
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
    zero_class: Callable[[Coords], object] = lambda delta: "0",
) -> tuple[int, dict]:
    """Certified lower bound for dim G·v at a generic vector with the given
    weight support, via support-matrix reduction.  ``v_support`` lists
    (weight in Dynkin coordinates, summand copy index).  ``zero_class`` is
    as in :func:`support_columns`; by default all root-vector images inside
    the zero weight space are lumped together, which is always safe but may
    be weak.
    """
    if not v_support:
        return 0, {"columns": 0, "bound": 0}
    g = m.group
    copies: list[dict[Coords, int]] = []
    for coeff, hw in m.summands:
        diag = weight_diagram(g, hw).entries
        copies.extend([dict(diag)] * coeff)
    cols = support_columns(copies, g, v_support, zero_class)
    return support_rank_bound(cols)


def support_columns(
    copies: Sequence[dict[Coords, int]],
    g: GroupSpec,
    v_support: Sequence[tuple[Coords, int]],
    zero_class: Callable[[Coords], object],
) -> set[Column]:
    """Weight supports of the root-vector images of v, plus the torus images.

    ``copies``: weight multiset of each summand copy of a module of ``g``
    (Dynkin labels); nonzero weight spaces must be one-dimensional.
    ``v_support``: (weight, copy index) components of v, distinct within each
    copy.  ``zero_class`` maps a root to the label of the line that its root
    vector's image takes inside the zero weight space.
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
    zero = tuple(0 for _ in range(g.rank))
    for delta in g.root_data.roots:
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
# The models are the paper's own chamber bookkeeping, kept as typed because
# its recorded numbers (the row-5 floor and largest negative value) refer to
# them; each is checked against its sign row and chamber inequalities.

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
# The two modules whose null-cone components the appendices check.  Nothing
# of them is typed in: the components are the maximal sets of
# ``admissible_sets(m, mod_weyl=True)``.  Their cocharacters are dominant, so
# every set is stable under the Borel subgroup, and a covariant of degree d
# vanishes on its saturation as soon as no degree-d monomial in the set has
# the covariant's highest weight (:func:`covariant_vanishes`).
#
# Appendix B: the 7x7-dimensional module over the product of two copies of
# the rank-2 exceptional group, with a degree-9 covariant of the second
# factor's adjoint type.

G2XG2_TARGET = (0, 0, 1, 0)  # the adjoint module of the second factor
G2XG2_DEGREE = 9

# Appendix A: the vector and the two half-spin modules of the rank-4
# orthogonal group, the slice of three copies of the 26-dimensional module of
# the rank-4 exceptional group, with the adjoint-type covariant of tridegree
# (1,1,1) in the exterior squares.

D4_TRIALITY_HWS = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
D4_ADJOINT_HW = (0, 1, 0, 0)  # e1+e2, the highest root


def d4_triality_module() -> ModuleSpec:
    return ModuleSpec(GroupSpec((SimpleType("D", 4),)), tuple((1, hw) for hw in D4_TRIALITY_HWS))


def d4_adjoint_target_reachable(adm: AdmissibleSet) -> bool:
    """Can the adjoint highest weight e1+e2 be a sum of one positive exterior
    square weight from each summand family of an admissible set of
    :func:`d4_triality_module`?  The exterior square weights of a family are
    the pairwise sums of its weights.  Each carries its family's indicator,
    so a sum of three with indicators (1, 1, 1) takes one from each."""
    g = adm.defining.group
    k = len(D4_TRIALITY_HWS)
    diagrams = [weight_diagram(g, hw).entries for hw in D4_TRIALITY_HWS]
    families: list[list[Vec]] = [[] for _ in range(k)]
    for w in adm.weights:
        owners = [i for i, diag in enumerate(diagrams) if w in diag]
        require(len(owners) == 1, f"weight {w} does not lie in exactly one summand")
        families[owners[0]].append(root_scaled_of_dynkin(g, w))
    tagged = [
        tuple(a + b for a, b in zip(u, v)) + tuple(int(j == i) for j in range(k))
        for i, family in enumerate(families)
        for u, v in combinations(family, 2)
    ]
    target = root_scaled_of_dynkin(g, D4_ADJOINT_HW) + (1,) * k
    return exists_sum(tagged, target, k).feasible


# ---------------------------------------------------------------------------
# Appendix A: two copies of the 26-dimensional module of the rank-4
# exceptional group, whose nonzero weights are the short roots.  A root vector
# maps a support component of weight -delta into the zero weight space along
# one of two lines, told apart by whether the root delta has integral epsilon
# coordinates (+-e_i, +-e_i+-e_j) or half-integral ones ((+-e1+-e2+-e3+-e4)/2).

F4_26_HW = (0, 0, 0, 1)
F4_TWO_26_WITNESS = (
    ("e3@eps", 0),
    ("1/2e1-1/2e2-1/2e3+1/2e4@eps", 0),
    ("e2@eps", 1),
    ("1/2e1-1/2e2-1/2e3-1/2e4@eps", 1),
)


def f4_two_26_support_bound() -> tuple[int, dict]:
    """Support-matrix rank bound at the witness vector with weight components
    (e3, (e1-e2-e3+e4)/2) in the first copy and (e2, (e1-e2-e3-e4)/2) in the
    second."""
    f4 = SimpleType("F", 4)
    g = GroupSpec((f4,))
    witness = [(parse_weight(g, text), copy) for text, copy in F4_TWO_26_WITNESS]

    def zero_class(delta: Coords) -> str:
        integral = all(x.denominator == 1 for x in dynkin_to_eps(f4, delta))
        return "0_int" if integral else "0_half"

    return support_orbit_dim_bound(ModuleSpec(g, ((2, F4_26_HW),)), witness, zero_class)
