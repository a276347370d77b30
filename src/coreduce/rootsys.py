"""Exact root-system and Weyl-group arithmetic.

Simple types are labelled in Bourbaki's ordering.  Weights are stored either
in Dynkin labels (fundamental-weight basis, the canonical internal basis) or
in ``root_scaled`` coordinates: root-basis coordinates multiplied by the
index of the root lattice in the weight lattice, so that every weight of the
weight lattice has integer coordinates in both bases.

Product groups concatenate coordinate blocks (simple factors first, then a
central torus block); their Weyl group is the direct product.

Weights are plain tuples of Dynkin labels; :func:`parse_weight` converts the
other input bases once, at parse time.

Every orbit-like set (Weyl orbits with or without signs, the root list,
dominant weights below a highest weight, the Weyl images of a tuple of
weights) comes from the one breadth-first :func:`closure`, which maps each
reachable point to its depth; callers supply only the neighbour function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm, prod
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence, TypeVar

from .config import require

Coords = tuple[int, ...]
P = TypeVar("P", bound=Hashable)

_FAMILY_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),  # the classical usage starts at 3 but C2 is accepted
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class RootSystemError(ValueError):
    """Invalid simple type, rank, or weight data."""


@dataclass(frozen=True, order=True)
class SimpleType:
    """A simple Lie type, e.g. ``SimpleType("A", 2)``."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_BOUNDS:
            raise RootSystemError(f"unknown family {self.family!r}")
        lo, hi = _FAMILY_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise RootSystemError(f"invalid rank {self.rank} for family {self.family}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def weyl_order(self) -> int:
        return _weyl_order(_cartan_matrix(self))


def _cartan_matrix(t: SimpleType) -> tuple[Coords, ...]:
    """Cartan matrix with ``cartan[i][j] = <alpha_i, alpha_j^vee>``."""
    n = t.rank
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i: int, j: int, a: int = -1, b: int = -1) -> None:
        m[i][j] = a
        m[j][i] = b

    if t.family in ("A", "B", "C", "D", "F", "G"):
        chain = n if t.family != "D" else n - 1
        for i in range(chain - 1):
            link(i, i + 1)
    if t.family == "B" and n >= 2:
        # alpha_{n-1} long, alpha_n short
        link(n - 2, n - 1, -2, -1)
    if t.family == "C" and n >= 2:
        link(n - 2, n - 1, -1, -2)
    if t.family == "D":
        link(n - 3, n - 1)
    if t.family == "E":
        # Bourbaki: chain 1-3-4-5-...-n with node 2 attached to node 4.
        for i, j in zip((0, 2, 3, 4, 5, 6), (2, 3, 4, 5, 6, 7)):
            if j < n:
                link(i, j)
        link(1, 3)
    if t.family == "F":
        link(1, 2, -2, -1)
    if t.family == "G":
        link(0, 1, -1, -3)
    return tuple(tuple(row) for row in m)


def _symmetrizer(cartan: Sequence[Sequence[int]]) -> tuple[Fraction, ...]:
    """Diagonal d with d_i * cartan[i][j] symmetric; normalized so max d = 1.

    ``d_i`` is half the squared length of the simple root ``alpha_i``, so
    long roots get norm 2.
    """
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if cartan[i][j] and d[i] is not None and d[j] is None:
                    # (alpha_i, alpha_j) = d_j a_ij = d_i a_ji
                    d[j] = d[i] * cartan[j][i] / cartan[i][j]
                    changed = True
    require(all(x is not None for x in d), "the Cartan matrix is not connected")
    top = max(x for x in d)  # type: ignore[type-var]
    return tuple(x / top for x in d)  # type: ignore[operator]


def _mat_inverse(m: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a small integer matrix, by expansion along the first
    row (the matrices here are Cartan matrices and minors of at most 3x3)."""
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        # closed form: the chamber enumeration's minors end here, and expanding
        # them cost about half of its time
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum(
        (-1) ** j * x * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j, x in enumerate(m[0])
        if x
    )


class RootSystem:
    """Root-system data for one simple type (all coordinates exact)."""

    def __init__(self, t: SimpleType):
        self.type = t
        self.rank = t.rank
        self.cartan = _cartan_matrix(t)
        self.symmetrizer = _symmetrizer(self.cartan)
        self.lattice_index = abs(_det(self.cartan))
        inv = _mat_inverse(self.cartan)
        # row vector d (Dynkin) -> root coords: c = d @ cartan^{-1}
        scaled = [[x * self.lattice_index for x in row] for row in inv]
        require(
            all(x.denominator == 1 for row in scaled for x in row),
            f"{t}: det(cartan) does not clear the inverse Cartan matrix",
        )
        self._dynkin_to_root_scaled = tuple(tuple(int(x) for x in row) for row in scaled)
        # common denominator for the symmetrizer, for integer inner products
        den = lcm(*(x.denominator for x in self.symmetrizer))
        self._sym_scaled = tuple(int(x * den) for x in self.symmetrizer)
        self._sym_den = den
        self.positive_roots, self.positive_roots_dynkin = self._positive_roots()
        # the dominant weight in the Weyl orbit of each positive root (the
        # highest root of its length)
        self.dominant_roots = tuple(self.dominantize(d)[0] for d in self.positive_roots_dynkin)
        self.weyl_vector = (1,) * self.rank
        self.weyl_order = t.weyl_order

    # -- basis conversions (plain tuples) --------------------------------

    def root_scaled_of_dynkin(self, d: Coords) -> Coords:
        m = self._dynkin_to_root_scaled
        return tuple(sum(d[i] * m[i][j] for i in range(self.rank)) for j in range(self.rank))

    def dynkin_of_root_scaled(self, c: Coords) -> Coords:
        out = []
        for j in range(self.rank):
            v = sum(c[i] * self.cartan[i][j] for i in range(self.rank))
            if v % self.lattice_index:
                raise RootSystemError(f"{c} is not in the weight lattice (root_scaled)")
            out.append(v // self.lattice_index)
        return tuple(out)

    def dynkin_of_root(self, root: Coords) -> Coords:
        """Dynkin labels of an element of the root lattice in root coords."""
        return tuple(sum(root[i] * self.cartan[i][j] for i in range(self.rank)) for j in range(self.rank))

    # -- reflections and orbits ------------------------------------------

    def dominantize(self, d: Coords) -> tuple[Coords, int]:
        """Dominant representative and the sign of a Weyl element achieving it."""
        cur = list(d)
        sign = 1
        while True:
            for i in range(self.rank):
                if cur[i] < 0:
                    ci = cur[i]
                    row = self.cartan[i]
                    for j in range(self.rank):
                        cur[j] -= ci * row[j]
                    sign = -sign
                    break
            else:
                return tuple(cur), sign

    def orbit_size(self, dominant: Coords) -> int:
        """|W·dominant| via the stabilizer subdiagram, without materializing."""
        zero = tuple(i for i, x in enumerate(dominant) if x == 0)
        return self.weyl_order // _sub_weyl_order(self.cartan, zero)

    # -- inner products ---------------------------------------------------

    def inner_dr(self, d: Coords, root: Coords) -> int:
        """Scaled invariant form <λ, μ> for λ in Dynkin labels, μ in root coords.

        The result is ``den * (λ, μ)`` with the fixed denominator
        ``self._sym_den``; differences/ratios of such values are exact.
        """
        s = self._sym_scaled
        return sum(root[j] * d[j] * s[j] for j in range(self.rank))

    # -- construction of the root list ------------------------------------

    def _positive_roots(self) -> tuple[tuple[Coords, ...], tuple[Coords, ...]]:
        """The positive roots in root coordinates, sorted, and their Dynkin
        labels in the same order."""
        # orbit of the simple roots under simple reflections, in Dynkin labels
        roots = []
        for d in closure(self.cartan, _reflections([(0, self.cartan)])):
            rs = self.root_scaled_of_dynkin(d)
            require(all(x % self.lattice_index == 0 for x in rs), f"{d} is not in the root lattice")
            roots.append((tuple(x // self.lattice_index for x in rs), d))
        pos = sorted(p for p in roots if all(x >= 0 for x in p[0]))
        require(2 * len(pos) == len(roots), f"{self.type}: roots are not positive or negative")
        return tuple(r for r, _ in pos), tuple(d for _, d in pos)

    @property
    def highest_root(self) -> Coords:
        """The positive root of maximal height (root coordinates); its Dynkin
        labels are the highest weight of the adjoint module."""
        return max(self.positive_roots, key=sum)

    def __repr__(self) -> str:
        return f"RootSystem({self.type})"


@lru_cache(maxsize=None)
def build_root_system(t: SimpleType) -> RootSystem:
    return RootSystem(t)


@lru_cache(maxsize=None)
def _sub_weyl_order(cartan: tuple[Coords, ...], nodes: tuple[int, ...]) -> int:
    """Weyl group order of the subsystem generated by a subset of simple
    roots, cached by the Cartan matrix and the subset."""
    seen: set[int] = set()
    total = 1
    for start in nodes:
        if start not in seen:
            # the connected component of ``start`` in the sub-diagram
            comp = sorted(closure((start,), lambda i: [j for j in nodes if cartan[i][j]]))
            seen.update(comp)
            total *= _weyl_order(tuple(tuple(cartan[i][j] for j in comp) for i in comp))
    return total


@lru_cache(maxsize=None)
def _weyl_order(cartan: tuple[Coords, ...]) -> int:
    """Order of the Weyl group of an irreducible Cartan matrix:
    r! * (product of the highest root's coefficients) * det(cartan)."""
    r = len(cartan)

    def reflections(root: Coords) -> list[Coords]:
        # s_i(b) = b - <b, alpha_i^vee> alpha_i, in root coordinates
        out = []
        for i in range(r):
            c = sum(root[j] * cartan[j][i] for j in range(r))
            if c:
                out.append(root[:i] + (root[i] - c,) + root[i + 1 :])
        return out

    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    return factorial(r) * prod(max(closure(simple, reflections), key=sum)) * _det(cartan)


# ---------------------------------------------------------------------------
# Product groups


class RootData(NamedTuple):
    """The root data of a product group, in full-length Dynkin labels."""

    factors: tuple[tuple[RootSystem, int, int], ...]  # (root system, lo, hi) per simple factor
    positive_roots: tuple[Coords, ...]
    roots: tuple[Coords, ...]  # the positive roots, then their negatives
    dominant_roots: tuple[Coords, ...]  # the dominant weight in each root's Weyl orbit


@dataclass(frozen=True)
class GroupSpec:
    """An ordered product of simple factors and a central torus."""

    simple_factors: tuple[SimpleType, ...]
    torus_rank: int = 0

    def __post_init__(self) -> None:
        if not self.simple_factors and self.torus_rank <= 0:
            raise RootSystemError("need at least one simple factor or a torus")
        if self.torus_rank < 0:
            raise RootSystemError("torus rank must be nonnegative")

    def __str__(self) -> str:
        parts = [str(t) for t in self.simple_factors]
        if self.torus_rank:
            parts.append(f"T{self.torus_rank}")
        return "x".join(parts)

    @property
    def rank(self) -> int:
        return sum(t.rank for t in self.simple_factors) + self.torus_rank

    @cached_property
    def root_data(self) -> RootData:
        """The group's root data, built on first use and kept with the group;
        the torus coordinates come after the simple factors' blocks."""
        factors = []
        pos: list[Coords] = []
        dom: list[Coords] = []
        lo = 0
        for t in self.simple_factors:
            rs = build_root_system(t)
            hi = lo + t.rank
            factors.append((rs, lo, hi))
            pad = (0,) * (self.rank - hi)
            pos += [(0,) * lo + d + pad for d in rs.positive_roots_dynkin]
            dom += [(0,) * lo + d + pad for d in rs.dominant_roots]
            lo = hi
        roots = pos + [tuple(-x for x in r) for r in pos]
        return RootData(tuple(factors), tuple(pos), tuple(roots), tuple(dom + dom))

    @property
    def weyl_order(self) -> int:
        return prod(t.weyl_order for t in self.simple_factors)

    @property
    def num_positive_roots(self) -> int:
        return len(self.root_data.positive_roots)

    @property
    def weyl_vector(self) -> Coords:
        return (1,) * (self.rank - self.torus_rank) + (0,) * self.torus_rank


# -- per-block conversions on plain tuples ----------------------------------


def root_scaled_of_dynkin(g: GroupSpec, d: Coords) -> Coords:
    out = list(d)
    for rs, lo, hi in g.root_data.factors:
        out[lo:hi] = rs.root_scaled_of_dynkin(tuple(d[lo:hi]))
    return tuple(out)


def dynkin_of_root_scaled(g: GroupSpec, c: Coords) -> Coords:
    out = list(c)
    for rs, lo, hi in g.root_data.factors:
        out[lo:hi] = rs.dynkin_of_root_scaled(tuple(c[lo:hi]))
    return tuple(out)


def in_root_lattice(g: GroupSpec, d: Coords) -> bool:
    """True iff the weight with Dynkin labels ``d`` is a sum of roots on
    every simple factor (the torus block is unconstrained)."""
    c = root_scaled_of_dynkin(g, d)
    for rs, lo, hi in g.root_data.factors:
        if any(x % rs.lattice_index for x in c[lo:hi]):
            return False
    return True


def simple_reflections(g: GroupSpec) -> list[tuple[int, int, int]]:
    """All simple reflections as (block index, block start, local index)."""
    factors = g.root_data.factors
    return [(k, lo, i) for k, (rs, lo, _hi) in enumerate(factors) for i in range(rs.rank)]


def reflect(g: GroupSpec, d: Coords, refl: tuple[int, int, int]) -> Coords:
    k, lo, i = refl
    rs = g.root_data.factors[k][0]
    ci = d[lo + i]
    if ci == 0:
        return d
    row = rs.cartan[i]
    out = list(d)
    for j in range(rs.rank):
        out[lo + j] -= ci * row[j]
    return tuple(out)


def closure(seeds: Iterable[P], neighbours: Callable[[P], Iterable[P]]) -> dict[P, int]:
    """Every point reachable from ``seeds`` by repeated ``neighbours`` steps,
    mapped to its breadth-first depth (0 for the seeds), in the order found."""
    depth = dict.fromkeys(seeds, 0)
    frontier = list(depth)
    level = 0
    while frontier:
        level += 1
        nxt = []
        for p in frontier:
            for q in neighbours(p):
                if q not in depth:
                    depth[q] = level
                    nxt.append(q)
        frontier = nxt
    return depth


def _reflections(
    blocks: Iterable[tuple[int, Sequence[Sequence[int]]]]
) -> Callable[[Coords], list[Coords]]:
    """Neighbour function for :func:`closure`: the images of a point (Dynkin
    labels) under the simple reflections that move it.

    ``blocks`` gives each factor's first coordinate and Cartan matrix.  A
    reflection whose label is 0 fixes the point and is skipped; the others
    touch only the nonzero entries of their Cartan row.
    """
    moves = [
        (lo + i, [(lo + j, a) for j, a in enumerate(row) if a])
        for lo, cartan in blocks
        for i, row in enumerate(cartan)
    ]

    def neighbours(d: Coords) -> list[Coords]:
        out = []
        for p, row in moves:
            c = d[p]
            if c:
                e = list(d)
                for j, a in row:
                    e[j] -= c * a
                out.append(tuple(e))
        return out

    return neighbours


def weyl_neighbours(g: GroupSpec) -> Callable[[Coords], list[Coords]]:
    """The simple reflections of the product Weyl group as a neighbour
    function for :func:`closure`; build it once per batch of orbits."""
    return _reflections((lo, rs.cartan) for rs, lo, _hi in g.root_data.factors)


def weyl_orbit(g: GroupSpec, d: Coords) -> frozenset[Coords]:
    """Orbit of a weight (Dynkin labels) under the product Weyl group."""
    return frozenset(closure((d,), weyl_neighbours(g)))


def signed_orbit(g: GroupSpec, d0: Coords) -> list[tuple[Coords, int]]:
    """(w·d0, sign(w)) for all w in W; requires d0 regular (no zero label).

    Regularity makes the orbit simply transitive, so the point at depth k
    is w·d0 for a unique w, of length k, and sign(w) = (-1)**k.
    """
    for _rs, lo, hi in g.root_data.factors:
        if any(x == 0 for x in d0[lo:hi]):
            raise RootSystemError("signed_orbit needs a regular weight")
    return [(d, (-1) ** k) for d, k in closure((d0,), weyl_neighbours(g)).items()]


def dominantize(g: GroupSpec, d: Coords) -> tuple[Coords, int]:
    out = list(d)
    sign = 1
    for rs, lo, hi in g.root_data.factors:
        dom, s = rs.dominantize(tuple(out[lo:hi]))
        out[lo:hi] = dom
        sign *= s
    return tuple(out), sign


def orbit_size(g: GroupSpec, dominant: Coords) -> int:
    n = 1
    for rs, lo, hi in g.root_data.factors:
        n *= rs.orbit_size(tuple(dominant[lo:hi]))
    return n


def dominant_weights_below(g: GroupSpec, d0: Coords) -> frozenset[Coords]:
    """All dominant μ ⪯ d0 (d0 − μ a nonnegative sum of simple roots), for
    a dominant weight d0 in Dynkin labels.

    Computed by the dominant-chain descent: every such μ is reachable from
    d0 through dominant weights by subtracting single positive roots.
    """
    if not all(x >= 0 for x in d0):
        raise RootSystemError("weight is not dominant")
    # for dominant d, d - b is dominant iff d_j >= b_j at each positive label
    # b_j of the root b, so a candidate is tested before its tuple is built
    steps = [(b, [(j, x) for j, x in enumerate(b) if x > 0]) for b in g.root_data.positive_roots]

    def below(d: Coords) -> list[Coords]:
        out = []
        for b, need in steps:
            for j, x in need:
                if d[j] < x:
                    break
            else:
                out.append(tuple(x - y for x, y in zip(d, b)))
        return out

    return frozenset(closure((d0,), below))


# ---------------------------------------------------------------------------
# SL3 conventions: weights (p, q) = p*alpha + q*beta with p, q in (1/3)Z.

SL3 = GroupSpec((SimpleType("A", 2),))


def sl3_root_coords(d: Coords) -> tuple[Fraction, Fraction]:
    """(p, q) with d = p·alpha + q·beta (thirds allowed), for Dynkin labels d."""
    c = root_scaled_of_dynkin(SL3, d)
    return Fraction(c[0], 3), Fraction(c[1], 3)


# ---------------------------------------------------------------------------
# Epsilon coordinates for the classical types and F4/G2.

def _eps_dim(t: SimpleType) -> int:
    return {"A": t.rank + 1, "B": t.rank, "C": t.rank, "D": t.rank, "F": 4, "G": 3}.get(t.family, -1)


def eps_to_dynkin(t: SimpleType, coeffs: Sequence[Fraction]) -> Coords:
    """Dynkin labels of sum_i coeffs[i] * eps_i in the standard realization."""
    n = t.rank
    c = [Fraction(x) for x in coeffs]
    if len(c) != _eps_dim(t):
        raise RootSystemError(f"{t} epsilon coordinates need {_eps_dim(t)} entries")
    out: list[Fraction]
    if t.family == "A":
        # project modulo (1,...,1)
        out = [c[i] - c[i + 1] for i in range(n)]
    elif t.family == "B":
        out = [c[i] - c[i + 1] for i in range(n - 1)] + [2 * c[n - 1]]
    elif t.family == "C":
        out = [c[i] - c[i + 1] for i in range(n - 1)] + [c[n - 1]]
    elif t.family == "D":
        out = [c[i] - c[i + 1] for i in range(n - 2)] + [c[n - 2] - c[n - 1], c[n - 2] + c[n - 1]]
    elif t.family == "F":
        out = [c[1] - c[2], c[2] - c[3], 2 * c[3], c[0] - c[1] - c[2] - c[3]]
    elif t.family == "G":
        out = [c[0] - c[1], Fraction(-2 * c[0] + c[1] + c[2], 3)]
    else:
        raise RootSystemError(f"no epsilon realization for {t}")
    bad = [x for x in out if x.denominator != 1]
    if bad:
        raise RootSystemError(f"epsilon vector {coeffs} is not in the weight lattice of {t}")
    return tuple(int(x) for x in out)


def dynkin_to_eps(t: SimpleType, d: Coords) -> tuple[Fraction, ...]:
    """Canonical epsilon coordinates of a weight (inverse of eps_to_dynkin).

    For type A the representative with last coordinate 0 is returned.
    """
    n = t.rank
    dd = [Fraction(x) for x in d]
    if t.family == "A":
        c = [Fraction(0)] * (n + 1)
        for i in range(n - 1, -1, -1):
            c[i] = c[i + 1] + dd[i]
        return tuple(c)
    if t.family in ("B", "C", "D"):
        # fix the last (two) coordinates, then c_i = c_{i+1} + d_i going up
        c = [Fraction(0)] * n
        if t.family == "D":
            c[n - 1] = (dd[n - 1] - dd[n - 2]) / 2
            c[n - 2] = (dd[n - 1] + dd[n - 2]) / 2
            start = n - 3
        else:
            c[n - 1] = dd[n - 1] / 2 if t.family == "B" else dd[n - 1]
            start = n - 2
        for i in range(start, -1, -1):
            c[i] = c[i + 1] + dd[i]
        return tuple(c)
    if t.family == "F":
        c4 = dd[2] / 2
        c3 = dd[1] + c4
        c2 = dd[0] + c3
        c1 = dd[3] + c2 + c3 + c4
        return (c1, c2, c3, c4)
    if t.family == "G":
        # representative with c1 + c2 + c3 = 0, where alpha1 = e1 - e2 and
        # alpha2 = -2e1 + e2 + e3: d1 = c1 - c2 and d2 = -c1 on that slice.
        c1 = -dd[1]
        c2 = -dd[0] - dd[1]
        c3 = dd[0] + 2 * dd[1]
        return (c1, c2, c3)
    raise RootSystemError(f"no epsilon realization for {t}")


# ---------------------------------------------------------------------------
# Text grammar

_GROUP_RE = re.compile(r"^([ABCDEFG])(\d+)$")
_TORUS_RE = re.compile(r"^T(\d+)$")
_EPS_TERM_RE = re.compile(r"([+-]?)\s*(\d+(?:/\d+)?)?\s*e(\d+)")


def parse_group(text: str) -> GroupSpec:
    """Parse strings like ``"A2"``, ``"A1xA1xG2"``, ``"B3xT1"``, ``"T1"``."""
    factors: list[SimpleType] = []
    torus = 0
    for part in text.strip().split("x"):
        m = _GROUP_RE.match(part)
        if m:
            factors.append(SimpleType(m.group(1), int(m.group(2))))
            continue
        m = _TORUS_RE.match(part)
        if m:
            torus += int(m.group(1))
            continue
        raise RootSystemError(f"cannot parse group factor {part!r}")
    return GroupSpec(tuple(factors), torus)


def parse_weight(g: GroupSpec, text: str) -> Coords:
    """Dynkin labels of ``"[3,1]"``, ``"(2,-1)@root"`` or ``"e1+e2@eps"``."""
    text = text.strip()
    if text.endswith("@eps"):
        if len(g.simple_factors) != 1 or g.torus_rank:
            raise RootSystemError("@eps weights are only defined for one simple factor")
        t = g.simple_factors[0]
        body = text[: -len("@eps")].strip()
        coeffs = [Fraction(0)] * _eps_dim(t)
        for m in _EPS_TERM_RE.finditer(body):
            sign = -1 if m.group(1) == "-" else 1
            coef = Fraction(m.group(2)) if m.group(2) else Fraction(1)
            idx = int(m.group(3)) - 1
            if idx < 0 or idx >= len(coeffs):
                raise RootSystemError(f"epsilon index out of range in {text!r}")
            coeffs[idx] += sign * coef
        if not _EPS_TERM_RE.search(body):
            raise RootSystemError(f"cannot parse epsilon weight {text!r}")
        return eps_to_dynkin(t, coeffs)
    if text.endswith("@root"):
        body = text[: -len("@root")].strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise RootSystemError(f"root_scaled weights look like (a,b)@root, got {text!r}")
        return dynkin_of_root_scaled(g, _coords_of_rank(g, body[1:-1]))
    if text.startswith("[") and text.endswith("]"):
        return _coords_of_rank(g, text[1:-1])
    raise RootSystemError(f"cannot parse weight {text!r}")


def _coords_of_rank(g: GroupSpec, body: str) -> Coords:
    coords = tuple(int(x) for x in body.split(","))
    if len(coords) != g.rank:
        raise RootSystemError(f"weight has {len(coords)} coordinates; {g} has rank {g.rank}")
    return coords
