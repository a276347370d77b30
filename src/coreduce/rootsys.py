"""Exact root-system and Weyl-group arithmetic.

Simple types are labelled in Bourbaki's ordering.  Weights are stored either
in Dynkin labels (fundamental-weight basis, the canonical internal basis) or
in ``root_scaled`` coordinates: root-basis coordinates multiplied by the
index of the root lattice in the weight lattice, so that every weight of the
weight lattice has integer coordinates in both bases.

A group is a product of simple factors (their coordinate blocks first) and a
central torus (last).  Its Weyl group is generated by the simple reflections
of one block-diagonal Cartan matrix, the identity on the torus, so each
Weyl-group operation is written once, over the group's :class:`RootData`; a
simple type is the group of one factor.  :class:`RootSystem` derives the
facts of one type that :func:`_root_data` assembles (Cartan matrix, lattice
index, integer invariant form, positive roots, Weyl order); no other module
reads it, and the tests keep it as the per-factor reference.

Weights are plain tuples of Dynkin labels; :func:`parse_weight` converts the
other input bases once, at parse time.

The Weyl orbit of a dominant weight, with or without signs, comes from one
walk, :func:`orbit_walk`, that makes each point once from its parent, level
by level.  Every other orbit-like set (the root list, dominant weights below
a highest weight, the stabilizer orbits of the roots, the Weyl images of a
tuple of weights) comes from the one breadth-first :func:`closure`, which
maps each reachable point to its depth; callers supply only the neighbour
function.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm, prod
from operator import mul
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .config import MEMO_SIZE, require

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


# A record that validates or caches is a subclass of a NamedTuple of its
# fields: a NamedTuple body may not define ``__new__``, and a subclass without
# ``__slots__`` has the ``__dict__`` that ``cached_property`` stores into.


class _SimpleTypeFields(NamedTuple):
    family: str
    rank: int


class SimpleType(_SimpleTypeFields):
    """A simple Lie type, e.g. ``SimpleType("A", 2)``; ordered by (family, rank)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SimpleType:
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in _FAMILY_BOUNDS:
            raise RootSystemError(f"unknown family {self.family!r}")
        lo, hi = _FAMILY_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise RootSystemError(f"invalid rank {self.rank} for family {self.family}")
        return self

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"



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
    """The facts of one simple type that a group's root data is built from:
    Cartan matrix, symmetrizer and the integer invariant form, lattice index,
    Dynkin-to-root_scaled matrix, positive roots and Weyl order."""

    def __init__(self, t: SimpleType):
        self.type = t
        self.rank = t.rank
        self.cartan = _cartan_matrix(t)
        self.symmetrizer = _symmetrizer(self.cartan)
        self.lattice_index = abs(_det(self.cartan))
        inv = _mat_inverse(self.cartan)
        # c = d @ cartan^{-1} * lattice_index; stored by columns, so that
        # root_scaled[j] . d is the j-th root_scaled coordinate of d
        scaled = [[x * self.lattice_index for x in col] for col in zip(*inv)]
        require(
            all(x.denominator == 1 for col in scaled for x in col),
            f"{t}: det(cartan) does not clear the inverse Cartan matrix",
        )
        self.root_scaled = tuple(tuple(int(x) for x in col) for col in scaled)
        # the symmetrizer times its common denominator: integer inner products
        den = lcm(*(x.denominator for x in self.symmetrizer))
        self.form = tuple(int(x * den) for x in self.symmetrizer)
        self.positive_roots, self.positive_roots_dynkin = self._positive_roots()
        self.weyl_order = _weyl_order(self.cartan)

    def _positive_roots(self) -> tuple[tuple[Coords, ...], tuple[Coords, ...]]:
        """The positive roots in root coordinates, sorted, and their Dynkin
        labels in the same order."""
        # orbit of the simple roots under simple reflections, in Dynkin labels
        roots = []
        for d in closure(self.cartan, _neighbours(_moves(self.cartan, self.rank))):
            rs = _times(d, self.root_scaled)
            require(all(x % self.lattice_index == 0 for x in rs), f"{d} is not in the root lattice")
            roots.append((tuple(x // self.lattice_index for x in rs), d))
        pos = sorted(p for p in roots if all(x >= 0 for x in p[0]))
        require(2 * len(pos) == len(roots), f"{self.type}: roots are not positive or negative")
        return tuple(r for r, _ in pos), tuple(d for _, d in pos)

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


def _times(v: Coords, cols: Sequence[Coords]) -> Coords:
    """The row vector ``v`` times the matrix with columns ``cols``."""
    return tuple(sum(map(mul, v, col)) for col in cols)


# One simple reflection s_i(d) = d - d_i * alpha_i on Dynkin labels: the
# index i and the nonzero entries (j, cartan[i][j]) of alpha_i's labels.
Move = tuple[int, tuple[tuple[int, int], ...]]


def _moves(cartan: Sequence[Coords], n: int) -> tuple[Move, ...]:
    """The moves of the simple reflections of the first ``n`` rows of ``cartan``."""
    return tuple((i, tuple((j, a) for j, a in enumerate(cartan[i]) if a)) for i in range(n))


def _reflect(d: Coords, move: Move) -> Coords:
    """The image of ``d`` under one simple reflection; ``d`` itself when the
    reflection fixes it (its label is 0)."""
    i, row = move
    c = d[i]
    if not c:
        return d
    e = list(d)
    for j, a in row:
        e[j] -= c * a
    return tuple(e)


def _neighbours(moves: Sequence[Move]) -> Callable[[Coords], list[Coords]]:
    """Neighbour function for :func:`closure`: the images of a point under
    the simple reflections that move it."""
    return lambda d: [_reflect(d, move) for move in moves if d[move[0]]]


def _dominantize(moves: Sequence[Move], d: Coords) -> tuple[Coords, int]:
    """The dominant weight in the orbit of ``d``, and the sign of the Weyl
    element that the descent applies: reflect in the first negative label
    until none is left."""
    sign = 1
    while True:
        for move in moves:
            if d[move[0]] < 0:
                d = _reflect(d, move)
                sign = -sign
                break
        else:
            return d, sign


# ---------------------------------------------------------------------------
# Product groups


class RootData(NamedTuple):
    """The root data of a group in full-length coordinates (the simple
    factors' blocks, then the torus), over which each Weyl-group operation is
    written once."""

    factors: tuple[tuple[SimpleType, int, int], ...]  # (type, lo, hi) per simple factor
    cartan: tuple[Coords, ...]  # block-diagonal, the identity on the torus
    root_scaled: tuple[Coords, ...]  # block-diagonal Dynkin -> root_scaled, by columns
    lattice_index: Coords  # per coordinate; 1 on the torus
    # the invariant form, scaled to integers on each block: <omega_i, alpha_j>
    # is form[i] if i == j and 0 otherwise; 0 on the torus
    form: Coords
    moves: tuple[Move, ...]  # one per simple reflection, in coordinate order
    weyl_order: int
    positive_roots: tuple[Coords, ...]
    root_coords: tuple[Coords, ...]  # each positive root in the basis of simple roots
    # each positive root's pairing vector, root_coords[k] times form entrywise:
    # <lam, alpha_k> = lam . pairings[k] for lam in Dynkin labels
    pairings: tuple[Coords, ...]
    weyl_denominator: int  # the product of <rho, alpha> over the positive roots
    roots: tuple[Coords, ...]  # the positive roots, then their negatives
    dominant_roots: tuple[Coords, ...]  # the dominant weight in each root's Weyl orbit


class _GroupSpecFields(NamedTuple):
    simple_factors: tuple[SimpleType, ...]
    torus_rank: int = 0


class GroupSpec(_GroupSpecFields):
    """An ordered product of simple factors and a central torus."""

    def __new__(cls, *args, **kwargs) -> GroupSpec:
        self = super().__new__(cls, *args, **kwargs)
        if not self.simple_factors and self.torus_rank <= 0:
            raise RootSystemError("need at least one simple factor or a torus")
        if self.torus_rank < 0:
            raise RootSystemError("torus rank must be nonnegative")
        return self

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
        """The group's root data, kept with the group; built once per
        process for equal groups."""
        return _root_data(self.simple_factors, self.torus_rank)

    @property
    def weyl_order(self) -> int:
        return self.root_data.weyl_order

    @property
    def num_positive_roots(self) -> int:
        return len(self.root_data.positive_roots)

    @property
    def weyl_vector(self) -> Coords:
        return (1,) * (self.rank - self.torus_rank) + (0,) * self.torus_rank


@lru_cache(maxsize=None)
def _root_data(simple_factors: tuple[SimpleType, ...], torus_rank: int) -> RootData:
    """The root data of a product group, from its factors' blocks."""
    n = sum(t.rank for t in simple_factors) + torus_rank
    cartan = [[int(i == j) for j in range(n)] for i in range(n)]
    scaled = [row[:] for row in cartan]
    index = [1] * n
    form = [0] * n
    factors = []
    pos: list[Coords] = []
    coords: list[Coords] = []
    order = 1
    lo = 0
    for t in simple_factors:
        rs = build_root_system(t)
        hi = lo + t.rank
        factors.append((t, lo, hi))
        for i in range(t.rank):
            cartan[lo + i][lo:hi] = rs.cartan[i]
            scaled[lo + i][lo:hi] = rs.root_scaled[i]
        index[lo:hi] = [rs.lattice_index] * t.rank
        form[lo:hi] = rs.form
        pad = (0,) * (n - hi)
        pos += [(0,) * lo + d + pad for d in rs.positive_roots_dynkin]
        coords += [(0,) * lo + r + pad for r in rs.positive_roots]
        order *= rs.weyl_order
        lo = hi
    moves = _moves(cartan, lo)
    roots = pos + [tuple(-x for x in r) for r in pos]
    # a root and its negative share an orbit (s_a(a) = -a)
    dom = [_dominantize(moves, r)[0] for r in pos]
    pairings = tuple(tuple(map(mul, r, form)) for r in coords)
    # rho has every label 1 on the simple factors, so <rho, alpha> is the sum
    # of alpha's pairing vector
    return RootData(
        tuple(factors), tuple(map(tuple, cartan)), tuple(map(tuple, scaled)), tuple(index),
        tuple(form), moves, order, tuple(pos), tuple(coords), pairings,
        prod(map(sum, pairings)), tuple(roots), tuple(dom + dom),
    )


# -- the Weyl-group operations, over the root data ---------------------------


def root_scaled_of_dynkin(g: GroupSpec, d: Coords) -> Coords:
    return _times(d, g.root_data.root_scaled)


def dynkin_of_root_scaled(g: GroupSpec, c: Coords) -> Coords:
    data = g.root_data
    out = _times(c, tuple(zip(*data.cartan)))
    for j, (v, k) in enumerate(zip(out, data.lattice_index)):
        if v % k:
            # name the weight's block: the component of j in the Dynkin diagram
            block = sorted(closure((j,), lambda i: [x for x, a in enumerate(data.cartan[i]) if a]))
            raise RootSystemError(f"{tuple(c[i] for i in block)} is not in the weight lattice (root_scaled)")
    return tuple(v // k for v, k in zip(out, data.lattice_index))


def in_root_lattice(g: GroupSpec, d: Coords) -> bool:
    """True iff the weight with Dynkin labels ``d`` is a sum of roots on
    every simple factor (the torus block is unconstrained)."""
    c = root_scaled_of_dynkin(g, d)
    return not any(x % k for x, k in zip(c, g.root_data.lattice_index))


def reflect(g: GroupSpec, d: Coords, i: int) -> Coords:
    """The image of ``d`` under the ``i``-th simple reflection."""
    return _reflect(d, g.root_data.moves[i])


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


def orbit_walk(g: GroupSpec, dominant: Coords) -> Iterator[tuple[Coords, int]]:
    """Each point of the Weyl orbit of a dominant weight with its level, the
    length of the shortest w with w·dominant = point, level by level
    (Stembridge's orbit walk).

    Every point ν other than the dominant one has one parent, s_j ν, where
    j is the first index with ν_j < 0; the parent is one level up, because
    s_j raises ν by -ν_j α_j.  So the children of μ are the s_i μ with
    μ_i > 0 whose first negative label is at i, and each point is made
    once, from its parent, with no set of the points seen.  When i is below
    μ's own first negative label, s_i μ has none before i, since s_i only
    raises the labels next to i.
    """
    moves = g.root_data.moves
    if moves and min(dominant[: len(moves)]) < 0:
        raise RootSystemError("weight is not dominant")
    yield dominant, 0
    # each point made, with the index of its first negative label (none, past
    # the last label, for the dominant weight) and its level; read as it
    # grows, so points are made in order of level
    tree = [(dominant, len(dominant), 0)]
    for mu, first, level in tree:
        level += 1
        for i, row in moves:
            c = mu[i]
            if c > 0:
                nu = list(mu)
                for j, a in row:
                    nu[j] -= c * a
                if i < first or min(nu[:i]) >= 0:
                    nu = tuple(nu)
                    yield nu, level
                    tree.append((nu, i, level))


def signed_orbit(g: GroupSpec, d0: Coords) -> list[tuple[Coords, int]]:
    """(w·d0, sign(w)) for all w in W; requires d0 regular (no zero label).

    Regularity makes the orbit simply transitive, so the point at level k of
    the walk from the dominant u·d0 is v·u·d0 for a unique v, of length k,
    and w = v·u has sign (-1)**k * sign(u).
    """
    if any(not d0[i] for i, _row in g.root_data.moves):
        raise RootSystemError("signed_orbit needs a regular weight")
    dominant, sign = dominantize(g, d0)
    return [(d, sign * (-1) ** k) for d, k in orbit_walk(g, dominant)]


def dominantize(g: GroupSpec, d: Coords) -> tuple[Coords, int]:
    """Dominant representative and the sign of a Weyl element achieving it."""
    return _dominantize(g.root_data.moves, d)


def orbit_size(g: GroupSpec, dominant: Coords) -> int:
    """|W·dominant| via the stabilizer subdiagram, without materializing."""
    data = g.root_data
    zero = tuple(i for i, _row in data.moves if dominant[i] == 0)
    return data.weyl_order // _sub_weyl_order(data.cartan, zero)


def dominant_weights_below(
    g: GroupSpec, d0: Coords, visit: Callable[[int], None]
) -> frozenset[Coords]:
    """All dominant μ ⪯ d0 (d0 − μ a nonnegative sum of simple roots), for
    a dominant weight d0 in Dynkin labels.

    Computed by the dominant-chain descent: every such μ is reachable from
    d0 through dominant weights by subtracting single positive roots.  Each
    weight is visited once, when its positive roots are tried; ``visit`` is
    called with the number of weights visited so far before that weight's
    roots are tried, and may raise to stop the descent.
    """
    if not all(x >= 0 for x in d0):
        raise RootSystemError("weight is not dominant")
    # for dominant d, d - b is dominant iff d_j >= b_j at each positive label
    # b_j of the root b, so a candidate is tested before its tuple is built
    steps = [(b, [(j, x) for j, x in enumerate(b) if x > 0]) for b in g.root_data.positive_roots]
    visited = 0

    def below(d: Coords) -> list[Coords]:
        nonlocal visited
        visited += 1
        visit(visited)
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

_HALF = Fraction(1, 2)

# The simple roots in the standard realization, in Bourbaki order: per
# family, a function of the rank giving the number of epsilon coordinates and
# each root as {epsilon index: coefficient}.  Type E has none.
_EPS_SIMPLE_ROOTS = {
    "A": lambda n: (n + 1, [{i: 1, i + 1: -1} for i in range(n)]),
    "B": lambda n: (n, [{i: 1, i + 1: -1} for i in range(n - 1)] + [{n - 1: 1}]),
    "C": lambda n: (n, [{i: 1, i + 1: -1} for i in range(n - 1)] + [{n - 1: 2}]),
    "D": lambda n: (n, [{i: 1, i + 1: -1} for i in range(n - 1)] + [{n - 2: 1, n - 1: 1}]),
    "F": lambda n: (
        4, [{1: 1, 2: -1}, {2: 1, 3: -1}, {3: 1}, {0: _HALF, 1: -_HALF, 2: -_HALF, 3: -_HALF}]
    ),
    "G": lambda n: (3, [{0: 1, 1: -1}, {0: -2, 1: 1, 2: 1}]),
}


@lru_cache(maxsize=None)
def _eps_roots(t: SimpleType) -> tuple[tuple[Fraction, ...], ...]:
    """The simple roots of ``t`` in epsilon coordinates."""
    if t.family not in _EPS_SIMPLE_ROOTS:
        raise RootSystemError(f"no epsilon realization for {t}")
    dim, roots = _EPS_SIMPLE_ROOTS[t.family](t.rank)
    return tuple(tuple(Fraction(r.get(i, 0)) for i in range(dim)) for r in roots)


def _eps_dim(t: SimpleType) -> int:
    return len(_eps_roots(t)[0])


def eps_to_dynkin(t: SimpleType, coeffs: Sequence[Fraction]) -> Coords:
    """Dynkin labels 2(v, alpha_i)/(alpha_i, alpha_i) of v = sum_i coeffs[i] *
    eps_i in the standard realization."""
    roots = _eps_roots(t)
    c = [Fraction(x) for x in coeffs]
    if len(c) != len(roots[0]):
        raise RootSystemError(f"{t} epsilon coordinates need {len(roots[0])} entries")
    out = [2 * sum(map(mul, c, a)) / sum(map(mul, a, a)) for a in roots]
    if any(x.denominator != 1 for x in out):
        raise RootSystemError(f"epsilon vector ({', '.join(map(str, c))}) is not in the weight lattice of {t}")
    return tuple(int(x) for x in out)


def dynkin_to_eps(t: SimpleType, d: Coords) -> tuple[Fraction, ...]:
    """Canonical epsilon coordinates of a weight (inverse of eps_to_dynkin):
    sum_j a_j alpha_j over the weight's root coordinates a_j.

    For type A the representative with last coordinate 0 is returned.
    """
    roots = _eps_roots(t)
    g = GroupSpec((t,))
    k = g.root_data.lattice_index[0]
    coords = [Fraction(x, k) for x in root_scaled_of_dynkin(g, d)]
    c = [sum(map(mul, coords, col)) for col in zip(*roots)]
    if t.family == "A":
        c = [x - c[-1] for x in c]
    return tuple(c)


# ---------------------------------------------------------------------------
# Text grammar

_GROUP_RE = re.compile(r"^([ABCDEFG])(\d+)$")
_TORUS_RE = re.compile(r"^T(\d+)$")
_EPS_TERM_RE = re.compile(r"([+-]?)\s*(\d+(?:/\d+)?)?\s*e(\d+)")


@lru_cache(maxsize=MEMO_SIZE)
def parse_group(text: str) -> GroupSpec:
    """Parse strings like ``"A2"``, ``"A1xA1xG2"``, ``"B3xT1"``, ``"T1"``:
    one instance per text, so that its ``root_data`` is kept from one
    request to the next."""
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
        return dynkin_of_root_scaled(g, _coords_of_rank(g, body[1:-1], text))
    if text.startswith("[") and text.endswith("]"):
        return _coords_of_rank(g, text[1:-1], text)
    raise RootSystemError(f"cannot parse weight {text!r}")


def _coords_of_rank(g: GroupSpec, body: str, text: str) -> Coords:
    """The integers of the comma-separated ``body`` of the weight ``text``."""
    try:
        coords = tuple(int(x) for x in body.split(","))
    except ValueError:
        raise RootSystemError(f"weight coordinates must be integers, got {text!r}") from None
    if len(coords) != g.rank:
        raise RootSystemError(f"weight has {len(coords)} coordinates; {g} has rank {g.rank}")
    return coords
