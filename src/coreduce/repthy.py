"""Weight diagrams, symmetric powers, and multiplicity extraction.

Irreducible weight multiplicities come from the Freudenthal recursion run
over dominant weights only (the diagram is Weyl-invariant, so one value per
orbit suffices), in the orbit-wise form of Moody and Patera ("Fast recursion
formula for weight multiplicities", Bull. AMS 1982): at a dominant weight
mu, the sum over the positive roots becomes one alpha-string per orbit of
the stabilizer W_mu, weighted by the orbit's size.  The recursion reads
only ``GroupSpec.root_data`` of the one-factor group: its positive roots,
their root coordinates and the integer invariant form.  The orbit tables
are derived from it by closure under the simple reflections that fix mu,
and cached per group and zero-label set, as the diagrams are per type and
highest weight; a product group's diagram is the product of its factors'.
The Weyl dimension formula is one product over the group's positive
roots.  Each string point's
multiplicity is looked up once, through its dominant representative, in a
memo that lives for one diagram, and <nu, alpha> is stepped along the
string by adding <alpha, alpha>.  The descent to the dominant weights is
capped by ``DIAGRAM_CAP`` before the recursion starts.

Counts read off the dominant diagram and orbit sizes (:func:`weight_counts`,
:func:`min_root_multiplicity`) expand no orbit, and they follow the coset
rule: every weight of V(lam) is lam minus a sum of positive roots, so a
summand whose highest weight is off the root lattice, or has a nonzero
torus label, has zero multiplicity 0 and no root among its weights.  They
read the diagram of the root-lattice part alone
(``ModuleSpec.root_lattice_diagram``) and count every weight of any other
summand as nonzero through its Weyl dimension, so such a summand runs no
recursion.  A module builds the dominant diagram of its root-lattice part
and its full weight multiset once each, on first use, and keeps them
(``ModuleSpec.root_lattice_diagram`` and ``ModuleSpec.weights``), so the
toral slice, the chamber enumeration, the screens and the covariant counts
of one module share them.  Orbits are expanded only in
:func:`weight_diagram`, where every weight is used, by the orbit walk of
``rootsys``, which makes each point once from its parent and keeps no set
of the points seen.  Multiplicities of
irreducibles use the alternating Weyl-sum (Racah) formula, which needs only
point lookups; its signed points w(lam+rho) - rho are listed once per group
and lam.

Symmetric powers S^0..S^d come from one DP over the weight list in pure
Python: each degree k is one packed int over the box that holds the weights
of S^k, all degrees in one frame of mixed-radix strides, so adding a weight
to a degree is one shift, one add and one mask.  Counts are exact Python
ints.  :func:`symmetric_power` decodes whole layers into characters.
:func:`weyl_sum_series` gives the multiplicities of a few highest weights in
every S^k of a module: it folds their signed points onto dominant
representatives, keeps in each degree only the cells that can still carry a
weight into those, and reads each sum straight off the packed ints, so no
layer is decoded.

Multigraded multiplicities (one grading per summand) are computed for every
multidegree at once: S^0..S^dmax of each summand come from a single
symmetric-power DP, the pieces of each half of the summands are convolved
once per half-multidegree, and the alternating Weyl sum is folded into the
second half, so that each multidegree is one dot product.  There each
weight is one int, its coordinates signed digits in a base larger than
twice any coordinate that can occur, so that weights add and subtract as
ints.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from operator import add, le, mod, mul, sub
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .config import CertificateError, ResourceLimitError, require
from .rootsys import (
    Coords,
    GroupSpec,
    RootSystemError,
    SimpleType,
    closure,
    dominant_weights_below,
    dominantize,
    in_root_lattice,
    orbit_size,
    orbit_walk,
    parse_weight,
    reflect,
    root_scaled_of_dynkin,
    signed_orbit,
)

def weyl_dim(g: GroupSpec, hw: Coords) -> int:
    """Dimension of the irreducible with highest weight ``hw`` (Weyl formula):
    one product over the group's positive roots; the torus labels do not
    enter."""
    data = g.root_data
    delta = g.weyl_vector
    lam_delta = tuple(map(add, hw, delta))
    num = 1
    den = 1
    for alpha in data.root_coords:
        vec = tuple(map(mul, alpha, data.form))
        num *= sum(map(mul, lam_delta, vec))
        den *= sum(map(mul, delta, vec))
    require(num % den == 0, f"Weyl dimension of V({hw}) over {g} is not an integer")
    return num // den


@lru_cache(maxsize=None)
def simple_dominant_diagram(t: SimpleType, hw: Coords) -> dict[Coords, int]:
    """Multiplicities of the dominant weights of the irreducible V(hw) of the
    simple type ``t``: Freudenthal recursion, exact integer arithmetic,
    cached per type and highest weight."""
    return _freudenthal(GroupSpec((t,)), hw)


@lru_cache(maxsize=None)
def _root_orbits(g: GroupSpec, zero: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """One ``(w, k)`` per orbit O of W_J = <s_i : i in ``zero``> on the roots
    that meet the positive roots: k indexes the first positive root of O,
    and w is 2|O| for an orbit of roots outside the span of the simple roots
    in J, |O| for one inside it (it holds -b with b), so the w sum to twice
    the number of positive roots."""
    pos = g.root_data.positive_roots
    positive = set(pos)

    def step(d: Coords) -> list[Coords]:
        return [reflect(g, d, i) for i in zero if d[i]]

    seen: set[Coords] = set()
    out = []
    for k, d in enumerate(pos):
        if d not in seen:
            orbit = closure((d,), step)
            seen.update(orbit)
            out.append((2 * len(orbit) if positive.issuperset(orbit) else len(orbit), k))
    return tuple(out)


DIAGRAM_CAP = 100_000
"""Root tests the dominant-weight descent of one simple factor's diagram may
make: the dominant weights it has visited times the positive roots, counted
as each weight is visited, before the recursion starts; a hit raises
ResourceLimitError (the CLI exits 3)."""
PRODUCT_DIAGRAM_CAP = 100_000
"""Dominant weights the diagram of a product group may hold: the product of
its factors' diagram sizes, counted after the factors' diagrams and before
the product is built; a hit raises ResourceLimitError (the CLI exits 3).
The largest product diagram of the tests holds 10 (A1xA2 ``[2,2,2]``) and
the largest of the benchmark and the paper suites 8, a margin of 10,000
times; ``A1xA1xA1 [400,400,400]`` would hold 8,120,601."""


def _freudenthal(g: GroupSpec, hw: Coords) -> dict[Coords, int]:
    """Freudenthal's recursion over the stabilizer orbits of the positive
    roots (Moody-Patera).  For dominant mu, f(a) = sum over k >= 1 of
    m(mu+ka) (mu+ka, a) is constant on the orbits of the stabilizer W_mu,
    which the simple reflections s_i with mu_i = 0 generate, and f(-b) = f(b)
    for b orthogonal to mu; so one alpha-string per orbit, weighted as in
    :func:`_root_orbits`, gives twice the numerator.  Inner products are
    those of ``root_data.form``."""
    data = g.root_data
    if any(x < 0 for x in hw):
        raise RootSystemError("highest weight must be dominant")
    # the scaled root coordinates of each fundamental weight are the columns
    # of root_scaled; their sums give the height, which is linear in Dynkin
    # labels
    cols = data.root_scaled
    height = [sum(row) for row in zip(*cols)]
    form = data.form
    hw_2delta = [x + 2 for x in hw]
    # the form on root_scaled coordinates, in units of 1/scale
    scale = math.lcm(*data.lattice_index)
    sym = [s * (scale // k) for s, k in zip(form, data.lattice_index)]
    # per positive root: Dynkin labels, the vector v with <nu, a> = nu . v,
    # and <a, a>, which steps <nu, a> along an a-string
    roots = []
    for a_dyn, a in zip(data.positive_roots, data.root_coords):
        vec = tuple(map(mul, a, form))
        roots.append((a_dyn, vec, sum(map(mul, a_dyn, vec))))
    npos = len(roots)

    def visit(found: int) -> None:
        if found * npos > DIAGRAM_CAP:
            raise ResourceLimitError(
                "repthy.diagram", "DIAGRAM_CAP", DIAGRAM_CAP, found * npos,
                f"the diagram of V({hw}) over {g} reached {found} dominant weights "
                f"times {npos} positive roots, {{count}} root tests",
            )

    # process in decreasing height, ties in coordinate order, so the
    # diagram's order does not rest on set layout
    ordered = sorted(dominant_weights_below(g, hw, visit))
    ordered.sort(key=lambda d: -sum(map(mul, d, height)))
    mults: dict[Coords, int] = {hw: 1}
    hw_rs = root_scaled_of_dynkin(g, hw)
    # string point -> the multiplicity of its dominant representative (0 off
    # the diagram), for this diagram only.  The representative is higher
    # than every weight whose strings reach the point, so it was processed
    # before the first lookup and the value is final.
    mult_of: dict[Coords, int] = {}
    # tails[k][nu] = sum of m(nu+j*a) * <nu+j*a, a> over j >= 0, for the
    # k-th positive root a, until the string leaves the diagram; weight
    # strings through a representation are contiguous and every dominant
    # weight below hw occurs, so the first point of multiplicity 0 ends the
    # sum
    tails: list[dict[Coords, int]] = [{} for _ in roots]
    for mu in ordered:
        if mu == hw:
            continue
        num = 0
        for w, k in _root_orbits(g, tuple(i for i, x in enumerate(mu) if x == 0)):
            a, vec, norm = roots[k]
            nu = tuple(map(add, mu, a))
            tails_k = tails[k]
            tail = tails_k.get(nu)
            if tail is None:
                chain: list[tuple[Coords, int]] = []
                inner = sum(map(mul, nu, vec))
                while True:
                    m = mult_of.get(nu)
                    if m is None:
                        m = mult_of[nu] = mults.get(dominantize(g, nu)[0], 0)
                    if not m:
                        tail = 0
                        break
                    chain.append((nu, m * inner))
                    nu = tuple(map(add, nu, a))
                    inner += norm
                    tail = tails_k.get(nu)
                    if tail is not None:
                        break
                for point, f in reversed(chain):
                    tail += f
                    tails_k[point] = tail
            num += w * tail
        # denominator (|hw+delta|^2 - |mu+delta|^2) = <hw+mu+2delta, hw-mu>,
        # exact once hw - mu is in the root lattice
        diff_rs = [h - sum(map(mul, mu, col)) for h, col in zip(hw_rs, cols)]
        on_lattice = not any(map(mod, diff_rs, data.lattice_index))
        den = sum(map(mul, map(mul, sym, diff_rs), map(add, hw_2delta, mu))) // scale
        # an explicit test rather than require, so the success path builds no message
        if not on_lattice or den <= 0 or num % den:
            raise CertificateError(f"Freudenthal step fails at {mu} in V({hw}) of {g}")
        mults[mu] = num // den
    return mults


def dominant_diagram(g: GroupSpec, hw: Coords) -> dict[Coords, int]:
    """Dominant-weight multiplicities of the product-group irreducible V(hw):
    the product of its factors' diagrams, sized against
    ``PRODUCT_DIAGRAM_CAP`` before it is built."""
    parts = [simple_dominant_diagram(t, tuple(hw[lo:hi])) for t, lo, hi in g.root_data.factors]
    size = math.prod(map(len, parts))
    if size > PRODUCT_DIAGRAM_CAP:
        raise ResourceLimitError(
            "repthy.diagram", "PRODUCT_DIAGRAM_CAP", PRODUCT_DIAGRAM_CAP, size,
            f"the diagram of V({hw}) over {g} would hold {{count}} dominant weights",
        )
    combos: list[tuple[Coords, int]] = [((), 1)]
    for part in parts:
        combos = [
            (prefix + coords, mult * m)
            for prefix, mult in combos
            for coords, m in part.items()
        ]
    torus = tuple(hw[g.rank - g.torus_rank :])
    return {prefix + torus: mult for prefix, mult in combos}


class Character(NamedTuple):
    """A virtual character: map from every weight (Dynkin coordinates), not
    one per Weyl orbit, to its integer multiplicity."""

    group: GroupSpec
    entries: dict[Coords, int]

    def mult(self, coords: Coords) -> int:
        return self.entries.get(coords, 0)

    def mass(self) -> int:
        return sum(self.entries.values())

    def nonzero_weights(self) -> dict[Coords, int]:
        zero = tuple(0 for _ in range(self.group.rank))
        return {w: m for w, m in self.entries.items() if w != zero and m}


def weight_diagram(g: GroupSpec, hw: Coords) -> Character:
    """Full weight diagram (with multiplicities) of the irreducible V(hw):
    each dominant weight's Weyl orbit, walked level by level
    (:func:`orbit_walk`), carries its multiplicity."""
    full: dict[Coords, int] = {}
    for dom, m in dominant_diagram(g, hw).items():
        full.update({d: m for d, _level in orbit_walk(g, dom)})
    return Character(g, full)


# ---------------------------------------------------------------------------
# Modules: formal sums of irreducibles of a product group.


class _ModuleSpecFields(NamedTuple):
    group: GroupSpec
    summands: tuple[tuple[int, Coords], ...]  # (coefficient, highest weight)


class ModuleSpec(_ModuleSpecFields):
    def __new__(cls, *args, **kwargs) -> ModuleSpec:
        self = super().__new__(cls, *args, **kwargs)
        for coeff, hw in self.summands:
            if coeff <= 0:
                raise ValueError("summand coefficients must be positive")
            if len(hw) != self.group.rank:
                raise ValueError("highest weight rank mismatch")
            if any(x < 0 for x in hw[: self.group.rank - self.group.torus_rank]):
                raise ValueError("highest weights must be dominant")
        return self

    def dimension(self) -> int:
        return sum(c * weyl_dim(self.group, hw) for c, hw in self.summands)

    @cached_property
    def weights(self) -> Character:
        """Weight multiset of the module (direct sums add, tensor via the
        group), built on first use and kept with the module."""
        total: dict[Coords, int] = {}
        for coeff, hw in self.summands:
            for w, mult in weight_diagram(self.group, hw).entries.items():
                total[w] = total.get(w, 0) + coeff * mult
        return Character(self.group, total)

    @cached_property
    def root_lattice_diagram(self) -> dict[Coords, int]:
        """The dominant diagram of the module's root-lattice part: the
        summands whose highest weight lies in the root lattice with every
        torus label 0 (:func:`in_root_part`).  The zero weight and every
        root take their multiplicity from it alone; built on first use and
        kept with the module."""
        g = self.group
        total: dict[Coords, int] = {}
        for coeff, hw in self.summands:
            if in_root_part(g, hw):
                for d, mult in dominant_diagram(g, hw).items():
                    total[d] = total.get(d, 0) + coeff * mult
        return total

    def __str__(self) -> str:
        terms = []
        for c, hw in self.summands:
            w = "[" + ",".join(str(x) for x in hw) + "]"
            terms.append(w if c == 1 else f"{c}*{w}")
        return "+".join(terms)


def in_root_part(g: GroupSpec, hw: Coords) -> bool:
    """Whether the weights of V(hw) lie in the root lattice with every torus
    label 0, the coset of the zero weight and the roots.  Every weight is hw
    minus a sum of positive roots, so they all lie in the coset of hw, and
    an irreducible off it has zero multiplicity 0 and no root among its
    weights."""
    return in_root_lattice(g, hw) and not any(hw[g.rank - g.torus_rank :])


def parse_module(g: GroupSpec, text: str) -> ModuleSpec:
    """Parse module text like ``[1,1]``, ``2*[0,1]+[2,0]``, ``3*[1]``."""
    summands = []
    for term in text.replace(" ", "").split("+"):
        if "*" in term:
            c_text, w_text = term.split("*", 1)
            try:
                coeff = int(c_text)
            except ValueError:
                raise RootSystemError(
                    f"cannot parse the coefficient of the term {term!r}"
                ) from None
        else:
            coeff, w_text = 1, term
        summands.append((coeff, parse_weight(g, w_text)))
    return ModuleSpec(g, tuple(summands))


def weight_counts(m: ModuleSpec) -> tuple[int, int]:
    """(multiplicity of the zero weight, number of nonzero weights counted
    with multiplicity) of the module.  On the root-lattice part each nonzero
    dominant weight counts its multiplicity times its orbit size, so no
    orbit is expanded; every weight of a summand off the root lattice is
    nonzero, so it counts its coefficient times its Weyl dimension and runs
    no recursion."""
    g = m.group
    dom = m.root_lattice_diagram
    zero = tuple(0 for _ in range(g.rank))
    nonzero = sum(mult * orbit_size(g, d) for d, mult in dom.items() if d != zero)
    nonzero += sum(c * weyl_dim(g, hw) for c, hw in m.summands if not in_root_part(g, hw))
    return dom.get(zero, 0), nonzero


def min_root_multiplicity(m: ModuleSpec) -> tuple[int, Coords]:
    """Minimum, over all roots of the group, of the root's weight multiplicity.

    Returns (0, some absent root) when a root is missing.  Multiplicities are
    Weyl-invariant, so each root is looked up through the dominant weight of
    its orbit, in the root-lattice part's diagram (no summand off the root
    lattice has a root among its weights); the witness is the first root of
    minimal multiplicity.
    """
    g = m.group
    data = g.root_data
    if not data.roots:
        raise ValueError(f"{g} has no roots")
    entries = m.root_lattice_diagram
    return min(
        ((entries.get(dom, 0), root) for root, dom in zip(data.roots, data.dominant_roots)),
        key=lambda pair: pair[0],
    )


def max_nonzero_weight_multiplicity(g: GroupSpec, hw: Coords) -> tuple[int, Optional[Coords]]:
    """Largest multiplicity among nonzero weights of V(hw), with a witness."""
    dom = dominant_diagram(g, hw)
    zero = tuple(0 for _ in range(g.rank))
    best = (0, None)
    for w, mult in dom.items():
        if w != zero and mult > best[0]:
            best = (mult, w)
    return best


# ---------------------------------------------------------------------------
# Symmetric powers

SYMPOW_CELL_CAP = 50_000_000
"""Cells that the symmetric-power DP may hold: the boxes of all degrees
together, each clipped, for :func:`weyl_sum_series`, to the cells that can
reach the points its sums read.  They are counted before anything is built;
a hit raises ResourceLimitError (the CLI exits 3)."""


def symmetric_power(chi: Character, d: int) -> list[Character]:
    """Characters of S^0(chi), ..., S^d(chi) for an effective character chi,
    decoded from the packed DP of :func:`_packed_powers` in coordinate order."""
    layers, bits, strides = _packed_powers(chi, d, None)
    out = []
    for value, lo, hi in layers:
        data = _bytes(value)
        entries = {}
        for coords in itertools.product(*map(range, lo, [h + 1 for h in hi])):
            m = _field(data, bits, sum(map(mul, map(sub, coords, lo), strides)))
            if m:
                entries[coords] = m
        out.append(Character(chi.group, entries))
    return out


def _packed_powers(
    chi: Character, d: int, reads: Optional[Sequence[Coords]]
) -> tuple[list[tuple[int, Coords, Coords]], int, list[int]]:
    """S^0(chi), ..., S^d(chi) as ``(value, lo, hi)`` per degree, the field
    width ``bits`` and the cell ``strides``: the weight v of S^k is the field
    at cell ``sum((v - lo) * strides)`` of ``value``, and S^k has no weight
    outside the box ``lo .. hi``.

    Dynamic programming over the weight list: multiplying in one weight ``w``
    of multiplicity one is the geometric-series pass
    ``S[k] += shift(S[k-1], w)`` taken in increasing ``k``.  Degree k is held
    on the box ``k*mn .. k*mx`` per coordinate, with ``mn = min(0, min w)``
    and ``mx = max(0, max w)``, which holds every weight of S^k.

    ``reads`` is None for whole layers.  Otherwise the caller reads S^k only
    at the weights ``reads``, which lie in a box ``F``: a cell of degree k can
    reach ``F`` in degree d only if it lies in
    ``F - (d-k)*mx .. F - (d-k)*mn`` (the window of degree k, which holds
    ``F`` itself), so each box is clipped to its window; the cells of the
    window that a pass reads come from the window of the degree below, so the
    clipped boxes are exact on their windows.

    Each degree is one packed int, all in one frame of mixed-radix strides:
    the weight v of S^k is the cell with the digits ``v - lo[k]``, ``lo[k]``
    the first corner of its box, so each int starts at its box.  A pass is
    ``S[k] = (S[k] + (S[k-1] << off)) & mask[k]``, with ``off`` the cells
    of ``w + lo[k-1] - lo[k]`` (a right shift when negative, which drops
    only cells below the box); the radices keep every moved cell that leaves
    the box off the box's cells, so the mask clears it.  A field has the bit
    length of the number of monomials of degree at most d, which bounds
    every count, so counts are exact Python ints and no field spills.  The
    cells of all the boxes together are capped by ``SYMPOW_CELL_CAP``.
    """
    entries = chi.entries
    if any(m < 0 for m in entries.values()):
        raise ValueError("symmetric powers need an effective character")
    rank = chi.group.rank
    weights: list[Coords] = []
    for w, m in sorted(entries.items()):
        weights.extend([w] * m)
    cols = list(zip(*weights)) or [()] * rank
    mn = [min((0, *col)) for col in cols]
    mx = [max((0, *col)) for col in cols]
    los = [tuple(k * l for l in mn) for k in range(d + 1)]
    his = [tuple(k * h for h in mx) for k in range(d + 1)]
    if reads is not None:
        f_lo = [min(p[j] for p in reads) for j in range(rank)]
        f_hi = [max(p[j] for p in reads) for j in range(rank)]
        for k in range(d + 1):
            los[k] = tuple(max(a, f - (d - k) * h) for a, f, h in zip(los[k], f_lo, mx))
            his[k] = tuple(min(b, f - (d - k) * l) for b, f, l in zip(his[k], f_hi, mn))
    shapes = [[h - l + 1 for l, h in zip(lo, hi)] for lo, hi in zip(los, his)]
    cells = sum(math.prod(shape) for shape in shapes if min(shape) > 0)
    if cells > SYMPOW_CELL_CAP:
        raise ResourceLimitError(
            "repthy.sympow", "SYMPOW_CELL_CAP", SYMPOW_CELL_CAP, cells,
            "symmetric_power would need {count} DP cells",
        )
    bits = math.comb(len(weights) + d, d).bit_length()
    # A pass moves a cell of degree k-1 to the digits v + w - lo[k], at least
    # lo[k-1] + mn - lo[k] >= mn - mx and at most hi[k-1] + mx - lo[k].  A
    # radix above that top carries no digit, and one above
    # hi[k] - mn - lo[k-1] makes the lowest digit that falls below 0 borrow
    # to past the box's top hi[k] - lo[k]; so a moved cell outside the box
    # never lands on a cell of the box.
    radix = [
        1 + max([
            0,
            *(his[k - 1][j] + mx[j] - los[k][j] for k in range(1, d + 1)),
            *(his[k][j] - mn[j] - los[k - 1][j] for k in range(1, d + 1)),
        ])
        for j in range(rank)
    ]
    strides = [1] * rank
    for j in range(rank - 1, 0, -1):
        strides[j - 1] = strides[j] * radix[j]
    moves = [sum(map(mul, map(sub, los[k - 1], los[k]), strides)) for k in range(1, d + 1)]
    masks = [_box_mask(shape, strides, bits) if min(shape) > 0 else 0 for shape in shapes]
    packed = [0] * (d + 1)
    packed[0] = masks[0] & 1  # the zero weight, unless clipped away
    for w in weights:
        step = sum(map(mul, w, strides))
        for k in range(1, d + 1):
            prev = packed[k - 1]
            if prev:
                off = (step + moves[k - 1]) * bits
                moved = prev << off if off >= 0 else prev >> -off
                packed[k] = (packed[k] + moved) & masks[k]
    return list(zip(packed, los, his)), bits, strides


def _bytes(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 7) // 8, "little")


def _field(data: bytes, bits: int, cell: int) -> int:
    """The field of ``bits`` bits at ``cell`` of a packed int given as its
    little-endian bytes."""
    at = bits * cell
    chunk = data[at >> 3 : (at + bits + 7) >> 3]
    return (int.from_bytes(chunk, "little") >> (at & 7)) & ((1 << bits) - 1)


def _box_mask(shape: Sequence[int], strides: Sequence[int], bits: int) -> int:
    """All-ones fields over a box of ``shape`` cells in the frame, the first
    cell at bit 0: each coordinate, last first, repeats the mask so far by
    doubling."""
    mask = (1 << bits) - 1
    for size, stride in zip(reversed(shape), reversed(strides)):
        step = stride * bits
        out, done, block, count = 0, 0, mask, 1
        while size:
            if size & 1:
                out |= block << (done * step)
                done += count
            size >>= 1
            if size:
                block |= block << (count * step)
                count *= 2
        mask = out
    return mask


# ---------------------------------------------------------------------------
# Multiplicity extraction (alternating Weyl sum)

WEYL_ORDER_CAP = 100_000
"""Largest Weyl group the alternating sum enumerates."""


@lru_cache(maxsize=None)
def _alternating_points(g: GroupSpec, lam: Coords) -> tuple[tuple[Coords, int], ...]:
    """The points w(lam+rho) - rho of the alternating Weyl sum for V(lam),
    each with sign(w), listed once per group and lam; the Weyl group's order
    is checked against ``WEYL_ORDER_CAP`` before any point is listed."""
    if g.weyl_order > WEYL_ORDER_CAP:
        raise ResourceLimitError(
            "repthy.weyl_sum", "WEYL_ORDER_CAP", WEYL_ORDER_CAP, g.weyl_order,
            "the alternating sum would enumerate a Weyl group of order {count}",
        )
    delta = g.weyl_vector
    orbit = signed_orbit(g, tuple(map(add, lam, delta)))
    return tuple((tuple(map(sub, pt, delta)), sign) for pt, sign in orbit)


def weyl_sum_series(
    chi: Character, d: int, targets: Sequence[Coords]
) -> list[tuple[int, ...]]:
    """Multiplicities of V(lam) in S^0(chi), ..., S^d(chi), one tuple per lam
    in ``targets``, for a Weyl-invariant effective character chi (a module's
    weights).

    The alternating sum for V(lam) reads S^k at the points w(lam+rho) - rho;
    S^k is Weyl-invariant, so each point is read at its dominant
    representative, and the points are folded there with their signs
    summed.  The DP of :func:`_packed_powers` keeps only the cells that can
    reach those representatives, and each degree's sums are read straight
    off its packed int.
    """
    g = chi.group
    folded = []
    for lam in targets:
        reps: dict[Coords, int] = {}
        for pt, sign in _alternating_points(g, lam):
            rep = dominantize(g, pt)[0]
            reps[rep] = reps.get(rep, 0) + sign
        folded.append(reps)
    layers, bits, strides = _packed_powers(chi, d, [rep for reps in folded for rep in reps])
    series: list[list[int]] = [[] for _ in folded]
    for value, lo, hi in layers:
        data = _bytes(value)
        for reps, out in zip(folded, series):
            out.append(sum(
                sign * _field(data, bits, sum(map(mul, map(sub, rep, lo), strides)))
                for rep, sign in reps.items()
                if sign and all(map(le, lo, rep)) and all(map(le, rep, hi))
            ))
    return [tuple(out) for out in series]


# ---------------------------------------------------------------------------
# Generating-covariant existence (the counting bound)


class CovariantCertificate(NamedTuple):
    target: Coords
    degree: int
    multiplicity: int  # of V(target) in S^d(V)
    ideal_bound: int  # sum over e<d of dimInv_{d-e} * mult_e(target)
    per_degree_mults: tuple[int, ...]  # degrees 1..d
    per_degree_invariants: tuple[int, ...]  # degrees 1..d

    @property
    def exists(self) -> bool:
        return self.multiplicity > self.ideal_bound


def covariant_generator_exists(m: ModuleSpec, target: Coords, d: int) -> CovariantCertificate:
    """Decide whether a generating covariant of type V(target) exists in degree d.

    True when the multiplicity of V(target) in S^d(V) exceeds the upper bound
    on the ideal part: sum over 0 < e < d of (invariants in degree d-e) times
    (covariants of that type in degree e).
    """
    return covariant_certificates(m, target, d)[-1]


def covariant_certificates(m: ModuleSpec, target: Coords, d: int) -> list[CovariantCertificate]:
    """The certificates of :func:`covariant_generator_exists` for the degrees
    1..d, each read off a prefix of one :func:`weyl_sum_series` to degree d
    (the DP keeps every lower degree exact where the sums read it)."""
    zero = tuple(0 for _ in target)
    mults, invs = (series[1:] for series in weyl_sum_series(m.weights, d, (target, zero)))
    return [
        CovariantCertificate(
            target, k, mults[k - 1], sum(invs[k - e - 1] * mults[e - 1] for e in range(1, k)),
            mults[:k], invs[:k],
        )
        for k in range(1, d + 1)
    ]


def covariant_generator_exists_multidegree(
    summands: Sequence[Character],
    degrees: Sequence[int],
    target: Coords,
) -> CovariantCertificate:
    """Multigraded version: the module is a direct sum with one grading per summand.

    The ideal bound runs over proper nonzero sub-multidegrees e of the given
    multidegree d: invariants in degree d-e times covariants in degree e.
    """
    degrees = tuple(degrees)
    zero = tuple(0 for _ in target)
    box = itertools.product(*(range(d + 1) for d in degrees))
    mults, invs = _multigraded_mults(summands, box, (target, zero))
    bound = sum(
        invs[tuple(a - b for a, b in zip(degrees, e))] * m
        for e, m in mults.items()
        if e != degrees and any(e)
    )
    return CovariantCertificate(target, sum(degrees), mults[degrees], bound, (), ())


def graded_invariant_series(
    summands: Sequence[Character],
    multidegrees: Iterable[Sequence[int]],
) -> dict[Coords, int]:
    """Invariant dimensions of the given multigraded pieces.

    One call of :func:`symmetric_power` per summand (at its top degree); the
    pieces of each half of the summands that the multidegrees need are
    convolved once, and the alternating Weyl sum is folded into the second
    half (see :func:`_multigraded_mults`), so each multidegree costs one dot
    product.
    """
    zero = tuple(0 for _ in range(summands[0].group.rank))
    return _multigraded_mults(summands, multidegrees, (zero,))[0]


def _multigraded_mults(
    summands: Sequence[Character],
    multidegrees: Iterable[Sequence[int]],
    lams: Sequence[Coords],
) -> list[dict[Coords, int]]:
    """Multiplicity of V(lam) in S^d1(chi_1)...S^dk(chi_k) for each given
    multidegree d, one table per lam in ``lams``; the powers and
    convolutions are shared, and only the half-multidegrees that some d
    splits into are convolved.

    With A and B the products over the first and second half of the
    summands, the multiplicity is sum_w sign(w) (A*B)(w(lam+rho) - rho)
    = sum_x A(x) alt_B(x), where alt_B(x) = sum_w sign(w) B(w(lam+rho) - rho - x).
    Weights are packed keys (:func:`_packer`), so the sums and differences
    of weights are sums and differences of ints.  Keys come in
    ``itertools.product`` order.
    """
    g = summands[0].group
    wanted = {tuple(d) for d in multidegrees}
    max_degrees = [max(ds) for ds in zip(*wanted)]
    orbits = [_alternating_points(g, lam) for lam in lams]
    # a coordinate of S^k(chi_i) is at most k * top_i in size (checked as the
    # layers are packed), so one of a product of powers is at most ``reach``,
    # and one of an alternating key w(lam+rho) - rho - y at most ``reach`` +
    # |w(lam+rho) - rho|
    tops = [max((abs(x) for w in chi.entries for x in w), default=0) for chi in summands]
    reach = sum(map(mul, tops, max_degrees))
    pack = _packer(reach + max(abs(x) for orbit in orbits for pt, _ in orbit for x in pt))
    powers = []
    for chi, d, top in zip(summands, max_degrees, tops):
        layers = []
        for k, p in enumerate(symmetric_power(chi, d)):
            require(
                all(abs(x) <= k * top for w in p.entries for x in w),
                f"a weight of S^{k} leaves the box of {k} times {top}",
            )
            layers.append({pack(w): c for w, c in p.entries.items()})
        powers.append(layers)
    half = len(powers) // 2
    left = _convolve_powers(powers[:half], {d[:half] for d in wanted})
    right = _convolve_powers(powers[half:], {d[half:] for d in wanted})
    tables = []
    for orbit in orbits:
        shifts = [(pack(pt), sign) for pt, sign in orbit]
        alt_right: dict[Coords, dict[int, int]] = {}
        for degs, part in right.items():
            alt: dict[int, int] = {}
            get = alt.get
            for y, c in part.items():
                for pt, sign in shifts:
                    x = pt - y
                    alt[x] = get(x, 0) + sign * c
            alt_right[degs] = alt
        tables.append(
            {
                da + db: sum(c * alt.get(x, 0) for x, c in part.items())
                for da, part in left.items()
                for db, alt in alt_right.items()
                if da + db in wanted
            }
        )
    return tables


def _packer(bound: int) -> Callable[[Coords], int]:
    """Packing of weights whose coordinates are at most ``bound`` in size into
    ints: signed base-B digits with B = 2 * bound + 1, so that packing is
    additive and two such weights pack equal only when they are equal."""
    base = 2 * bound + 1

    def pack(w: Coords) -> int:
        key = 0
        for x in reversed(w):
            key = key * base + x
        return key

    return pack


def _convolve_powers(
    powers: Sequence[Sequence[dict[int, int]]],
    wanted: set[Coords],
) -> dict[Coords, dict[int, int]]:
    """Products S^d1(chi_1)...S^dk(chi_k) for each multidegree in ``wanted``,
    keyed by it, given ``powers[i][d]`` = S^d(chi_i) with packed weights;
    only prefixes of wanted multidegrees are built."""
    table: dict[Coords, dict[int, int]] = {(): {0: 1}}
    for i, layers in enumerate(powers):
        prefixes = {d[: i + 1] for d in wanted}
        nxt: dict[Coords, dict[int, int]] = {}
        for degs, acc in table.items():
            for k, part in enumerate(layers):
                if degs + (k,) not in prefixes:
                    continue
                prod: dict[int, int] = {}
                get = prod.get
                for x, c in acc.items():
                    for y, e in part.items():
                        z = x + y
                        prod[z] = get(z, 0) + c * e
                nxt[degs + (k,)] = prod
        table = nxt
    return table
