"""Weight diagrams, symmetric powers, and multiplicity extraction.

Irreducible weight multiplicities come from the Freudenthal recursion run
over dominant weights only (the diagram is Weyl-invariant, so one value per
orbit suffices); full diagrams are materialized on demand by orbit closure.
Multiplicities of irreducibles inside an arbitrary character use the
alternating Weyl-sum (Racah) formula, which needs only point lookups.

Multigraded multiplicities (one grading per summand) are computed for every
multidegree at once: S^0..S^dmax of each summand come from a single
symmetric-power DP, the pieces of each half of the summands are convolved
once per half-multidegree, and the alternating Weyl sum is folded into the
second half, so that each multidegree is one dot product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .config import CertificateError, ResourceLimitError, require
from .rootsys import (
    Coords,
    GroupSpec,
    RootSystemError,
    SimpleType,
    build_root_system,
    closure,
    dominant_weights_below,
    dominantize,
    orbit_size,
    parse_weight,
    signed_orbit,
    weyl_neighbours,
)

_freudenthal_cache: dict[tuple[SimpleType, Coords], dict[Coords, int]] = {}


def weyl_dim(t: SimpleType, hw: Coords) -> int:
    """Dimension of the irreducible with highest weight ``hw`` (Weyl formula)."""
    rs = build_root_system(t)
    delta = rs.weyl_vector
    num = 1
    den = 1
    lam_delta = tuple(a + b for a, b in zip(hw, delta))
    for alpha in rs.positive_roots:
        num *= rs.inner_dr(lam_delta, alpha)
        den *= rs.inner_dr(delta, alpha)
    require(num % den == 0, f"Weyl dimension of V({hw}) over {t} is not an integer")
    return num // den


def group_weyl_dim(g: GroupSpec, hw: Coords) -> int:
    d = 1
    for k, t in enumerate(g.simple_factors):
        lo, hi = g.blocks[k]
        d *= weyl_dim(t, tuple(hw[lo:hi]))
    return d


def simple_dominant_diagram(t: SimpleType, hw: Coords) -> dict[Coords, int]:
    """Multiplicities of the dominant weights of the irreducible V(hw).

    Freudenthal recursion, exact integer arithmetic; results are cached in
    memory.
    """
    hw = tuple(hw)
    key = (t, hw)
    if key not in _freudenthal_cache:
        _freudenthal_cache[key] = _freudenthal(t, hw)
    return _freudenthal_cache[key]


def _freudenthal(t: SimpleType, hw: Coords) -> dict[Coords, int]:
    rs = build_root_system(t)
    g = GroupSpec((t,))
    if any(x < 0 for x in hw):
        raise RootSystemError("highest weight must be dominant")
    dom = dominant_weights_below(g, hw)
    # process in decreasing height (sum of scaled root coordinates), ties in
    # coordinate order, so the diagram's order does not rest on set layout
    ordered = sorted(dom, key=lambda d: (-sum(rs.root_scaled_of_dynkin(d)), d))
    pos_dynkin = [rs.dynkin_of_root(a) for a in rs.positive_roots]
    delta = rs.weyl_vector
    mults: dict[Coords, int] = {hw: 1}
    hw_rs = rs.root_scaled_of_dynkin(hw)
    # string_tail[(nu, i)] = sum of mult(nu+k*alpha_i) * <nu+k*alpha_i, alpha_i>
    # over k >= 0 until the string leaves the diagram; weight strings through
    # a representation are contiguous, so the first absent point ends the sum
    string_tail: dict[tuple[Coords, int], int] = {}
    for mu in ordered:
        if mu == hw:
            continue
        num = 0
        for i, (a_root, a_dyn) in enumerate(zip(rs.positive_roots, pos_dynkin)):
            chain: list[tuple[Coords, int]] = []
            nu = tuple(m + d for m, d in zip(mu, a_dyn))
            while (nu, i) not in string_tail:
                nu_dom, _ = rs.dominantize(nu)
                m = mults.get(nu_dom)
                if m is None:
                    string_tail[(nu, i)] = 0
                    break
                chain.append((nu, m * rs.inner_dr(nu, a_root)))
                nu = tuple(x + d for x, d in zip(nu, a_dyn))
            total = string_tail[(nu, i)]
            for point, f in reversed(chain):
                total += f
                string_tail[(point, i)] = total
            num += string_tail[(tuple(m + d for m, d in zip(mu, a_dyn)), i)]
        # denominator (|hw+delta|^2 - |mu+delta|^2) = <hw+mu+2delta, hw-mu>
        diff_rs = tuple(a - b for a, b in zip(hw_rs, rs.root_scaled_of_dynkin(mu)))
        diff_root = tuple(x // rs.lattice_index for x in diff_rs)
        summ = tuple(a + b + 2 * c for a, b, c in zip(hw, mu, delta))
        den = rs.inner_dr(summ, diff_root)
        # an explicit test rather than require, so the success path builds no message
        if any(x % rs.lattice_index for x in diff_rs) or den <= 0 or (2 * num) % den:
            raise CertificateError(f"Freudenthal step fails at {mu} in V({hw}) of {t}")
        mults[mu] = 2 * num // den
    return mults


def dominant_diagram(g: GroupSpec, hw: Coords) -> dict[Coords, int]:
    """Dominant-weight multiplicities of the product-group irreducible V(hw)."""
    parts: list[dict[Coords, int]] = []
    for k, t in enumerate(g.simple_factors):
        lo, hi = g.blocks[k]
        parts.append(simple_dominant_diagram(t, tuple(hw[lo:hi])))
    torus = tuple(hw[g.blocks[-1][0] : g.blocks[-1][1]])
    combos: list[tuple[Coords, int]] = [((), 1)]
    for part in parts:
        combos = [
            (prefix + coords, mult * m)
            for prefix, mult in combos
            for coords, m in part.items()
        ]
    return {prefix + torus: mult for prefix, mult in combos}


@dataclass
class Character:
    """A virtual character: map from weights (Dynkin coordinates) to integers.

    ``dominant_only`` characters store one value per Weyl orbit and answer
    point queries by dominantization; they expand lazily.
    """

    group: GroupSpec
    entries: dict[Coords, int]
    dominant_only: bool = False

    def mult(self, coords: Coords) -> int:
        if self.dominant_only:
            dom, _ = dominantize(self.group, coords)
            return self.entries.get(dom, 0)
        return self.entries.get(coords, 0)

    def mass(self) -> int:
        if self.dominant_only:
            return sum(m * orbit_size(self.group, d) for d, m in self.entries.items())
        return sum(self.entries.values())

    def expand(self) -> "Character":
        if not self.dominant_only:
            return self
        step = weyl_neighbours(self.group)
        full: dict[Coords, int] = {}
        for dom, m in self.entries.items():
            full.update(dict.fromkeys(closure((dom,), step), m))
        return Character(self.group, full, False)

    def nonzero_weights(self) -> dict[Coords, int]:
        zero = tuple(0 for _ in range(self.group.rank))
        full = self.expand().entries
        return {w: m for w, m in full.items() if w != zero and m}


def weight_diagram(g: GroupSpec, hw: Coords) -> Character:
    """Full weight diagram (with multiplicities) of the irreducible V(hw)."""
    return Character(g, dominant_diagram(g, hw), True).expand()


# ---------------------------------------------------------------------------
# Modules: formal sums of irreducibles of a product group.


@dataclass(frozen=True)
class ModuleSpec:
    group: GroupSpec
    summands: tuple[tuple[int, Coords], ...]  # (coefficient, highest weight)

    def __post_init__(self) -> None:
        for coeff, hw in self.summands:
            if coeff <= 0:
                raise ValueError("summand coefficients must be positive")
            if len(hw) != self.group.rank:
                raise ValueError("highest weight rank mismatch")
            if any(x < 0 for x in hw[: self.group.rank - self.group.torus_rank]):
                raise ValueError("highest weights must be dominant")

    def dimension(self) -> int:
        return sum(c * group_weyl_dim(self.group, hw) for c, hw in self.summands)

    def __str__(self) -> str:
        terms = []
        for c, hw in self.summands:
            w = "[" + ",".join(str(x) for x in hw) + "]"
            terms.append(w if c == 1 else f"{c}*{w}")
        return "+".join(terms)


def parse_module(g: GroupSpec, text: str) -> ModuleSpec:
    """Parse module text like ``[1,1]``, ``2*[0,1]+[2,0]``, ``3*[1]``."""
    summands = []
    for term in text.replace(" ", "").split("+"):
        if "*" in term:
            c_text, w_text = term.split("*", 1)
            coeff = int(c_text)
        else:
            coeff, w_text = 1, term
        summands.append((coeff, parse_weight(g, w_text)))
    return ModuleSpec(g, tuple(summands))


def module_weights(m: ModuleSpec) -> Character:
    """Weight multiset of the module (direct sums add, tensor via the group)."""
    total: dict[Coords, int] = {}
    for coeff, hw in m.summands:
        diag = weight_diagram(m.group, hw)
        for w, mult in diag.entries.items():
            total[w] = total.get(w, 0) + coeff * mult
    return Character(m.group, total, False)


def min_root_multiplicity(m: ModuleSpec) -> tuple[int, Coords]:
    """Minimum, over all roots of the group, of the root's weight multiplicity.

    Returns (0, some absent root) when a root is missing.  Multiplicities are
    Weyl-invariant, so only one root per length class and factor matters, but
    all are checked for the witness.
    """
    g = m.group
    roots = g.roots_dynkin()
    if not roots:
        raise ValueError(f"{g} has no roots")
    # accumulate dominant-backed characters to keep E-series cheap
    chars = [(coeff, Character(g, dominant_diagram(g, hw), True)) for coeff, hw in m.summands]
    return min(
        ((sum(coeff * ch.mult(root_d) for coeff, ch in chars), root_d) for root_d in roots),
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


def zero_weight_multiplicity(g: GroupSpec, hw: Coords) -> int:
    dom = dominant_diagram(g, hw)
    return dom.get(tuple(0 for _ in range(g.rank)), 0)


# ---------------------------------------------------------------------------
# Symmetric powers

SYMPOW_CELL_CAP = 50_000_000
"""Dense DP cells (degrees times bounding box) that ``symmetric_power`` may
allocate; a hit raises ResourceLimitError (the CLI exits 3)."""


def symmetric_power(chi: Character, d: int) -> list[Character]:
    """Characters of S^0(chi), ..., S^d(chi) for an effective character chi.

    Dynamic programming over the weight list: multiplying in one weight ``w``
    of multiplicity one is the geometric-series pass
    ``S[k] += shift(S[k], w)`` taken in increasing ``k``.  Runs on a dense
    integer array over the bounding box of reachable weights; the number of
    DP cells is capped by ``SYMPOW_CELL_CAP``.
    """
    import numpy as np  # here only, so that a cold start does not pay for it

    entries = chi.expand().entries
    if any(m < 0 for m in entries.values()):
        raise ValueError("symmetric powers need an effective character")
    rank = chi.group.rank
    weights: list[Coords] = []
    for w, m in sorted(entries.items()):
        weights.extend([w] * m)
    if d == 0 or not weights:
        zero = tuple(0 for _ in range(rank))
        out = [Character(chi.group, {zero: 1}, False)]
        out += [Character(chi.group, {}, False) for _ in range(d)]
        return out
    lo = [min(0, d * min(w[j] for w in weights)) for j in range(rank)]
    hi = [max(0, d * max(w[j] for w in weights)) for j in range(rank)]
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    cells = (d + 1) * int(np.prod([Fraction(s) for s in shape]))
    if cells > SYMPOW_CELL_CAP:
        raise ResourceLimitError(
            f"symmetric_power would need {cells} DP cells, "
            f"over SYMPOW_CELL_CAP = {SYMPOW_CELL_CAP}"
        )
    # overflow guard: every cell is bounded by the total mass of S^d
    mass_bound = 1
    n = len(weights)
    for i in range(d):
        mass_bound = mass_bound * (n + i) // (i + 1)
    use_numpy = mass_bound < 2**62
    if use_numpy:
        # one array per degree, so each is freed once its dict is built
        dp = [np.zeros(shape, dtype=np.int64) for _ in range(d + 1)]
        dp[0][tuple(-l for l in lo)] = 1
        for w in weights:
            src = tuple(
                slice(max(0, -w[j]), min(shape[j], shape[j] - w[j])) for j in range(rank)
            )
            dst = tuple(
                slice(max(0, w[j]), min(shape[j], shape[j] + w[j])) for j in range(rank)
            )
            for k in range(1, d + 1):
                dp[k][dst] += dp[k - 1][src]
        out = []
        for k in range(d + 1):
            layer, dp[k] = dp[k], None
            # values first: the index arrays are gone before the dict grows
            vals = layer[layer != 0].tolist()
            cols = [(ix + l).tolist() for ix, l in zip(np.nonzero(layer), lo)]
            out.append(Character(chi.group, dict(zip(zip(*cols), vals)), False))
        return out
    # big-int fallback: dict DP
    zero = tuple(0 for _ in range(rank))
    layers: list[dict[Coords, int]] = [{zero: 1}] + [dict() for _ in range(d)]
    for w in weights:
        for k in range(1, d + 1):
            prev = layers[k - 1]
            cur = layers[k]
            for x, c in list(prev.items()):
                y = tuple(a + b for a, b in zip(x, w))
                cur[y] = cur.get(y, 0) + c
    return [Character(chi.group, layer, False) for layer in layers]


# ---------------------------------------------------------------------------
# Multiplicity extraction (alternating Weyl sum)

WEYL_ORDER_CAP = 100_000
"""Largest Weyl group the alternating sum enumerates."""


def _check_weyl_order(g: GroupSpec) -> None:
    if g.weyl_order > WEYL_ORDER_CAP:
        raise ResourceLimitError(
            f"the alternating sum would enumerate a Weyl group of order "
            f"{g.weyl_order}, over WEYL_ORDER_CAP = {WEYL_ORDER_CAP}"
        )


def mult_in_character(chi: Character, lam: Coords) -> int:
    """Multiplicity of the irreducible V(lam) inside the character chi."""
    g = chi.group
    _check_weyl_order(g)
    delta = g.weyl_vector
    start = tuple(a + b for a, b in zip(lam, delta))
    full = chi.expand()
    total = 0
    for pt, sign in signed_orbit(g, start):
        shifted = tuple(a - b for a, b in zip(pt, delta))
        total += sign * full.mult(shifted)
    return total


def invariant_dimension(chi: Character) -> int:
    return mult_in_character(chi, tuple(0 for _ in range(chi.group.rank)))


# ---------------------------------------------------------------------------
# Generating-covariant existence (the counting bound)


@dataclass(frozen=True)
class CovariantCertificate:
    target: Coords
    degree: int
    multiplicity: int  # of V(target) in S^d(V)
    ideal_bound: int  # sum over e<d of dimInv_{d-e} * mult_e(target)
    per_degree_mults: tuple[int, ...]  # degrees 1..d
    per_degree_invariants: tuple[int, ...]  # degrees 1..d

    @property
    def exists(self) -> bool:
        return self.multiplicity > self.ideal_bound


def covariant_generator_exists(
    m: ModuleSpec, target: Coords, d: int
) -> CovariantCertificate:
    """Decide whether a generating covariant of type V(target) exists in degree d.

    True when the multiplicity of V(target) in S^d(V) exceeds the upper bound
    on the ideal part: sum over 0 < e < d of (invariants in degree d-e) times
    (covariants of that type in degree e).
    """
    chi = module_weights(m)
    powers = symmetric_power(chi, d)
    mults = tuple(mult_in_character(powers[e], target) for e in range(1, d + 1))
    invs = tuple(invariant_dimension(powers[e]) for e in range(1, d + 1))
    bound = sum(invs[d - e - 1] * mults[e - 1] for e in range(1, d))
    return CovariantCertificate(target, d, mults[d - 1], bound, mults, invs)


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
    mults, invs = _multigraded_mults(summands, degrees, (target, zero))
    bound = sum(
        invs[tuple(a - b for a, b in zip(degrees, e))] * m
        for e, m in mults.items()
        if e != degrees and any(e)
    )
    return CovariantCertificate(target, sum(degrees), mults[degrees], bound, (), ())


def graded_invariant_series(
    summands: Sequence[Character],
    max_multidegree: Sequence[int],
) -> dict[Coords, int]:
    """Invariant dimensions of every multigraded piece up to the bound.

    One call of :func:`symmetric_power` per summand (at its top degree); the
    pieces of each half of the summands are convolved once, and the
    alternating Weyl sum is folded into the second half (see
    :func:`_multigraded_mults`), so each multidegree costs one dot product.
    """
    zero = tuple(0 for _ in range(summands[0].group.rank))
    return _multigraded_mults(summands, max_multidegree, (zero,))[0]


def _multigraded_mults(
    summands: Sequence[Character],
    max_degrees: Sequence[int],
    lams: Sequence[Coords],
) -> list[dict[Coords, int]]:
    """Multiplicity of V(lam) in S^d1(chi_1)...S^dk(chi_k) for every d <= max_degrees,
    one table per lam in ``lams``; the powers and convolutions are shared.

    With A and B the products over the first and second half of the
    summands, the multiplicity is sum_w sign(w) (A*B)(w(lam+rho) - rho)
    = sum_x A(x) alt_B(x), where alt_B(x) = sum_w sign(w) B(w(lam+rho) - rho - x).
    Keys come in ``itertools.product`` order.
    """
    g = summands[0].group
    if any(max_degrees):
        _check_weyl_order(g)
    powers = [
        [p.entries for p in symmetric_power(chi, d)]
        for chi, d in zip(summands, max_degrees)
    ]
    half = len(powers) // 2
    left = _convolve_powers(powers[:half], g.rank)
    right = _convolve_powers(powers[half:], g.rank)
    delta = g.weyl_vector
    tables = []
    for lam in lams:
        start = tuple(a + b for a, b in zip(lam, delta))
        shifts = [
            (tuple(a - b for a, b in zip(pt, delta)), sign)
            for pt, sign in signed_orbit(g, start)
        ]
        alt_right: dict[Coords, dict[Coords, int]] = {}
        for degs, part in right.items():
            alt: dict[Coords, int] = {}
            for y, c in part.items():
                for pt, sign in shifts:
                    x = tuple(a - b for a, b in zip(pt, y))
                    alt[x] = alt.get(x, 0) + sign * c
            alt_right[degs] = alt
        tables.append(
            {
                da + db: sum(c * alt.get(x, 0) for x, c in part.items())
                for da, part in left.items()
                for db, alt in alt_right.items()
            }
        )
    return tables


def _convolve_powers(
    powers: Sequence[Sequence[dict[Coords, int]]], rank: int
) -> dict[Coords, dict[Coords, int]]:
    """Products S^d1(chi_1)...S^dk(chi_k) for every multidegree, keyed by it,
    given ``powers[i][d]`` = S^d(chi_i)."""
    table: dict[Coords, dict[Coords, int]] = {(): {(0,) * rank: 1}}
    for layers in powers:
        nxt: dict[Coords, dict[Coords, int]] = {}
        for degs, acc in table.items():
            for k, part in enumerate(layers):
                prod: dict[Coords, int] = {}
                for x, c in acc.items():
                    for y, e in part.items():
                        z = tuple(p + q for p, q in zip(x, y))
                        prod[z] = prod.get(z, 0) + c * e
                nxt[degs + (k,)] = prod
        table = nxt
    return table
