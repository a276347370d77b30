"""Independent brute-force oracles used to cross-check the fast algorithms.

Everything here is deliberately naive: exhaustive enumeration with exact
integer arithmetic, no shared code paths with the package internals beyond
basic root-system bookkeeping.
"""

from __future__ import annotations

from functools import lru_cache

from coreduce.config import CertificateError
from coreduce.rootsys import (
    GroupSpec,
    RootSystemError,
    build_root_system,
    closure,
    dominant_weights_below,
    orbit_size,
    reflect,
    root_scaled_of_dynkin,
)


# ---------------------------------------------------------------------------
# Per-factor references for the Weyl-group operations: each simple factor's
# block is converted, reflected or dominantized on its own with that type's
# Cartan matrix, without the group's block-diagonal root data.


def factor_blocks(g: GroupSpec) -> list:
    """(root system, lo, hi) per simple factor, from the factor list alone."""
    out, lo = [], 0
    for t in g.simple_factors:
        out.append((build_root_system(t), lo, lo + t.rank))
        lo += t.rank
    return out


def dynkin_of_root(rs, root: tuple) -> tuple:
    """Dynkin labels of an element of one type's root lattice in root coords."""
    n = rs.rank
    return tuple(sum(root[i] * rs.cartan[i][j] for i in range(n)) for j in range(n))


def reference_root_scaled_of_dynkin(g: GroupSpec, d: tuple) -> tuple:
    out = list(d)
    for rs, lo, hi in factor_blocks(g):
        # rs.root_scaled holds the columns of the Dynkin -> root_scaled matrix
        out[lo:hi] = [sum(d[lo + i] * col[i] for i in range(rs.rank)) for col in rs.root_scaled]
    return tuple(out)


def reference_dynkin_of_root_scaled(g: GroupSpec, c: tuple) -> tuple:
    out = list(c)
    for rs, lo, hi in factor_blocks(g):
        block = tuple(c[lo:hi])
        for j in range(rs.rank):
            v = sum(block[i] * rs.cartan[i][j] for i in range(rs.rank))
            if v % rs.lattice_index:
                raise RootSystemError(f"{block} is not in the weight lattice (root_scaled)")
            out[lo + j] = v // rs.lattice_index
    return tuple(out)


def reference_in_root_lattice(g: GroupSpec, d: tuple) -> bool:
    c = reference_root_scaled_of_dynkin(g, d)
    return all(x % rs.lattice_index == 0 for rs, lo, hi in factor_blocks(g) for x in c[lo:hi])


def reference_simple_reflections(g: GroupSpec) -> list:
    """All simple reflections as (block start, index in the block, Cartan
    row), in coordinate order."""
    return [(lo, i, row) for rs, lo, _hi in factor_blocks(g) for i, row in enumerate(rs.cartan)]


def reference_reflect(d: tuple, refl: tuple) -> tuple:
    lo, i, row = refl
    ci = d[lo + i]
    out = list(d)
    for j, a in enumerate(row):
        out[lo + j] -= ci * a
    return tuple(out)


def reference_dominantize(g: GroupSpec, d: tuple) -> tuple:
    """Per block: reflect in the first negative label until none is left."""
    cur = list(d)
    sign = 1
    for rs, lo, hi in factor_blocks(g):
        while True:
            i = next((i for i in range(rs.rank) if cur[lo + i] < 0), None)
            if i is None:
                break
            cur = list(reference_reflect(tuple(cur), (lo, i, rs.cartan[i])))
            sign = -sign
    return tuple(cur), sign


def reference_orbit(g: GroupSpec, d: tuple) -> dict:
    """The Weyl orbit of ``d``, each point mapped to its breadth-first depth."""
    refls = reference_simple_reflections(g)
    depth = {d: 0}
    frontier = [d]
    while frontier:
        nxt = []
        for p in frontier:
            for r in refls:
                q = reference_reflect(p, r)
                if q not in depth:
                    depth[q] = depth[p] + 1
                    nxt.append(q)
        frontier = nxt
    return depth


def weyl_orbit(g: GroupSpec, d: tuple) -> frozenset:
    """The Weyl orbit of a weight (Dynkin labels), by the package's closure
    under the simple reflections that move a point."""
    refls = range(g.rank - g.torus_rank)

    def neighbours(p: tuple) -> list:
        return [q for q in (reflect(g, p, i) for i in refls) if q != p]

    return frozenset(closure((d,), neighbours))


def reference_orbit_size(g: GroupSpec, dominant: tuple) -> int:
    """The product of the blocks' orbit sizes, each orbit listed."""
    n = 1
    for rs, lo, hi in factor_blocks(g):
        n *= len(reference_orbit(GroupSpec((rs.type,)), tuple(dominant[lo:hi])))
    return n


def kostant_weight_multiplicity(g: GroupSpec, hw: tuple, target: tuple) -> int:
    """Weight multiplicity by the alternating sum over the Weyl group of
    Kostant partition numbers (Weyl character formula, brute force)."""
    rho = tuple(1 for _ in range(g.rank))
    lam_rho = tuple(a + b for a, b in zip(hw, rho))
    mu_rho_scaled = root_scaled_of_dynkin(
        g, tuple(a + b for a, b in zip(target, rho))
    )
    total = 0
    for wd, sign in _signed_orbit(g, lam_rho):
        diff = tuple(
            a - b for a, b in zip(root_scaled_of_dynkin(g, wd), mu_rho_scaled)
        )
        total += sign * _partition_count(g, diff)
    return total


@lru_cache(maxsize=None)
def _partition_cache(g: GroupSpec):
    return {}


def _partition_count(g: GroupSpec, vec: tuple) -> int:
    """Number of multisets of positive roots (scaled coords) summing to vec."""
    cache = _partition_cache(g)
    pos = sorted(root_scaled_of_dynkin(g, d) for d in g.root_data.positive_roots)

    def rec(v: tuple, i: int) -> int:
        if all(x == 0 for x in v):
            return 1
        if i >= len(pos):
            return 0
        key = (v, i)
        if key in cache:
            return cache[key]
        total = 0
        w = v
        j = 0
        while True:
            total += rec(w, i + 1)
            w = tuple(a - b for a, b in zip(w, pos[i]))
            j += 1
            # positive roots have positive height: stop when overshooting
            if sum(w) < 0 or j > 400:
                break
        cache[key] = total
        return total

    return rec(vec, 0)


def _signed_orbit(g: GroupSpec, d0: tuple):
    """(w(d0), det w) over the Weyl orbit of a regular weight d0."""
    from coreduce.rootsys import signed_orbit

    return signed_orbit(g, d0)


def weyl_matrices(g: GroupSpec, limit: int = 10_000) -> list[tuple[tuple[int, ...], ...]]:
    """All Weyl group elements as matrices acting on Dynkin coordinates
    (rows are images of basis vectors), by breadth-first composition with the
    simple reflections; checked against the order formula."""
    assert g.weyl_order <= limit, "Weyl group too large to materialize"
    n = g.rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    refls = reference_simple_reflections(g)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for mat in frontier:
            for r in refls:
                image = tuple(reference_reflect(row, r) for row in mat)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    assert len(seen) == g.weyl_order, (len(seen), g.weyl_order)
    return sorted(seen)


def apply_matrix(mat, d: tuple) -> tuple:
    n = len(d)
    return tuple(sum(d[i] * mat[i][j] for i in range(n)) for j in range(n))


def reference_dominance(lam1, lam2) -> str:
    """The dominance criteria of ``nullcone.dominance``, tried for every
    Weyl matrix in turn."""
    g = lam1.defining.group
    w2 = lam2.weight_set()
    counts1: dict = {}
    for w in lam1.weights:
        counts1[w] = counts1.get(w, 0) + 1
    pos_roots = g.root_data.positive_roots
    for mat in weyl_matrices(g):
        kept = [w for w in counts1 if apply_matrix(mat, w) in w2]
        missing = [(w, c) for w, c in counts1.items() if apply_matrix(mat, w) not in w2]
        total_missing = sum(c for _, c in missing)
        if total_missing == 0:
            return "dominated"
        if total_missing == 1:
            ((w0, _c),) = missing
            if any(tuple(a - b for a, b in zip(w0, r)) in kept for r in pos_roots):
                return "dominated"
    return "not_by_these_criteria"


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def brute_force_minimal_relations(weights, bound: int) -> list[tuple]:
    """All componentwise-minimal nonzero relations with coefficient sum <= bound."""
    n = len(weights)
    dim = len(weights[0]) if n else 0
    sols: list[tuple] = []
    for total in range(1, bound + 1):
        for comp in _compositions(total, n):
            if any(all(a >= b for a, b in zip(comp, s)) for s in sols):
                continue
            if all(sum(m * w[j] for m, w in zip(comp, weights)) == 0 for j in range(dim)):
                sols.append(comp)
    return sols


def brute_force_torus_coreduced(weights: list, bound: int = 8) -> bool:
    """Every componentwise-minimal relation with coefficient sum <= bound has
    0/1 coefficients.  Exhaustive over compositions."""
    ws = [w for w in weights if any(x != 0 for x in w)]
    if not ws:
        return True
    for rel in brute_force_minimal_relations(ws, bound):
        if max(rel) >= 2:
            return False
    return True


def brute_force_sl3_dominant_sets(m) -> list:
    """Admissible sets of an A2 module by exhaustive rational slope sweep,
    for cross-checking the chamber enumeration."""
    from fractions import Fraction
    from coreduce.nullcone import Cocharacter, AdmissibleSet, weight_values
    chi = m.weights
    g = m.group
    # candidate slopes: mediants between consecutive critical slopes
    crits = set()
    for w in chi.nonzero_weights():
        c = root_scaled_of_dynkin(g, w)
        if c[1] != 0:
            crits.add(Fraction(-c[0], c[1]))
    samples = []
    pts = sorted(crits)
    cuts = [pts[0] - 1] + pts + [pts[-1] + 1]
    for a, b in zip(cuts, cuts[1:]):
        samples.append((a + b) / 2)
    out = []
    seen = set()
    for t in samples:
        rho = Cocharacter((Fraction(1), t), g)
        if not rho.is_dominant():
            continue
        try:
            values = weight_values(chi, rho)
        except Exception:
            continue
        pos = tuple(w for w, v, mult in values if v > 0 for _ in range(mult))
        if pos in seen:
            continue
        seen.add(pos)
        adm = AdmissibleSet(pos, rho, tuple(root_scaled_of_dynkin(g, w) for w in pos))
        adm.verify(chi)
        out.append(adm)
    return out


def brute_force_symmetric_power(entries: dict, d: int) -> dict:
    """Weights of S^d of the module with the given weight multiplicities, by
    summing every multiset of d basis vectors."""
    import itertools
    from collections import Counter

    basis = [w for w, m in sorted(entries.items()) for _ in range(m)]
    rank = len(next(iter(entries)))
    out = Counter()
    for combo in itertools.combinations_with_replacement(basis, d):
        out[tuple(sum(w[j] for w in combo) for j in range(rank))] += 1
    return dict(out)


def reference_multidegree_mult(summands, degrees, lam) -> int:
    """Multiplicity of V(lam) in S^d1(chi_1)...S^dk(chi_k), one multidegree at
    a time: a symmetric power per summand and degree, summed multiset by
    multiset (:func:`brute_force_symmetric_power`), dict convolution of the
    pieces, and the alternating Weyl sum evaluated point by point."""
    from coreduce.repthy import Character

    g = summands[0].group
    prod = {tuple(0 for _ in range(g.rank)): 1}
    for chi, d in zip(summands, degrees):
        part = brute_force_symmetric_power(chi.entries, d)
        nxt: dict = {}
        for x, c in prod.items():
            for y, e in part.items():
                z = tuple(a + b for a, b in zip(x, y))
                nxt[z] = nxt.get(z, 0) + c * e
        prod = nxt
    return mult_in_character(Character(g, prod), lam)


def reference_graded_invariant_series(summands, max_degrees) -> dict:
    import itertools

    zero = tuple(0 for _ in range(summands[0].group.rank))
    return {
        degs: reference_multidegree_mult(summands, degs, zero)
        for degs in itertools.product(*[range(x + 1) for x in max_degrees])
    }


def reference_covariant_counts(summands, degrees, target) -> tuple:
    """(multiplicity of V(target) in multidegree ``degrees``, ideal bound):
    the bound sums invariants in d - e times covariants in e over proper
    nonzero sub-multidegrees e."""
    import itertools

    zero = tuple(0 for _ in target)
    degrees = tuple(degrees)
    bound = 0
    for e in itertools.product(*[range(x + 1) for x in degrees]):
        if e == degrees or not any(e):
            continue
        rem = tuple(a - b for a, b in zip(degrees, e))
        bound += reference_multidegree_mult(summands, rem, zero) * reference_multidegree_mult(
            summands, e, target
        )
    return reference_multidegree_mult(summands, degrees, target), bound


def mult_in_character(chi, lam: tuple) -> int:
    """Multiplicity of the irreducible V(lam) inside the character chi: the
    alternating Weyl sum over the signed orbit of lam + rho, read point by
    point in the whole character."""
    delta = chi.group.weyl_vector
    start = tuple(a + b for a, b in zip(lam, delta))
    return sum(
        sign * chi.mult(tuple(a - b for a, b in zip(pt, delta)))
        for pt, sign in _signed_orbit(chi.group, start)
    )


def reference_covariant_generator_exists(m, target, d: int):
    """The certificate of ``covariant_generator_exists`` with every
    symmetric-power layer decoded into a weight dict before the alternating
    sums read it."""
    from coreduce.repthy import CovariantCertificate, symmetric_power

    layers = symmetric_power(m.weights, d)
    zero = tuple(0 for _ in target)
    mults = tuple(mult_in_character(layers[e], target) for e in range(1, d + 1))
    invs = tuple(mult_in_character(layers[e], zero) for e in range(1, d + 1))
    bound = sum(invs[d - e - 1] * mults[e - 1] for e in range(1, d))
    return CovariantCertificate(target, d, mults[d - 1], bound, mults, invs)


def exact_rank(vectors) -> int:
    """Rank of a list of integer vectors, by Gaussian elimination over Q."""
    from fractions import Fraction

    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def chamber_count(normals, rank: int) -> int:
    """Number of chambers of the central arrangement with the given nonzero
    integer normals in R^rank: Zaslavsky's (-1)^rank chi(-1), with chi from
    Whitney's formula, i.e. the sum over all subsets B of the hyperplanes of
    (-1)^(|B| - rank B).  Exponential in the number of distinct hyperplanes
    (fine up to about 10)."""
    import itertools
    from math import gcd

    def line(v):
        g = 0
        for x in v:
            g = gcd(g, abs(x))
        v = tuple(x // g for x in v)
        return max(v, tuple(-x for x in v))

    hyper = sorted({line(v) for v in normals})
    assert all(len(h) == rank for h in hyper)
    total = 0
    for k in range(len(hyper) + 1):
        for sub in itertools.combinations(hyper, k):
            total += (-1) ** (k - exact_rank(sub))
    return total


def leibniz_det(m) -> int:
    """Determinant of a square integer matrix by the Leibniz formula."""
    import itertools
    from math import prod

    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * prod(row[p] for row, p in zip(m, perm))
    return total


def reference_rays(normals, rank: int) -> set:
    """Both primitive directions of every line cut out by rank - 1 of the
    normals' hyperplanes: the signed maximal minors of every (rank - 1)-subset,
    one subset at a time, each minor by the Leibniz formula."""
    import itertools
    from math import gcd

    rays = set()
    for sub in itertools.combinations(normals, rank - 1):
        r = tuple((-1) ** j * leibniz_det([h[:j] + h[j + 1 :] for h in sub]) for j in range(rank))
        if any(r):
            g = gcd(*r)
            rays |= {tuple(x // g for x in r), tuple(-x // g for x in r)}
    return rays


def chamber_closure_rays(normals, rank: int, points) -> list[list[tuple]]:
    """For each point p, the primitive integer vectors r with h.r of the
    sign of h.p or 0 for every normal h, on the lines where rank - 1
    independent hyperplanes meet: the extreme rays of the closed chamber
    holding p, for an arrangement whose normals span.  Each line comes from
    a Gaussian elimination over Q, not from minors."""
    import itertools
    from fractions import Fraction
    from math import gcd, lcm

    def kernel_line(rows):
        rows = [[Fraction(x) for x in r] for r in rows]
        pivots = []
        for col in range(rank):
            i = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
            if i is None:
                continue
            rows[len(pivots)], rows[i] = rows[i], rows[len(pivots)]
            top = rows[len(pivots)]
            top[:] = [x / top[col] for x in top]
            for j, r in enumerate(rows):
                if j != len(pivots) and r[col]:
                    rows[j] = [a - r[col] * b for a, b in zip(r, top)]
            pivots.append(col)
        free = [c for c in range(rank) if c not in pivots]
        if len(free) != 1:
            return None
        v = [Fraction(0)] * rank
        v[free[0]] = Fraction(1)
        for row, col in zip(rows, pivots):
            v[col] = -row[free[0]]
        den = lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        return tuple(x // g for x in ints)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    rays = set()
    for sub in itertools.combinations(normals, rank - 1):
        line = kernel_line(sub)
        if line is not None:
            rays |= {line, tuple(-x for x in line)}
    return [
        sorted(r for r in rays if all(dot(h, r) * dot(h, p) >= 0 for h in normals))
        for p in points
    ]


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def reference_chamber_samples(normals: tuple, rank: int, cone: tuple) -> tuple:
    """The chamber enumeration as it built each chamber's key before it read
    the key off the ray: by lifting every local sample s to the point
    N*r + s and taking that point's signs.  Kept as it was, the rays
    (``nullcone._rays``) and the primitive normals aside."""
    from coreduce.nullcone import _line, _rays

    if rank == 1:
        return tuple(p for p in ((1,), (-1,)) if all(_dot(w, p) > 0 for w in cone))
    hyper = sorted({_line(h) for h in (*normals, *cone)})
    rays = _rays(hyper, rank)
    if not any(_dot(h, r) for h in hyper for r in rays):
        # the normals do not span; the coordinate hyperplanes make the
        # arrangement essential and only refine its chambers
        hyper = sorted(set(hyper) | {tuple(int(i == j) for j in range(rank)) for i in range(rank)})
        rays = _rays(hyper, rank)
    sums: dict = {}
    for r in sorted(rays):
        # a chamber inside the cone has no extreme ray outside it; the cone
        # walls not through r are then positive on every lift from r
        if any(_dot(w, r) < 0 for w in cone):
            continue
        k = next(i for i, x in enumerate(r) if x)
        local = tuple(h[:k] + h[k + 1 :] for h in hyper if _dot(h, r) == 0)
        local_cone = tuple(w[:k] + w[k + 1 :] for w in cone if _dot(w, r) == 0)
        for s in reference_chamber_samples(local, rank - 1, local_cone):
            s = s[:k] + (0,) + s[k:]
            n = 1 + max(abs(_dot(h, s)) for h in hyper)
            p = tuple(n * a + b for a, b in zip(r, s))
            key = tuple(_dot(h, p) > 0 for h in hyper)
            sums[key] = tuple(a + b for a, b in zip(sums.get(key, (0,) * rank), r))
    return tuple(sums.values())


# The three components of the triality module 8v+8s+8c of D4 that the
# paper's Appendix A lists, as typed there: the positive weights of the
# vector family in epsilon coordinates, and of the two half-spin families as
# the signs of (+-1/2, +-1/2, +-1/2, +-1/2).
D4_TRIALITY_CASES = (
    {
        "vector": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        "spinor_plus": ("++++", "+-+-", "++--", "-++-"),
        "spinor_minus": ("+++-", "+-++", "++-+", "-+++"),
    },
    {
        "vector": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        "spinor_plus": ("++++", "+-+-", "++--", "+--+"),
        "spinor_minus": ("+++-", "+-++", "++-+", "+---"),
    },
    {
        "vector": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        "spinor_plus": ("++++", "+-+-", "++--", "+--+"),
        "spinor_minus": ("+++-", "+-++", "++-+", "-+++"),
    },
)


def d4_triality_case_weights(case: dict) -> frozenset:
    """The twelve weights of a typed triality case in epsilon coordinates."""
    from fractions import Fraction

    half = [tuple(Fraction(1 if s == "+" else -1, 2) for s in signs)
            for signs in case["spinor_plus"] + case["spinor_minus"]]
    return frozenset(tuple(Fraction(x) for x in v) for v in case["vector"]) | frozenset(half)


def _inner(rs, d: tuple, root: tuple) -> int:
    """The invariant form of ``d`` (Dynkin labels) and ``root`` (root
    coordinates), scaled to integers by ``rs.form``."""
    return sum(r * x * f for r, x, f in zip(root, d, rs.form))


def reference_freudenthal(t, hw: tuple) -> dict:
    """Dominant-weight multiplicities of V(hw) by Freudenthal's recursion
    summed over every positive root, one alpha-string each: the kernel
    ``coreduce.repthy`` used before it walked one string per stabilizer
    orbit, kept as the reference for it."""
    rs = build_root_system(t)
    g = GroupSpec((t,))
    if any(x < 0 for x in hw):
        raise RootSystemError("highest weight must be dominant")
    dom = dominant_weights_below(g, hw, lambda visited: None)
    # process in decreasing height (sum of scaled root coordinates), ties in
    # coordinate order, so the diagram's order does not rest on set layout
    ordered = sorted(dom, key=lambda d: (-sum(reference_root_scaled_of_dynkin(g, d)), d))
    pos_dynkin = [dynkin_of_root(rs, a) for a in rs.positive_roots]
    delta = (1,) * rs.rank
    mults: dict = {hw: 1}
    hw_rs = reference_root_scaled_of_dynkin(g, hw)
    # string_tail[(nu, i)] = sum of mult(nu+k*alpha_i) * <nu+k*alpha_i, alpha_i>
    # over k >= 0 until the string leaves the diagram; weight strings through
    # a representation are contiguous, so the first absent point ends the sum
    string_tail: dict = {}
    for mu in ordered:
        if mu == hw:
            continue
        num = 0
        for i, (a_root, a_dyn) in enumerate(zip(rs.positive_roots, pos_dynkin)):
            chain: list = []
            nu = tuple(m + d for m, d in zip(mu, a_dyn))
            while (nu, i) not in string_tail:
                nu_dom, _ = reference_dominantize(g, nu)
                m = mults.get(nu_dom)
                if m is None:
                    string_tail[(nu, i)] = 0
                    break
                chain.append((nu, m * _inner(rs, nu, a_root)))
                nu = tuple(x + d for x, d in zip(nu, a_dyn))
            total = string_tail[(nu, i)]
            for point, f in reversed(chain):
                total += f
                string_tail[(point, i)] = total
            num += string_tail[(tuple(m + d for m, d in zip(mu, a_dyn)), i)]
        # denominator (|hw+delta|^2 - |mu+delta|^2) = <hw+mu+2delta, hw-mu>
        diff_rs = tuple(a - b for a, b in zip(hw_rs, reference_root_scaled_of_dynkin(g, mu)))
        diff_root = tuple(x // rs.lattice_index for x in diff_rs)
        summ = tuple(a + b + 2 * c for a, b, c in zip(hw, mu, delta))
        den = _inner(rs, summ, diff_root)
        # an explicit test rather than require, so the success path builds no message
        if any(x % rs.lattice_index for x in diff_rs) or den <= 0 or (2 * num) % den:
            raise CertificateError(f"Freudenthal step fails at {mu} in V({hw}) of {t}")
        mults[mu] = 2 * num // den
    return mults


def _full_dominant_diagram(m) -> dict:
    """The summands' dominant diagrams added with their coefficients."""
    from coreduce.repthy import dominant_diagram

    total: dict = {}
    for coeff, hw in m.summands:
        for d, mult in dominant_diagram(m.group, hw).items():
            total[d] = total.get(d, 0) + coeff * mult
    return total


def reference_weights(m) -> dict:
    """The weight multiset of a module: each summand's dominant diagram
    expanded orbit by orbit with :func:`reference_orbit`, the summands
    added with their coefficients."""
    from coreduce.repthy import dominant_diagram

    total: dict = {}
    for coeff, hw in m.summands:
        for d, mult in dominant_diagram(m.group, hw).items():
            for w in reference_orbit(m.group, d):
                total[w] = total.get(w, 0) + coeff * mult
    return total


def reference_roots(g: GroupSpec) -> list:
    """Every root of the group in Dynkin labels, from each factor's own root
    system: its positive roots and their negatives, zero elsewhere."""
    out = []
    for rs, lo, _hi in factor_blocks(g):
        for root in rs.positive_roots:
            d = dynkin_of_root(rs, root)
            for sign in (1, -1):
                w = [0] * g.rank
                w[lo : lo + rs.rank] = [sign * x for x in d]
                out.append(tuple(w))
    return out


def reference_toral_slice(m):
    """The torus weights of the slice at a generic zero-weight vector, each
    mapped to its multiplicity: the module's nonzero weights
    (:func:`reference_weights`) less one copy of each root
    (:func:`reference_roots`); None when some root is not a weight."""
    weights = reference_weights(m)
    roots = reference_roots(m.group)
    if any(weights.get(r, 0) == 0 for r in roots):
        return None
    counts = {w: c for w, c in weights.items() if any(w)}
    for r in roots:
        counts[r] -= 1
    return {w: c for w, c in counts.items() if c}


def reference_weight_counts(m) -> tuple:
    """(zero multiplicity, nonzero weights with multiplicity) of a module
    over its full dominant diagram, every summand's Freudenthal diagram
    included: the formula ``coreduce.repthy.weight_counts`` used before it
    read the root-lattice part alone, kept as the reference for it."""
    dom = _full_dominant_diagram(m)
    zero = tuple(0 for _ in range(m.group.rank))
    nonzero = sum(mult * orbit_size(m.group, d) for d, mult in dom.items() if d != zero)
    return dom.get(zero, 0), nonzero


def reference_min_root_multiplicity(m) -> tuple:
    """The least root multiplicity of a module and its first witness, looked
    up in the full dominant diagram: the formula
    ``coreduce.repthy.min_root_multiplicity`` used before it read the
    root-lattice part alone, kept as the reference for it."""
    data = m.group.root_data
    entries = _full_dominant_diagram(m)
    return min(
        ((entries.get(dom, 0), root) for root, dom in zip(data.roots, data.dominant_roots)),
        key=lambda pair: pair[0],
    )


def reference_hilbert_basis(weights):
    """Yield the indecomposable relations among ``weights`` by Contejean–Devié
    completion over coefficient tuples: the kernel ``coreduce.monoid`` used
    before it packed candidates and pairings into integers, kept as the
    reference for it.  The caps and their messages are the package's."""
    import heapq

    from coreduce import monoid
    from coreduce.config import ResourceLimitError
    from coreduce.monoid import Relation, _check_stored

    def _covers(y, ymask, gen):
        """y >= gen componentwise; the support mask rejects most pairs at once."""
        mask, items = gen
        return not mask & ~ymask and all(y[i] >= c for i, c in items)

    n = len(weights)
    if n == 0:
        return
    dim = len(weights[0])
    if any(len(w) != dim for w in weights):
        raise ValueError("weights must share a dimension")
    if any(all(x == 0 for x in w) for w in weights):
        raise ValueError("zero weights must be discarded before basis computation")
    _check_stored(n, n)  # the unit vectors that start the search

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    found = []
    by_coord = {}  # (j, m[j]) -> generators
    visited = set()
    # heap entries: (degree, coeffs, support mask, len(found) at push, value);
    # coeffs are unique, so the last three never take part in the ordering
    heap = []
    for i, w in enumerate(weights):
        e = tuple(int(j == i) for j in range(n))
        heap.append((1, e, 1 << i, 0, w))
        visited.add(e)
    heapq.heapify(heap)
    while heap:
        _check_stored(len(visited), n)
        deg, x, xmask, known, val = heapq.heappop(heap)
        if any(_covers(x, xmask, m) for m in found[known:]):
            continue
        if all(v == 0 for v in val):
            gen = (xmask, tuple((i, c) for i, c in enumerate(x) if c))
            found.append(gen)
            for i, c in gen[1]:
                by_coord.setdefault((i, c), []).append(gen)
            if len(found) > monoid.HILBERT_GENERATOR_CAP:
                raise ResourceLimitError(
                    "monoid.hilbert", "HILBERT_GENERATOR_CAP", monoid.HILBERT_GENERATOR_CAP,
                    len(found), "hilbert basis search found {count} generators",
                )
            yield Relation(x)
            continue
        for j, w in enumerate(weights):
            if dot(val, w) < 0:
                y = x[:j] + (x[j] + 1,) + x[j + 1 :]
                if y in visited:
                    continue
                ymask = xmask | 1 << j
                if any(_covers(y, ymask, m) for m in by_coord.get((j, y[j]), ())):
                    continue
                visited.add(y)
                heapq.heappush(
                    heap,
                    (deg + 1, y, ymask, len(found), tuple(a + b for a, b in zip(val, w))),
                )
