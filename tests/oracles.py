"""Independent brute-force oracles used to cross-check the fast algorithms.

Everything here is deliberately naive: exhaustive enumeration with exact
integer arithmetic, no shared code paths with the package internals beyond
basic root-system bookkeeping.
"""

from __future__ import annotations

from functools import lru_cache

from coreduce.rootsys import GroupSpec, reflect, root_scaled_of_dynkin, simple_reflections


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
    pos = sorted(root_scaled_of_dynkin(g, d) for d in g.positive_roots_dynkin())

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
    refls = simple_reflections(g)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for mat in frontier:
            for r in refls:
                image = tuple(reflect(g, row, r) for row in mat)
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
    pos_roots = g.positive_roots_dynkin()
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


def brute_force_symmetric_power_mass(dim: int, d: int) -> int:
    """dim S^d(C^dim) by the multiset-coefficient formula."""
    import math

    return math.comb(dim + d - 1, d)


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
    from coreduce.nullcone import Cocharacter, AdmissibleSet, _positive_set
    from coreduce.repthy import module_weights

    chi = module_weights(m)
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
            pos = _positive_set(chi, rho)
        except Exception:
            continue
        if pos in seen:
            continue
        seen.add(pos)
        adm = AdmissibleSet(pos, rho)
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
    a time: a symmetric power per summand and degree, dict convolution of the
    pieces, and the alternating Weyl sum evaluated point by point.  It shares
    ``symmetric_power`` with the package, which is checked separately against
    :func:`brute_force_symmetric_power`."""
    from coreduce.repthy import symmetric_power
    from coreduce.rootsys import signed_orbit

    g = summands[0].group
    prod = {tuple(0 for _ in range(g.rank)): 1}
    for chi, d in zip(summands, degrees):
        part = symmetric_power(chi, d)[d].entries
        nxt: dict = {}
        for x, c in prod.items():
            for y, e in part.items():
                z = tuple(a + b for a, b in zip(x, y))
                nxt[z] = nxt.get(z, 0) + c * e
        prod = nxt
    delta = g.weyl_vector
    start = tuple(a + b for a, b in zip(lam, delta))
    total = 0
    for pt, sign in signed_orbit(g, start):
        total += sign * prod.get(tuple(a - b for a, b in zip(pt, delta)), 0)
    return total


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


def _exact_rank(vectors) -> int:
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
            total += (-1) ** (k - _exact_rank(sub))
    return total
