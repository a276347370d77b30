"""Acceptance gate: ten criteria, one pass/fail line each.

Each test prints ``CRITERION n: PASS`` (or FAIL) so the gate can be read off
the pytest output directly.  Stated runtime budgets are asserted.
"""

import itertools
import random
import time
from contextlib import contextmanager

from coreduce import paper
from coreduce.monoid import (
    exists_sum,
    hilbert_basis,
    is_torus_coreduced,
)
from coreduce.nullcone import (
    SL3_PAIR_MODELS,
    admissible_sets,
    classify_components_sl3,
    components,
    covariant_vanishes,
    d4_adjoint_target_reachable,
    d4_triality_module,
    f4_two_26_support_bound,
    sl3_critical_ratios,
    sl3_pair_differential_vanishes,
)
from coreduce.repthy import (
    ModuleSpec,
    covariant_generator_exists,
    graded_invariant_series,
    min_root_multiplicity,
    max_nonzero_weight_multiplicity,
    parse_module,
    weight_counts,
    weight_diagram,
    weyl_dim,
)
from coreduce.rootsys import dynkin_to_eps, parse_group
from coreduce.slices import bad_toral_slice, roots_mult2_rule
from coreduce.classify import (
    NO,
    classify_module,
    sl2_module,
)

from oracles import (
    brute_force_minimal_relations,
    kostant_weight_multiplicity,
    reference_toral_slice,
    weyl_orbit,
)
from test_classify import SL2_TABLE



@contextmanager
def criterion(n: int, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {n}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"criterion {n} over budget: {elapsed:.1f}s"
    print(f"\nCRITERION {n}: PASS ({elapsed:.1f}s)")


def test_criterion_01_torus():
    with criterion(1, 1.0):
        for k in [1, 3, 7, 11]:
            assert is_torus_coreduced([(k,), (-k,)]).coreduced
        assert is_torus_coreduced([(k,) for k in paper.TORUS_PLUS_MINUS]).coreduced
        assert is_torus_coreduced([(3,), (-3,), (3,), (-3,)]).coreduced
        v = is_torus_coreduced([(k,) for k in paper.TORUS_FOUR_SIX])
        assert not v.coreduced
        assert max(v.certificate.coeffs) == max(paper.TORUS_FOUR_SIX_GENERATOR)


def test_criterion_02_hilbert_oracle():
    with criterion(2, 60.0):
        rng = random.Random(20260826)
        cases = 0
        while cases < 500:
            dim = rng.choice([1, 2])
            n = rng.randint(1, 6)
            ws = [
                tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(n)
            ]
            ws = [w for w in ws if any(w)]
            if not ws:
                continue
            cases += 1
            bound = 7
            fast = sorted(
                g.coeffs for g in hilbert_basis(ws)
                if g.degree <= bound
            )
            slow = sorted(brute_force_minimal_relations(ws, bound))
            assert fast == slow, ws
        assert cases >= 500


def _dominant_weights_with_dim_at_most(g, cap):
    """All dominant weights of g with Weyl dimension <= cap (BFS, pruned by
    coordinatewise monotonicity of the dimension formula)."""
    rank = g.rank
    zero = tuple(0 for _ in range(rank))
    seen = {zero}
    frontier = [zero]
    out = []
    while frontier:
        nxt = []
        for hw in frontier:
            if weyl_dim(g, hw) > cap:
                continue
            out.append(hw)
            for i in range(rank):
                inc = tuple(x + (1 if j == i else 0) for j, x in enumerate(hw))
                if inc not in seen:
                    seen.add(inc)
                    nxt.append(inc)
        frontier = nxt
    return out


def test_criterion_03_freudenthal():
    with criterion(3, 120.0):
        names = [
            "A1", "A2", "A3", "A4",
            "B2", "B3", "B4",
            "C3", "C4",
            "D4", "G2", "F4",
        ]
        checked = 0
        for name in names:
            g = parse_group(name)
            for hw in _dominant_weights_with_dim_at_most(g, 3000):
                assert sum(weight_diagram(g, hw).entries.values()) == weyl_dim(g, hw), (
                    name,
                    hw,
                )
                checked += 1
        assert checked > 3500
        # pointwise against the Kostant-partition oracle
        for name in ["A1", "A2", "B2", "G2"]:
            g = parse_group(name)
            for hw in _dominant_weights_with_dim_at_most(g, 50):
                chi = weight_diagram(g, hw)
                for w, m in chi.entries.items():
                    assert kostant_weight_multiplicity(g, hw, w) == m


def test_criterion_04_f4_facts():
    with criterion(4, 60.0):
        f4 = parse_group("F4")
        t = f4.simple_factors[0]
        phi4 = paper.F4_26
        assert weyl_dim(f4, phi4) == paper.F4_26_DIM
        assert weight_counts(ModuleSpec(f4, ((1, phi4),)))[0] == paper.F4_26_ZERO_MULTIPLICITY
        support = weight_diagram(f4, phi4).nonzero_weights()
        assert len(support) == paper.F4_26_NONZERO_WEIGHTS
        assert all(m == 1 for m in support.values())
        roots = set(f4.root_data.roots)
        for w in support:
            assert w in roots
            eps = dynkin_to_eps(t, w)
            assert sum(x * x for x in eps) == 1  # short
        for hw, threshold in paper.F4_ROOT_MULTIPLICITY:
            mult, _ = min_root_multiplicity(ModuleSpec(f4, ((1, hw),)))
            assert mult >= threshold, hw


def test_criterion_05_e7_screens():
    with criterion(5, 600.0):
        e7 = parse_group("E7")
        phi7_sq = (0, 0, 0, 0, 0, 0, 2)
        mult, _ = min_root_multiplicity(ModuleSpec(e7, ((1, phi7_sq),)))
        assert mult == 5
        for i in range(2, 7):  # every fundamental except the first and last
            hw = tuple(1 if j == i - 1 else 0 for j in range(7))
            m, _ = max_nonzero_weight_multiplicity(e7, hw)
            assert m >= 6, (i, m)


def test_criterion_06_sl3_v31():
    with criterion(6, 60.0):
        g = parse_group("A2")
        m = parse_module(g, paper.SL3_V31)
        assert sl3_critical_ratios(m) == paper.SL3_V31_RATIOS
        statuses = classify_components_sl3(m)
        dominant = [a for a in components(m) if statuses[a] == "dominant"]
        assert len(dominant) == 2
        degree = paper.SL3_V31_COVARIANT_DEGREE
        cert = covariant_generator_exists(m, (1, 0), degree)
        assert cert.exists and cert.multiplicity > cert.ideal_bound
        assert cert.multiplicity == paper.SL3_V31_COVARIANT_MULTIPLICITY
        v = classify_module(m)
        assert v.coreduced == NO and v.certificates[0].degree == degree


def test_criterion_07_g2xg2_appendix():
    with criterion(7, 600.0):
        m = parse_module(parse_group(paper.G2XG2_GROUP), paper.G2XG2_MODULE)
        sets = components(m)
        assert len(sets) == paper.G2XG2_MAXIMAL_SETS
        target = (0, 0, 1, 0)  # adjoint weight of the second factor
        for a in sets:
            assert a.dimension() == paper.G2XG2_SET_DIM
            assert a.defining.is_dominant()
            assert not exists_sum(
                a.root_scaled,
                _root_scaled(a.defining.group, target),
                9
            ).feasible
        cert = covariant_generator_exists(m, target, 9)
        assert (cert.target, cert.degree) == (target, 9)
        mults, invs = cert.per_degree_mults, cert.per_degree_invariants
        assert mults == paper.G2XG2_COVARIANT_SERIES
        assert invs == paper.G2XG2_INVARIANT_SERIES
        bound = sum(invs[9 - e - 1] * mults[e - 1] for e in range(1, 9))
        assert bound == cert.ideal_bound
        assert bound <= paper.G2XG2_IDEAL_BOUND < mults[-1] == cert.multiplicity
        a2a2 = parse_group("A2xA2")
        summands = [
            ModuleSpec(a2a2, ((1, hw),)).weights for hw in paper.A2XA2_SUMMANDS
        ]
        series = graded_invariant_series(summands, paper.A2XA2_INVARIANTS)
        for degrees, count in paper.A2XA2_INVARIANTS.items():
            assert series[degrees] == count


def _root_scaled(g, dynkin):
    from coreduce.rootsys import root_scaled_of_dynkin

    return root_scaled_of_dynkin(g, dynkin)


def test_criterion_08_f4_appendix():
    with criterion(8, 60.0):
        bound, stats = f4_two_26_support_bound()
        assert bound == paper.F4_SUPPORT_BOUND == 2 * paper.F4_26_DIM - 8
        assert stats["columns"] == paper.F4_SUPPORT_COLUMNS
        assert stats["singletons_after_column_reduction"] == paper.F4_SUPPORT_SINGLETONS
        triality = components(d4_triality_module())
        assert len(triality) == 6
        for a in triality:
            assert not d4_adjoint_target_reachable(a)
        model = SL3_PAIR_MODELS[paper.SL3_PAIR_ROW]
        assert tuple(model) == paper.SL3_PAIR_ROW_MODEL
        ok, row_stats = sl3_pair_differential_vanishes(model)
        assert ok
        assert row_stats["max_negative"] == paper.SL3_PAIR_ROW_MAX_NEGATIVE
        floors = [f for f in row_stats["floors"] if f is not None]
        assert min(floors) == paper.SL3_PAIR_ROW_FLOOR


def test_criterion_09_sl2_suite():
    with criterion(9, 60.0):
        for parts, want in SL2_TABLE:
            assert classify_module(sl2_module(parts)).coreduced == want, parts
        screen = classify_module(sl2_module(paper.SL2_TWO_QUADRATICS)).certificates[0]
        assert screen.rank_bound == paper.SL2_TWO_QUADRATICS_RANK
        assert screen.codim == paper.SL2_TWO_QUADRATICS_CODIM > screen.rank_bound
        cert = covariant_generator_exists(
            parse_module(parse_group(paper.SO4_GROUP), paper.SO4_MODULE),
            paper.SO4_TARGET,
            paper.SO4_DEGREE,
        )
        assert cert.multiplicity == paper.SO4_MULTIPLICITY
        assert paper.SO4_MULTIPLICITY > cert.ideal_bound == paper.SO4_IDEAL_BOUND


def test_criterion_10_property_suites():
    with criterion(10, 300.0):
        rng = random.Random(5)
        # certificate revalidation on load (round-trip through the fields)
        for name, text in [("A1", "[6]"), ("A2", "[4,1]"), ("B3", "[1,1,0]")]:
            g = parse_group(name)
            v = classify_module(parse_module(g, text))
            assert v.coreduced == NO
            cert = v.certificates[0]
            if hasattr(cert, "validate"):
                cert.validate()
                assert all(x == 0 for x in cert.relation_sum())
        # Weyl invariance of diagrams
        for name in ["A2", "B2", "G2", "B3"]:
            g = parse_group(name)
            for _ in range(5):
                hw = tuple(rng.randint(0, 2) for _ in range(g.rank))
                chi = weight_diagram(g, hw)
                items = list(chi.entries.items())
                for w, m in rng.sample(items, min(6, len(items))):
                    for v in weyl_orbit(g, w):
                        assert chi.mult(v) == m
        # covariant_vanishes agrees with a listing of every degree-d monomial
        g = parse_group("A2")
        m = parse_module(g, "[2,1]")
        for adm in admissible_sets(m):
            ws = sorted(adm.weight_set())
            for target in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (3, 0), (2, 2)]:
                for d in range(1, 6):
                    reached = any(
                        tuple(map(sum, zip(*monomial))) == target
                        for monomial in itertools.combinations_with_replacement(ws, d)
                    )
                    assert covariant_vanishes(adm, target, d) == (not reached), (target, d)
        # cross-rule consistency on randomized modules of rank <= 3:
        # whenever the root-multiplicity rule applies, the toral-slice search
        # must also produce a certificate
        names = ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA1", "A1xA2"]
        cases = 0
        while cases < 200:
            g = parse_group(rng.choice(names))
            summands = []
            for _ in range(rng.randint(1, 2)):
                hw = tuple(rng.randint(0, 2) for _ in range(g.rank))
                if any(hw):
                    summands.append((rng.randint(1, 2), hw))
            if not summands:
                continue
            m = ModuleSpec(g, tuple(summands))
            counts = None if m.dimension() > 80 else reference_toral_slice(m)
            if counts is None or sum(counts.values()) > 14:
                continue
            cases += 1
            mult, _ = min_root_multiplicity(m)
            rule = roots_mult2_rule(m)
            slice_cert = bad_toral_slice(m)
            if mult >= 2:
                assert rule is not None, m
                if max(rule.coeffs, default=0) >= 2:
                    # the rule found a coefficient->=2 relation among slice
                    # weights, so the direct slice search must certify too
                    rule.validate()
                    assert slice_cert is not None, m
            if slice_cert is not None:
                slice_cert.validate()
                assert max(slice_cert.coeffs) >= 2
        assert cases >= 200
