import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from coreduce import paper
from coreduce.nullcone import (
    G2XG2_DEGREE,
    G2XG2_TARGET,
    SL3_PAIR_MODELS,
    AdmissibleSet,
    admissible_sets,
    classify_components_sl3,
    components,
    covariant_vanishes,
    d4_adjoint_target_reachable,
    d4_triality_module,
    dominance,
    f4_two_26_support_bound,
    positive_factor_counts,
    sl3_critical_ratios,
    sl3_pair_differential_vanishes,
    sl3_pair_validate_model,
    support_orbit_dim_bound,
    value_screen,
    weight_values,
    Cocharacter,
    _chamber_samples,
    _line,
    _rays,
)
from coreduce.repthy import ModuleSpec, parse_module
from coreduce.rootsys import SL3, dynkin_to_eps, parse_group, root_scaled_of_dynkin

from oracles import (
    D4_TRIALITY_CASES,
    brute_force_sl3_dominant_sets,
    chamber_closure_rays,
    chamber_count,
    d4_triality_case_weights,
    exact_rank,
    reference_chamber_samples,
    reference_dominance,
    reference_rays,
)



def _sl3(text):
    return parse_module(parse_group("A2"), text)


@given(data=st.data(), name=st.sampled_from(["A2", "G2", "B3", "A1xA2", "B3xT1"]))
@settings(max_examples=100, deadline=None)
def test_cocharacter_value_is_the_root_scaled_pairing(data, name):
    g = parse_group(name)
    coords = st.tuples(*[st.integers(-9, 9)] * g.rank)
    values, d = data.draw(coords), data.draw(coords)
    got = Cocharacter(values, g).value(d)
    assert got == sum(v * c for v, c in zip(values, root_scaled_of_dynkin(g, d)))
    assert type(got) is int


def test_admissible_sets_verify_against_diagram():
    m = _sl3("[2,1]")
    for a in admissible_sets(m):
        a.verify(m.weights)
        assert a.defining.is_dominant()


@pytest.mark.parametrize(
    "group,module", [("A2", "2*[1,0]+[2,1]"), ("B2", "[1,1]"), ("A1xA2", "[1,0,1]")]
)
@pytest.mark.parametrize("sets_of", [admissible_sets, components], ids=lambda f: f.__name__)
def test_admissible_sets_hold_their_weights_in_root_scaled_coordinates(group, module, sets_of):
    g = parse_group(group)
    for a in sets_of(parse_module(g, module)):
        assert a.root_scaled == tuple(root_scaled_of_dynkin(g, w) for w in a.weights)


@pytest.mark.parametrize("text", ["[3,1]", "[2,1]", "[4,0]", "[2,0]+[0,1]", "2*[1,0]"])
def test_chamber_enumeration_matches_slope_sweep(text):
    m = _sl3(text)
    fast = {a.weight_set() for a in admissible_sets(m)}
    slow = {a.weight_set() for a in brute_force_sl3_dominant_sets(m)}
    assert fast == slow


def test_v31_has_exactly_two_dominant_classes():
    m = _sl3("[3,1]")
    statuses = classify_components_sl3(m)
    dominant = [a for a in components(m) if statuses[a] == "dominant"]
    assert len(dominant) == 2


@pytest.mark.parametrize(
    "group, text",
    [
        ("A1", "[3]+2*[1]"),
        ("A2", "[1,2]"),
        ("A2", "2*[1,0]+[2,1]"),
        ("B2", "[1,1]"),
        ("G2", "2*[1,0]"),
        ("A1xA2", "[1,0,1]"),
        (paper.G2XG2_GROUP, paper.G2XG2_MODULE),
    ],
)
def test_components_are_the_maximal_admissible_sets_in_order(group, text):
    m = parse_module(parse_group(group), text)
    sets = admissible_sets(m)
    maximal = tuple(a for a in sets if not any(set(a.weights) < set(b.weights) for b in sets))
    assert components(m) == maximal
    if group == paper.G2XG2_GROUP:
        assert len(maximal) == paper.G2XG2_MAXIMAL_SETS


def test_a2_statuses_keep_a_component_over_every_dominated_one():
    """Over A2 ``[a,b]``, 0 <= a, b <= 6: the statuses hold every component
    and no set that is not maximal, and each component marked "dominated" is
    dominated by a component that is not, so the kept ones cover the null
    cone."""
    for hw in itertools.product(range(7), repeat=2):
        if not any(hw):
            continue
        m = _sl3(str(list(hw)).replace(" ", ""))
        sets = admissible_sets(m)
        statuses = classify_components_sl3(m)
        assert tuple(statuses) == components(m), hw
        for a in statuses:
            assert not any(set(a.weights) < set(b.weights) for b in sets), hw
        kept = [a for a, status in statuses.items() if status != "dominated"]
        for a, status in statuses.items():
            if status == "dominated":
                assert any(dominance(a, b) == "dominated" for b in kept), (hw, a.defining)


def test_a_component_dominated_only_by_its_own_subset_is_kept():
    """Over A2 ``[1,2]`` the one set that dominates the component with
    cocharacter (5,1) is its own subset, the set with cocharacter (5,2),
    which is no component."""
    m = _sl3("[1,2]")
    sets = {a.defining.values: a for a in admissible_sets(m)}
    big, small = sets[(5, 1)], sets[(5, 2)]
    assert set(small.weights) < set(big.weights)
    assert [b for b in sets.values() if b is not big and dominance(big, b) == "dominated"] == [small]
    statuses = classify_components_sl3(m)
    assert small not in statuses and statuses[big] != "dominated"


def test_v31_critical_ratios():
    assert sl3_critical_ratios(_sl3(paper.SL3_V31)) == paper.SL3_V31_RATIOS


def test_covariant_vanishes_antitone_in_weights():
    """Adding weights to a component can only make vanishing harder."""
    m = _sl3("[2,1]")
    sets = sorted(admissible_sets(m), key=lambda a: a.dimension())
    for small in sets:
        for big in sets:
            if not small.weight_set() < big.weight_set():
                continue
            for d in range(1, 5):
                if covariant_vanishes(big, (1, 0), d):
                    assert covariant_vanishes(small, (1, 0), d)


def test_value_screen_rank_and_degree_rules():
    # two 3-dim rank-1 modules: values +-2 with multiplicity 2 each
    res = value_screen([(Fraction(2), 2), (Fraction(-2), 2)], 3, [2, 2, 2])
    assert res.rank_bound == 2 and res.codim == 3
    assert res.not_reduced
    # a screen that does not fire: enough invariants below the cap
    res2 = value_screen([(Fraction(1), 1), (Fraction(-1), 1)], 1, [2])
    assert not res2.degree_rule_fires


def test_so3_g2_screen_numbers():
    res = value_screen(
        [(Fraction(3), 4), (Fraction(1), 8), (Fraction(-1), 8), (Fraction(-3), 4)],
        7,
        [2, 2, 4, 4],
    )
    assert res.max_useful_degree == 4
    assert res.invariants_available == 4
    assert res.not_reduced


def test_f4_support_bound_numbers():
    bound, stats = f4_two_26_support_bound()
    # the orbit bound 2*dim V - dim V//G of two copies of the 26-dim module
    assert bound == paper.F4_SUPPORT_BOUND == 2 * paper.F4_26_DIM - 8
    assert stats["columns"] == paper.F4_SUPPORT_COLUMNS
    assert stats["singletons_after_column_reduction"] == paper.F4_SUPPORT_SINGLETONS


def _d4_triality_sets():
    return components(d4_triality_module())


def test_d4_triality_blocks_unreachable():
    sets = _d4_triality_sets()
    assert len(sets) == 6
    for a in sets:
        assert a.dimension() == 12 and a.defining.is_dominant()
        assert not d4_adjoint_target_reachable(a)


def test_d4_triality_target_reachable_on_all_weights():
    # not vacuous: with every weight of the module, e1+e2 from the vector
    # family plus s + (-s) = 0 from each half-spin family reaches the target
    m = d4_triality_module()
    a = admissible_sets(m)[0]
    ws = tuple(sorted(m.weights.nonzero_weights()))
    everything = AdmissibleSet(ws, a.defining, tuple(root_scaled_of_dynkin(m.group, w) for w in ws))
    assert d4_adjoint_target_reachable(everything)


def test_d4_typed_triality_cases_are_enumerated_sets():
    t = d4_triality_module().group.simple_factors[0]
    enumerated = {frozenset(dynkin_to_eps(t, w) for w in a.weights) for a in _d4_triality_sets()}
    assert len(D4_TRIALITY_CASES) == 3
    for case in D4_TRIALITY_CASES:
        assert d4_triality_case_weights(case) in enumerated


def test_sl3_pair_models_validate_and_vanish():
    assert len(SL3_PAIR_MODELS) == 8
    for i, model in enumerate(SL3_PAIR_MODELS):
        sl3_pair_validate_model(i)
        ok, stats = sl3_pair_differential_vanishes(model)
        assert ok, (i, stats)


def test_sl3_pair_row_five_numbers():
    model = SL3_PAIR_MODELS[paper.SL3_PAIR_ROW]
    assert tuple(model) == paper.SL3_PAIR_ROW_MODEL
    ok, stats = sl3_pair_differential_vanishes(model)
    assert ok
    assert stats["max_negative"] == paper.SL3_PAIR_ROW_MAX_NEGATIVE
    floors = [f for f in stats["floors"] if f is not None]
    assert min(floors) == paper.SL3_PAIR_ROW_FLOOR


def test_g2xg2_sixteen_sets():
    m = parse_module(parse_group(paper.G2XG2_GROUP), paper.G2XG2_MODULE)
    sets = components(m)
    assert len(sets) == paper.G2XG2_MAXIMAL_SETS
    assert all(a.dimension() == paper.G2XG2_SET_DIM for a in sets)
    for a in sets:
        assert a.defining.is_dominant()
        assert covariant_vanishes(a, G2XG2_TARGET, G2XG2_DEGREE)


def test_support_bound_at_most_support_size_plus_rank():
    g = parse_group("A2")
    m = parse_module(g, "[1,1]")
    support = [((1, 1), 0)]
    bound, stats = support_orbit_dim_bound(m, support)
    assert 0 <= bound <= stats["columns"]


def test_negative_weight_degree_screen_matches_value_screen():
    m = _sl3("2*[2,0]")
    chi = m.weights
    rho = Cocharacter((Fraction(7), Fraction(3)), SL3)
    res = value_screen([(v, mult) for _, v, mult in weight_values(chi, rho)], 4, [3, 3, 3, 3])
    vals = {}
    for w, mult in chi.nonzero_weights().items():
        vals[rho.value(w)] = vals.get(rho.value(w), 0) + mult
    res2 = value_screen(sorted(vals.items(), reverse=True), 4, [3, 3, 3, 3])
    assert res == res2


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


arrangements = st.sampled_from([2, 3, 4]).flatmap(
    lambda rank: st.tuples(
        st.just(rank),
        st.lists(
            st.tuples(*[st.integers(-3, 3)] * rank).filter(any), min_size=3, max_size=9
        ),
    )
)


@given(arr=arrangements)
@settings(max_examples=120, deadline=None)
def test_chamber_samples_meet_every_chamber(arr):
    """One generic sample per chamber, counted against Zaslavsky's theorem;
    arrangements that do not span are included."""
    rank, normals = arr
    samples = _chamber_samples(tuple(normals), rank, ())
    assert all(_dot(h, p) != 0 for h in normals for p in samples)
    signs = {tuple(_dot(h, p) > 0 for h in normals) for p in samples}
    assert len(signs) == chamber_count(normals, rank)


@given(arr=arrangements)
@settings(max_examples=120, deadline=None)
def test_rays_match_the_minors_of_every_subset(arr):
    """Lines computed once each give the rays of every (rank - 1)-subset, for
    raw normals (repeated and parallel ones included) and for the distinct
    primitive normals that the chamber enumeration passes."""
    rank, normals = arr
    assert _rays(normals, rank) == reference_rays(normals, rank)
    hyper = sorted({_line(h) for h in normals})
    assert _rays(hyper, rank) == reference_rays(hyper, rank)


@given(arr=arrangements, data=st.data())
@settings(max_examples=60, deadline=None)
def test_chamber_points_are_sums_of_their_extreme_rays(arr, data):
    """Each point is the sum of the primitive rays in the closure of its
    chamber, so it depends only on the chamber; with cone walls, every point
    lies strictly inside the cone."""
    rank, normals = arr
    cone = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank).filter(any), max_size=3))
    hyper = normals + cone
    assume(exact_rank(hyper) == rank)
    samples = _chamber_samples(tuple(normals), rank, tuple(cone))
    for p, rays in zip(samples, chamber_closure_rays(hyper, rank, samples)):
        assert all(_dot(w, p) > 0 for w in cone)
        assert p == tuple(map(sum, zip(*rays)))


@given(arr=arrangements, data=st.data())
@settings(max_examples=100, deadline=None)
def test_chamber_keys_read_off_the_rays_match_the_lifted_points(arr, data):
    """Reading each chamber's key off its extreme ray gives the points of the
    enumeration that lifted every local sample, in the same order, with and
    without cone walls."""
    rank, normals = arr
    wall = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
    cone = data.draw(st.lists(wall, min_size=1, max_size=3))
    for walls in ((), tuple(cone)):
        got = _chamber_samples(tuple(normals), rank, walls)
        assert got == reference_chamber_samples(tuple(normals), rank, walls)


def _weight_lines(m):
    g = m.group
    return [root_scaled_of_dynkin(g, w) for w in m.weights.nonzero_weights()]


def _full_arrangement_sets(m):
    """One admissible set per chamber of the weight arrangement alone, with
    no root walls: the chamber points of ``_chamber_samples`` with no cone,
    each read off the module's weights as ``admissible_sets`` reads them."""
    g = m.group
    nonzero = sorted(m.weights.nonzero_weights().items())
    lines = tuple(sorted({_line(v) for v in _weight_lines(m)}))
    sets = {}
    for vals in _chamber_samples(lines, g.rank, ()):
        rho = Cocharacter(vals, g)
        pos = tuple(w for w, mult in nonzero for _ in range(mult) if rho.value(w) > 0)
        scaled = tuple(root_scaled_of_dynkin(g, w) for w in pos)
        sets.setdefault(pos, AdmissibleSet(pos, rho, scaled)).verify(m.weights)
    return tuple(sets.values())


@pytest.mark.parametrize(
    "group, text, chambers",
    [
        ("B3", "[1,0,0]", 8),
        ("C3", "[0,1,0]", 24),
        ("A1xG2", "[2,1,0]", 60),
        # all weights on one line
        ("A1xA1", "[1,0]", 2),
        ("A1xA1", "[2,0]", 2),
        ("A1xA1", "[0,1]", 2),
        ("A1xA1", "[0,2]", 2),
    ],
)
def test_full_arrangement_count_matches_zaslavsky(group, text, chambers):
    m = parse_module(parse_group(group), text)
    assert chamber_count(_weight_lines(m), m.group.rank) == chambers
    assert len(_full_arrangement_sets(m)) == chambers


@pytest.mark.parametrize("group, text", [("A1xA2", "[1,0,1]"), ("A1xA2", "[1,1,0]")])
def test_dominant_sets_tile_the_full_arrangement(group, text):
    """The weights and the root walls form a Weyl-invariant arrangement whose
    chambers are the Weyl images of its dominant ones."""
    g = parse_group(group)
    m = parse_module(g, text)
    sets = admissible_sets(m)
    assert len(sets) == 6
    walls = [root_scaled_of_dynkin(g, d) for d in g.root_data.positive_roots]
    assert len(sets) * g.weyl_order == chamber_count(_weight_lines(m) + walls, 3)


def test_rank4_dominant_sets_complete():
    m = parse_module(parse_group("B2xB2"), "[1,0,1,0]")
    sets = admissible_sets(m)
    assert len({a.weight_set() for a in sets}) == 6
    assert all(a.defining.is_dominant() for a in sets)


@given(
    name=st.sampled_from(["A2", "B2", "G2"]),
    hw=st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_dominance_matches_weyl_matrix_oracle(name, hw, data):
    """Pairs of admissible sets from every chamber, so that Weyl-conjugate
    sets (dominated) and unrelated ones both occur."""
    g = parse_group(name)
    sets = _full_arrangement_sets(ModuleSpec(g, ((1, hw),)))
    index = st.integers(0, len(sets) - 1)
    for _ in range(8):
        a, b = sets[data.draw(index)], sets[data.draw(index)]
        assert dominance(a, b) == reference_dominance(a, b)


def _sum_counts(pos, target):
    """Every k >= 1 with ``target`` a sum of k of ``pos``, by recursion on
    the largest summand."""
    if target == 0:
        return {0}
    return {
        k + 1
        for i, v in enumerate(pos)
        if v <= target
        for k in _sum_counts(pos[: i + 1], target - v)
    }


# cocharacter values are integers or, on the screens' test inputs, fractions
VALUES = st.integers(-12, 12).filter(bool)


@given(values=st.lists(
    st.tuples(
        VALUES | st.builds(Fraction, VALUES, st.sampled_from([2, 3])), st.integers(1, 3)
    ),
    min_size=1,
    max_size=6,
))
@settings(max_examples=200, deadline=None)
def test_positive_factor_counts_are_the_largest_counts(values):
    pos = sorted({v for v, _ in values if v > 0})
    want = [
        max(_sum_counts(pos, -v) - {0}, default=None)
        for v, m in values if v < 0 for _ in range(m)
    ]
    assert positive_factor_counts(values) == want
