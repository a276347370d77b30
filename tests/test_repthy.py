import itertools
import math
import operator
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from coreduce import paper, repthy
from coreduce.config import MEMO_SIZE, ResourceLimitError
from coreduce.nullcone import G2XG2_DEGREE, G2XG2_TARGET
from coreduce.repthy import (
    Character,
    ModuleSpec,
    covariant_generator_exists,
    covariant_generator_exists_multidegree,
    graded_invariant_series,
    in_root_part,
    min_root_multiplicity,
    parse_module,
    simple_dominant_diagram,
    symmetric_power,
    weight_counts,
    weight_diagram,
    weyl_dim,
    weyl_sum_series,
)
from coreduce.rootsys import (
    GroupSpec,
    SimpleType,
    build_root_system,
    in_root_lattice,
    parse_group,
    root_scaled_of_dynkin,
)

from oracles import (
    brute_force_symmetric_power,
    kostant_weight_multiplicity,
    leibniz_det,
    mult_in_character,
    reference_covariant_counts,
    reference_covariant_generator_exists,
    reference_freudenthal,
    reference_graded_invariant_series,
    reference_min_root_multiplicity,
    reference_weight_counts,
    weyl_orbit,
)


def _box(degrees):
    """Every multidegree up to ``degrees``."""
    return itertools.product(*(range(d + 1) for d in degrees))


KNOWN_DIMS = [
    ("A1", (1,), 2),
    ("A1", (6,), 7),
    ("A2", (1, 1), 8),
    ("A2", (3, 1), 24),
    ("B3", (1, 0, 0), 7),
    ("B3", (0, 0, 1), 8),
    ("C3", (0, 1, 0), 14),
    ("D4", (0, 1, 0, 0), 28),
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
    ("F4", (0, 0, 0, 1), 26),
    ("F4", (1, 0, 0, 0), 52),
]


@pytest.mark.parametrize("name,hw,dim", KNOWN_DIMS)
def test_known_dimensions(name, hw, dim):
    g = parse_group(name)
    assert weyl_dim(g, hw) == dim
    assert sum(weight_diagram(g, hw).entries.values()) == dim


def test_weyl_dim_of_a_product_is_the_product_over_its_factors():
    assert weyl_dim(parse_group("A1xG2xT1"), (2, 1, 0, 5)) == 3 * 7
    assert weyl_dim(parse_group("B3xA2"), (1, 0, 0, 1, 1)) == 7 * 8
    assert weyl_dim(parse_group("T2"), (3, -1)) == 1


def test_weyl_order_cap_fires_before_any_orbit_is_listed(monkeypatch):
    """E7 (|W| = 2,903,040) is past WEYL_ORDER_CAP: the alternating points
    refuse before the signed Weyl orbit of a target is listed."""

    def refuse(*args):
        raise AssertionError("a signed Weyl orbit was listed")

    monkeypatch.setattr(repthy, "signed_orbit", refuse)
    m = parse_module(parse_group("E7"), "[0,0,0,0,0,0,1]")
    with pytest.raises(ResourceLimitError, match="WEYL_ORDER_CAP"):
        covariant_generator_exists(m, (1, 0, 0, 0, 0, 0, 0), 2)


def test_mass_equals_weyl_dim_sweep():
    """Multiplicity sum = dimension formula across small highest weights."""
    for name in ["A2", "B2", "G2", "A3", "B3", "C3"]:
        g = parse_group(name)
        for hw in itertools.product(range(3), repeat=g.rank):
            if weyl_dim(g, hw) > 600:
                continue
            assert sum(weight_diagram(g, hw).entries.values()) == weyl_dim(g, hw)


def test_pointwise_kostant_oracle_rank2():
    for name in ["A2", "B2", "G2", "A1xA1"]:
        g = parse_group(name)
        for hw in itertools.product(range(4), repeat=2):
            if weyl_dim(g, hw) > 50:
                continue
            chi = weight_diagram(g, hw)
            for w, m in chi.entries.items():
                assert kostant_weight_multiplicity(g, hw, w) == m


@given(
    name=st.sampled_from(["A2", "B2", "G2"]),
    hw=st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
@settings(max_examples=40, deadline=None)
def test_weyl_invariance_of_diagrams(name, hw):
    g = parse_group(name)
    chi = weight_diagram(g, hw)
    for w, m in list(chi.entries.items())[:20]:
        for v in weyl_orbit(g, w):
            assert chi.mult(v) == m


def test_symmetric_power_mass():
    g = parse_group("A2")
    chi = ModuleSpec(g, ((1, (1, 1)),)).weights
    powers = symmetric_power(chi, 5)
    for d in range(1, 6):
        assert sum(powers[d].entries.values()) == math.comb(8 + d - 1, d)


def test_symmetric_power_binary_quadratic():
    # S^d of the 3-dim module of the rank-1 group: one invariant every
    # even degree (the discriminant powers)
    g = parse_group("A1")
    chi = ModuleSpec(g, ((1, (2,)),)).weights
    powers = symmetric_power(chi, 6)
    assert [mult_in_character(powers[d], (0,)) for d in range(1, 7)] == [0, 1, 0, 1, 0, 1]


def test_invariant_dimension_is_trivial_isotypic_count():
    g = parse_group("A2")
    chi = ModuleSpec(g, ((1, (1, 0)), (1, (0, 1)))).weights
    powers = symmetric_power(chi, 4)
    # C^3 + (C^3)*: invariants generated by the pairing, one per degree step
    assert [mult_in_character(powers[d], (0, 0)) for d in range(1, 5)] == [0, 1, 0, 1]


def test_zero_weight_multiplicities():
    g = parse_group("F4")
    assert weight_counts(ModuleSpec(g, ((1, (0, 0, 0, 1)),)))[0] == 2
    assert weight_counts(ModuleSpec(g, ((1, (1, 0, 0, 0)),)))[0] == 4
    a2 = parse_group("A2")
    assert weight_counts(ModuleSpec(a2, ((1, (1, 1)),)))[0] == 2


def test_dominant_diagram_breaks_height_ties_by_coordinates():
    # A3 [1,1,2] has dominant weights of equal height; their order (and so
    # the witness of max_nonzero_weight_multiplicity) must not rest on the
    # iteration order of a set
    t = SimpleType("A", 3)
    g = GroupSpec((t,))
    order = [w for w, _ in simple_dominant_diagram(t, (1, 1, 2))]
    heights = [sum(root_scaled_of_dynkin(g, w)) for w in order]
    assert len(set(heights)) < len(heights)
    assert order == sorted(order, key=lambda w: (-sum(root_scaled_of_dynkin(g, w)), w))


# every simple type of rank at most 4, and G2 and F4
SIMPLE_TYPES = [
    SimpleType(family, rank)
    for family, ranks in (("A", (1, 2, 3, 4)), ("B", (2, 3, 4)), ("C", (2, 3, 4)),
                          ("D", (3, 4)), ("G", (2,)), ("F", (4,)))
    for rank in ranks
]


@st.composite
def simple_highest_weights(draw):
    t = draw(st.sampled_from(SIMPLE_TYPES))
    return t, draw(st.tuples(*[st.integers(0, 3)] * t.rank))


@given(case=simple_highest_weights())
@settings(max_examples=60, deadline=None)
def test_dominant_diagram_matches_the_recursion_over_every_root(case):
    # the orbit-wise recursion gives the same multiplicities, in the same
    # order, as one alpha-string per positive root
    t, hw = case
    assert list(simple_dominant_diagram(t, hw)) == list(reference_freudenthal(t, hw).items())


# the rank-5 to rank-8 types that ``weights`` runs, at labels at most 1: the
# fundamental weights with the smallest diagrams and a sum of two
LARGER_TYPE_CASES = [
    ("B", 5, (1, 0, 0, 0, 0)), ("B", 5, (0, 1, 0, 0, 0)), ("B", 5, (0, 0, 0, 0, 1)),
    ("B", 5, (0, 0, 1, 1, 0)),
    ("D", 5, (1, 0, 0, 0, 0)), ("D", 5, (0, 1, 0, 0, 0)), ("D", 5, (0, 0, 0, 0, 1)),
    ("D", 5, (1, 0, 1, 0, 0)),
    ("E", 6, (1, 0, 0, 0, 0, 0)), ("E", 6, (0, 1, 0, 0, 0, 0)), ("E", 6, (0, 0, 0, 1, 0, 0)),
    ("E", 6, (1, 0, 0, 0, 0, 1)),
    ("E", 7, (1, 0, 0, 0, 0, 0, 0)), ("E", 7, (0, 0, 0, 0, 0, 0, 1)),
    ("E", 7, (0, 0, 1, 0, 0, 0, 0)), ("E", 7, (0, 1, 0, 0, 0, 0, 1)),
    ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1)), ("E", 8, (1, 0, 0, 0, 0, 0, 0, 0)),
]


@pytest.mark.parametrize("family,rank,hw", LARGER_TYPE_CASES)
def test_dominant_diagram_matches_the_recursion_on_larger_types(family, rank, hw):
    t = SimpleType(family, rank)
    assert list(simple_dominant_diagram(t, hw)) == list(reference_freudenthal(t, hw).items())


def test_a_session_of_more_highest_weights_than_memo_size_keeps_at_most_memo_size():
    """The diagrams and the alternating-sum points are kept per highest
    weight, which request input names freely, so both memos are bounded."""
    t = SimpleType("A", 1)
    g = GroupSpec((t,))
    for n in range(MEMO_SIZE + 10):
        simple_dominant_diagram(t, (n,))
        repthy._alternating_points(g, (n,))
    assert simple_dominant_diagram.cache_info().currsize == MEMO_SIZE
    assert repthy._alternating_points.cache_info().currsize == MEMO_SIZE


# simple and product groups, some with a torus; labels are kept small so
# that the full diagrams of the reference stay quick
COSET_GROUPS = ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA1", "A1xA2", "A1xT1", "A2xT1",
                "B2xT2", "A1xG2"]


@st.composite
def random_modules(draw):
    g = parse_group(draw(st.sampled_from(COSET_GROUPS)))
    semisimple = g.rank - g.torus_rank
    summand = st.tuples(
        st.integers(1, 3),
        st.tuples(*[st.integers(0, 2)] * semisimple, *[st.integers(-3, 3)] * g.torus_rank),
    )
    return ModuleSpec(g, tuple(draw(st.lists(summand, min_size=1, max_size=3))))


@given(m=random_modules())
@example(m=parse_module(parse_group("A1xT1"), "[2,-3]"))
@example(m=parse_module(parse_group("A2"), "[1,0]+[1,1]"))
@example(m=parse_module(parse_group("E7"), "[0,0,0,0,0,0,1]"))
@settings(max_examples=80, deadline=None)
def test_counts_from_the_root_lattice_part_equal_the_full_diagram(m):
    # weight counts and root multiplicities read off the summands in the
    # coset of the zero weight (the rest counted by Weyl dimension) equal
    # the formulas over every summand's diagram, and the counts add up to
    # the dimension on and off the root lattice alike
    zero, nonzero = weight_counts(m)
    assert (zero, nonzero) == reference_weight_counts(m)
    assert zero + nonzero == m.dimension()
    assert min_root_multiplicity(m) == reference_min_root_multiplicity(m)


def test_root_lattice_diagram_keeps_the_summands_in_the_coset_of_zero():
    g = parse_group("A1xT1")
    # [2,-3] is in the root lattice of A1 but has a nonzero torus label
    assert in_root_lattice(g, (2, -3)) and not in_root_part(g, (2, -3))
    m = parse_module(g, "[2,-3]+2*[2,0]+[1,0]")
    assert m.root_lattice_diagram == {(2, 0): 2, (0, 0): 2}
    assert weight_counts(m) == (2, 3 + 4 + 2)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_root_orbit_tables_cover_the_positive_roots_once(name):
    g = parse_group(name)
    t = g.simple_factors[0]
    npos = len(build_root_system(t).positive_roots)
    for size in range(t.rank + 1):
        for zero in itertools.combinations(range(t.rank), size):
            table = repthy._root_orbits(g, zero)
            assert repthy._root_orbits(g, zero) is table
            assert sum(w for w, _ in table) == 2 * npos
            assert len({k for _, k in table}) == len(table)


def test_covariant_certificate_example():
    m = parse_module(parse_group(paper.SO4_GROUP), paper.SO4_MODULE)
    cert = covariant_generator_exists(m, paper.SO4_TARGET, paper.SO4_DEGREE)
    assert cert.exists
    assert (cert.multiplicity, cert.ideal_bound) == (
        paper.SO4_MULTIPLICITY,
        paper.SO4_IDEAL_BOUND,
    )


def test_covariant_certificate_monotone_consistency():
    # per-degree tables in the certificate are internally consistent
    m = parse_module(parse_group("A2"), paper.SL3_V31)
    degree = paper.SL3_V31_COVARIANT_DEGREE
    cert = covariant_generator_exists(m, (1, 0), degree)
    assert cert.exists and cert.degree == degree
    assert cert.multiplicity == cert.per_degree_mults[-1] == paper.SL3_V31_COVARIANT_MULTIPLICITY
    d = cert.degree
    bound = sum(
        cert.per_degree_invariants[d - e - 1] * cert.per_degree_mults[e - 1]
        for e in range(1, d)
    )
    assert bound == cert.ideal_bound == 4


def test_multidegree_refines_total_degree():
    g = parse_group("A1")
    chi = ModuleSpec(g, ((1, (2,)),)).weights
    total = symmetric_power(chi, 4)
    agg = 0
    for a in range(5):
        b = 4 - a
        cert = covariant_generator_exists_multidegree([chi, chi], (a, b), (0,))
        agg += cert.multiplicity
    two = symmetric_power(ModuleSpec(g, ((2, (2,)),)).weights, 4)
    assert agg == mult_in_character(two[4], (0,))


def test_graded_invariant_series_small():
    g = parse_group("A1")
    chi = ModuleSpec(g, ((1, (2,)),)).weights
    series = graded_invariant_series([chi, chi], _box((2, 2)))
    assert series[(0, 0)] == 1
    assert series[(1, 1)] == 1  # the polarized discriminant pairing
    assert series[(2, 0)] == 1 == series[(0, 2)]


def test_parse_module_roundtrip():
    g = parse_group("A2")
    for text in ["[3,1]", "2*[1,0]+[0,1]", "[1,1]+[2,0]"]:
        m = parse_module(g, text)
        assert str(parse_module(g, str(m))) == str(m)


def test_collected_summands_merge_equal_highest_weights_in_first_order():
    g = parse_group("A2")
    m = parse_module(g, "[1,0]+2*[0,1]+3*[1,0]")
    assert m.collected == ((4, (1, 0)), (2, (0, 1)))
    assert m.summands == ((1, (1, 0)), (2, (0, 1)), (3, (1, 0)))
    assert str(m) == "[1,0]+2*[0,1]+3*[1,0]"
    assert parse_module(g, "2*[1,1]").collected == ((2, (1, 1)),)


def test_module_dimension_additivity():
    g = parse_group("B3")
    m = parse_module(g, "2*[1,0,0]+[0,0,1]")
    assert m.dimension() == 2 * 7 + 8
    assert sum(m.weights.entries.values()) == m.dimension()


@st.composite
def effective_characters(draw):
    name = draw(st.sampled_from(["A1", "A2", "A3"]))
    g = parse_group(name)
    coords = st.tuples(*[st.integers(-2, 2)] * g.rank)
    entries = draw(st.dictionaries(coords, st.integers(1, 2), min_size=1, max_size=4))
    return Character(g, entries)


@given(chi=effective_characters(), d=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_symmetric_power_matches_brute_force(chi, d):
    powers = symmetric_power(chi, d)
    assert len(powers) == d + 1
    for k, layer in enumerate(powers):
        assert layer.entries == brute_force_symmetric_power(chi.entries, k)



@st.composite
def clipped_dp_inputs(draw):
    """A character of rank 1 to 3 with at most 8 weights of coordinates in
    -2..2, each with a multiplicity, a degree up to 6 and a set of points
    to read, each within reach of some degree or past it."""
    g = parse_group(draw(st.sampled_from(["A1", "A2", "A3", "B2", "G2", "A1xG2"])))
    coords = st.tuples(*[st.integers(-2, 2)] * g.rank)
    entries = draw(st.dictionaries(coords, st.integers(1, 3), min_size=1, max_size=8))
    d = draw(st.integers(0, 6))
    reads = draw(st.lists(st.tuples(*[st.integers(-2 * d - 2, 2 * d + 2)] * g.rank), min_size=1, max_size=4))
    return Character(g, entries), d, reads


@given(inp=clipped_dp_inputs())
@settings(max_examples=60, deadline=None)
def test_clipped_layers_match_whole_layers_on_their_windows(inp):
    """Each layer of the DP clipped to the windows of a read set equals the
    whole layer of :func:`symmetric_power` on every cell of its window,
    whether or not the degree built a mask.  Cells are in the DP's reduced
    coordinates, and each is looked up at its Dynkin coordinates."""
    chi, d, reads = inp
    whole = symmetric_power(chi, d)
    layers, bits, strides, (_, to_dynkin) = repthy._packed_powers(chi, d, reads)
    for (value, lo, hi), layer in zip(layers, whole, strict=True):
        data = repthy._bytes(value)
        for cell in itertools.product(*map(range, lo, [h + 1 for h in hi])):
            at = sum((x - l) * s for x, l, s in zip(cell, lo, strides))
            weight = repthy._apply(to_dynkin, cell)
            assert repthy._field(data, bits, at) == layer.mult(weight), (cell, lo, hi)


def _mask_shapes(monkeypatch, call):
    """The shapes of the masks that the one DP ``call`` runs builds, the
    box shape of each of its degrees (both in the DP's reduced
    coordinates), and what ``call`` returns."""
    shapes, runs = [], []
    box_mask, packed_powers = repthy._box_mask, repthy._packed_powers

    def counted(shape, strides, bits):
        shapes.append(tuple(shape))
        return box_mask(shape, strides, bits)

    def recorded(*args):
        runs.append(packed_powers(*args))
        return runs[-1]

    monkeypatch.setattr(repthy, "_box_mask", counted)
    monkeypatch.setattr(repthy, "_packed_powers", recorded)
    out = call()
    ((layers, _bits, _strides, _basis),) = runs
    boxes = [tuple(h - l + 1 for l, h in zip(lo, hi)) for _, lo, hi in layers]
    return shapes, boxes, out


def _extents(weights, rank):
    """The extent max(0, max) - min(0, min) of each coordinate over ``weights``."""
    cols = [[w[i] for w in weights] for i in range(rank)]
    return [max((0, *col)) - min((0, *col)) for col in cols]


@given(inp=clipped_dp_inputs())
@settings(max_examples=100, deadline=None)
def test_the_tight_basis_is_unimodular_and_grows_no_extent(inp):
    chi, _d, _reads = inp
    rank = chi.group.rank
    weights = list(chi.entries)
    rows, inverse = repthy._tight_basis(weights, rank)
    assert leibniz_det(rows) in (1, -1)
    identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)] for row in rows] == identity
    reduced = [repthy._apply(rows, w) for w in weights]
    assert [repthy._apply(inverse, u) for u in reduced] == weights
    assert all(map(operator.le, _extents(reduced, rank), _extents(weights, rank)))


@pytest.mark.parametrize(
    "group,module,dynkin,reduced,rows",
    [
        ("G2", "[1,0]", [4, 2], [2, 2], [[1, 1], [0, 1]]),
        ("A1", "[1]", [2], [2], [[1]]),
        ("A2", "[1,0]", [2, 2], [2, 2], [[1, 0], [0, 1]]),
    ],
)
def test_the_tight_basis_shears_g2_and_keeps_type_a(group, module, dynkin, reduced, rows):
    # G2's seven weights fill a 5 x 3 box, and a 3 x 3 one after the shear
    # (x, y) -> (x + y, y); A1 and A2 have nothing to shrink
    g = parse_group(group)
    weights = list(parse_module(g, module).weights.entries)
    basis, _inverse = repthy._tight_basis(weights, g.rank)
    assert basis == rows
    assert _extents(weights, g.rank) == dynkin
    assert _extents([repthy._apply(basis, w) for w in weights], g.rank) == reduced


@pytest.mark.parametrize(
    "group,module", [("G2", "[1,0]"), ("G2", "[0,1]"), ("B2", "[1,0]+[0,1]"), ("A1xG2", "[1,1,0]")]
)
def test_symmetric_power_lists_dynkin_weights_in_order(group, module):
    """Decoded from a sheared DP, each layer lists its weights in Dynkin
    coordinate order, as the brute force sorted does."""
    chi = parse_module(parse_group(group), module).weights
    for k, layer in enumerate(symmetric_power(chi, 4)):
        assert list(layer.entries.items()) == sorted(brute_force_symmetric_power(chi.entries, k).items())


def test_whole_layers_build_a_mask_for_degree_0_only(monkeypatch):
    chi = parse_module(parse_group("A2"), "[2,1]+[0,1]").weights
    shapes, boxes, powers = _mask_shapes(monkeypatch, lambda: symmetric_power(chi, 6))
    assert shapes == [boxes[0]]
    for k, layer in enumerate(powers[:4]):
        assert layer.entries == brute_force_symmetric_power(chi.entries, k)


def test_appendix_b_series_masks_only_the_degrees_its_windows_clip(monkeypatch):
    """Degrees 1-4 of the G2xG2 series hold every cell of the degree below
    moved by any weight, so only degrees 0 and 5-9 build a mask, and the
    series is the paper's."""
    m = parse_module(parse_group(paper.G2XG2_GROUP), paper.G2XG2_MODULE)
    shapes, boxes, cert = _mask_shapes(
        monkeypatch, lambda: covariant_generator_exists(m, G2XG2_TARGET, G2XG2_DEGREE)
    )
    assert shapes == [boxes[k] for k in (0, 5, 6, 7, 8, 9)]
    assert cert.per_degree_mults == paper.G2XG2_COVARIANT_SERIES
    assert cert.per_degree_invariants == paper.G2XG2_INVARIANT_SERIES


def test_the_appendix_b_series_traces_under_one_and_a_half_megabytes():
    """The G2xG2 degree-9 series of appendixB, its module's weights built
    first, allocates at most 1.5 MB at its peak under ``tracemalloc``; in
    Dynkin coordinates its layers alone took 1.4 MB and the peak 3.1 MB."""
    m = parse_module(parse_group(paper.G2XG2_GROUP), paper.G2XG2_MODULE)
    m.weights
    tracemalloc.start()
    try:
        cert = covariant_generator_exists(m, G2XG2_TARGET, G2XG2_DEGREE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.per_degree_mults == paper.G2XG2_COVARIANT_SERIES
    assert peak < 1_500_000, peak


def test_symmetric_power_big_integer_fallback():
    # 1200 weights: S^8 has more than 2**62 monomials and some counts pass
    # int64; the packed fields are wide enough for the monomial count of S^8,
    # so the counts stay exact Python ints
    g = parse_group("A1")
    chi = Character(g, {(-1,): 600, (1,): 600})
    powers = symmetric_power(chi, 8)
    for k, layer in enumerate(powers):
        # i weights -1 and k - i weights +1, each a multiset of 600 kinds
        want = {
            (k - 2 * i,): math.comb(599 + i, i) * math.comb(599 + k - i, k - i)
            for i in range(k + 1)
        }
        assert layer.entries == want
    assert max(powers[8].entries.values()) > 2**63


@st.composite
def small_modules(draw):
    """A module of at most 3 summands and a target, all with labels 0..1."""
    g = parse_group(draw(st.sampled_from(["A1", "A2", "B2", "G2", "A1xA1"])))
    labels = st.tuples(*[st.integers(0, 1)] * g.rank)
    hws = draw(st.lists(labels.filter(any), min_size=1, max_size=3))
    m = ModuleSpec(g, tuple((1, hw) for hw in hws))
    return m, draw(labels)


def _counted_cells(call, reduced):
    """The cells the one DP ``call`` runs would count against the cap, in
    the reduced basis or, when ``reduced`` is false, in Dynkin coordinates
    (the identity basis)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repthy, "SYMPOW_CELL_CAP", -1)
        if not reduced:
            mp.setattr(
                repthy, "_tight_basis",
                lambda weights, rank: ([[int(i == j) for j in range(rank)] for i in range(rank)],) * 2,
            )
        with pytest.raises(ResourceLimitError) as err:
            call()
    return err.value.count


@given(inp=clipped_dp_inputs(), mod=small_modules(), d=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_the_dp_counts_no_more_cells_than_in_dynkin_coordinates(inp, mod, d):
    """Whole layers, whose boxes are products of the extents, and the
    clipped layers of the Weyl-sum series of a module."""
    chi, k, _reads = inp
    whole = lambda: symmetric_power(chi, k)
    assert _counted_cells(whole, True) <= _counted_cells(whole, False)
    m, target = mod
    zero = (0,) * m.group.rank
    series = lambda: weyl_sum_series(m.weights, d, (target, zero))
    assert _counted_cells(series, True) <= _counted_cells(series, False)


BRUTE_FORCE_MONOMIALS = 20_000
"""Largest number of monomials the brute-force layer is compared at."""


@given(inp=small_modules(), d=st.integers(1, 8))
@example(inp=(ModuleSpec(parse_group("A1"), ((600, (1,)),)), (1,)), d=8)
@settings(max_examples=60, deadline=None)
def test_covariant_generator_exists_matches_decoded_reference(inp, d):
    """The clipped layers give the counts that whole, decoded layers give,
    and whole layers match the brute-force sum over monomials wherever it
    is cheap (600 copies of the standard module pass 2**63 at degree 8)."""
    m, target = inp
    assert covariant_generator_exists(m, target, d) == reference_covariant_generator_exists(
        m, target, d
    )
    n = m.dimension()
    for k, layer in enumerate(symmetric_power(m.weights, d)):
        if math.comb(n + k - 1, k) <= BRUTE_FORCE_MONOMIALS:
            assert layer.entries == brute_force_symmetric_power(m.weights.entries, k)


@pytest.mark.parametrize("target", [(0,), (1,), (2,)])
def test_covariant_generator_exists_on_python_int_boxes(target):
    # 600 copies of the standard module: S^8 has more than 2**62 monomials,
    # and some of its counts pass int64
    m = ModuleSpec(parse_group("A1"), ((600, (1,)),))
    assert max(symmetric_power(m.weights, 8)[8].entries.values()) > 2**63
    cert = covariant_generator_exists(m, target, 8)
    assert cert == reference_covariant_generator_exists(m, target, 8)


def test_covariant_generator_exists_decodes_no_layer(monkeypatch):
    """The G2xG2 certificate of Appendix B reads its 144-point alternating
    sums straight from the clipped packed layers."""

    def refuse(*args):
        raise AssertionError("a symmetric-power layer was decoded")

    monkeypatch.setattr(repthy, "symmetric_power", refuse)
    m = parse_module(parse_group(paper.G2XG2_GROUP), paper.G2XG2_MODULE)
    cert = covariant_generator_exists(m, G2XG2_TARGET, G2XG2_DEGREE)
    assert cert.per_degree_mults == paper.G2XG2_COVARIANT_SERIES
    assert cert.per_degree_invariants == paper.G2XG2_INVARIANT_SERIES


def test_g2xg2_certificate_lists_each_signed_orbit_once(monkeypatch):
    """The degree-9 G2xG2 certificate lists the signed Weyl orbit of its
    target and of 0 once each, not once per degree."""
    calls = []

    def counted(*args):
        calls.append(args)
        return signed_orbit(*args)

    signed_orbit = repthy.signed_orbit
    monkeypatch.setattr(repthy, "signed_orbit", counted)
    repthy._alternating_points.cache_clear()
    m = parse_module(parse_group(paper.G2XG2_GROUP), paper.G2XG2_MODULE)
    assert covariant_generator_exists(m, G2XG2_TARGET, G2XG2_DEGREE).exists
    assert len(calls) == 2


@given(
    inp=small_modules(),
    other=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    d=st.integers(0, 6),
)
@example(inp=(ModuleSpec(parse_group("A2"), ((1, (1, 1)),)), (0, 0)), other=(0, 0), d=6)
@example(inp=(ModuleSpec(parse_group("A2"), ((1, (1, 1)),)), (0, 0)), other=(3, 3), d=6)
@settings(max_examples=60, deadline=None)
def test_weyl_sum_series_matches_whole_layers(inp, other, d):
    """The series read off the clipped DP equals the alternating sum over
    whole, decoded layers at every degree up to d, for the target 0 and two
    random ones."""
    m, target = inp
    zero = tuple(0 for _ in target)
    targets = [target, zero, other[: len(zero)]]
    layers = symmetric_power(m.weights, d)
    assert weyl_sum_series(m.weights, d, targets) == [
        tuple(mult_in_character(layer, lam) for layer in layers) for lam in targets
    ]


# small highest weights per group, so the per-multidegree oracle stays cheap
SMALL_HWS = {
    "A1": [(1,), (2,), (3,)],
    "A2": [(1, 0), (0, 1), (1, 1)],
    "B2": [(1, 0), (0, 1)],
    "A1xA1": [(1, 0), (0, 1), (1, 1), (2, 0)],
}


@st.composite
def multigraded_inputs(draw):
    name = draw(st.sampled_from(sorted(SMALL_HWS)))
    g = parse_group(name)
    hws = draw(st.lists(st.sampled_from(SMALL_HWS[name]), min_size=1, max_size=3))
    degrees = tuple(draw(st.integers(0, 3)) for _ in hws)
    target = draw(st.sampled_from(SMALL_HWS[name]))
    summands = [ModuleSpec(g, ((1, hw),)).weights for hw in hws]
    return summands, degrees, target


@given(inp=multigraded_inputs())
@settings(max_examples=50, deadline=None)
def test_multigraded_routines_match_per_multidegree_reference(inp):
    summands, degrees, target = inp
    series = graded_invariant_series(summands, _box(degrees))
    assert series == reference_graded_invariant_series(summands, degrees)
    # a few multidegrees alone: only the half-multidegrees they need are built
    picked = list(series)[::3]
    assert graded_invariant_series(summands, picked) == {d: series[d] for d in picked}
    cert = covariant_generator_exists_multidegree(summands, degrees, target)
    assert (cert.multiplicity, cert.ideal_bound) == reference_covariant_counts(
        summands, degrees, target
    )


@pytest.mark.parametrize(
    "name, weights, lam",
    [
        ("A1", [(7,), (-7,)], (14,)),
        ("A1xA1", [(7, 0), (-7, 0), (1, 0), (-1, 0), (0, 1), (0, -1)], (2, 0)),
    ],
)
def test_packed_multigraded_keys_at_large_coordinates(name, weights, lam):
    """Weights of size 7 to multidegree (6, 6): a full product reaches 84 in
    its first coordinate, next to the packing bound of 84 +
    |w(lam+rho) - rho|.  At rank 2 the weights span the lattice, so a base
    of 75 or less (the packing uses twice the bound plus one) makes two keys
    collide and the counts wrong."""
    g = parse_group(name)
    chi = Character(g, dict.fromkeys(weights, 1))
    summands, degrees = [chi, chi], (6, 6)
    series = graded_invariant_series(summands, _box(degrees))
    assert series == reference_graded_invariant_series(summands, degrees)
    cert = covariant_generator_exists_multidegree(summands, degrees, lam)
    assert cert.multiplicity > 0
    assert (cert.multiplicity, cert.ideal_bound) == reference_covariant_counts(
        summands, degrees, lam
    )
