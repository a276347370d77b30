import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coreduce import rootsys
from coreduce.rootsys import (
    RootSystemError,
    SimpleType,
    build_root_system,
    dominant_weights_below,
    dominantize,
    dynkin_of_root_scaled,
    dynkin_to_eps,
    eps_to_dynkin,
    in_root_lattice,
    orbit_size,
    orbit_walk,
    parse_group,
    parse_weight,
    reflect,
    root_scaled_of_dynkin,
    signed_orbit,
    sl3_root_coords,
)

from oracles import (
    dynkin_of_root,
    leibniz_det,
    reference_dominantize,
    reference_dynkin_of_root_scaled,
    reference_in_root_lattice,
    reference_orbit,
    reference_orbit_size,
    reference_reflect,
    reference_root_scaled_of_dynkin,
    reference_simple_reflections,
    weyl_matrices,
    weyl_orbit,
)

WEYL_ORDERS = {
    "A1": 2,
    "A2": 6,
    "A3": 24,
    "B2": 8,
    "B3": 48,
    "B4": 384,
    "C3": 48,
    "C4": 384,
    "D4": 192,
    "D5": 1920,
    "G2": 12,
    "F4": 1152,
    "E6": 51840,
    "E7": 2903040,
    "E8": 696729600,
}

POSITIVE_ROOT_COUNTS = {
    "A1": 1,
    "A2": 3,
    "A3": 6,
    "B2": 4,
    "B3": 9,
    "C3": 9,
    "D4": 12,
    "G2": 6,
    "F4": 24,
    "E6": 36,
}


@pytest.mark.parametrize("name,order", sorted(WEYL_ORDERS.items()))
def test_weyl_group_orders(name, order):
    assert parse_group(name).weyl_order == order


@pytest.mark.parametrize("name,count", sorted(POSITIVE_ROOT_COUNTS.items()))
def test_positive_root_counts(name, count):
    assert parse_group(name).num_positive_roots == count


def test_product_group_multiplies():
    g = parse_group("A1xG2")
    assert g.rank == 3
    assert g.weyl_order == 24
    assert g.num_positive_roots == 7


def test_parse_group_roundtrip():
    for name in ["A1", "B3xG2", "A2xA2", "C4", "D4xA1"]:
        assert str(parse_group(name)) == name


def test_parse_weight_grammars():
    g = parse_group("A2")
    assert parse_weight(g, "[3,1]") == (3, 1)
    w = parse_weight(g, "(7,5)@root")
    assert root_scaled_of_dynkin(g, w) == (7, 5)
    b3 = parse_group("B3")
    spin = parse_weight(b3, "1/2e1+1/2e2+1/2e3@eps")
    assert spin == (0, 0, 1)


def test_parse_weight_rejects_garbage():
    g = parse_group("A2")
    for bad in ["[1]", "[1,2,3]", "e9@eps", "nonsense"]:
        with pytest.raises((RootSystemError, ValueError)):
            parse_weight(g, bad)


GROUPS_RANK2 = ["A2", "B2", "G2", "A1xA1"]


@given(
    name=st.sampled_from(GROUPS_RANK2),
    coords=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
@settings(max_examples=120, deadline=None)
def test_root_scaled_roundtrip(name, coords):
    g = parse_group(name)
    assert dynkin_of_root_scaled(g, root_scaled_of_dynkin(g, coords)) == coords


@given(
    name=st.sampled_from(GROUPS_RANK2),
    coords=st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
@settings(max_examples=80, deadline=None)
def test_orbit_size_divides_weyl_order(name, coords):
    g = parse_group(name)
    assert g.weyl_order % orbit_size(g, coords) == 0
    assert orbit_size(g, coords) == len(weyl_orbit(g, coords))


@given(
    name=st.sampled_from(GROUPS_RANK2),
    coords=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
)
@settings(max_examples=80, deadline=None)
def test_dominantize_lands_in_orbit_and_is_dominant(name, coords):
    g = parse_group(name)
    dom, _ = dominantize(g, coords)
    assert all(x >= 0 for x in dom)
    assert dom in weyl_orbit(g, coords)


# A1-A5, B2-B5, C2-C5, D3-D5, F4 and G2
EPS_TYPES = [SimpleType("B", 3), SimpleType("C", 3), SimpleType("D", 4), SimpleType("A", 2),
             SimpleType("F", 4), SimpleType("G", 2)] + [
    SimpleType(family, rank)
    for family, ranks in (("A", (1, 3, 4, 5)), ("B", (2, 4, 5)), ("C", (2, 4, 5)), ("D", (3, 5)))
    for rank in ranks
]


@pytest.mark.parametrize("t", EPS_TYPES)
def test_eps_roundtrip(t):
    """Each simple root's epsilon vector has its Cartan row as Dynkin labels,
    random weights survive the round trip (type A with last coordinate 0),
    and a vector off the weight lattice is refused."""
    cartan = build_root_system(t).cartan
    for root, row in zip(rootsys._eps_roots(t), cartan):
        assert eps_to_dynkin(t, root) == row
    rng = random.Random(str(t))
    for _ in range(100):
        d = tuple(rng.randint(-4, 4) for _ in range(t.rank))
        eps = dynkin_to_eps(t, d)
        assert eps_to_dynkin(t, eps) == d
        assert t.family != "A" or eps[-1] == 0
    off = [Fraction(1, 3)] + [Fraction(0)] * (len(eps) - 1)
    with pytest.raises(RootSystemError, match="not in the weight lattice"):
        eps_to_dynkin(t, off)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "A1xA2"])
def test_signed_orbit_matches_weyl_matrices(name):
    """Each point of the signed orbit of rho carries the determinant of the
    Weyl matrix that maps rho to it."""
    g = parse_group(name)
    rho = g.weyl_vector
    expected = {}
    for mat in weyl_matrices(g):
        image = tuple(sum(rho[i] * mat[i][j] for i in range(g.rank)) for j in range(g.rank))
        expected[image] = leibniz_det(mat)
    got = signed_orbit(g, rho)
    assert len(got) == len(expected) == g.weyl_order
    assert dict(got) == expected


def test_dominant_weights_below_adjoint_a2():
    g = parse_group("A2")
    below = dominant_weights_below(g, (1, 1))
    assert below == frozenset({(1, 1), (0, 0)})


@pytest.mark.parametrize("name", "A1 A2 A3 A4 B2 B3 B4 C3 C4 D4 D5 G2 F4 E6 E7 A1xG2xT1".split())
def test_stored_roots_are_the_dynkin_labels_of_the_root_list(name):
    g = parse_group(name)
    want = []
    coords = []
    form = []
    lo = 0
    for t in g.simple_factors:
        rs = build_root_system(t)
        pad = (0,) * (g.rank - lo - t.rank)
        want += [(0,) * lo + dynkin_of_root(rs, r) + pad for r in rs.positive_roots]
        coords += [(0,) * lo + r + pad for r in rs.positive_roots]
        # <omega_i, alpha_i> in the scale of the factor's inner_dr
        units = [tuple(int(i == j) for j in range(t.rank)) for i in range(t.rank)]
        form += [rs.inner_dr(e, e) for e in units]
        lo += t.rank
    data = g.root_data
    assert [t for t, _lo, _hi in data.factors] == list(g.simple_factors)
    assert [hi - lo for _t, lo, hi in data.factors] == [t.rank for t in g.simple_factors]
    assert data.form == tuple(form) + (0,) * g.torus_rank
    assert data.root_coords == tuple(coords)
    assert data.positive_roots == tuple(want)
    assert data.roots == tuple(want) + tuple(tuple(-x for x in r) for r in want)
    assert data.dominant_roots == tuple(dominantize(g, r)[0] for r in data.roots)


# a torus factor, three factors, and blocks of differing types and ranks
PRODUCT_GROUPS = ["A1xG2xT1", "B2xT1", "A2xB2", "A1xA1xA1", "D4xA1"]


@st.composite
def group_and_weight(draw):
    g = parse_group(draw(st.sampled_from(PRODUCT_GROUPS)))
    return g, tuple(draw(st.lists(st.integers(-6, 6), min_size=g.rank, max_size=g.rank)))


@given(group_and_weight())
@settings(max_examples=150, deadline=None)
def test_operations_match_the_per_factor_references(gw):
    """Each operation over the block-diagonal Cartan matrix agrees with the
    per-factor reference, torus labels (negative ones too) included."""
    g, d = gw
    torus = slice(g.rank - g.torus_rank, g.rank)
    assert root_scaled_of_dynkin(g, d) == reference_root_scaled_of_dynkin(g, d)
    assert in_root_lattice(g, d) == reference_in_root_lattice(g, d)
    # d read as root_scaled coordinates: the same labels, or the same error
    try:
        want = reference_dynkin_of_root_scaled(g, d)
    except RootSystemError as exc:
        with pytest.raises(RootSystemError) as got:
            dynkin_of_root_scaled(g, d)
        assert str(got.value) == str(exc)
    else:
        assert dynkin_of_root_scaled(g, d) == want
    refls = reference_simple_reflections(g)
    assert len(refls) == g.rank - g.torus_rank
    for i, refl in enumerate(refls):
        image = reflect(g, d, i)
        assert image == reference_reflect(d, refl)
        assert image[torus] == d[torus]
    dom = dominantize(g, d)
    assert dom == reference_dominantize(g, d)
    assert orbit_size(g, dom[0]) == reference_orbit_size(g, dom[0])


@given(group_and_weight())
@settings(max_examples=30, deadline=None)
def test_signed_orbit_matches_the_per_factor_reference(gw):
    g, d = gw
    # a regular weight: no zero label on the simple factors
    d0 = tuple(abs(x) + 1 for x in d[: g.rank - g.torus_rank]) + d[g.rank - g.torus_rank :]
    want = reference_orbit(g, d0)
    got = signed_orbit(g, d0)
    assert len(got) == len(want)
    assert dict(got) == {p: (-1) ** k for p, k in want.items()}
    assert weyl_orbit(g, d0) == frozenset(want)


# simple, product and torus groups of rank at most 4
WALK_GROUPS = (
    "A1 A2 B2 G2 A3 B3 C3 A4 B4 C4 D4 F4 A1xA1 A1xG2 A2xA2 A1xA1xA1 A1xT1 B2xT1 A2xT2 T1".split()
)


@st.composite
def dominant_weight(draw):
    g = parse_group(draw(st.sampled_from(WALK_GROUPS)))
    labels = draw(st.tuples(*[st.integers(0, 3)] * (g.rank - g.torus_rank)))
    return g, labels + draw(st.tuples(*[st.integers(-3, 3)] * g.torus_rank))


@given(gw=dominant_weight())
@example(gw=(parse_group("A1"), (0,)))
@example(gw=(parse_group("G2"), (1, 1)))
@example(gw=(parse_group("A1xT1"), (2, -3)))
@settings(max_examples=100, deadline=None)
def test_orbit_walk_lists_each_point_once_at_its_depth(gw):
    """The walk gives the orbit that closure finds, each point once and at
    its breadth-first depth; for a regular weight, signed_orbit gives each
    point the sign of its depth, from the dominant weight or from any other
    point of the orbit."""
    g, d = gw
    walk = list(orbit_walk(g, d))
    points = [p for p, _level in walk]
    assert frozenset(points) == weyl_orbit(g, d)
    assert len(points) == orbit_size(g, d)
    depth = reference_orbit(g, d)
    assert [level for _p, level in walk] == [depth[p] for p in points]
    assert [level for _p, level in walk] == sorted(depth.values())
    if all(d[: g.rank - g.torus_rank]):
        for start in (d, points[-1]):
            from_start = reference_orbit(g, start)
            assert dict(signed_orbit(g, start)) == {p: (-1) ** k for p, k in from_start.items()}


def test_orbit_walk_needs_a_dominant_weight():
    with pytest.raises(RootSystemError, match="not dominant"):
        next(orbit_walk(parse_group("A2xT1"), (1, -1, 0)))


def test_sl3_root_coords():
    p, q = sl3_root_coords((3, 1))
    assert (p, q) == (Fraction(7, 3), Fraction(5, 3))


def test_in_root_lattice():
    b3 = parse_group("B3")
    assert not in_root_lattice(b3, (0, 0, 1))
    assert in_root_lattice(b3, (0, 0, 2))
    a2 = parse_group("A2")
    assert in_root_lattice(a2, (1, 1))
    assert not in_root_lattice(a2, (1, 0))
