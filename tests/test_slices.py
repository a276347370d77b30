import itertools

import pytest
from hypothesis import given, settings, strategies as st

from coreduce import monoid
from coreduce.repthy import ModuleSpec, min_root_multiplicity, parse_module
from coreduce.rootsys import parse_group
from coreduce.slices import (
    bad_toral_slice,
    product_group_rule,
    roots_mult2_rule,
    toral_slice,
    weyl_symmetric_list,
)



def test_has_toral_slice_requires_all_roots():
    g = parse_group("F4")
    assert toral_slice(parse_module(g, "[1,0,0,0]")) is not None
    assert toral_slice(parse_module(g, "2*[0,0,0,1]")) is None
    assert toral_slice(parse_module(g, "[1,0,0,0]+[0,0,0,1]")) is not None


def test_toral_slice_weights_removes_one_root_copy():
    g = parse_group("A2")
    m = parse_module(g, "2*[1,1]")
    counts = toral_slice(m)
    # 2 x 8-dim adjoint: 12 nonzero weights, 6 roots removed once each
    assert sum(counts.values()) == 6
    assert counts == {d: 1 for d in g.root_data.roots}
    # the adjoint alone keeps no nonzero weight, and no zero-count entry
    assert toral_slice(parse_module(g, "[1,1]")) == {}


def test_bad_slice_sextic():
    g = parse_group("A1")
    cert = bad_toral_slice(parse_module(g, "[6]"))
    assert cert is not None
    cert.validate()
    assert max(cert.coeffs) >= 2


def test_bad_slice_absent_for_adjoint():
    g = parse_group("G2")
    assert bad_toral_slice(parse_module(g, "[0,1]")) is None


def test_certificate_relation_is_exact():
    g = parse_group("A2")
    cert = bad_toral_slice(parse_module(g, "[4,1]"))
    assert cert is not None
    cert.validate()
    assert all(x == 0 for x in cert.relation_sum())


def test_roots_mult2_rule_double_adjoint():
    g = parse_group("G2")
    m = parse_module(g, "2*[0,1]")
    mult, _ = min_root_multiplicity(m)
    assert mult >= 2
    cert = roots_mult2_rule(m)
    assert cert is not None
    cert.validate()
    assert max(cert.coeffs) >= 2


def test_roots_mult2_rule_type_a_reduction():
    g = parse_group("A2")
    cert = roots_mult2_rule(parse_module(g, "2*[1,1]"))
    assert cert is not None  # record-only reduction path for type A


def test_product_group_rule_requires_toral_slice():
    g = parse_group("B2xG2")
    m = parse_module(g, "[1,0,1,0]")
    assert toral_slice(m) is None
    with pytest.raises(ValueError):
        product_group_rule(m)


@given(
    name=st.sampled_from(["A2", "B2", "G2", "A1", "B3"]),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_bad_slice_certificates_always_validate(name, data):
    g = parse_group(name)
    hw = data.draw(
        st.tuples(*[st.integers(0, 2) for _ in range(g.rank)]).filter(
            lambda t: any(t)
        )
    )
    coeff = data.draw(st.integers(1, 2))
    m = ModuleSpec(g, ((coeff, hw),))
    counts = None if m.dimension() > 60 else toral_slice(m)
    if counts is None or sum(counts.values()) > 14:
        return
    cert = bad_toral_slice(m)
    if cert is not None:
        cert.validate()
        assert max(cert.coeffs) >= 2
        assert all(x == 0 for x in cert.relation_sum())


def test_f4_adjoint_plus_26_slice_certificate_is_pinned():
    # the first generator with a coefficient >= 2 in the completion order,
    # the 213th, after 212 with 0/1 coefficients; neither pruning the
    # minimality test, packing the search nor skipping the listing of
    # arrangements may change which one is found.  The whole basis of the
    # slice passes the coordinate cap, so the generators are read off the
    # listing of the same search, which yields them in that order.
    g = parse_group("F4")
    m = parse_module(g, "[1,0,0,0]+[0,0,0,1]")
    cert = bad_toral_slice(m)
    ws, symmetry = weyl_symmetric_list(g, toral_slice(m))
    listed = list(itertools.islice(monoid.iter_hilbert_basis(ws, symmetry), 213))
    assert len(listed) == 213
    assert all(gen.max_coeff == 1 for gen in listed[:-1])
    support = [(w, c) for w, c in zip(ws, listed[-1].coeffs) if c]
    assert support == list(zip(cert.weights, cert.coeffs))
    assert cert.kind == "toral_relation"
    assert cert.weights == (
        (-1, -1, -1, 0),
        (0, -1, -1, 0),
        (0, 0, -1, 0),
        (0, 0, 0, -1),
        (1, 2, 3, 2),
    )
    assert cert.coeffs == (1, 1, 1, 2, 1)


@pytest.mark.parametrize("group,module", [("A1", "[6]"), ("A2", "[1,1]"), ("A2", "[1,0]")])
def test_bad_toral_slice_computes_the_weights_once(group, module, weight_builds):
    # A2 "[1,0]" has no toral slice: its dominant diagram misses the roots,
    # so no weight is listed
    m = parse_module(parse_group(group), module)
    bad_toral_slice(m)
    assert weight_builds == ([] if module == "[1,0]" else [hw for _, hw in m.summands])


@pytest.mark.parametrize(
    "group,module", [("A1xA2", "[2,1,1]"), ("A2xA2", "[1,1,1,1]"), ("A1xA1xA1", "[2,2,2]")]
)
def test_product_group_classify_computes_the_weights_once(group, module, weight_builds):
    # the product rule and the direct search share one weight multiset
    from coreduce.classify import NO, classify_semisimple_irreducible

    m = parse_module(parse_group(group), module)
    assert classify_semisimple_irreducible(m).coreduced == NO
    assert weight_builds == [hw for _, hw in m.summands]
