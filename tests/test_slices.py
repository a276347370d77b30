import pytest
from hypothesis import given, settings, strategies as st

from coreduce import slices
from coreduce.repthy import ModuleSpec, min_root_multiplicity, module_weights, parse_module
from coreduce.rootsys import parse_group
from coreduce.slices import (
    bad_toral_slice,
    criterion_a,
    has_toral_slice,
    product_group_rule,
    roots_mult2_rule,
    toral_slice_weights,
)



def test_has_toral_slice_requires_all_roots():
    g = parse_group("F4")
    assert has_toral_slice(parse_module(g, "[1,0,0,0]"))
    assert not has_toral_slice(parse_module(g, "2*[0,0,0,1]"))
    assert has_toral_slice(parse_module(g, "[1,0,0,0]+[0,0,0,1]"))


def test_toral_slice_weights_removes_one_root_copy():
    g = parse_group("A2")
    m = parse_module(g, "2*[1,1]")
    ws = toral_slice_weights(m)
    # 2 x 8-dim adjoint: 12 nonzero weights, 6 roots removed once each
    assert len(ws) == 6


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
    assert not has_toral_slice(m)
    with pytest.raises(ValueError):
        product_group_rule(m)


def test_criterion_a_f4():
    g = parse_group("F4")
    cert = criterion_a(g, (1, 0, 0, 0), (0, 0, 0, 1))
    assert cert is not None
    cert.validate()


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
    if m.dimension() > 60 or not has_toral_slice(m):
        return
    if len(toral_slice_weights(m)) > 14:
        return
    cert = bad_toral_slice(m)
    if cert is not None:
        cert.validate()
        assert max(cert.coeffs) >= 2
        assert all(x == 0 for x in cert.relation_sum())


def test_f4_adjoint_plus_26_slice_certificate_is_pinned():
    # the first generator with a coefficient >= 2 in the completion order;
    # pruning the minimality test must not change which one is found
    g = parse_group("F4")
    cert = bad_toral_slice(parse_module(g, "[1,0,0,0]+[0,0,0,1]"))
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
def test_bad_toral_slice_computes_the_weights_once(group, module, monkeypatch):
    m = parse_module(parse_group(group), module)
    calls = []

    def counted(mod):
        calls.append(mod)
        return module_weights(mod)

    monkeypatch.setattr(slices, "module_weights", counted)
    bad_toral_slice(m)
    assert len(calls) == 1
