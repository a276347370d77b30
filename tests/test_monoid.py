import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coreduce import monoid, paper
from coreduce.config import ResourceLimitError
from coreduce.monoid import (
    exists_sum,
    hilbert_basis,
    is_torus_coreduced,
)

from oracles import brute_force_minimal_relations, brute_force_torus_coreduced



def test_plus_minus_k_is_coreduced():
    for k in [1, 2, 5, 9]:
        assert is_torus_coreduced([(k,), (-k,)]).coreduced


FOUR_SIX = [(x,) for x in paper.TORUS_FOUR_SIX]


def test_four_six_example():
    v = is_torus_coreduced(FOUR_SIX)
    assert not v.coreduced
    assert max(v.certificate.coeffs) == max(paper.TORUS_FOUR_SIX_GENERATOR)


def test_hilbert_basis_four_six():
    basis = hilbert_basis(FOUR_SIX)
    got = sorted(g.coeffs for g in basis.generators)
    assert got == [(0, 0, 1, 1), (0, 3, 2, 0), (1, 1, 0, 0), paper.TORUS_FOUR_SIX_GENERATOR]


nonzero_pair = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
    lambda w: w != (0, 0)
)
weight_lists = st.lists(nonzero_pair, min_size=1, max_size=6)


@given(ws=weight_lists)
@settings(max_examples=250, deadline=None)
def test_hilbert_basis_matches_brute_force_2d(ws):
    basis = hilbert_basis(ws)
    small = sorted(g.coeffs for g in basis.generators if g.degree <= 7)
    oracle = sorted(brute_force_minimal_relations(ws, 7))
    assert small == oracle


nonzero_triple = st.tuples(
    st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)
).filter(any)


@given(ws=st.lists(nonzero_triple, min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_hilbert_basis_matches_brute_force_3d(ws):
    basis = hilbert_basis(ws)
    small = sorted(g.coeffs for g in basis.generators if g.degree <= 5)
    oracle = sorted(brute_force_minimal_relations(ws, 5))
    assert small == oracle


@given(ws=st.lists(st.tuples(st.integers(-4, 4)), min_size=1, max_size=6))
@settings(max_examples=250, deadline=None)
def test_coreduced_matches_brute_force_1d(ws):
    got = is_torus_coreduced(ws).coreduced
    oracle = brute_force_torus_coreduced(list(ws), bound=8)
    # oracle bound 8 covers every generator here: coords in [-4,4]
    if not oracle:
        assert not got
    elif not got:
        # the only escape: a violating generator too big for the oracle bound
        cert = is_torus_coreduced(ws).certificate
        assert cert.degree > 8


def test_torus_certificate_is_exact_relation():
    rng = random.Random(7)
    for _ in range(100):
        ws = [
            (rng.randint(-4, 4), rng.randint(-4, 4))
            for _ in range(rng.randint(1, 6))
        ]
        v = is_torus_coreduced(ws)
        if v.certificate is not None:
            for j in range(2):
                assert (
                    sum(c * w[j] for c, w in zip(v.certificate.coeffs, v.weights))
                    == 0
                )
            assert max(v.certificate.coeffs) >= 2


@given(
    ws=st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5
    ),
    target=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    count=st.integers(1, 5),
)
@settings(max_examples=150, deadline=None)
def test_exists_sum_matches_exhaustive(ws, target, count):
    got = exists_sum(ws, target, count)
    feasible = any(
        tuple(sum(w[j] for w in pick) for j in range(2)) == target
        for pick in _multisets(ws, count)
    )
    assert got.feasible == feasible


@given(
    ws=st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4
    ),
    target=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    count=st.integers(0, 4),
    grading=st.none() | st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
@settings(max_examples=300, deadline=None)
def test_bounded_exists_sum_matches_exhaustive(ws, target, count, grading):
    got = exists_sum(ws, target, count, grading=grading)
    feasible = any(
        tuple(sum(w[j] for w in pick) for j in range(2)) == target
        for pick in _multisets(ws, count)
    )
    assert got.feasible == feasible


def test_exists_sum_grading_prunes_before_the_first_level(monkeypatch):
    # every weight has value >= 1 and the target value 3 < 9: no DP state
    ws = [(1, 0), (0, 1), (2, 1)]
    for grading in [(1, 1), (Fraction(1, 2), Fraction(1, 2))]:
        with monkeypatch.context() as mp:
            mp.setattr(monoid, "SUM_STATE_CAP", 1)
            assert not exists_sum(ws, (2, 1), 9, grading=grading).feasible
            with pytest.raises(ResourceLimitError, match="SUM_STATE_CAP = 1"):
                exists_sum(ws, (2, 1), 9)
        assert exists_sum(ws, (2, 1), 3, grading=grading).feasible


def _multisets(ws, count):
    import itertools

    return itertools.combinations_with_replacement(ws, count)
