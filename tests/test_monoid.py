import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import coreduce
from coreduce import monoid, paper
from coreduce.config import CertificateError, ResourceLimitError
from coreduce.monoid import (
    exists_sum,
    hilbert_basis,
    is_torus_coreduced,
)
from coreduce.repthy import ModuleSpec, parse_module
from coreduce.rootsys import parse_group
from coreduce.slices import relation_certificate, weyl_symmetric_list

from oracles import (
    brute_force_minimal_relations,
    brute_force_torus_coreduced,
    reference_hilbert_basis,
    reference_toral_slice,
    weyl_orbit,
)



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
    got = sorted(g.coeffs for g in basis)
    assert got == [(0, 0, 1, 1), (0, 3, 2, 0), (1, 1, 0, 0), paper.TORUS_FOUR_SIX_GENERATOR]


nonzero_pair = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
    lambda w: w != (0, 0)
)
weight_lists = st.lists(nonzero_pair, min_size=1, max_size=6)


@given(ws=weight_lists)
@settings(max_examples=250, deadline=None)
def test_hilbert_basis_matches_brute_force_2d(ws):
    basis = hilbert_basis(ws)
    small = sorted(g.coeffs for g in basis if g.degree <= 7)
    oracle = sorted(brute_force_minimal_relations(ws, 7))
    assert small == oracle


def _symmetric_search(symmetry):
    """The search of ``monoid._degrees`` under ``symmetry``, listed one
    degree at a time."""
    return lambda ws: (
        monoid.Relation(c) for degree in monoid._degrees(ws, symmetry) for c in degree
    )


def _search_outcome(search, ws) -> tuple[list, str]:
    """The generators a search yields, in order, and the message of the
    ResourceLimitError that ended it ("" when it ran to the end)."""
    gens = []
    try:
        for gen in search(ws):
            gens.append(gen.coeffs)
    except ResourceLimitError as exc:
        return gens, str(exc)
    return gens, ""


@st.composite
def repeated_weight_lists(draw):
    """Weights of one rank in 1..4 with entries in [-3, 3], drawn from a
    smaller pool of distinct vectors, so that some weight repeats; or, in
    one draw of four, the pool itself, without repeats."""
    rank = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * rank).filter(any)
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(vec, min_size=1, max_size=7, unique=True))
    pool = draw(st.lists(vec, min_size=1, max_size=5))
    picks = draw(st.lists(st.sampled_from(pool), min_size=len(pool) + 1, max_size=8))
    return picks


@given(
    ws=repeated_weight_lists(),
    coord_cap=st.sampled_from([60, 500, 4_000, 30_000]),
    generator_cap=st.sampled_from([1, 4, 100_000]),
)
@settings(max_examples=200, deadline=None)
def test_hilbert_search_matches_the_reference_kernel(ws, coord_cap, generator_cap):
    # the level-by-level kernel yields the generator sequence of the heap
    # kernel.  A cap ends it after a prefix of that sequence, at the first
    # count over the cap: the kernel checks each candidate as it is stored.
    # The heap kernel visits only candidates the level kernel stores and
    # their children, so n + 2 times the cap lets it reach that prefix.
    # With equal weights the level kernel searches the distinct weights and
    # spreads each generator over the copies, storing fewer candidates than
    # the heap kernel visits, so it may get further before a cap: its
    # sequence must match wherever the heap kernel's ends, and its
    # coordinate cap fire only where the heap kernel's does.
    n = len(ws)
    repeat_free = len(set(ws)) == n
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monoid, "HILBERT_COORD_CAP", (n + 2) * coord_cap)
        reference, reference_error = _search_outcome(reference_hilbert_basis, ws)
        mp.setattr(monoid, "HILBERT_COORD_CAP", coord_cap)
        mp.setattr(monoid, "HILBERT_GENERATOR_CAP", generator_cap)
        gens, error = _search_outcome(monoid.iter_hilbert_basis, ws)
    # both yield prefixes of one sequence, all of it when no cap stops them;
    # without repeats the heap kernel gets at least as far
    common = min(len(gens), len(reference))
    assert gens[:common] == reference[:common]
    assert error or len(gens) >= len(reference)
    assert reference_error or len(gens) <= len(reference)
    if repeat_free:
        assert len(gens) <= len(reference) and (error or not reference_error)
    if not error:
        return
    if error.startswith("hilbert basis search found"):
        assert len(gens) == generator_cap
        assert generator_cap < len(reference) or (reference_error and not repeat_free)
        assert error == (
            f"hilbert basis search found {generator_cap + 1} generators, "
            f"over HILBERT_GENERATOR_CAP = {generator_cap}"
        )
    elif repeat_free:
        stored = max(n, coord_cap // n + 1)  # the unit vectors, or the first child over
        assert error == (
            f"hilbert basis search: {stored} candidates of {n} coefficients "
            f"make {stored * n} coordinates, over HILBERT_COORD_CAP = {coord_cap}"
        )
    else:
        assert error.endswith(f"over HILBERT_COORD_CAP = {coord_cap}")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(monoid, "HILBERT_COORD_CAP", coord_cap)
            same_cap_error = _search_outcome(reference_hilbert_basis, ws)[1]
        assert same_cap_error.endswith(f"over HILBERT_COORD_CAP = {coord_cap}")


def test_hilbert_search_wide_fields():
    # a coefficient of 5000 and pairings of 25 million in packed fields
    ws = [(5000,), (-1,)]
    assert [g.coeffs for g in monoid.iter_hilbert_basis(ws)] == [(1, 5000)]
    assert _search_outcome(reference_hilbert_basis, ws) == ([(1, 5000)], "")


SYMMETRIC_GROUPS = ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA2")


@st.composite
def weyl_invariant_lists(draw, budget=10):
    """A group of rank at most 3 and a union of up to three Weyl orbits of
    nonzero weights, each with multiplicity 1 to 3, of at most ``budget``
    weights in all: the orbits must be small, as a single orbit of twelve
    weights can have a Hilbert basis of hundreds of generators of degree 24."""
    g = parse_group(draw(st.sampled_from(SYMMETRIC_GROUPS)))
    dominant = st.tuples(*[st.integers(0, 2)] * g.rank).filter(any)
    counts: dict = {}
    for d in draw(st.lists(dominant, min_size=1, max_size=3, unique=True)):
        orbit = weyl_orbit(g, d)
        room = (budget - sum(counts.values())) // len(orbit)
        if room:
            mult = draw(st.integers(1, min(3, room)))
            for w in orbit:
                counts[w] = counts.get(w, 0) + mult
    assume(counts)
    return g, counts


@given(group_counts=weyl_invariant_lists())
@settings(max_examples=100, deadline=None)
def test_symmetric_search_matches_the_reference_kernel(group_counts):
    # one unit vector per orbit of indices, each level closed under the
    # simple reflections: the generators and their order are the plain ones
    g, counts = group_counts
    ws, symmetry = weyl_symmetric_list(g, counts)
    got = _search_outcome(_symmetric_search(symmetry), ws)
    assert got == (_search_outcome(reference_hilbert_basis, ws)[0], "")
    assert is_torus_coreduced(ws, symmetry) == is_torus_coreduced(ws)


@st.composite
def lists_with_copies(draw):
    """Weights of rank 1..3 with entries in [-3, 3], one of which is forced
    to occur 2 to 4 times, the copies at drawn positions."""
    rank = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-3, 3)] * rank).filter(any)
    ws = draw(st.lists(vec, min_size=1, max_size=4))
    w = draw(st.sampled_from(ws))
    for _ in range(draw(st.integers(2, 4)) - ws.count(w)):
        ws.insert(draw(st.integers(0, len(ws))), w)
    return ws, None


@st.composite
def small_module_slices(draw):
    """The toral slice of a module of A2, B2 or G2 with one or two summands
    of coefficient 1 to 3, as a Weyl-symmetric list, with the simple
    reflections; at most 24 weights, so that the reference kernel ends."""
    g = parse_group(draw(st.sampled_from(("A2", "B2", "G2"))))
    hw = st.tuples(st.integers(0, 2), st.integers(0, 2))
    summands = draw(
        st.lists(st.tuples(st.integers(1, 3), hw), min_size=1, max_size=2, unique_by=lambda t: t[1])
    )
    counts = reference_toral_slice(ModuleSpec(g, tuple(summands)))
    assume(counts and sum(counts.values()) <= 24)
    return weyl_symmetric_list(g, counts)


@given(case=lists_with_copies() | small_module_slices())
@settings(max_examples=100, deadline=None)
def test_torus_verdict_is_the_first_coefficient_two_generator(case):
    # the first generator with a coefficient >= 2, in (degree, tuple) order,
    # is the search's first on the distinct weights, put on their last copies
    ws, symmetry = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monoid, "HILBERT_COORD_CAP", 2_000 * len(ws))
        reference = reference_hilbert_basis(ws)
        try:
            first = next((g for g in reference if max(g.coeffs) >= 2), None)
        except ResourceLimitError:
            assume(False)
    verdict = is_torus_coreduced(ws, symmetry)
    assert verdict.coreduced == (first is None)
    assert verdict.certificate == first


def test_the_torus_verdict_stops_before_the_generator_cap_of_a_listing(monkeypatch):
    # degree 2 holds the 9 relations x_i + y_j, the spreads of the one
    # relation of degree 2 among the distinct weights 1, -1, -2, and degree
    # 3 starts with (0,0,2,0,0,0,1): the verdict answers from the distinct
    # generators, while the listing's tenth generator passes the cap
    ws = [(x,) for x in (1, 1, 1, -1, -1, -1, -2)]
    monkeypatch.setattr(monoid, "HILBERT_GENERATOR_CAP", 9)
    monoid._torus_verdict.cache_clear()
    monoid._hilbert_basis.cache_clear()
    assert is_torus_coreduced(ws).certificate.coeffs == (0, 0, 2, 0, 0, 0, 1)
    with pytest.raises(
        ResourceLimitError, match=r"found 10 generators, over HILBERT_GENERATOR_CAP = 9"
    ):
        hilbert_basis(ws)
    # the verdict counts the generators of the distinct weights
    monkeypatch.setattr(monoid, "HILBERT_GENERATOR_CAP", 0)
    monoid._torus_verdict.cache_clear()
    with pytest.raises(
        ResourceLimitError, match=r"found 1 generators, over HILBERT_GENERATOR_CAP = 0"
    ):
        is_torus_coreduced(ws)


def test_copy_ascending_search_answers_a_b2_slice_under_a_small_cap(monkeypatch):
    # the slice of B2 3*[0,2]+3*[1,0] has 28 weights, 8 distinct: grown over
    # every arrangement of equal weights, its search stored 875 candidates
    # before the certificate.  On the 8 distinct weights, with the simple
    # reflections, it stores 23, its degree-4 relations found before the
    # other candidates of degree 4 (26 when they were made first).  The
    # circuit scan finds the relation before any search, so the search runs
    # here on the slice directly
    g = parse_group("B2")
    ws, symmetry = weyl_symmetric_list(g, reference_toral_slice(parse_module(g, "3*[0,2]+3*[1,0]")))
    n = len(ws)
    assert n == 8
    monkeypatch.setattr(monoid, "HILBERT_COORD_CAP", 23 * n)
    assert relation_certificate(is_torus_coreduced(ws, symmetry)).coeffs == (1, 2, 1)
    monoid._torus_verdict.cache_clear()
    monkeypatch.setattr(monoid, "HILBERT_COORD_CAP", 22 * n)
    with pytest.raises(ResourceLimitError, match="23 candidates of 8 coefficients"):
        is_torus_coreduced(ws, symmetry)


def test_the_f4_slice_search_stops_before_the_level_past_its_answer(monkeypatch):
    # the slice of the exceptional suite's F4 [1,0,0,0]+[0,0,0,1]: 24 weights
    # in one W(F4)-orbit, whose first violating generator has degree 6.  The
    # search finds the degree-6 relations before any other candidate of
    # degree 6, so it stores 2,018 candidates; making that level first
    # stored 7,552
    g = parse_group("F4")
    ws, symmetry = weyl_symmetric_list(
        g, reference_toral_slice(parse_module(g, "[1,0,0,0]+[0,0,0,1]"))
    )
    n = len(ws)
    assert n == 24
    monkeypatch.setattr(monoid, "HILBERT_COORD_CAP", 2018 * n)
    monoid._torus_verdict.cache_clear()
    verdict = is_torus_coreduced(ws, symmetry)
    assert (verdict.certificate.degree, max(verdict.certificate.coeffs)) == (6, 2)
    monoid._torus_verdict.cache_clear()
    monkeypatch.setattr(monoid, "HILBERT_COORD_CAP", 2017 * n)
    with pytest.raises(ResourceLimitError, match="2018 candidates of 24 coefficients"):
        is_torus_coreduced(ws, symmetry)


# swapping the two copies of (1,) maps the weight list onto itself, but a
# symmetry acts on the distinct weights the search runs on
REPEATED_WITH_A_SYMMETRY = ([(1,), (1,), (-1,)], [(1, 0, 2)])


def test_a_symmetry_needs_distinct_weights():
    with pytest.raises(ValueError, match="repeated weights"):
        is_torus_coreduced(*REPEATED_WITH_A_SYMMETRY)


# e0 + e1 is a relation of [1, -1, 2]; swapping indices 1 and 2 sends it to
# e0 + e2, whose sum is 3
NOT_A_SYMMETRY = ([(1,), (-1,), (2,)], [(0, 2, 1)])


def test_a_permutation_that_is_no_symmetry_raises():
    ws, symmetry = NOT_A_SYMMETRY
    with pytest.raises(CertificateError, match="non-relation"):
        is_torus_coreduced(ws, symmetry)
    with pytest.raises(ValueError, match="permute"):
        is_torus_coreduced(ws, [(0, 0, 1)])
    with pytest.raises(ValueError, match="zero weights"):
        is_torus_coreduced(ws + [(0,)], [(0, 1, 2, 3)])


def test_the_symmetry_check_survives_python_O():
    code = textwrap.dedent(
        f"""
        from coreduce.config import CertificateError
        from coreduce.monoid import is_torus_coreduced

        if __debug__:
            raise SystemExit("not running under -O")
        try:
            is_torus_coreduced(*{NOT_A_SYMMETRY!r})
        except CertificateError:
            pass
        else:
            raise SystemExit("a permutation that is no symmetry passed")
        try:
            is_torus_coreduced(*{REPEATED_WITH_A_SYMMETRY!r})
        except ValueError:
            pass
        else:
            raise SystemExit("a symmetry on repeated weights passed")
        """
    )
    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stdout + out.stderr


nonzero_triple = st.tuples(
    st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)
).filter(any)


@given(ws=st.lists(nonzero_triple, min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_hilbert_basis_matches_brute_force_3d(ws):
    basis = hilbert_basis(ws)
    small = sorted(g.coeffs for g in basis if g.degree <= 5)
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
