"""The memos of the exact searches and of each module's derived data: a
repeat in one process prints what a cold call and a fresh process print,
runs no search again, never shares a mutable object, keeps the order of its
input, and never stores a search that a cap stopped."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import coreduce
from coreduce import monoid, nullcone, paper, slices
from coreduce.cli import main
from coreduce.config import ResourceLimitError
from coreduce.repthy import ModuleSpec, parse_module
from coreduce.rootsys import parse_group

FOUR_SIX = ",".join(map(str, paper.TORUS_FOUR_SIX))

# each request runs at least one of the memoized searches when cold
WARM_REQUESTS = [
    ["classify", "A2", "[3,1]"],  # chambers, covariant certificate, exists_sum
    ["classify", "A1", "[4]"],  # the Hilbert search of a coreduced toral slice
    ["torus-check", "--weights", FOUR_SIX],
    ["hilbert-basis", "--weights", "2,-3,5,-4"],
    ["components", "A1xA2", "[1,0,1]"],
    ["covariant-vanish", "A2", "[3,1]", "--target", "[1,0]", "--degree", "3"],
]


def run(argv):
    """(exit code, stdout, stderr) of one request in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_fresh(argv):
    """(exit code, stdout, stderr) of one request in a new process."""
    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "coreduce.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    return done.returncode, done.stdout, done.stderr


@pytest.fixture
def searches(monkeypatch):
    """Counts of the Hilbert searches and the ``_rays`` calls run while the
    test runs."""
    counts = {"hilbert": 0, "rays": 0}
    search, rays = monoid.iter_hilbert_basis, nullcone._rays

    def counted_search(*args, **kwargs):
        counts["hilbert"] += 1
        return search(*args, **kwargs)

    def counted_rays(*args, **kwargs):
        counts["rays"] += 1
        return rays(*args, **kwargs)

    monkeypatch.setattr(monoid, "iter_hilbert_basis", counted_search)
    monkeypatch.setattr(nullcone, "_rays", counted_rays)
    return counts


def test_a_warm_repeat_prints_the_cold_bytes_and_runs_no_search(searches):
    cold = []
    for argv in WARM_REQUESTS:
        cold.append(run(argv))
    assert searches["hilbert"] > 0 and searches["rays"] > 0
    searches.update(hilbert=0, rays=0)
    warm = [run(argv) for argv in WARM_REQUESTS]
    assert searches == {"hilbert": 0, "rays": 0}
    assert warm == cold
    assert [run_fresh(argv) for argv in WARM_REQUESTS] == cold


def test_components_after_classify_prints_what_it_prints_cold():
    """``classify`` computes dominance statuses for the components of an A2
    module; ``components`` of the same module must not print them."""
    argv = ["components", "A2", "[3,1]"]
    cold = run(argv)
    statuses = nullcone.classify_components_sl3(parse_module(parse_group("A2"), "[3,1]"))
    assert set(statuses.values()) != {"unknown"}
    assert run(["classify", "A2", "[3,1]"])[0] == 1
    assert run(argv) == cold
    assert all("status" not in c for c in json.loads(cold[1])["candidates"])


def test_the_same_weights_in_another_order_get_that_orders_certificate():
    ws = [(4,), (-4,), (6,), (-6,)]
    orders = [ws, ws[::-1], [ws[2], ws[0], ws[3], ws[1]]]
    cold = []
    for order in orders:
        monoid._torus_verdict.cache_clear()
        monoid._hilbert_basis.cache_clear()
        cold.append((monoid.is_torus_coreduced(order), monoid.hilbert_basis(order)))
    # all three orders now in the memos, each answered in its own order
    for order, (verdict, basis) in zip(orders, cold):
        assert (monoid.is_torus_coreduced(order), monoid.hilbert_basis(order)) == (verdict, basis)
        assert verdict.weights == tuple(order)
        for gen in (verdict.certificate, *basis):
            assert sum(c * w[0] for c, w in zip(gen.coeffs, order)) == 0
    # 3*(-4) + 2*6 = 0, in each order's own coefficient order
    assert cold[0][0].certificate.coeffs == (0, 3, 2, 0)
    assert cold[1][0].certificate.coeffs == (0, 2, 3, 0)


@pytest.mark.parametrize(
    "module, cap, argv",
    [
        (monoid, "HILBERT_COORD_CAP", ["torus-check", "--weights", FOUR_SIX]),
        (monoid, "HILBERT_COORD_CAP", ["hilbert-basis", "--weights", "2,-3,5,-4"]),
        (monoid, "SUM_STATE_CAP",
         ["covariant-vanish", "A2", "[3,1]", "--target", "[1,0]", "--degree", "5"]),
    ],
)
def test_a_search_stopped_by_a_cap_stops_again_on_the_repeat(module, cap, argv, monkeypatch):
    monkeypatch.setattr(module, cap, 10)
    first = run(argv)
    assert first[:2] == (3, "")
    assert json.loads(first[2])["cap"] == cap
    assert run(argv) == first
    monkeypatch.undo()
    assert run(argv)[0] in (0, 1)


# an A2, a G2 and a product-group module, each asked classify, components,
# covariant-vanish and classify again, with refused inputs in between
SESSION = [
    argv
    for group, module, target in [
        ("A2", "[2,1]", "[1,0]"),
        ("G2", "2*[1,0]", "[1,0]"),
        ("A1xA2", "[1,0,1]", "[1,1,0]"),
    ]
    for argv in (
        ["classify", group, module],
        ["components", group, module],
        ["classify", group, module + "+[x]"],
        ["covariant-vanish", group, module, "--target", target, "--degree", "3"],
        ["components", "A2", "[1,0,1]"],
        ["classify", group, module],
    )
]


def test_an_interleaved_session_prints_the_bytes_of_fresh_processes():
    fresh = [run_fresh(argv) for argv in SESSION]
    assert {code for code, _, _ in fresh} == {0, 1, 2}
    assert [run(argv) for argv in SESSION] == fresh
    assert [run(argv) for argv in SESSION] == fresh


def test_an_admissible_set_cannot_be_changed():
    a = nullcone.admissible_sets(parse_module(parse_group("A2"), "[3,1]"))[0]
    for field in ("weights", "defining", "status"):
        with pytest.raises(AttributeError):
            setattr(a, field, ())


def test_a_repeated_components_request_enumerates_no_chamber(monkeypatch):
    """``components`` keeps each module's candidates; the enumeration behind
    them keeps nothing of its own, so a repeat that reached it would show."""
    calls = []
    enumerate_sets = nullcone.admissible_sets

    def counted(m):
        calls.append(m)
        return enumerate_sets(m)

    monkeypatch.setattr(nullcone, "admissible_sets", counted)
    argv = ["components", "A2", "[3,1]"]
    first = run(argv)
    assert first[0] == 0 and len(calls) == 1
    chambers = nullcone._chamber_samples.cache_info()
    assert run(argv) == first
    assert len(calls) == 1 and nullcone._chamber_samples.cache_info() == chambers


def test_a_repeated_components_call_returns_the_same_tuple():
    m = parse_module(parse_group("A2"), "[3,1]")
    comps = nullcone.components(m)
    assert type(comps) is tuple
    # an equal module, not the same instance, reads the same entry
    assert nullcone.components(ModuleSpec(m.group, m.summands)) is comps


# one benchmark process: the ``queries`` requests of one seed, then every
# paper suite; prints the chamber memo's size and bound
BENCH_SESSION = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import workloads
from coreduce import cli, nullcone
for argv in workloads.queries(1, 300) + [["verify-paper"]]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
info = nullcone._chamber_samples.cache_info()
print(info.currsize, info.maxsize)
"""


def test_a_benchmark_session_evicts_no_chamber_arrangement():
    """The chamber memo has the bound of every other memo, and a process that
    answers a seed's ``queries`` stream and the full ``verify-paper`` keeps
    every arrangement it met."""
    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    bench = os.path.join(os.path.dirname(src), "bench")
    done = subprocess.run(
        [sys.executable, "-c", BENCH_SESSION, bench],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    size, bound = map(int, done.stdout.split())
    assert 0 < size < bound
def test_a_repeated_toral_slice_verdict_reads_no_torus_verdict():
    """``bad_toral_slice`` keeps nothing itself: a repeat lists the slice
    again and reads its search off the torus-verdict memo.  A repeated
    ``classify`` reads its verdict off ``classify_module``'s memo, and so
    reads no torus verdict at all.  The slice of A1 "[4]" is coreduced, so
    no circuit answers before the search."""
    m = parse_module(parse_group("A1"), "[4]")
    assert slices.bad_toral_slice(m) is None
    assert slices.bad_toral_slice(ModuleSpec(m.group, m.summands)) is None
    assert monoid._torus_verdict.cache_info()[:2] == (1, 1)  # hits, misses
    argv = ["classify", "A1", "[4]"]
    first = run(argv)
    assert first[0] == 0
    read = monoid._torus_verdict.cache_info()
    assert run(argv) == first
    assert monoid._torus_verdict.cache_info() == read


def test_specs_are_interned_per_text(weight_builds):
    g = parse_group("A2")
    assert parse_group("A2") is g and parse_group("A2xT1") is not g
    m = parse_module(g, "2*[1,1]+[1,0]")
    assert parse_module(g, "2*[1,1]+[1,0]") is m
    assert parse_module(g, "[1,0]+2*[1,1]") is not m
    # the slice and the weights are each expanded once, for the first
    # request that reads them: classify answers from the slice, and the
    # chamber enumeration of components reads the weights
    requests = ("weights", "classify", "components")
    for argv in [[command, "A2", "2*[1,1]+[1,0]"] for command in requests] * 2:
        run(argv)
    assert weight_builds == [slices.slice_diagram(m), m.diagram]


def test_a_chamber_weight_cap_refusal_raises_again_on_the_repeat(monkeypatch):
    m = parse_module(parse_group("A2"), "[3,1]")
    argv = ["components", "A2", "[3,1]"]
    monkeypatch.setattr(nullcone, "CHAMBER_WEIGHT_CAP", 10)
    for _ in range(2):
        with pytest.raises(ResourceLimitError, match="a module of 24 nonzero weights"):
            nullcone.admissible_sets(m)
        with pytest.raises(ResourceLimitError, match="a module of 24 nonzero weights"):
            nullcone.components(m)
    assert nullcone.components.cache_info().currsize == 0
    first = run(argv)
    assert first[:2] == (3, "") and json.loads(first[2])["cap"] == "CHAMBER_WEIGHT_CAP"
    assert run(argv) == first
    monkeypatch.undo()
    assert run(argv)[0] == 0


CLASSIFY_DRIVERS = (
    "classify_sl2", "classify_sl3", "classify_adjoint_exceptional",
    "classify_adjoint_classical", "classify_semisimple_irreducible",
)


@pytest.mark.parametrize(
    "argv",
    [["classify", "A2", "[3,1]"], ["classify", "G2", "2*[1,0]"], ["classify", "A1xA2", "[2,1,1]"]],
    ids=" ".join,
)
def test_a_repeated_classify_prints_the_same_bytes_and_runs_no_driver(argv, monkeypatch):
    from coreduce import classify

    calls = []
    for name in CLASSIFY_DRIVERS:
        driver = getattr(classify, name)

        def counted(*args, _driver=driver, _name=name):
            calls.append(_name)
            return _driver(*args)

        monkeypatch.setattr(classify, name, counted)
    first = run(argv)
    assert calls
    calls.clear()
    assert run(argv) == first
    assert calls == []
    assert classify.classify_module.cache_info()[:2] == (1, 1)  # hits, misses


def test_a_repeated_weights_request_prints_the_same_bytes_and_sums_nothing(monkeypatch):
    """The weight counts, the root multiplicity, the dimension and the text
    of a module are kept with its interned spec."""
    from coreduce import repthy

    calls = []
    for name in ("orbit_size", "weyl_dim"):
        fn = getattr(repthy, name)

        def counted(*args, _fn=fn, _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(repthy, name, counted)
    # [1,1] is in the root lattice, [1,0] is not: both sums of weight_counts run
    argv = ["weights", "A2", "2*[1,1]+[1,0]"]
    first = run(argv)
    assert set(calls) == {"orbit_size", "weyl_dim"}
    calls.clear()
    assert run(argv) == first
    assert calls == []
