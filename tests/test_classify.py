import ast
import functools
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import time

import pytest

import coreduce
from coreduce import paper
from coreduce.config import CertificateError, ResourceLimitError
from coreduce.classify import (
    NO,
    NO_PAPER,
    YES,
    YES_PAPER,
    Citation,
    ContradictionError,
    Data,
    Verdict,
    _SL3_EPS_SCREENS,
    _sl3_reducible_screen,
    classify_module,
    classify_semisimple_irreducible,
    classify_sl2,
    classify_sl3,
    certificate_json,
    emit_report,
    g2xg2_certificate,
    sl2_module,
)
from coreduce.monoid import Relation, SumWitness, TorusVerdict
from coreduce.repthy import CovariantCertificate, ModuleSpec, parse_module
from coreduce.rootsys import (
    GroupSpec,
    RootSystemError,
    SimpleType,
    build_root_system,
    parse_group,
    root_scaled_of_dynkin,
)
from coreduce.slices import BadSliceCertificate, bad_toral_slice, slice_diagram
from coreduce.nullcone import G2XG2_DEGREE, G2XG2_TARGET, Cocharacter, ScreenResult

from oracles import dynkin_of_root, exact_rank, reference_toral_slice
from test_memos import CLASSIFY_DRIVERS



# ---------------------------------------------------------------------------
# Verdict invariants


def test_no_needs_certificate():
    m = sl2_module((2,))
    with pytest.raises(CertificateError):
        Verdict(m, NO, ())


def test_paper_verdict_needs_citation():
    m = sl2_module((2,))
    with pytest.raises(CertificateError):
        Verdict(m, NO_PAPER, ())
    Verdict(m, NO_PAPER, (Citation("recorded argument"),))


# ---------------------------------------------------------------------------
# Record semantics: immutable fields, order, equality, hash, errors, repr


@pytest.mark.parametrize(
    "record, field",
    [
        (SimpleType("A", 2), "rank"),
        (GroupSpec((SimpleType("A", 1),)), "torus_rank"),
        (sl2_module((2,)), "summands"),
        (Cocharacter((1, 2), parse_group("A2")), "values"),
        (Relation((1, 1)), "coeffs"),
        (TorusVerdict(True, (), None), "coreduced"),
        (SumWitness(False), "feasible"),
        (Citation("recorded argument"), "statement"),
        (BadSliceCertificate("toral_relation", ((1,), (-2,)), (2, 1)), "coeffs"),
        (CovariantCertificate((0,), 2, 1, 0, (), ()), "degree"),
        (ScreenResult(None, 0, 0, 1), "codim"),
        (Verdict(sl2_module((2,)), YES), "coreduced"),
    ],
)
def test_record_fields_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_simple_types_sort_by_family_then_rank():
    names = ["B2", "A10", "G2", "A2", "D4", "A1"]
    types = sorted(SimpleType(n[0], int(n[1:])) for n in names)
    assert [str(t) for t in types] == ["A1", "A2", "A10", "B2", "D4", "G2"]


def test_equal_specs_are_equal_hash_equal_and_share_a_cache_entry():
    a2 = parse_group("A2")
    pairs = [
        (a2, GroupSpec((SimpleType("A", 2),), 0)),
        (parse_module(a2, "[1,0]+2*[1,1]"), ModuleSpec(a2, ((1, (1, 0)), (2, (1, 1))))),
        (Cocharacter((1, 2), a2), Cocharacter((1, 2), parse_group("A2"))),
    ]
    # state cached on one side only takes no part in equality or hash
    assert a2.root_data.weyl_order == 6 and sum(pairs[1][0].weights.entries.values()) == 19
    assert pairs[2][0].pairing == (4, 5)
    calls = []

    @functools.lru_cache(maxsize=None)
    def cached(key):
        calls.append(key)
        return len(calls)

    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert cached(a) == cached(b)
    assert len(calls) == len(pairs)


def test_record_validation_errors_are_kept():
    with pytest.raises(RootSystemError, match="unknown family 'Z'"):
        SimpleType("Z", 1)
    with pytest.raises(RootSystemError, match="invalid rank 9 for family G"):
        SimpleType("G", 9)
    with pytest.raises(ValueError, match="summand coefficients must be positive"):
        ModuleSpec(parse_group("A1"), ((-1, (2,)),))
    with pytest.raises(CertificateError, match="a machine 'no' needs a certificate"):
        Verdict(sl2_module((2,)), NO, ())


def test_repeated_weight_certificate_prints_as_data():
    """The exceptional driver's certificate for a repeated nonzero weight
    (no module of the driver tables reaches it) prints its weight and
    multiplicity as JSON values."""
    cert = Data(weight=(1, 0), multiplicity=2)
    verdict = Verdict(
        parse_module(parse_group("G2"), "[1,1]"),
        NO,
        (cert, Citation("a repeated nonzero weight forces a bad toral slice")),
        "exceptional-G2",
    )
    assert emit_report(verdict)["rows"][0]["certificates"] == [
        {"kind": "data", "weight": (1, 0), "multiplicity": 2},
        {"kind": "citation", "statement": "a repeated nonzero weight forces a bad toral slice"},
    ]


def test_certificate_checks_survive_python_O():
    """``python -O`` strips asserts; the certificate checks must still fire."""
    code = textwrap.dedent(
        """
        from coreduce import nullcone
        from coreduce.config import CertificateError
        from coreduce.slices import BadSliceCertificate

        if __debug__:
            raise SystemExit("not running under -O")
        try:
            BadSliceCertificate("toral_relation", ((1,),), (3,)).validate()
        except CertificateError:
            pass
        else:
            raise SystemExit("a relation summing to (3,) validated")
        # a > abar fails, so the row is outside the chamber
        nullcone.SL3_PAIR_MODELS = ((2, -1, -1, 4, -2, -2),)
        try:
            nullcone.sl3_pair_validate_model(0)
        except CertificateError:
            pass
        else:
            raise SystemExit("a model row outside the chamber validated")
        # 2*w + 2*(-w) = 0 is twice the relation w + (-w) = 0
        try:
            BadSliceCertificate("toral_relation", ((1,), (-1,)), (2, 2))
        except CertificateError:
            pass
        else:
            raise SystemExit("a relation with coefficients of gcd 2 validated")
        from coreduce.classify import _sl3_cocharacter_from_eps

        try:
            _sl3_cocharacter_from_eps(2, -1, 0)
        except CertificateError:
            pass
        else:
            raise SystemExit("eps values summing to 1 gave a cocharacter")
        from coreduce.rootsys import _symmetrizer, parse_group

        try:
            _symmetrizer(((2, 0), (0, 2)))
        except CertificateError:
            pass
        else:
            raise SystemExit("a disconnected Cartan matrix got a symmetrizer")
        # a weight outside the root-lattice coset of the highest weight
        from coreduce import repthy
        repthy.dominant_weights_below = lambda g, hw, visit: frozenset({(1, 1), (1, 0), (0, 0)})
        try:
            repthy._freudenthal(parse_group("A2"), (1, 1))
        except CertificateError:
            pass
        else:
            raise SystemExit("a Freudenthal step off the root lattice passed")
        """
    )
    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stdout + out.stderr


def test_no_assert_statement_in_the_package():
    """Validity checks raise real exceptions, which ``python -O`` keeps; an
    ``assert`` in the package would be stripped."""
    pkg = pathlib.Path(coreduce.__file__).parent
    found = [
        f"{path.relative_to(pkg)}:{node.lineno}"
        for path in sorted(pkg.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize(
    "group,module", [("A2", "[2,1]"), ("A2", "[0,2]+[2,0]"), ("A1", "3*[1]+[2]")]
)
def test_sl2_and_sl3_classify_computes_the_weights_once(group, module, weight_builds):
    # the chamber enumeration, the screens and the covariant counts of one
    # classify call share one weight multiset, expanded once after the
    # slice's (A2 "[2,1]" and "[0,2]+[2,0]" have no toral slice)
    m = parse_module(parse_group(group), module)
    classify_module(m)
    expanded = [m.diagram] if slice_diagram(m) is None else [slice_diagram(m), m.diagram]
    assert weight_builds == expanded


@pytest.mark.parametrize(
    "group,module", [("A2", "[2,2]"), ("A3", "[4,0,0]"), ("G2", "[2,0]"), ("A2xA2", "[1,1,1,1]")]
)
def test_a_module_its_slice_answers_never_builds_its_weights(group, module):
    # the slice is read off the module's dominant diagram, so a verdict the
    # slice settles lists no weight of the module
    m = parse_module(parse_group(group), module)
    verdict = classify_module(m)
    assert verdict.coreduced == NO
    assert verdict.certificates[0].kind == "toral_relation"
    assert "weights" not in vars(m)


@pytest.mark.parametrize("suite", ["appendixB", "sl3"])
def test_paper_paths_compute_the_weights_once(suite, weight_builds):
    # the chamber enumeration and the covariant counts of the G2xG2
    # certificate, and the critical ratios and the verdict of the sl3
    # suite's 24-dimensional module, share one weight multiset
    from coreduce.nullcone import sl3_critical_ratios

    if suite == "appendixB":
        m = parse_module(parse_group(paper.G2XG2_GROUP), paper.G2XG2_MODULE)
        g2xg2_certificate(m)
    else:
        m = parse_module(parse_group("A2"), paper.SL3_V31)
        sl3_critical_ratios(m)
        classify_sl3(m)
    assert weight_builds == [m.diagram]


@pytest.fixture
def driver_runs(monkeypatch):
    """(driver name, group, module) of every driver run while the test runs,
    each of which must happen inside a ``classify_module`` call."""
    from coreduce import classify

    runs, inside = [], []
    entry = classify.classify_module

    def routed(m):
        inside.append(m)
        try:
            return entry(m)
        finally:
            inside.pop()

    for name in CLASSIFY_DRIVERS:
        def counted(m, _driver=getattr(classify, name), _name=name):
            assert inside == [m], f"{_name} ran outside classify_module"
            runs.append((_name, str(m.group), str(m)))
            return _driver(m)

        monkeypatch.setattr(classify, name, counted)
    monkeypatch.setattr(classify, "classify_module", routed)
    entry.cache_clear()
    return runs


def test_only_classify_module_reads_a_driver():
    """Inside the package the drivers have one caller, the function that
    decides a module's domain: no other function, and no module-level
    table, reads their names."""
    pkg = pathlib.Path(coreduce.__file__).parent
    readers = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            name = (
                child.id if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
                else child.attr if isinstance(child, ast.Attribute) else None
            )
            if name in CLASSIFY_DRIVERS:
                readers.add((where, name))
            visit(child, where)

    for path in sorted(pkg.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    assert readers == {("classify.classify_module", name) for name in CLASSIFY_DRIVERS}


def test_the_verdict_suites_classify_each_module_once(driver_runs):
    # every suite with verdict rows reads them through classify_module: the
    # classical suite's A2 rows take the rank-2 special linear driver, the
    # path classify takes, and the duality checks and the 24-dimensional
    # module read the verdicts the sl3 rows already have, through the memo
    from coreduce import cli

    for suite in ("sl2", "exceptional", "classical", "semisimple", "sl3"):
        assert all(check["ok"] for check in cli.SUITES[suite]()), suite
    modules = [(group, module) for _, group, module in driver_runs]
    assert len(modules) == len(set(modules))
    rows = paper.EXCEPTIONAL + paper.CLASSICAL + paper.SEMISIMPLE + paper.SL3_IRREDUCIBLE
    assert {(group, module) for group, module, _ in rows} <= set(modules)
    assert {("A2", "[3,1]"), ("A2", "[2,0]+[0,1]"), ("A1", "2*[2]")} <= set(modules)
    assert not [run for run in driver_runs if run[:2] == ("classify_adjoint_classical", "A2")]


# ---------------------------------------------------------------------------
# Rank-1 table


# the rows the sl2 suite records, and rows only the tests check
SL2_TABLE = [
    *((parts, YES) for parts in paper.SL2_YES),
    ((1,), YES),
    ((1, 1), YES),
    (paper.SL2_TWO_QUADRATICS, NO),
    (paper.SL2_SEXTIC, NO),
    ((5,), NO),
    ((1, 2), NO),
    ((2, 3), NO),
    ((3, 3), NO),
    ((1, 1, 1), YES),
    ((1, 1, 2), NO),
]


@pytest.mark.parametrize("parts,want", SL2_TABLE)
def test_sl2_verdicts(parts, want):
    v = classify_sl2(sl2_module(parts))
    assert v.coreduced == want


def test_sl2_two_quadratics_certificate():
    v = classify_sl2(sl2_module(paper.SL2_TWO_QUADRATICS))
    screen = v.certificates[0]
    assert isinstance(screen, ScreenResult)
    assert screen.rank_bound == paper.SL2_TWO_QUADRATICS_RANK
    assert screen.codim == paper.SL2_TWO_QUADRATICS_CODIM > screen.rank_bound


def test_sl2_exhaustive_small_has_verdict():
    for n in range(1, 4):
        for parts in itertools.product(range(1, 5), repeat=n):
            v = classify_sl2(sl2_module(parts))
            assert v.coreduced in {YES, NO, YES_PAPER, NO_PAPER}


# ---------------------------------------------------------------------------
# Exceptional and classical drivers


def _module(name, text):
    return parse_module(parse_group(name), text)


DRIVER_TABLES = (
    paper.EXCEPTIONAL + paper.CLASSICAL + paper.SEMISIMPLE + paper.SL3_IRREDUCIBLE + paper.SL3_REDUCIBLE
)


def test_exceptional_rows():
    for name, text, want in paper.EXCEPTIONAL:
        g = parse_group(name)
        v = classify_module(parse_module(g, text))
        assert v.coreduced == want, (name, text)


@pytest.mark.parametrize(
    "group,module",
    [("G2xT1", "[1,0,1]"), ("B3xT1", "[2,0,0,1]"), ("A2xT1", "[1,0,1]")],
    ids=["exceptional", "classical", "sl3"],
)
def test_simple_drivers_reject_other_groups(group, module, driver_runs):
    # classify_module refuses a simple group with a torus factor before any
    # driver runs
    with pytest.raises(ValueError, match="^classification drivers cover semisimple groups only$"):
        classify_module(_module(group, module))
    assert driver_runs == []


def test_exceptional_rejects_non_adjoint_lattice(driver_runs):
    # the root lattice of F4 and G2 is the weight lattice; those of E6 and
    # of the classical groups past A2 are not
    refused = [("E6", "[1,0,0,0,0,0]", "(1, 0, 0, 0, 0, 0)"), ("B3", "[0,0,1]", "(0, 0, 1)")]
    for group, module, hw in refused:
        with pytest.raises(ValueError) as e:
            classify_module(_module(group, module))
        assert str(e.value) == f"{hw} is not a module of the adjoint group of {group}"
    assert driver_runs == []


def test_product_groups_take_irreducible_modules_only(driver_runs):
    with pytest.raises(ValueError) as e:
        classify_module(_module("A1xA1", "[2,2]+[1,1]"))
    assert str(e.value) == (
        "[2,2]+[1,1] is outside the classification: it covers irreducible modules of product groups"
    )
    assert driver_runs == []


@pytest.mark.parametrize("text,cocharacter", [("[2,1]", (5, 2)), ("[1,2]", (2, 5))])
def test_sl3_rank_screen_records_an_integer_cocharacter(text, cocharacter):
    m = parse_module(parse_group("A2"), text)
    (row,) = emit_report(classify_module(m))["rows"]
    (data,) = [c for c in row["certificates"] if c["kind"] == "data"]
    assert data["cocharacter"] == cocharacter


# every simple type the parser accepts, up to rank 8
SIMPLE_TYPES_TO_RANK_8 = [
    f"{fam}{n}"
    for fam, lo, hi in [("A", 1, 8), ("B", 2, 8), ("C", 2, 8), ("D", 3, 8), ("E", 6, 8), ("F", 4, 4), ("G", 2, 2)]
    for n in range(lo, hi + 1)
]


@pytest.mark.parametrize("name", SIMPLE_TYPES_TO_RANK_8)
def test_highest_root_module_is_the_coreduced_adjoint(name):
    # regressions: E8's adjoint is the 248-dim [0,...,0,1], not the 3875-dim
    # [1,0,...,0]; D3's is [0,1,1], not the 4-dim [0,1,0]
    g = parse_group(name)
    rs = build_root_system(g.simple_factors[0])
    top = max(rs.positive_roots, key=sum)  # the root of greatest height
    assert all(sum(top) > sum(r) for r in rs.positive_roots if r != top)
    m = ModuleSpec(g, ((1, dynkin_of_root(rs, top)),))
    assert m.dimension() == g.rank + 2 * len(rs.positive_roots)
    assert classify_module(m).coreduced == YES


def test_classical_relation_certificates_validate():
    rows = [(name, text) for name, text, want in paper.CLASSICAL if want == NO]
    for name, text in rows + [("B4", "[0,0,1,0]")]:
        g = parse_group(name)
        v = classify_module(parse_module(g, text))
        assert v.coreduced == NO, (name, text)
        cert = v.certificates[0]
        assert isinstance(cert, BadSliceCertificate)
        cert.validate()
        assert max(cert.coeffs) >= 2


def is_primitive_circuit(weights, coeffs):
    """A relation on distinct weights of rank one less than their number,
    with coefficients of gcd 1: an indecomposable relation on any list
    that holds the weights."""
    return (
        len(set(weights)) == len(weights)
        and exact_rank(weights) == len(weights) - 1
        and math.gcd(*coeffs) == 1
    )


@pytest.mark.parametrize("name,text,dual", [("A3", "[4,0,0]", "[0,0,4]"), ("A4", "[5,0,0,0]", "[0,0,0,5]")])
def test_dual_symmetric_power_relation_is_the_negated_one(name, text, dual):
    # the slice of S^{k(n+1)} of the dual standard module of the adjoint
    # group of A_n is the negated slice of S^{k(n+1)} of the standard one, so
    # each module's relation, negated, is a relation of the other's slice
    g = parse_group(name)
    plain, negated = (parse_module(g, t) for t in (text, dual))
    for m, other in ((plain, negated), (negated, plain)):
        v = classify_module(m)
        assert v.coreduced == NO
        (cert,) = v.certificates
        assert is_primitive_circuit(cert.weights, cert.coeffs)
        flipped = tuple(tuple(-x for x in w) for w in cert.weights)
        slice_weights = {root_scaled_of_dynkin(g, w) for w in reference_toral_slice(other)}
        assert set(flipped) <= slice_weights
        BadSliceCertificate(cert.kind, flipped, cert.coeffs).validate()


def _family_members():
    """The modules of dimension at most 1,000 in the classical families
    whose relations were once typed out: S^{k(n+1)} of the standard module
    of A_n (n = 2..5, and k >= 2 for n = 2) and of its dual; for B_n
    (n = 2..8) the exterior cube of the standard module, the Cartan product
    2e1 + e2 of the standard module and its square, and the harmonic powers
    r e1 with r >= 3; for C_n (n = 3..5) the Cartan products of two odd
    fundamental weights phi_i phi_j with j >= 3."""
    rows = []
    for n in range(2, 6):
        for k in range(2 if n == 2 else 1, 20):
            hw = (k * (n + 1),) + (0,) * (n - 1)
            rows += [(f"A{n}", hw), (f"A{n}", hw[::-1])]
    for n in range(2, 9):
        if n >= 3:
            rows.append((f"B{n}", (0, 0, 2) if n == 3 else (0, 0, 1) + (0,) * (n - 3)))
        rows.append((f"B{n}", (1, 2) if n == 2 else (1, 1) + (0,) * (n - 2)))
        rows += [(f"B{n}", (r,) + (0,) * (n - 1)) for r in range(3, 20)]
    for n in range(3, 6):
        for i, j in itertools.combinations_with_replacement(range(0, n, 2), 2):
            if j >= 2:
                hw = [0] * n
                hw[i] += 1
                hw[j] += 1
                rows.append((f"C{n}", tuple(hw)))
    modules = [ModuleSpec(parse_group(name), ((1, hw),)) for name, hw in rows]
    return [m for m in modules if m.dimension() <= 1000]


FAMILY_MEMBERS = _family_members()


def test_family_table_has_every_member():
    assert len(FAMILY_MEMBERS) == 75


@pytest.mark.parametrize("m", FAMILY_MEMBERS, ids=lambda m: f"{m.group}-{m}")
def test_family_member_classifies_no_through_a_circuit(m):
    start = time.perf_counter()
    v = classify_module(m)
    assert time.perf_counter() - start < 1
    assert v.coreduced == NO
    (cert,) = v.certificates
    assert cert.kind == "toral_relation" and len(cert.weights) <= 3
    assert is_primitive_circuit(cert.weights, cert.coeffs)


# irreducible A2 modules and a B3 module whose Hilbert search, run alone,
# once stopped at its coordinate cap (the A2 modules [3k,0] and [0,3k]
# from k = 11 on still do), and modules with more slice weights
# than the cap admits whose relations were once typed out: a symmetric
# power of A3, a harmonic power of B2 and a product-group module.  The
# rank-1, G2 and F4 modules went to the search alone and stopped at its cap
# before every caller scanned for circuits first
CAPPED_SEARCHES = [
    *(("A2", t) for t in ("[3,9]", "[5,8]", "[6,6]", "[6,9]", "[7,7]", "[8,5]", "[8,8]", "[9,3]", "[9,6]", "[9,9]")),
    *(("A2", f"[{3 * k},0]") for k in range(6, 15)),
    *(("A2", f"[0,{3 * k}]") for k in range(6, 15)),
    ("B3", "[1,3,0]"),
    ("A3", "[32,0,0]"),
    ("B2", "[24,0]"),
    ("A2xA2", "[4,4,4,4]"),
    ("A1", "[400]"),
    ("G2", "[2,6]"),
    ("G2", "[0,5]"),
    ("F4", "[0,1,0,1]"),
    ("G2", "2*[2,2]"),
    ("G2", "2*[3,3]"),
]


@pytest.mark.parametrize("group,module", CAPPED_SEARCHES)
def test_a_violating_circuit_answers_where_the_search_stops_at_its_cap(group, module):
    m = _module(group, module)
    start = time.perf_counter()
    v = classify_module(m)
    assert time.perf_counter() - start < 1
    assert v.coreduced == NO
    (cert,) = v.certificates
    assert is_primitive_circuit(cert.weights, cert.coeffs)
    start = time.perf_counter()
    assert bad_toral_slice(m) == cert
    assert time.perf_counter() - start < 1


# modules with more slice weights than the scan admits, which a pair read
# off the dominant diagram answers: the symmetric powers of A2 and A3, the
# harmonic power of B2 and the product-group module from which the typed
# relations once answered and the scan refused, and the A2 module below
PAST_THE_SCAN = [
    ("A2", "[138,0]"),
    ("A3", "[48,0,0]"),
    ("B2", "[74,0]"),
    ("A2xA2", "[7,7,7,7]"),
    ("A2", "[60,60]"),
]


@pytest.mark.parametrize("group,module", PAST_THE_SCAN)
def test_a_pair_read_off_the_diagram_answers_past_the_scans_bound(group, module, monkeypatch):
    from coreduce import slices

    m = _module(group, module)
    start = time.perf_counter()
    v = classify_module(m)
    assert time.perf_counter() - start < 1
    assert v.coreduced == NO
    (cert,) = v.certificates
    assert len(cert.weights) == 2 and is_primitive_circuit(cert.weights, cert.coeffs)
    # the pair alone, once the dominant diagrams are built
    start = time.perf_counter()
    assert bad_toral_slice(m) == cert
    assert time.perf_counter() - start < 0.1
    monkeypatch.setattr(slices, "diagram_pair", lambda g, diagram: None)
    with pytest.raises(ResourceLimitError) as search:
        bad_toral_slice(m)
    assert search.value.cap == "HILBERT_COORD_CAP"


@pytest.mark.parametrize(
    "group,module",
    [
        # too many distinct weights to scan
        ("A2", "[60,60]"),
    ],
)
def test_a_slice_the_search_cannot_take_stops_at_its_cap_at_once(group, module, monkeypatch):
    # with the pair reader out: A2 [60,60] holds the pair [1,1], 2*[-1,-1]
    from coreduce import slices

    monkeypatch.setattr(slices, "diagram_pair", lambda g, diagram: None)
    m = _module(group, module)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as search:
        bad_toral_slice(m)
    assert time.perf_counter() - start < 0.5
    assert search.value.cap == "HILBERT_COORD_CAP"


@pytest.mark.parametrize("group,module", [("A3", "400*[1,0,1]")])
def test_a_slice_of_many_copies_of_few_weights_is_searched_at_once(group, module):
    # 4,788 slice weights, 12 distinct: the roots, whose relations in type A
    # have 0/1 coefficients, so the scan finds no circuit and the search on
    # the distinct weights finds the slice coreduced
    m = _module(group, module)
    start = time.perf_counter()
    assert bad_toral_slice(m) is None
    assert time.perf_counter() - start < 0.5


def test_every_toral_relation_of_the_paper_tables_is_a_primitive_circuit():
    verdicts = [classify_module(_module(name, text)) for name, text, _ in DRIVER_TABLES]
    verdicts += [classify_module(sl2_module(p)) for p in (*paper.SL2_YES, paper.SL2_TWO_QUADRATICS, paper.SL2_SEXTIC)]
    relations = [
        c
        for v in verdicts
        for c in v.certificates
        if isinstance(c, BadSliceCertificate) and c.kind == "toral_relation"
    ]
    assert len(relations) == 12
    for c in relations:
        assert is_primitive_circuit(c.weights, c.coeffs), c


def test_semisimple_rows():
    for name, text, want in paper.SEMISIMPLE:
        v = classify_semisimple_irreducible(_module(name, text))
        assert v.coreduced == want, (name, text)


def test_odd_orthogonal_triple_rule_needs_odd_orthogonal_factors():
    """The rank-2 torus step is for standard modules of three odd orthogonal
    groups (A1 counting as B1); standard modules of A2 or A3 factors are not."""
    v = classify_semisimple_irreducible(_module("B2xA1xA1", "[1,0,2,2]"))
    assert v.coreduced == NO
    for name, text in (("A2xA1xA1", "[1,0,2,2]"), ("A3xA1xA1", "[1,0,0,2,2]")):
        v = classify_semisimple_irreducible(_module(name, text))
        assert v.coreduced != NO, (name, text)


def test_sl3_rows():
    # the suite's tables and its degree-8 example, and rows only the tests check
    rows = paper.SL3_IRREDUCIBLE + paper.SL3_REDUCIBLE + (("A2", paper.SL3_V31, NO),)
    for name, text, want in rows + (("A2", "[2,1]", NO), ("A2", "[4,0]", NO)):
        v = classify_sl3(_module(name, text))
        assert v.coreduced == want, text


@pytest.mark.parametrize("text", ["[8,0]", "[0,8]"])
def test_the_a2_covariant_certificate_covers_every_component(text):
    """None of the four components of these modules is dominated by another,
    so the vanishing covariant is checked on all four."""
    from coreduce.nullcone import components

    m = _module("A2", text)
    v = classify_sl3(m)
    assert v.coreduced == NO
    cert, info = v.certificates
    assert isinstance(cert, CovariantCertificate)
    assert dict(info)["components"] == len(components(m)) == 4


def test_sl3_covariant_certificate_revalidates():
    v = classify_sl3(_module("A2", paper.SL3_V31))
    cert = v.certificates[0]
    assert isinstance(cert, CovariantCertificate)
    assert cert.exists
    assert cert.multiplicity > cert.ideal_bound
    # recompute the arithmetic from the stored per-degree tables
    d = cert.degree
    assert cert.ideal_bound == sum(
        cert.per_degree_invariants[d - e - 1] * cert.per_degree_mults[e - 1]
        for e in range(1, d)
    )


def test_each_covariant_certificate_search_runs_one_dp(monkeypatch):
    """The degrees a driver tries are read off one symmetric-power DP at the
    top degree, and each one's certificate is the one
    ``covariant_generator_exists`` gives for that degree alone."""
    from coreduce import classify, repthy
    from coreduce.nullcone import classify_components_sl3

    tops = []
    dp = repthy._packed_powers

    def counted(chi, d, reads):
        tops.append(d)
        return dp(chi, d, reads)

    monkeypatch.setattr(repthy, "_packed_powers", counted)
    v = classify_sl2(sl2_module((5,)))
    cert = v.certificates[0]
    assert (cert.degree, tops) == (5, [8])
    assert cert == repthy.covariant_generator_exists(v.module, (1,), 5)
    m = _module("A2", paper.SL3_V31)
    sets = classify_components_sl3(m)
    tops.clear()
    cert, info = classify.sl3_vanishing_generator_certificate(m, sets)
    assert (cert.degree, dict(info)["vanishing_degree_bound"]) == (8, 5)
    assert tops == [5 + classify.SL3_EXTRA_DEGREES]
    assert cert == repthy.covariant_generator_exists(m, (1, 0), 8)
    m = _module(paper.G2XG2_GROUP, paper.G2XG2_MODULE)
    tops.clear()
    cert, info = g2xg2_certificate(m)
    assert (cert.degree, tops) == (G2XG2_DEGREE, [G2XG2_DEGREE])
    assert cert == repthy.covariant_generator_exists(m, G2XG2_TARGET, G2XG2_DEGREE)


@pytest.mark.parametrize(
    "group,module",
    [("A1", "[5]"), ("A1", "3*[2]"), ("A2", paper.SL3_V31), (paper.G2XG2_GROUP, paper.G2XG2_MODULE)],
)
def test_a_covariant_that_may_not_vanish_is_a_contradiction(group, module, monkeypatch):
    """Each driver's covariant certificate checks that the covariant vanishes
    on every null-cone component; the binary-form driver once rested that on
    a comment."""
    from coreduce import classify

    monkeypatch.setattr(classify, "covariant_vanishes", lambda a, target, d: False)
    with pytest.raises(ContradictionError, match="covariant fails to vanish on a component"):
        classify_module(_module(group, module))


@pytest.mark.parametrize(
    "summands",
    [
        pytest.param(
            s,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 4: the screen reads the eps-values (1, 1, -2) "
                "for the dual module too",
            ),
        )
        if s == ((2, (0, 2)),)
        else s
        for s in _SL3_EPS_SCREENS
    ],
    ids=str,
)
def test_each_eps_screen_row_fires_on_its_module(summands):
    assert _sl3_reducible_screen(ModuleSpec(parse_group("A2"), summands)) is not None


# ---------------------------------------------------------------------------
# Dispatcher and report


def test_classify_module_dispatch():
    # every recorded row, routed by group, gets the verdict of its table
    assert classify_module(sl2_module(paper.SL2_SEXTIC)).coreduced == NO
    for name, text, want in DRIVER_TABLES:
        v = classify_module(_module(name, text))
        assert v.coreduced == want, (name, text)


def _split_coefficient_variants(text):
    """Each way of writing one term c*[x] of ``text``, c >= 2, as
    [x]+(c-1)*[x]."""
    terms = text.split("+")
    for i, term in enumerate(terms):
        c, star, w = term.partition("*")
        if star and int(c) >= 2:
            rest = w if int(c) == 2 else f"{int(c) - 1}*{w}"
            yield "+".join(terms[:i] + [w, rest] + terms[i + 1 :])


def _verdict_shape(v):
    row = emit_report(v)["rows"][0]
    return row["coreduced"], row["theorem"], [c["kind"] for c in row["certificates"]]


def test_a_split_coefficient_gets_the_verdict_of_the_collected_one():
    # the rules read the collected summands, so F4 [0,0,0,1]+[0,0,0,1] is
    # the yes of F4 2*[0,0,0,1]; the module prints as typed
    split = 0
    for name, text, want in DRIVER_TABLES:
        shape = _verdict_shape(classify_module(_module(name, text)))
        assert shape[0] == want, (name, text)
        for variant in _split_coefficient_variants(text):
            v = classify_module(_module(name, variant))
            assert _verdict_shape(v) == shape, (name, text, variant)
            assert str(v.module) == variant
            split += 1
    assert split == 9


def test_a_binary_form_verdict_keeps_the_module_as_typed():
    # the sl2 rules read the collected summands, and the verdict prints the
    # module as it was given, not sorted and collected
    written = [("[2]+[1]", "[1]+[2]"), ("[2]+[2]", "2*[2]"), ("[1]+[2]+[1]", "2*[1]+[2]")]
    for text, canonical in written:
        v = classify_module(_module("A1", text))
        assert str(v.module) == text
        assert _verdict_shape(v) == _verdict_shape(classify_module(_module("A1", canonical)))
    with pytest.raises(ValueError, match="^need a nontrivial module with no trivial summands$"):
        classify_module(_module("A1", "[0]+[1]"))


def test_no_negative_rule_fires_on_yes_rows():
    """Fixture consistency: a negative rule firing on a recorded positive
    row is a build-breaking contradiction."""
    for name, text, want in DRIVER_TABLES:
        if want not in (YES, YES_PAPER):
            continue
        try:
            v = classify_module(_module(name, text))
        except ContradictionError as e:  # pragma: no cover - must not happen
            pytest.fail(f"negative rule fired on positive row {name} {text}: {e}")
        assert v.coreduced == want, (name, text)


def test_certificate_data_reads_like_a_dict_hashes_and_cannot_change():
    d = Data(bounds=[0, 2], components=3)
    assert d == (("bounds", (0, 2)), ("components", 3))
    assert dict(d) == {"bounds": (0, 2), "components": 3}
    assert hash(d) == hash(Data(bounds=[0, 2], components=3))
    with pytest.raises(AttributeError):
        d.bounds = ()
    # the report prints each value as a JSON value: the list as a list
    assert json.dumps(certificate_json(d), sort_keys=True) == (
        '{"bounds": [0, 2], "components": 3, "kind": "data"}'
    )
    v = classify_module(_module("A2", "[1,2]"))
    assert any(isinstance(c, Data) for c in v.certificates)
    assert hash(v) == hash(classify_module(_module("A2", "[1,2]")))
