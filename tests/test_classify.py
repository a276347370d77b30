import ast
import functools
import itertools
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import coreduce
from coreduce import paper
from coreduce.config import CertificateError
from coreduce.classify import (
    NO,
    NO_PAPER,
    YES,
    YES_PAPER,
    Citation,
    ContradictionError,
    MultiplicityCertificate,
    Verdict,
    _SL3_EPS_SCREENS,
    _sl3_reducible_screen,
    classify_adjoint_classical,
    classify_adjoint_exceptional,
    classify_module,
    classify_semisimple_irreducible,
    classify_sl2,
    classify_sl3,
    emit_report,
    g2xg2_certificate,
    sl2_module,
)
from coreduce.monoid import Relation, SumWitness, TorusVerdict
from coreduce.repthy import CovariantCertificate, ModuleSpec, parse_module
from coreduce.rootsys import GroupSpec, RootSystemError, SimpleType, build_root_system, parse_group
from coreduce.slices import BadSliceCertificate
from coreduce.nullcone import G2XG2_DEGREE, G2XG2_TARGET, Cocharacter, ScreenResult

from oracles import dynkin_of_root



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


def test_multiplicity_certificate_enforces_threshold():
    with pytest.raises(CertificateError):
        MultiplicityCertificate((1, 0), 1, 2)


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
        (MultiplicityCertificate((1, 0), 2, 2), "multiplicity"),
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
    assert a2.root_data.weyl_order == 6 and pairs[1][0].weights.mass() == 19
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


def test_multiplicity_certificate_repr_is_pinned():
    """A certificate with no summary of its own reaches the JSON report as
    its repr."""
    cert = MultiplicityCertificate((1, 0), 2, 2)
    text = "MultiplicityCertificate(weight=(1, 0), multiplicity=2, threshold=2, note='')"
    assert repr(cert) == text
    verdict = Verdict(sl2_module((2,)), NO, (cert,))
    assert emit_report([verdict])["rows"][0]["certificates"] == [
        {"kind": "MultiplicityCertificate", "repr": text}
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
        # 2*e1 + (-2e1) = 0, but e1 is not a weight of the toral slice of [2,0,0]
        from coreduce.classify import _eps_relation_certificate
        from coreduce.repthy import parse_module
        from coreduce.rootsys import parse_group

        b3 = parse_group("B3")
        m = parse_module(b3, "[2,0,0]")
        try:
            _eps_relation_certificate(m, b3.simple_factors[0], [(1, 0, 0), (-2, 0, 0)], (2, 1), "")
        except CertificateError:
            pass
        else:
            raise SystemExit("a relation on a weight outside the slice validated")
        from coreduce.classify import _sl3_cocharacter_from_eps

        try:
            _sl3_cocharacter_from_eps(2, -1, 0)
        except CertificateError:
            pass
        else:
            raise SystemExit("eps values summing to 1 gave a cocharacter")
        from coreduce.rootsys import _symmetrizer

        try:
            _symmetrizer(((2, 0), (0, 2)))
        except CertificateError:
            pass
        else:
            raise SystemExit("a disconnected Cartan matrix got a symmetrizer")
        # a weight outside the root-lattice coset of the highest weight
        from coreduce import repthy
        repthy.dominant_weights_below = lambda g, hw, visit=None: frozenset({(1, 1), (1, 0), (0, 0)})
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
    # the toral slice, the chamber enumeration, the screens and the covariant
    # counts of one classify call share one weight multiset
    m = parse_module(parse_group(group), module)
    classify_module(m)
    assert sorted(weight_builds) == sorted(hw for _, hw in m.summands)


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
    assert weight_builds == [hw for _, hw in m.summands]


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
    v = classify_sl2(parts)
    assert v.coreduced == want


def test_sl2_two_quadratics_certificate():
    v = classify_sl2(paper.SL2_TWO_QUADRATICS)
    screen = v.certificates[0]
    assert isinstance(screen, ScreenResult)
    assert screen.rank_bound == paper.SL2_TWO_QUADRATICS_RANK
    assert screen.codim == paper.SL2_TWO_QUADRATICS_CODIM > screen.rank_bound


def test_sl2_exhaustive_small_has_verdict():
    for n in range(1, 4):
        for parts in itertools.product(range(1, 5), repeat=n):
            v = classify_sl2(parts)
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
        v = classify_adjoint_exceptional(g, parse_module(g, text))
        assert v.coreduced == want, (name, text)


@pytest.mark.parametrize(
    "driver",
    [
        lambda m: classify_adjoint_exceptional(m.group, m),
        lambda m: classify_adjoint_classical(m.group, m),
        lambda m: classify_sl3(m),
    ],
    ids=["exceptional", "classical", "sl3"],
)
def test_simple_drivers_reject_other_groups(driver):
    # a product group, and a group with a torus factor
    for m in [_module("A1xA1", "[2,2]"), _module("A2xT1", "[1,0,1]")]:
        with pytest.raises(ValueError):
            driver(m)


def test_exceptional_rejects_non_adjoint_lattice():
    f4 = parse_group("F4")
    # no rejection for F4 (root lattice = weight lattice); B3 spin handled
    # by the classical driver below
    b3 = parse_group("B3")
    with pytest.raises(ValueError):
        classify_adjoint_classical(b3, parse_module(b3, "[0,0,1]"))


@pytest.mark.parametrize("text,cocharacter", [("[2,1]", "(5, 2)"), ("[1,2]", "(2, 5)")])
def test_sl3_rank_screen_records_an_integer_cocharacter(text, cocharacter):
    m = parse_module(parse_group("A2"), text)
    (row,) = emit_report([classify_module(m)])["rows"]
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
    top = rs.highest_root
    assert all(sum(top) > sum(r) for r in rs.positive_roots if r != top)
    m = ModuleSpec(g, ((1, dynkin_of_root(rs, top)),))
    assert m.dimension() == g.rank + 2 * len(rs.positive_roots)
    assert classify_module(m).coreduced == YES


def test_classical_relation_certificates_validate():
    rows = [(name, text) for name, text, want in paper.CLASSICAL if want == NO]
    for name, text in rows + [("B4", "[0,0,1,0]")]:
        g = parse_group(name)
        v = classify_adjoint_classical(g, parse_module(g, text))
        assert v.coreduced == NO, (name, text)
        cert = v.certificates[0]
        assert isinstance(cert, BadSliceCertificate)
        cert.validate()
        assert max(cert.coeffs) >= 2


@pytest.mark.parametrize("name,text,dual", [("A3", "[4,0,0]", "[0,0,4]"), ("A4", "[5,0,0,0]", "[0,0,0,5]")])
def test_dual_symmetric_power_relation_is_the_negated_one(name, text, dual):
    # S^{k(n+1)} of the dual standard module of the adjoint group of A_n
    # carries the relation of S^{k(n+1)} of the standard one, negated
    g = parse_group(name)
    plain = classify_module(parse_module(g, text))
    negated = classify_module(parse_module(g, dual))
    assert plain.coreduced == negated.coreduced == NO
    (a,), (b,) = plain.certificates, negated.certificates
    assert b.coeffs == a.coeffs
    assert b.weights == tuple(tuple(-x for x in w) for w in a.weights)


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
    v = classify_sl2((5,))
    cert = v.certificates[0]
    assert (cert.degree, tops) == (5, [8])
    assert cert == repthy.covariant_generator_exists(v.module, (1,), 5)
    m = _module("A2", paper.SL3_V31)
    sets = classify_components_sl3(m)
    tops.clear()
    cert, info = classify.sl3_vanishing_generator_certificate(m, sets)
    assert (cert.degree, info["vanishing_degree_bound"]) == (8, 5)
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


def test_emit_report_is_deterministic_and_sorted():
    g = parse_group("A2")
    vs = [
        classify_sl3(parse_module(g, t))
        for t in ["[3,1]", "[1,1]", "[2,1]"]
    ]
    r1 = emit_report(vs)
    r2 = emit_report(list(reversed(vs)))
    assert r1 == r2
    assert r1["schema"] == 1
    rows = r1["rows"]
    keys = [(row["theorem"], row["module"]) for row in rows]
    assert keys == sorted(keys)


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
