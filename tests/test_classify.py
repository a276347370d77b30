import itertools
import os
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
    classify_adjoint_classical,
    classify_adjoint_exceptional,
    classify_module,
    classify_semisimple_irreducible,
    classify_sl2,
    classify_sl3,
    emit_report,
    sl2_module,
)
from coreduce.repthy import CovariantCertificate, ModuleSpec, parse_module
from coreduce.rootsys import build_root_system, parse_group
from coreduce.slices import BadSliceCertificate
from coreduce.nullcone import ScreenResult



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
        from coreduce.rootsys import SimpleType

        repthy.dominant_weights_below = lambda g, hw: frozenset({(1, 1), (1, 0), (0, 0)})
        try:
            repthy._freudenthal(SimpleType("A", 2), (1, 1))
        except CertificateError:
            pass
        else:
            raise SystemExit("a Freudenthal step off the root lattice passed")
        # a repeated nonzero weight reported without its witness
        from coreduce import slices

        slices.max_nonzero_weight_multiplicity = lambda g, hw: (2, None)
        try:
            slices.criterion_a(parse_group("A1"), (2,), (2,))
        except CertificateError:
            pass
        else:
            raise SystemExit("criterion (ii) fired without a witness")
        """
    )
    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stdout + out.stderr


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
    m = ModuleSpec(g, ((1, rs.dynkin_of_root(top)),))
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
