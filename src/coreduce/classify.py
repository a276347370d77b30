"""Per-theorem classification drivers.

Each driver assembles a verdict table: "yes"/"no" where a machine-checked
certificate settles the question, "yes_paper_proof"/"no_paper_proof" where
the argument is genuinely geometric and the verdict ships as fixture data
with a citation record.  A negative rule firing on a "yes" row is a
contradiction and raises.

:func:`classify_module` is the drivers' one caller and the one place that
decides a module's domain: a semisimple group, no trivial summand, an
irreducible module of a product group, and a module of the adjoint group of
a simple group past A2.  It refuses anything else with ``ValueError``, and
each driver assumes its module passed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .config import MEMO_SIZE, CertificateError, require
from .monoid import exists_sum, is_torus_coreduced
from .nullcone import (
    F4_26_HW,
    G2XG2_DEGREE,
    G2XG2_TARGET,
    AdmissibleSet,
    Cocharacter,
    ScreenResult,
    classify_components_sl3,
    components,
    covariant_vanishes,
    d4_adjoint_target_reachable,
    d4_triality_module,
    f4_two_26_support_bound,
    positive_factor_counts,
    value_screen,
    weight_values,
)
from .repthy import (
    Character,
    CovariantCertificate,
    ModuleSpec,
    covariant_certificates,
    covariant_generator_exists_multidegree,
    max_nonzero_weight_multiplicity,
    weight_diagram,
    weyl_sum_series,
)
from .rootsys import (
    Coords,
    GroupSpec,
    SL3,
    SimpleType,
    in_root_lattice,
    parse_group,
    root_scaled_of_dynkin,
)
from .slices import (
    BadSliceCertificate,
    bad_toral_slice,
    relation_certificate,
    roots_mult2_rule,
)

YES = "yes"
NO = "no"
YES_PAPER = "yes_paper_proof"
NO_PAPER = "no_paper_proof"


class Citation(NamedTuple):
    statement: str


class Data(tuple):
    """A certificate's named values as ``(name, value)`` pairs, so that a
    verdict carrying one hashes and can be kept in a memo.  A list value is
    frozen to a tuple; every value prints as the JSON of that value."""

    __slots__ = ()

    def __new__(cls, **values: object) -> Data:
        frozen = ((k, tuple(v) if isinstance(v, list) else v) for k, v in values.items())
        return super().__new__(cls, frozen)


class _VerdictFields(NamedTuple):
    module: ModuleSpec
    coreduced: str
    certificates: tuple = ()
    theorem_tag: str = ""
    notes: tuple[str, ...] = ()


class Verdict(_VerdictFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Verdict:
        self = super().__new__(cls, *args, **kwargs)
        require(
            self.coreduced in (YES, NO, YES_PAPER, NO_PAPER), f"unknown verdict {self.coreduced!r}"
        )
        if self.coreduced == NO:
            require(bool(self.certificates), "a machine 'no' needs a certificate")
        if self.coreduced in (YES_PAPER, NO_PAPER):
            require(
                any(isinstance(c, Citation) for c in self.certificates),
                f"a {self.coreduced!r} verdict needs a citation",
            )
        return self


class ContradictionError(CertificateError):
    """A negative rule fired on a row the classification lists as coreduced."""


# ---------------------------------------------------------------------------
# Binary forms


def sl2_module(parts: Sequence[int]) -> ModuleSpec:
    counts: dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    return ModuleSpec(parse_group("A1"), tuple((c, (p,)) for p, c in sorted(counts.items())))


def classify_sl2(m: ModuleSpec) -> Verdict:
    """Sums of binary-form modules R_p, p >= 1 per summand; the domain is
    checked by :func:`classify_module`, as for every driver."""
    copies = {hw[0]: c for c, hw in m.collected}  # p -> copies of R_p
    tag = "binary-forms"
    if copies in ({2: 1}, {3: 1}, {4: 1}) or set(copies) == {1}:
        _check_no_negative_rule(m)
        return Verdict(m, YES, theorem_tag=tag)
    if copies == {2: 2}:
        cert = _two_r2_screen()
        require(cert.not_reduced, "the two-quadratics screen does not fire")
        return Verdict(m, NO, (cert,), tag, ("rank of the quotient differential on the null cone",))
    bad = bad_toral_slice(m)
    if bad is not None:
        return Verdict(m, NO, (bad,), tag)
    # covariants to R_1 (odd weights present) or to R_2 (all weights even)
    # of degree >= 2 vanish on the null cone
    target = (1,) if any(p % 2 for p in copies) else (2,)
    cov = vanishing_covariant_certificate(m, components(m), target, range(2, 9))
    if cov is not None:
        return Verdict(m, NO, (cov,), tag, ("generating covariant of low target degree vanishes on the null cone",))
    return Verdict(
        m,
        NO_PAPER,
        (Citation("principal-isotropy / coinduced-multiplicity argument"),),
        tag,
    )


def _two_r2_screen() -> ScreenResult:
    """Rank of the invariant differentials on the positive weight space of two
    copies of the three-dimensional module is at most 2 < 3 = codim."""
    vals = [(2, 2), (-2, 2)]
    return value_screen(vals, codim=3, invariant_degrees=[2, 2, 2])


def _check_no_negative_rule(m: ModuleSpec) -> None:
    if bad_toral_slice(m) is not None:
        raise ContradictionError(f"bad toral slice on coreduced module {m}")


def vanishing_covariant_certificate(
    m: ModuleSpec, components: Sequence[AdmissibleSet], target: Coords, degrees: range
) -> Optional[CovariantCertificate]:
    """The generating covariant of type V(target) of the lowest degree in
    ``degrees``, read off one :func:`covariant_certificates` series at the top
    degree; None when there is none.

    It certifies a non-reduced null cone when every covariant of its type and
    degree vanishes on each of ``components``, whose saturations cover the
    null cone: it then vanishes on the null cone without lying in the ideal of
    the invariants.  A component on which it may not vanish raises
    :class:`ContradictionError`.  Both halves hold for any module: the
    components come from the Hilbert-Mumford chambers, which do not assume an
    irreducible module, and the ideal bound of
    :func:`covariant_generator_exists` counts products of invariants and
    covariants in any module.
    """
    certs = covariant_certificates(m, target, degrees[-1])[degrees[0] - 1 :]
    cert = next((c for c in certs if c.exists), None)
    if cert is not None and not all(covariant_vanishes(a, target, cert.degree) for a in components):
        raise ContradictionError(f"degree-{cert.degree} covariant fails to vanish on a component")
    return cert


# ---------------------------------------------------------------------------
# Exceptional groups (modules with a zero weight)

_EXCEPTIONAL_FAMILIES = ("E", "F", "G")


def _adjoint_hw(t: SimpleType) -> Coords:
    """Highest weight of the adjoint module: the Dynkin labels of the highest
    root, the positive root of maximal height."""
    data = GroupSpec((t,)).root_data
    return max(zip(data.positive_roots, data.root_coords), key=lambda p: sum(p[1]))[0]


G2_7_HW = (1, 0)


def classify_adjoint_exceptional(m: ModuleSpec) -> Verdict:
    """Modules of the adjoint group of an exceptional simple group, checked
    by :func:`classify_module`."""
    g = m.group
    t = g.simple_factors[0]
    key = (t.family, t.rank)
    tag = f"exceptional-{t.family}{t.rank}"
    summands = m.collected
    if summands == ((1, _adjoint_hw(t)),):
        _check_no_negative_rule(m)
        return Verdict(m, YES, theorem_tag=tag, notes=("adjoint module",))
    if key == ("F", 4) and summands == ((2, F4_26_HW),):
        _check_no_negative_rule(m)
        bound, stats = f4_two_26_support_bound()
        require(bound == 2 * 26 - 8, f"support bound {bound} is not 2*dim V - dim V//G")
        return Verdict(
            m,
            YES,
            (Citation("cofree by the classification of cofree modules"),),
            tag,
            (
                "orbit-dimension bound 44 = 2*dim V - dim V//G certifies a dense orbit in the null cone",
                f"support-matrix stats: {stats}",
            ),
        )
    if key == ("G", 2) and summands == ((2, G2_7_HW),):
        _check_no_negative_rule(m)
        return Verdict(
            m,
            YES_PAPER,
            (Citation("invariants are the invariants of the 7-dimensional orthogonal group"),),
            tag,
        )
    if key == ("F", 4) and len(summands) == 1 and summands[0][1] == F4_26_HW and summands[0][0] >= 3:
        cert = f4_three_26_certificate()
        return Verdict(m, NO, cert, tag, ("covariant of adjoint type vanishes on the null cone of the regular-subgroup slice",))
    if key == ("G", 2) and len(summands) == 1 and summands[0][1] == G2_7_HW and summands[0][0] >= 3:
        certs = g2_three_7_certificate()
        return Verdict(m, NO, certs, tag, ("alternating degree-3 covariant is not in the quadratic ideal",))
    if key[0] in ("F", "G"):
        # low rank: the direct Hilbert-basis search is affordable
        bad = bad_toral_slice(m)
        if bad is not None:
            return Verdict(m, NO, (bad,), tag)
    cert = roots_mult2_rule(m)
    if cert is not None:
        return Verdict(m, NO, (cert,), tag)
    if len(summands) == 1:
        wmult, witness = max_nonzero_weight_multiplicity(g, summands[0][1])
        if wmult >= 2:
            require(witness is not None, "a repeated nonzero weight without a witness")
            return Verdict(
                m,
                NO,
                (
                    Data(weight=witness, multiplicity=wmult),
                    Citation("a repeated nonzero weight forces a bad toral slice"),
                ),
                tag,
            )
    return Verdict(m, NO_PAPER, (Citation("slice argument at a zero weight vector"),), tag)


def f4_three_26_certificate() -> tuple:
    """Three or more copies of the 26-dimensional module: on the rank-4
    orthogonal slice, the adjoint-type covariant of tridegree (1,1,1) in the
    exterior squares misses every null-cone component (one block check per
    maximal set of the chamber enumeration, six in all) while 7 copies exist
    against only 5 in the ideal."""
    sets = components(d4_triality_module())
    checks = tuple(d4_adjoint_target_reachable(a) for a in sets)
    if any(checks):
        raise ContradictionError("adjoint target reachable on a null-cone component")
    return (
        Citation("slice through a generic pair of zero weight vectors is the triality module"),
        # the two counts are cross-checked fixture data
        Data(block_checks_reachable=checks, copies_in_degree_222=7, in_ideal=5),
    )


def g2_three_7_certificate() -> tuple:
    g = parse_group("G2")
    chi7 = weight_diagram(g, G2_7_HW)
    cert = covariant_generator_exists_multidegree([chi7] * 3, (1, 1, 1), G2_7_HW)
    if not cert.exists:
        raise ContradictionError("expected a generating covariant in tridegree (1,1,1)")
    m3 = ModuleSpec(g, ((3, G2_7_HW),))
    sets = components(m3)
    vanish = all(covariant_vanishes(s, G2_7_HW, 3) for s in sets)
    if not vanish:
        raise ContradictionError("degree-3 covariant fails to vanish on a component")
    return (cert, Data(degree3_vanishes_on_all_components=True, components=len(sets)))


# ---------------------------------------------------------------------------
# Classical adjoint groups


def classify_adjoint_classical(m: ModuleSpec) -> Verdict:
    """Modules of the adjoint group of a classical simple group past A2,
    checked by :func:`classify_module`."""
    t = m.group.simple_factors[0]
    tag = f"classical-{t.family}{t.rank}"
    if _is_classical_yes_row(t, m):
        verdict = YES if _is_adjoint_module(t, m) else YES_PAPER
        _check_no_negative_rule(m)
        certs = () if verdict == YES else (Citation("classical invariant theory / cofreeness"),)
        notes = ("adjoint module",) if verdict == YES else ()
        return Verdict(m, verdict, certs, tag, notes)
    bad = bad_toral_slice(m)
    if bad is not None:
        return Verdict(m, NO, (bad,), tag)
    return Verdict(m, NO_PAPER, (Citation("slice-quotient chain"),), tag)


def _is_adjoint_module(t: SimpleType, m: ModuleSpec) -> bool:
    return m.collected == ((1, _adjoint_hw(t)),)


def _is_classical_yes_row(t: SimpleType, m: ModuleSpec) -> bool:
    n = t.rank
    fam = t.family
    s = m.collected
    if _is_adjoint_module(t, m):
        return True

    def one(hw: Sequence[int]) -> bool:
        return s == ((1, tuple(hw)),)

    if fam == "A" and n == 3 and one([0, 2, 0]):
        return True
    if fam == "B":
        if one([2] + [0] * (n - 1)):
            return True
        # k copies of the standard module, k <= n
        if len(s) == 1 and s[0][1] == tuple([1] + [0] * (n - 1)) and s[0][0] <= n:
            return True
    if fam == "C" and n >= 3:
        if one([0, 1] + [0] * (n - 2)):
            return True
        if n == 4 and one([0, 0, 0, 1]):
            return True
    if fam == "D":
        if one([2] + [0] * (n - 1)):
            return True
        if n == 4 and (one([0, 0, 2, 0]) or one([0, 0, 0, 2])):
            return True
    return False


# ---------------------------------------------------------------------------
# Irreducible modules of semisimple non-simple adjoint groups


def classify_semisimple_irreducible(m: ModuleSpec) -> Verdict:
    """Irreducible modules of a product of two or more simple groups,
    checked by :func:`classify_module`."""
    g = m.group
    hw = m.collected[0][1]
    tag = "semisimple-irreducible"
    if _is_semisimple_yes_row(g, hw):
        _check_no_negative_rule(m)
        return Verdict(m, YES_PAPER, (Citation("symmetric-space / cofree quotient argument"),), tag)
    keyed = tuple(str(t) for t in g.simple_factors)
    if keyed == ("G2", "G2") and hw == (1, 0, 1, 0):
        return Verdict(m, NO, g2xg2_certificate(m), tag)
    if (
        len(keyed) == 2
        and keyed[1] == "G2"
        and g.simple_factors[0].family == "B"
        and hw == tuple([1] + [0] * (g.simple_factors[0].rank - 1) + [1, 0])
    ):
        cert = _so_g2_screen()
        return Verdict(
            m, NO, (cert, Citation("slice at the zero weight vector")), tag,
            ("screen applied to the rank-1 slice cocharacter with positive values 1 and 3",),
        )
    bad = bad_toral_slice(m)
    if bad is not None:
        return Verdict(m, NO, (bad,), tag)
    if _is_odd_orthogonal_triple(g, hw):
        cert = relation_certificate(
            is_torus_coreduced([(2, 0), (0, 2), (1, 1), (-1, -1)]),
            note="the rank-2 torus at the end of the slice-quotient chain",
        )
        if cert is None:
            raise ContradictionError("expected a bad rank-2 torus slice")
        return Verdict(
            m, NO, (cert, Citation("slice-quotient chain to a rank-2 torus")),
            tag, ("final torus step machine-checked",),
        )
    return Verdict(m, NO_PAPER, (Citation("slice-quotient chain"),), tag)


def _odd_orthogonal_standard(t: SimpleType, local_hw: Coords) -> bool:
    """Standard module of an odd orthogonal group (the rank-1 case appears
    with highest weight 2)."""
    if t.family == "A" and t.rank == 1:
        return local_hw == (2,)
    return t.family == "B" and local_hw == tuple([1] + [0] * (t.rank - 1))


def _is_semisimple_yes_row(g: GroupSpec, hw: Coords) -> bool:
    facs = g.simple_factors
    if len(facs) != 2:
        return False
    a, b = facs
    ha, hb = hw[: a.rank], hw[a.rank :]
    # standard (x) standard for two odd orthogonal groups
    if _odd_orthogonal_standard(a, ha) and _odd_orthogonal_standard(b, hb):
        return True
    # 3-dim module of the rank-1 group (x) 7-dim module of the exceptional one
    if str(a) == "A1" and str(b) == "G2":
        return hw == (2, 1, 0)
    if str(a) == "G2" and str(b) == "A1":
        return hw == (1, 0, 2)
    return False


def _is_odd_orthogonal_triple(g: GroupSpec, hw: Coords) -> bool:
    return len(g.simple_factors) == 3 and all(
        _odd_orthogonal_standard(t, hw[lo:hi]) for t, lo, hi in g.root_data.factors
    )


def g2xg2_certificate(m: ModuleSpec) -> tuple:
    """The 49-dimensional module of the product of two rank-2 exceptional
    groups: a generating covariant in degree 9 vanishes on every null-cone
    component."""
    sets = components(m)
    cert = vanishing_covariant_certificate(
        m, sets, G2XG2_TARGET, range(G2XG2_DEGREE, G2XG2_DEGREE + 1)
    )
    if cert is None:
        raise ContradictionError("expected a generating covariant in degree 9")
    return (cert, Data(components_checked=len(sets), vanishes_on_all=True))


def _so_g2_screen() -> ScreenResult:
    """Rank-1 cocharacter on the 24-dimensional slice module: positive values
    1 (multiplicity 8) and 3 (multiplicity 4); 4 generating invariants in
    degree <= 4 against codimension 7."""
    vals = [(3, 4), (1, 8), (-1, 8), (-3, 4)]
    res = value_screen(vals, codim=7, invariant_degrees=[2, 2, 4, 4])
    require(
        res.max_useful_degree == 4 and res.degree_rule_fires, f"the slice screen does not fire: {res}"
    )
    return res


# ---------------------------------------------------------------------------
# Rank-2 special linear modules


_SL3_IRRED_YES = {(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3), (1, 1)}


def classify_sl3(m: ModuleSpec) -> Verdict:
    """Modules of the rank-2 special linear group A2 with no trivial
    summand, checked by :func:`classify_module`."""
    tag = "rank2-special-linear"
    s = m.collected
    if _is_sl3_yes_row(s):
        _check_no_negative_rule(m)
        if s == ((1, (1, 1)),):
            return Verdict(m, YES, theorem_tag=tag, notes=("adjoint module",))
        if len(s) == 1 and s[0][0] == 1 and s[0][1] in _SL3_IRRED_YES:
            return Verdict(m, YES_PAPER, (Citation("cofree; quotient of small dimension"),), tag)
        return Verdict(m, YES_PAPER, (Citation("classical invariant theory"),), tag)
    bad = bad_toral_slice(m)
    if bad is not None:
        return Verdict(m, NO, (bad,), tag)
    if len(s) == 1 and s[0][0] == 1:
        statuses = classify_components_sl3(m)
        screen = sl3_irreducible_rank_screen(m.weights, statuses)
        if screen is not None:
            return Verdict(
                m, NO, screen, tag,
                ("rank of the invariant differentials on a dominant component",),
            )
        cert = sl3_vanishing_generator_certificate(m, statuses)
        if cert is not None:
            return Verdict(m, NO, cert, tag)
        return Verdict(m, NO_PAPER, (Citation("negative-weight count against the cubic-invariant bound"),), tag)
    # reducible non-listed modules
    screen = _sl3_reducible_screen(m)
    if screen is not None:
        return Verdict(m, NO, screen, tag)
    return Verdict(m, NO_PAPER, (Citation("slice / associated-cone argument"),), tag)


def _is_sl3_yes_row(s: tuple[tuple[int, Coords], ...]) -> bool:
    if len(s) == 1 and s[0][0] == 1 and s[0][1] in _SL3_IRRED_YES:
        return True
    hws = {hw for _, hw in s}
    if hws <= {(1, 0), (0, 1)}:
        # any number of copies of the standard module and its dual
        return sum(c for c, _ in s) >= 2
    # one copy of S^2 plus one copy of the dual standard module, up to duals
    sor = tuple(sorted(s))
    return sor in (((1, (0, 1)), (1, (2, 0))), ((1, (0, 2)), (1, (1, 0))))


def _invariant_generator_upper_bounds(chi: Character, dmax: int) -> list[int]:
    """Upper bound, per degree 1..dmax, on the number of generating invariants
    of the module with weights ``chi``.

    Multiplication by a fixed nonzero invariant of degree e is injective, so
    the products of lower-degree invariants span at least max_e dim_{d-e}
    dimensions in degree d whenever degree e carries an invariant.
    """
    dims = weyl_sum_series(chi, dmax, (tuple(0 for _ in range(chi.group.rank)),))[0]
    gens = []
    for d in range(1, dmax + 1):
        spanned = max(
            (dims[d - e] for e in range(1, d) if dims[e] >= 1), default=0
        )
        gens.append(max(0, dims[d] - spanned))
    return gens


SL3_SCREEN_DEGREE_CAP = 12
"""Largest monomial degree the ``sl3`` rank screen considers."""
SL3_EXTRA_DEGREES = 4
"""Degrees above the vanishing bound in which the ``sl3`` covariant
certificate looks for a generating covariant."""
FEASIBLE_DEGREE_CAP = 40
"""Largest degree bound ``_max_feasible_degree`` searches up to."""


def sl3_irreducible_rank_screen(
    chi: Character, statuses: dict[AdmissibleSet, str]
) -> Optional[tuple]:
    """Rank-of-differentials screen on a certified dominant component among
    ``statuses``, the components and their dominance statuses that
    :func:`classify_components_sl3` gives for the module with weights
    ``chi``.

    For a subset S of the negative-weight directions reachable only by
    monomials of total degree <= d, the rank of the invariant differentials
    projected to S is at most the number of generating invariants of degree
    <= d, while the component codimension exceeds |S| - 2 by the recorded
    codimension-2 bound for the slab inside its orbit closure.  A shortfall
    certifies a non-reduced component.
    """
    gens: Optional[list[int]] = None
    for a, status in statuses.items():
        if status != "dominant":
            continue
        ks = positive_factor_counts([(v, m) for _, v, m in weight_values(chi, a.defining)])
        if len(ks) <= 2:
            continue
        thresholds = sorted(
            {k for k in ks if k is not None and k + 1 <= SL3_SCREEN_DEGREE_CAP}
        )
        for kk in [0] + thresholds:
            subset = sum(1 for k in ks if k is None or k <= kk)
            if subset - 2 <= 0:
                continue
            if gens is None:
                gens = _invariant_generator_upper_bounds(chi, SL3_SCREEN_DEGREE_CAP)
            available = sum(gens[: kk + 1])
            if available < subset - 2:
                return (
                    Citation("codimension-2 bound for the slab in its component"),
                    Data(
                        cocharacter=a.defining.values,
                        max_monomial_degree=kk + 1,
                        directions=subset,
                        generators_available=available,
                        codim_lower_bound=subset - 2,
                        generator_bounds_by_degree=gens,
                    ),
                )
    return None


def sl3_vanishing_generator_certificate(
    m: ModuleSpec, statuses: dict[AdmissibleSet, str]
) -> Optional[tuple]:
    """Find a degree d and a standard-type covariant target such that every
    covariant of that type and degree vanishes on all potentially dominant
    null-cone components among ``statuses`` (the components and their
    dominance statuses that :func:`classify_components_sl3` gives for
    ``m``), while a generating one exists in degree d."""
    candidates = [a for a, status in statuses.items() if status in ("dominant", "unknown")]
    if not candidates:
        return None
    for target in ((1, 0), (0, 1)):
        dmax = 0
        for a in candidates:
            # largest degree with a monomial of the target weight
            d = _max_feasible_degree(a, target)
            if d is None:
                break
            dmax = max(dmax, d)
        else:
            degrees = range(dmax + 1, dmax + 1 + SL3_EXTRA_DEGREES)
            cert = vanishing_covariant_certificate(m, candidates, target, degrees)
            if cert is not None:
                return (cert, Data(vanishing_degree_bound=dmax, components=len(candidates)))
    return None


def _max_feasible_degree(a: AdmissibleSet, target: Coords) -> Optional[int]:
    tgt = root_scaled_of_dynkin(a.defining.group, target)
    tval = a.defining.value(target)
    minval = min(a.defining.value(w) for w in a.weights)
    if minval <= 0:
        return None
    dbound = tval // minval
    if dbound > FEASIBLE_DEGREE_CAP:
        return None
    best = 0
    ws = a.root_scaled
    for d in range(1, dbound + 1):
        if exists_sum(ws, tgt, d, grading=a.defining.values).feasible:
            best = d
    return best


# (codim, invariant degrees) of the eps screens of _sl3_reducible_screen,
# keyed by the sorted collected summands; every row reads the cocharacter of
# the eps-values (1, 1, -2)
_SL3_EPS_SCREENS = {
    ((2, (2, 0)),): (4, (3, 3, 3, 3)),
    ((2, (0, 2)),): (4, (3, 3, 3, 3)),
    ((1, (0, 2)), (1, (2, 0))): (4, (2, 3, 3, 6)),
}


def _sl3_reducible_screen(m: ModuleSpec) -> Optional[tuple]:
    """Rank-of-differentials screens for the handful of reducible modules the
    classification settles by cocharacter bookkeeping; codimension values are
    recorded fixture data."""
    sor = tuple(sorted(m.collected))
    if sor in (((1, (2, 0)), (2, (0, 1))), ((1, (0, 2)), (2, (1, 0)))):
        screen = _two_r2_screen()
        return (
            screen,
            Citation("associated cone of the 2R2-slice fiber is the null cone"),
            Data(null_cone="irreducible, codimension 3 (recorded)"),
        )
    if sor not in _SL3_EPS_SCREENS:
        return None
    codim, degrees = _SL3_EPS_SCREENS[sor]
    rho = _sl3_cocharacter_from_eps(1, 1, -2)
    res = value_screen([(v, mult) for _, v, mult in weight_values(m.weights, rho)], codim, degrees)
    return (res, Data(codim_source="recorded")) if res.not_reduced else None


def _sl3_cocharacter_from_eps(a: int, b: int, c: int) -> Cocharacter:
    """Diagonal cocharacter diag(t^a, t^b, t^c), a+b+c = 0, expressed by its
    values on the root coordinates."""
    require(a + b + c == 0, f"eps values {(a, b, c)} do not sum to zero")
    return Cocharacter((a - b, b - c), SL3)


# ---------------------------------------------------------------------------
# Dispatch


@lru_cache(maxsize=MEMO_SIZE)
def classify_module(m: ModuleSpec) -> Verdict:
    """Check that a module lies in the classification's domain, and route it
    to the driver for its group family; the drivers have no other caller
    and check nothing of the domain themselves.  The verdict is kept per
    module, so a repeated request runs no driver; a raise is not kept."""
    g = m.group
    if g.torus_rank:
        raise ValueError("classification drivers cover semisimple groups only")
    if any(not any(hw) for _, hw in m.summands):
        raise ValueError("need a nontrivial module with no trivial summands")
    if len(g.simple_factors) >= 2:
        if len(m.collected) != 1 or m.collected[0][0] != 1:
            raise ValueError(
                f"{m} is outside the classification: it covers irreducible modules "
                "of product groups"
            )
        return classify_semisimple_irreducible(m)
    t = g.simple_factors[0]
    if str(t) == "A1":
        return classify_sl2(m)
    if str(t) == "A2":
        return classify_sl3(m)
    for _, hw in m.summands:
        if not in_root_lattice(g, hw):
            raise ValueError(f"{hw} is not a module of the adjoint group of {t}")
    if t.family in _EXCEPTIONAL_FAMILIES:
        return classify_adjoint_exceptional(m)
    return classify_adjoint_classical(m)


# ---------------------------------------------------------------------------
# Reports


def emit_report(v: Verdict) -> dict:
    return {
        "rows": [
            {
                "module": str(v.module),
                "group": str(v.module.group),
                "coreduced": v.coreduced,
                "theorem": v.theorem_tag,
                "certificates": [certificate_json(c) for c in v.certificates],
                "notes": list(v.notes),
            }
        ]
    }


def certificate_json(c) -> dict:
    """The one JSON form of each certificate kind, every value a plain JSON
    value."""
    if isinstance(c, Citation):
        return {"kind": "citation", "statement": c.statement}
    if isinstance(c, BadSliceCertificate):
        return {
            "kind": c.kind,
            "weights": [list(w) for w in c.weights],
            "coeffs": list(c.coeffs),
            "note": c.note,
        }
    if isinstance(c, CovariantCertificate):
        return {
            "kind": "generating_covariant",
            "target": list(c.target),
            "degree": c.degree,
            "multiplicity": c.multiplicity,
            "ideal_bound": c.ideal_bound,
        }
    if isinstance(c, ScreenResult):
        return {
            "kind": "degree_rank_screen",
            "max_useful_degree": c.max_useful_degree,
            "invariants_available": c.invariants_available,
            "rank_bound": c.rank_bound,
            "codim": c.codim,
        }
    if isinstance(c, Data):
        return {"kind": "data", **dict(c)}
    raise TypeError(f"no JSON form for a certificate of type {type(c).__name__}")
