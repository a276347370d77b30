"""Command-line front end.

Exit codes: 0 success / boolean yes; 1 boolean no; 2 usage error; 3 resource
limit hit.  Output is JSON (sorted keys, versioned with a ``schema`` field)
or a plain-text table.  Weight and module grammar lives in :mod:`rootsys` /
:mod:`repthy`; the CLI only splits flag values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .config import DEFAULT_LIMITS, CertificateError, Limits, ResourceLimitError
from .monoid import hilbert_basis, is_torus_coreduced
from .nullcone import (
    admissible_sets,
    covariant_vanishes,
    d4_adjoint_target_reachable,
    D4_TRIALITY_CASES,
    f4_two_26_support_bound,
    g2xg2_model_admissible_sets,
    maximal_sets,
    sl3_pair_differential_vanishes,
    sl3_critical_ratios,
    sl3_pair_validate_model,
    SL3_PAIR_MODELS,
    support_orbit_dim_bound,
)
from .repthy import (
    covariant_generator_exists,
    graded_invariant_series,
    group_weyl_dim,
    invariant_dimension,
    module_weights,
    min_root_multiplicity,
    mult_in_character,
    parse_module,
    symmetric_power,
    weight_diagram,
    zero_weight_multiplicity,
    ModuleSpec,
)
from .rootsys import (
    RootSystemError,
    parse_group,
    parse_weight,
)
from .slices import bad_toral_slice, has_toral_slice
from . import classify as cls

SCHEMA = 1

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


@dataclass
class Config:
    output: str = "json"
    limits: Limits = DEFAULT_LIMITS


def _config_from(args: argparse.Namespace) -> Config:
    output = getattr(args, "output", None) or os.environ.get(
        "COREDUCE_OUTPUT", "json"
    )
    limit_states = getattr(args, "limit_states", None)
    env = os.environ.get("COREDUCE_LIMIT_STATES")
    if limit_states is None and env:
        try:
            limit_states = int(env)
        except ValueError:
            raise ValueError(
                f"COREDUCE_LIMIT_STATES must be an integer, got {env!r}"
            ) from None
    if limit_states is None:
        return Config(output=output)
    if limit_states < 1:
        raise ValueError(f"the state limit must be at least 1, got {limit_states}")
    return Config(output=output, limits=Limits(dp_state_limit=limit_states))


def _emit(cfg: Config, payload: dict) -> None:
    payload = dict(payload)
    payload["schema"] = SCHEMA
    if cfg.output == "json":
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        _emit_text(payload)


def _emit_text(payload: dict, indent: str = "") -> None:
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                _emit_text(item, indent + "  ")
                print(f"{indent}  -")
        else:
            print(f"{indent}{key}: {value}")


def _parse_vectors(text: str) -> list[tuple[int, ...]]:
    out = []
    for part in text.strip().split(";"):
        part = part.strip()
        if not part:
            continue
        if part.startswith("(") and part.endswith(")"):
            part = part[1:-1]
        coords = tuple(int(x) for x in part.split(","))
        out.append(coords)
    dims = {len(v) for v in out}
    if len(dims) > 1:
        # scalars given as a flat comma list
        if dims == {1} or all(len(v) == 1 for v in out):
            return out
        raise ValueError("weight vectors must share a dimension")
    return out


def _parse_scalar_or_vectors(text: str) -> list[tuple[int, ...]]:
    if ";" in text or "(" in text:
        return _parse_vectors(text)
    return [(int(x),) for x in text.replace(" ", "").split(",")]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_rootsys(cfg: Config, args: argparse.Namespace) -> int:
    g = parse_group(args.group)
    payload = {
        "group": str(g),
        "rank": g.rank,
        "weyl_order": g.weyl_order,
        "positive_roots": g.num_positive_roots,
        "simple_factors": [str(t) for t in g.simple_factors],
    }
    _emit(cfg, payload)
    return EXIT_OK


def cmd_weights(cfg: Config, args: argparse.Namespace) -> int:
    g = parse_group(args.group)
    m = parse_module(g, args.module)
    chi = module_weights(m)
    zero = tuple(0 for _ in range(g.rank))
    payload = {
        "group": str(g),
        "module": str(m),
        "dimension": m.dimension(),
        "zero_multiplicity": chi.mult(zero),
        "nonzero_weight_count": sum(chi.nonzero_weights().values()),
        "min_root_multiplicity": min_root_multiplicity(m)[0],
    }
    _emit(cfg, payload)
    return EXIT_OK


def torus_violating_generator(ws: Sequence[tuple[int, ...]], limits: Limits):
    """Deterministic choice among the Hilbert-basis generators with a
    coefficient >= 2: the lexicographically greatest coefficient vector."""
    nz = tuple(w for w in ws if any(x != 0 for x in w))
    basis = hilbert_basis(nz, limits)
    bad = [g for g in basis.generators if max(g.coeffs) >= 2]
    return (max(bad, key=lambda g: g.coeffs), nz) if bad else (None, nz)


def cmd_torus_check(cfg: Config, args: argparse.Namespace) -> int:
    ws = _parse_scalar_or_vectors(args.weights)
    verdict = is_torus_coreduced(ws, cfg.limits)
    payload: dict = {"weights": [list(w) for w in ws], "coreduced": verdict.coreduced}
    if not verdict.coreduced:
        gen, nz = torus_violating_generator(ws, cfg.limits)
        payload["certificate"] = {
            "coeffs": list(gen.coeffs),
            "weights": [list(w) for w in nz],
        }
    _emit(cfg, payload)
    return EXIT_OK if verdict.coreduced else EXIT_NO


def cmd_hilbert_basis(cfg: Config, args: argparse.Namespace) -> int:
    ws = _parse_scalar_or_vectors(args.weights)
    basis = hilbert_basis(ws, cfg.limits)
    payload = {
        "weights": [list(w) for w in ws],
        "generators": [list(gen.coeffs) for gen in basis.generators],
    }
    _emit(cfg, payload)
    return EXIT_OK


def cmd_bad_slice(cfg: Config, args: argparse.Namespace) -> int:
    g = parse_group(args.group)
    m = parse_module(g, args.module)
    if not has_toral_slice(m):
        _emit(cfg, {"module": str(m), "toral_slice": False, "bad": False})
        return EXIT_NO
    cert = bad_toral_slice(m, cfg.limits)
    payload: dict = {"module": str(m), "toral_slice": True, "bad": cert is not None}
    if cert is not None:
        payload["certificate"] = {
            "kind": cert.kind,
            "weights": [list(w) for w in cert.weights],
            "coeffs": list(cert.coeffs),
        }
    _emit(cfg, payload)
    return EXIT_OK if cert is not None else EXIT_NO


def cmd_components(cfg: Config, args: argparse.Namespace) -> int:
    g = parse_group(args.group)
    m = parse_module(g, args.module)
    sets = maximal_sets(admissible_sets(m, limits=cfg.limits))
    payload = {
        "module": str(m),
        "candidates": [
            {
                "weights": [list(w) for w in a.weights],
                "dimension": a.dimension(),
                "status": a.status,
                "cocharacter": [str(v) for v in a.defining.values],
            }
            for a in sets
        ],
    }
    _emit(cfg, payload)
    return EXIT_OK


def cmd_covariant_vanish(cfg: Config, args: argparse.Namespace) -> int:
    g = parse_group(args.group)
    m = parse_module(g, args.module)
    target = parse_weight(g, args.target).to_dynkin().coords
    sets = maximal_sets(admissible_sets(m, limits=cfg.limits))
    results = []
    all_vanish = True
    for a in sets:
        ok = covariant_vanishes(a, target, args.degree, args.all_degrees, cfg.limits)
        all_vanish = all_vanish and ok
        results.append({"dimension": a.dimension(), "vanishes": ok})
    _emit(
        cfg,
        {
            "module": str(m),
            "target": list(target),
            "degree": args.degree,
            "vanishes_on_all": all_vanish,
            "per_component": results,
        },
    )
    return EXIT_OK if all_vanish else EXIT_NO


def cmd_support_rank(cfg: Config, args: argparse.Namespace) -> int:
    g = parse_group(args.group)
    m = parse_module(g, args.module)
    support = []
    for item in args.support:
        w_text, _, copy_text = item.rpartition(":")
        if not w_text:
            raise RootSystemError(f"support entries look like [w]:copy, got {item!r}")
        w = parse_weight(g, w_text).to_dynkin().coords
        support.append((w, int(copy_text)))
    bound, stats = support_orbit_dim_bound(m, support)
    _emit(cfg, {"module": str(m), "bound": bound, "stats": stats})
    return EXIT_OK


def cmd_classify(cfg: Config, args: argparse.Namespace) -> int:
    g = parse_group(args.group)
    m = parse_module(g, args.module)
    verdict = cls.classify_module(m, cfg.limits)
    _emit(cfg, cls.emit_report([verdict]))
    return EXIT_OK if verdict.coreduced in (cls.YES, cls.YES_PAPER) else EXIT_NO


# ---------------------------------------------------------------------------
# verify-paper suites


Check = tuple[str, Callable[[Config], dict]]


def _check(name: str, ok: bool, **detail) -> dict:
    return {"name": name, "ok": bool(ok), **detail}


def _suite_torus(cfg: Config) -> list[dict]:
    out = []
    v1 = is_torus_coreduced([(5,), (-5,)], cfg.limits)
    out.append(_check("plus-minus-k coreduced", v1.coreduced))
    ws = [(4,), (-4,), (6,), (-6,)]
    v2 = is_torus_coreduced(ws, cfg.limits)
    gen, _ = torus_violating_generator(ws, cfg.limits)
    out.append(
        _check(
            "4,-4,6,-6 coefficient-3 generator",
            not v2.coreduced and gen is not None and gen.coeffs == (3, 0, 0, 2),
        )
    )
    return out


def _suite_sl2(cfg: Config) -> list[dict]:
    out = []
    for parts, want in [
        ((2,), cls.YES),
        ((3,), cls.YES),
        ((4,), cls.YES),
        ((1, 1, 1, 1), cls.YES),
    ]:
        v = cls.classify_sl2(parts, cfg.limits)
        out.append(_check(f"binary forms {parts} yes", v.coreduced == want))
    v = cls.classify_sl2((2, 2), cfg.limits)
    screen = v.certificates[0]
    out.append(
        _check(
            "two quadratics rank screen",
            v.coreduced == cls.NO and screen.rank_bound == 2 and screen.codim == 3,
        )
    )
    v = cls.classify_sl2((6,), cfg.limits)
    ws = {w[0] for w in v.certificates[0].weights}
    out.append(
        _check(
            "sextic bad slice on ±4, ±6",
            v.coreduced == cls.NO and ws <= {4, -4, 6, -6},
        )
    )
    g = parse_group("A1xA1")
    m = ModuleSpec(g, ((3, (1, 1)),))
    cert = covariant_generator_exists(m, (1, 1), 3, cfg.limits)
    out.append(
        _check(
            "three 4-dim orthogonal modules: 19 > 18",
            cert.exists and cert.multiplicity == 19 and cert.ideal_bound == 18,
        )
    )
    return out


def _suite_exceptional(cfg: Config) -> list[dict]:
    out = []
    f4 = parse_group("F4")
    chi4 = weight_diagram(f4, (0, 0, 0, 1))
    out.append(
        _check(
            "26-dim module facts",
            group_weyl_dim(f4, (0, 0, 0, 1)) == 26
            and zero_weight_multiplicity(f4, (0, 0, 0, 1)) == 2
            and sum(chi4.nonzero_weights().values()) == 24,
        )
    )
    for hw, thresh in [
        ((0, 1, 0, 0), 2),
        ((0, 0, 1, 0), 2),
        ((2, 0, 0, 0), 3),
        ((1, 0, 0, 1), 3),
        ((0, 0, 0, 2), 3),
    ]:
        mult, _ = min_root_multiplicity(ModuleSpec(f4, ((1, hw),)))
        out.append(_check(f"F4 root multiplicity {hw} >= {thresh}", mult >= thresh))
    rows = [
        ("G2", "[0,1]", cls.YES),
        ("G2", "2*[1,0]", cls.YES_PAPER),
        ("G2", "3*[1,0]", cls.NO),
        ("F4", "[1,0,0,0]", cls.YES),
        ("F4", "2*[0,0,0,1]", cls.YES),
        ("F4", "3*[0,0,0,1]", cls.NO),
        ("F4", "[1,0,0,0]+[0,0,0,1]", cls.NO),
    ]
    for gs, ms, want in rows:
        g = parse_group(gs)
        v = cls.classify_adjoint_exceptional(g, parse_module(g, ms), cfg.limits)
        out.append(_check(f"{gs} {ms} -> {want}", v.coreduced == want))
    return out


def _suite_classical(cfg: Config) -> list[dict]:
    rows = [
        ("A2", "[1,1]", cls.YES),
        ("A2", "[3,0]", cls.YES_PAPER),
        ("A3", "[0,2,0]", cls.YES_PAPER),
        ("A2", "[6,0]", cls.NO),
        ("A3", "[4,0,0]", cls.NO),
        ("B3", "[2,0,0]", cls.YES_PAPER),
        ("B3", "3*[1,0,0]", cls.YES_PAPER),
        ("B3", "4*[1,0,0]", cls.NO_PAPER),
        ("B3", "[0,0,2]", cls.NO),
        ("B3", "[1,1,0]", cls.NO),
        ("B3", "[3,0,0]", cls.NO),
        ("C3", "[0,1,0]", cls.YES_PAPER),
        ("C3", "[2,0,0]", cls.YES),
        ("C4", "[0,0,0,1]", cls.YES_PAPER),
        ("C3", "[1,0,1]", cls.NO),
        ("D4", "[0,1,0,0]", cls.YES),
        ("D4", "[2,0,0,0]", cls.YES_PAPER),
        ("D4", "[0,0,2,0]", cls.YES_PAPER),
        ("D4", "[0,0,0,2]", cls.YES_PAPER),
    ]
    out = []
    for gs, ms, want in rows:
        g = parse_group(gs)
        v = cls.classify_adjoint_classical(g, parse_module(g, ms), cfg.limits)
        out.append(_check(f"{gs} {ms} -> {want}", v.coreduced == want))
    return out


def _suite_semisimple(cfg: Config) -> list[dict]:
    rows = [
        ("B2xB3", "[1,0,1,0,0]", cls.YES_PAPER),
        ("A1xG2", "[2,1,0]", cls.YES_PAPER),
        ("A1xA1", "[2,2]", cls.YES_PAPER),
        ("B2xG2", "[1,0,1,0]", cls.NO),
        ("B2xB2xB2", "[1,0,1,0,1,0]", cls.NO),
        ("A1xA1xA1", "[2,2,2]", cls.NO),
        ("A2xA2", "[1,1,1,1]", cls.NO),
    ]
    out = []
    for gs, ms, want in rows:
        g = parse_group(gs)
        v = cls.classify_semisimple_irreducible(parse_module(g, ms), cfg.limits)
        out.append(_check(f"{gs} {ms} -> {want}", v.coreduced == want))
    return out


def _suite_sl3(cfg: Config) -> list[dict]:
    out = []
    yes = ["[1,0]", "[2,0]", "[3,0]", "[0,1]", "[0,2]", "[0,3]", "[1,1]"]
    g = parse_group("A2")
    for ms in yes:
        v = cls.classify_sl3(parse_module(g, ms), cfg.limits)
        out.append(
            _check(f"irreducible {ms} yes", v.coreduced in (cls.YES, cls.YES_PAPER))
        )
    ratios = sl3_critical_ratios(ModuleSpec(g, ((1, (3, 1)),)))
    from fractions import Fraction as F

    out.append(
        _check(
            "critical ratios of the 24-dim module",
            ratios == {F(1, 4), F(2, 5), F(1), F(5, 2), F(4)},
        )
    )
    v = cls.classify_sl3(parse_module(g, "[3,1]"), cfg.limits)
    cert = v.certificates[0]
    out.append(
        _check(
            "degree-8 generating covariant",
            v.coreduced == cls.NO and cert.degree == 8 and cert.multiplicity == 44,
        )
    )
    for ms, want in [
        ("2*[1,0]", (cls.YES, cls.YES_PAPER)),
        ("[1,0]+[0,1]", (cls.YES, cls.YES_PAPER)),
        ("[2,0]+[0,1]", (cls.YES, cls.YES_PAPER)),
        ("[2,0]+2*[0,1]", (cls.NO,)),
        ("2*[2,0]", (cls.NO,)),
        ("[1,1]+[2,0]", (cls.NO,)),
    ]:
        v = cls.classify_sl3(parse_module(g, ms), cfg.limits)
        out.append(_check(f"reducible {ms}", v.coreduced in want))
    for ms, dual in [("[3,1]", "[1,3]"), ("[2,0]+[0,1]", "[0,2]+[1,0]")]:
        a = cls.classify_sl3(parse_module(g, ms), cfg.limits).coreduced
        b = cls.classify_sl3(parse_module(g, dual), cfg.limits).coreduced
        out.append(_check(f"duality consistency {ms}", a == b))
    return out


def _suite_appendix_a(cfg: Config) -> list[dict]:
    out = []
    bound, stats = f4_two_26_support_bound()
    out.append(
        _check(
            "support bound 44 (45 columns, 34 singletons)",
            bound == 44
            and stats["columns"] == 45
            and stats["singletons_after_column_reduction"] == 34,
        )
    )
    for i, case in enumerate(D4_TRIALITY_CASES):
        out.append(
            _check(
                f"triality case {i}: adjoint target unreachable",
                not d4_adjoint_target_reachable(case, cfg.limits),
            )
        )
    for i in range(len(SL3_PAIR_MODELS)):
        try:
            sl3_pair_validate_model(i)
            out.append(_check(f"model row {i} sign pattern", True))
        except CertificateError:
            out.append(_check(f"model row {i} sign pattern", False))
    vanishes, stats = sl3_pair_differential_vanishes(SL3_PAIR_MODELS[5])
    floors = [f for f in stats["floors"] if f is not None]
    out.append(
        _check(
            "row (8,-3,-5,6,-2,-4): max negative 14, floor 19",
            vanishes and stats["max_negative"] == 14 and min(floors) == 19,
        )
    )
    out.append(
        _check(
            "all eight differentials vanish",
            all(sl3_pair_differential_vanishes(mm)[0] for mm in SL3_PAIR_MODELS),
        )
    )
    return out


def _suite_appendix_b(cfg: Config) -> list[dict]:
    out = []
    sets = g2xg2_model_admissible_sets()
    out.append(
        _check(
            "sixteen 24-dim maximal sets",
            len(sets) == 16 and all(a.dimension() == 24 for a in sets),
        )
    )
    target = (0, 0, 1, 0)
    vanish = all(covariant_vanishes(a, target, 9, False, cfg.limits) for a in sets)
    out.append(_check("degree-9 covariant infeasible on all sixteen", vanish))
    g = sets[0].defining.group
    chi = module_weights(ModuleSpec(g, ((1, (1, 0, 1, 0)),)))
    powers = symmetric_power(chi, 9, cfg.limits)
    mults = [mult_in_character(powers[d], target) for d in range(1, 10)]
    invs = [invariant_dimension(powers[d]) for d in range(1, 10)]
    out.append(
        _check(
            "covariant series degrees 1-9",
            mults == [0, 0, 1, 1, 3, 5, 12, 18, 41],
            got=mults,
        )
    )
    out.append(
        _check(
            "invariant series degrees 1-9",
            invs == [0, 1, 1, 3, 2, 8, 7, 17, 19],
            got=invs,
        )
    )
    bound = sum(invs[9 - e - 1] * mults[e - 1] for e in range(1, 9))
    out.append(_check("ideal bound under 41", bound <= 37 < mults[8], bound=bound))
    a2a2 = parse_group("A2xA2")
    summands = [
        module_weights(ModuleSpec(a2a2, ((1, hw),)))
        for hw in ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))
    ]
    series = graded_invariant_series(summands, (3, 3, 3, 3), cfg.limits)
    out.append(
        _check(
            "multigraded invariant coefficients 4/37/265",
            series[(1, 1, 1, 1)] == 4
            and series[(2, 2, 2, 2)] == 37
            and series[(3, 3, 3, 3)] == 265,
            got=[series[(1, 1, 1, 1)], series[(2, 2, 2, 2)], series[(3, 3, 3, 3)]],
        )
    )
    return out


SUITES: dict[str, Callable[[Config], list[dict]]] = {
    "torus": _suite_torus,
    "sl2": _suite_sl2,
    "exceptional": _suite_exceptional,
    "classical": _suite_classical,
    "semisimple": _suite_semisimple,
    "sl3": _suite_sl3,
    "appendixA": _suite_appendix_a,
    "appendixB": _suite_appendix_b,
}


def cmd_verify_paper(cfg: Config, args: argparse.Namespace) -> int:
    names = [args.suite] if args.suite else sorted(SUITES)
    for n in names:
        if n not in SUITES:
            print(f"unknown suite {n!r}; choose from {sorted(SUITES)}", file=sys.stderr)
            return EXIT_USAGE
    results = {n: SUITES[n](cfg) for n in names}
    all_ok = all(c["ok"] for cs in results.values() for c in cs)
    _emit(cfg, {"suites": results, "ok": all_ok})
    return EXIT_OK if all_ok else EXIT_NO


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subcommand from clobbering a global flag that was
    # given before the subcommand name
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", choices=["json", "text"], default=argparse.SUPPRESS
    )
    common.add_argument("--limit-states", type=int, default=argparse.SUPPRESS)
    p = argparse.ArgumentParser(
        prog="coreduce",
        description="Certificates for null-cone reducedness questions.",
        parents=[common],
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, parents=[common])

    s = add("rootsys", "root-system facts for a group")
    s.add_argument("group")
    s.set_defaults(func=cmd_rootsys)

    s = add("weights", "weight facts for a module")
    s.add_argument("group")
    s.add_argument("module")
    s.set_defaults(func=cmd_weights)

    s = add("torus-check", "0/1-relation criterion for torus weights")
    s.add_argument("--weights", required=True)
    s.set_defaults(func=cmd_torus_check)

    s = add("hilbert-basis", "indecomposable relations among weights")
    s.add_argument("--weights", required=True)
    s.set_defaults(func=cmd_hilbert_basis)

    s = add("bad-slice", "bad toral slice search")
    s.add_argument("group")
    s.add_argument("module")
    s.set_defaults(func=cmd_bad_slice)

    s = add("components", "candidate null-cone components")
    s.add_argument("group")
    s.add_argument("module")
    s.set_defaults(func=cmd_components)

    s = add("covariant-vanish", "degree-d covariant vanishing check")
    s.add_argument("group")
    s.add_argument("module")
    s.add_argument("--target", required=True)
    s.add_argument("--degree", type=int, required=True)
    s.add_argument("--all-degrees", action="store_true")
    s.set_defaults(func=cmd_covariant_vanish)

    s = add("support-rank", "orbit-dimension lower bound from support")
    s.add_argument("group")
    s.add_argument("module")
    s.add_argument("--support", action="append", required=True, metavar="WEIGHT:COPY")
    s.set_defaults(func=cmd_support_rank)

    s = add("classify", "verdict for a module")
    s.add_argument("group")
    s.add_argument("module")
    s.set_defaults(func=cmd_classify)

    s = add("verify-paper", "reproduce the recorded computations")
    s.add_argument("--suite", default=None)
    s.set_defaults(func=cmd_verify_paper)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        cfg = _config_from(args)
        return args.func(cfg, args)
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (RootSystemError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
