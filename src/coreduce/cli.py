"""Command-line front end.

Exit codes: 0 success / boolean yes; 1 boolean no; 2 usage error; 3 an
engine's resource cap was hit (the caps are fixed module constants).  Output
is JSON (sorted keys, versioned with a ``schema`` field) or a plain-text
table.  Weight and module grammar lives in :mod:`rootsys` /
:mod:`repthy`; the CLI only splits flag values.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional, Sequence

from .config import CertificateError, ResourceLimitError
from .monoid import hilbert_basis, is_torus_coreduced
from .nullcone import (
    G2XG2_DEGREE,
    G2XG2_TARGET,
    admissible_sets,
    covariant_vanishes,
    d4_adjoint_target_reachable,
    d4_triality_module,
    f4_two_26_support_bound,
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
    min_root_multiplicity,
    parse_module,
    weight_counts,
    weyl_dim,
    ModuleSpec,
)
from .rootsys import (
    GroupSpec,
    RootSystemError,
    parse_group,
    parse_weight,
)
from .slices import bad_toral_slice, toral_slice
from . import classify as cls, paper

SCHEMA = 1

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class Config(NamedTuple):
    output: str = "json"


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


def _weight_int(x: str) -> int:
    try:
        return int(x)
    except ValueError:
        raise ValueError(f"--weights takes integers, got {x!r}") from None


def _parse_vectors(text: str) -> list[tuple[int, ...]]:
    out = []
    for part in text.strip().split(";"):
        part = part.strip()
        if not part:
            continue
        if part.startswith("(") and part.endswith(")"):
            part = part[1:-1]
        coords = tuple(_weight_int(x) for x in part.split(","))
        out.append(coords)
    if len({len(v) for v in out}) > 1:
        raise ValueError("weight vectors must share a dimension")
    return out


def _parse_scalar_or_vectors(text: str) -> list[tuple[int, ...]]:
    if not text.strip():
        raise ValueError("--weights is empty; give weights like 4,-4,6,-6 or (1,0);(0,1)")
    if ";" in text or "(" in text:
        return _parse_vectors(text)
    return [(_weight_int(x),) for x in text.replace(" ", "").split(",")]


# ---------------------------------------------------------------------------
# Subcommands


def _module(args: argparse.Namespace) -> ModuleSpec:
    return parse_module(parse_group(args.group), args.module)


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
    m = _module(args)
    zero, nonzero = weight_counts(m)
    payload = {
        "group": str(m.group),
        "module": str(m),
        "dimension": m.dimension(),
        "zero_multiplicity": zero,
        "nonzero_weight_count": nonzero,
        "min_root_multiplicity": min_root_multiplicity(m)[0],
    }
    _emit(cfg, payload)
    return EXIT_OK


def torus_violating_generator(ws: Sequence[tuple[int, ...]]):
    """Deterministic choice among the Hilbert-basis generators with a
    coefficient >= 2: the lexicographically greatest coefficient vector, or
    None when the weights are coreduced; and the nonzero weights."""
    nz = tuple(w for w in ws if any(x != 0 for x in w))
    bad = [g for g in hilbert_basis(nz) if max(g.coeffs) >= 2]
    return (max(bad, key=lambda g: g.coeffs), nz) if bad else (None, nz)


def cmd_torus_check(cfg: Config, args: argparse.Namespace) -> int:
    ws = _parse_scalar_or_vectors(args.weights)
    gen, nz = torus_violating_generator(ws)
    payload: dict = {"weights": [list(w) for w in ws], "coreduced": gen is None}
    if gen is not None:
        payload["certificate"] = {
            "coeffs": list(gen.coeffs),
            "weights": [list(w) for w in nz],
        }
    _emit(cfg, payload)
    return EXIT_OK if gen is None else EXIT_NO


def cmd_hilbert_basis(cfg: Config, args: argparse.Namespace) -> int:
    ws = _parse_scalar_or_vectors(args.weights)
    payload = {
        "weights": [list(w) for w in ws],
        "generators": [list(gen.coeffs) for gen in hilbert_basis(ws)],
    }
    _emit(cfg, payload)
    return EXIT_OK


def cmd_bad_slice(cfg: Config, args: argparse.Namespace) -> int:
    m = _module(args)
    if toral_slice(m) is None:
        _emit(cfg, {"module": str(m), "toral_slice": False, "bad": False})
        return EXIT_NO
    cert = bad_toral_slice(m)
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
    m = _module(args)
    sets = maximal_sets(admissible_sets(m))
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
    m = _module(args)
    target = parse_weight(m.group, args.target)
    sets = maximal_sets(admissible_sets(m))
    results = []
    all_vanish = True
    for a in sets:
        ok = covariant_vanishes(a, target, args.degree, args.all_degrees)
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
    m = _module(args)
    copies = sum(c for c, _ in m.summands)
    support = []
    for item in args.support:
        w_text, _, copy_text = item.rpartition(":")
        if not w_text:
            raise RootSystemError(f"support entries look like [w]:copy, got {item!r}")
        w = parse_weight(m.group, w_text)
        try:
            copy = int(copy_text)
        except ValueError:
            raise RootSystemError(f"support copy of {item!r} is not an integer") from None
        if not 0 <= copy < copies:
            raise ValueError(
                f"support copy {copy} of {item!r} is outside the copy range 0..{copies - 1}"
            )
        support.append((w, copy))
    bound, stats = support_orbit_dim_bound(m, support)
    _emit(cfg, {"module": str(m), "bound": bound, "stats": stats})
    return EXIT_OK


def cmd_classify(cfg: Config, args: argparse.Namespace) -> int:
    m = _module(args)
    verdict = cls.classify_module(m)
    _emit(cfg, cls.emit_report([verdict]))
    return EXIT_OK if verdict.coreduced in (cls.YES, cls.YES_PAPER) else EXIT_NO


# ---------------------------------------------------------------------------
# verify-paper suites: each recomputes recorded facts from coreduce.paper


def _check(name: str, ok: bool, **detail) -> dict:
    return {"name": name, "ok": bool(ok), **detail}


def _verdict_rows(
    driver: Callable[[GroupSpec, ModuleSpec], cls.Verdict],
    rows: Sequence[tuple[str, str, str]],
) -> list[dict]:
    """One check per recorded (group, module, verdict) row of a driver's table."""
    out = []
    for gs, ms, want in rows:
        g = parse_group(gs)
        v = driver(g, parse_module(g, ms))
        out.append(_check(f"{gs} {ms} -> {want}", v.coreduced == want))
    return out


def _suite_torus() -> list[dict]:
    k = paper.TORUS_PLUS_MINUS
    v1 = is_torus_coreduced([(x,) for x in k])
    gen, _ = torus_violating_generator([(x,) for x in paper.TORUS_FOUR_SIX])
    want = paper.TORUS_FOUR_SIX_GENERATOR
    return [
        _check("plus-minus-k coreduced", v1.coreduced),
        _check(
            f"{','.join(map(str, paper.TORUS_FOUR_SIX))} coefficient-{max(want)} generator",
            gen is not None and gen.coeffs == want,
        ),
    ]


def _suite_sl2() -> list[dict]:
    out = []
    for parts in paper.SL2_YES:
        v = cls.classify_sl2(parts)
        out.append(_check(f"binary forms {parts} yes", v.coreduced == cls.YES))
    v = cls.classify_sl2(paper.SL2_TWO_QUADRATICS)
    screen = v.certificates[0]
    out.append(
        _check(
            "two quadratics rank screen",
            v.coreduced == cls.NO
            and screen.rank_bound == paper.SL2_TWO_QUADRATICS_RANK
            and screen.codim == paper.SL2_TWO_QUADRATICS_CODIM,
        )
    )
    v = cls.classify_sl2(paper.SL2_SEXTIC)
    ws = {w[0] for w in v.certificates[0].weights}
    out.append(
        _check(
            "sextic bad slice on " + ", ".join(f"±{x}" for x in paper.TORUS_FOUR_SIX if x > 0),
            v.coreduced == cls.NO and ws <= set(paper.TORUS_FOUR_SIX),
        )
    )
    m = parse_module(parse_group(paper.SO4_GROUP), paper.SO4_MODULE)
    cert = covariant_generator_exists(m, paper.SO4_TARGET, paper.SO4_DEGREE)
    mult, bound = paper.SO4_MULTIPLICITY, paper.SO4_IDEAL_BOUND
    out.append(
        _check(
            f"three 4-dim orthogonal modules: {mult} > {bound}",
            cert.exists and cert.multiplicity == mult and cert.ideal_bound == bound,
        )
    )
    return out


def _suite_exceptional() -> list[dict]:
    f4 = parse_group("F4")
    hw = paper.F4_26
    zero, nonzero = weight_counts(ModuleSpec(f4, ((1, hw),)))
    out = [
        _check(
            f"{paper.F4_26_DIM}-dim module facts",
            weyl_dim(f4, hw) == paper.F4_26_DIM
            and zero == paper.F4_26_ZERO_MULTIPLICITY
            and nonzero == paper.F4_26_NONZERO_WEIGHTS,
        )
    ]
    for hw, thresh in paper.F4_ROOT_MULTIPLICITY:
        mult, _ = min_root_multiplicity(ModuleSpec(f4, ((1, hw),)))
        out.append(_check(f"F4 root multiplicity {hw} >= {thresh}", mult >= thresh))
    return out + _verdict_rows(cls.classify_adjoint_exceptional, paper.EXCEPTIONAL)


def _suite_sl3() -> list[dict]:
    g = parse_group("A2")

    def verdict(ms: str) -> cls.Verdict:
        return cls.classify_sl3(parse_module(g, ms))

    out = [
        _check(f"irreducible {ms} yes", verdict(ms).coreduced == want)
        for _, ms, want in paper.SL3_IRREDUCIBLE
    ]
    v31 = parse_module(g, paper.SL3_V31)
    out.append(
        _check(
            "critical ratios of the 24-dim module",
            sl3_critical_ratios(v31) == paper.SL3_V31_RATIOS,
        )
    )
    v = cls.classify_sl3(v31)
    cert = v.certificates[0]
    degree = paper.SL3_V31_COVARIANT_DEGREE
    out.append(
        _check(
            f"degree-{degree} generating covariant",
            v.coreduced == cls.NO
            and cert.degree == degree
            and cert.multiplicity == paper.SL3_V31_COVARIANT_MULTIPLICITY,
        )
    )
    out += [
        _check(f"reducible {ms}", verdict(ms).coreduced == want)
        for _, ms, want in paper.SL3_REDUCIBLE
    ]
    out += [
        _check(f"duality consistency {ms}", verdict(ms).coreduced == verdict(dual).coreduced)
        for ms, dual in paper.SL3_DUALS
    ]
    return out


def _suite_appendix_a() -> list[dict]:
    bound, stats = f4_two_26_support_bound()
    columns, singletons = paper.F4_SUPPORT_COLUMNS, paper.F4_SUPPORT_SINGLETONS
    out = [
        _check(
            f"support bound {paper.F4_SUPPORT_BOUND} ({columns} columns, {singletons} singletons)",
            bound == paper.F4_SUPPORT_BOUND
            and stats["columns"] == columns
            and stats["singletons_after_column_reduction"] == singletons,
        )
    ]
    for i, a in enumerate(maximal_sets(admissible_sets(d4_triality_module()))):
        out.append(
            _check(
                f"triality case {i}: adjoint target unreachable",
                not d4_adjoint_target_reachable(a),
            )
        )
    for i in range(len(SL3_PAIR_MODELS)):
        try:
            sl3_pair_validate_model(i)
            out.append(_check(f"model row {i} sign pattern", True))
        except CertificateError:
            out.append(_check(f"model row {i} sign pattern", False))
    model = paper.SL3_PAIR_ROW_MODEL
    vanishes, stats = sl3_pair_differential_vanishes(model)
    floors = [f for f in stats["floors"] if f is not None]
    max_negative, floor = paper.SL3_PAIR_ROW_MAX_NEGATIVE, paper.SL3_PAIR_ROW_FLOOR
    out.append(
        _check(
            f"row ({','.join(map(str, model))}): max negative {max_negative}, floor {floor}",
            SL3_PAIR_MODELS[paper.SL3_PAIR_ROW] == model
            and vanishes
            and stats["max_negative"] == max_negative
            and min(floors) == floor,
        )
    )
    out.append(
        _check(
            "all eight differentials vanish",
            all(sl3_pair_differential_vanishes(mm)[0] for mm in SL3_PAIR_MODELS),
        )
    )
    return out


def _suite_appendix_b() -> list[dict]:
    m = parse_module(parse_group(paper.G2XG2_GROUP), paper.G2XG2_MODULE)
    sets = maximal_sets(admissible_sets(m))
    out = [
        _check(
            f"sixteen {paper.G2XG2_SET_DIM}-dim maximal sets",
            len(sets) == paper.G2XG2_MAXIMAL_SETS
            and all(a.dimension() == paper.G2XG2_SET_DIM for a in sets),
        ),
        _check(
            "degree-9 covariant infeasible on all sixteen",
            all(covariant_vanishes(a, G2XG2_TARGET, G2XG2_DEGREE) for a in sets),
        ),
    ]
    cert = covariant_generator_exists(m, G2XG2_TARGET, G2XG2_DEGREE)
    mults = list(cert.per_degree_mults)
    invs = list(cert.per_degree_invariants)
    out.append(
        _check(
            f"covariant series degrees 1-{cert.degree}",
            mults == list(paper.G2XG2_COVARIANT_SERIES),
            got=mults,
        )
    )
    out.append(
        _check(
            f"invariant series degrees 1-{cert.degree}",
            invs == list(paper.G2XG2_INVARIANT_SERIES),
            got=invs,
        )
    )
    bound = cert.ideal_bound
    out.append(
        _check(
            f"ideal bound under {paper.G2XG2_COVARIANT_SERIES[-1]}",
            bound <= paper.G2XG2_IDEAL_BOUND < cert.multiplicity,
            bound=bound,
        )
    )
    a2a2 = parse_group("A2xA2")
    summands = [ModuleSpec(a2a2, ((1, hw),)).weights for hw in paper.A2XA2_SUMMANDS]
    want = paper.A2XA2_INVARIANTS
    series = graded_invariant_series(summands, want)
    got = [series[d] for d in want]
    out.append(
        _check(
            f"multigraded invariant coefficients {'/'.join(map(str, want.values()))}",
            got == list(want.values()),
            got=got,
        )
    )
    return out


SUITES: dict[str, Callable[[], list[dict]]] = {
    "torus": _suite_torus,
    "sl2": _suite_sl2,
    "exceptional": _suite_exceptional,
    "classical": partial(_verdict_rows, cls.classify_adjoint_classical, paper.CLASSICAL),
    "semisimple": partial(
        _verdict_rows,
        lambda g, m: cls.classify_semisimple_irreducible(m),
        paper.SEMISIMPLE,
    ),
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
    results = {n: SUITES[n]() for n in names}
    all_ok = all(c["ok"] for cs in results.values() for c in cs)
    _emit(cfg, {"suites": results, "ok": all_ok})
    return EXIT_OK if all_ok else EXIT_NO


# ---------------------------------------------------------------------------
# Entry point


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later
    one: parsing makes a fresh namespace each time and leaves the parser as
    it was.  Subcommand ``x-y`` runs ``cmd_x_y``, looked up at dispatch time
    (see :func:`main`)."""
    # SUPPRESS keeps a subcommand from clobbering a global flag that was
    # given before the subcommand name
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", choices=["json", "text"], default=argparse.SUPPRESS
    )
    p = argparse.ArgumentParser(
        prog="coreduce",
        description="Certificates for null-cone reducedness questions.",
        parents=[common],
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *positionals: str) -> argparse.ArgumentParser:
        s = sub.add_parser(name, help=help_text, parents=[common])
        for arg in positionals:
            s.add_argument(arg)
        return s

    add("rootsys", "root-system facts for a group", "group")
    add("weights", "weight facts for a module", "group", "module")
    s = add("torus-check", "0/1-relation criterion for torus weights")
    s.add_argument("--weights", required=True)
    s = add("hilbert-basis", "indecomposable relations among weights")
    s.add_argument("--weights", required=True)
    add("bad-slice", "bad toral slice search", "group", "module")
    add("components", "candidate null-cone components", "group", "module")
    s = add("covariant-vanish", "degree-d covariant vanishing check", "group", "module")
    s.add_argument("--target", required=True)
    s.add_argument("--degree", type=int, required=True)
    s.add_argument("--all-degrees", action="store_true")
    s = add("support-rank", "orbit-dimension lower bound from support", "group", "module")
    s.add_argument("--support", action="append", required=True, metavar="WEIGHT:COPY")
    add("classify", "verdict for a module", "group", "module")
    s = add("verify-paper", "reproduce the recorded computations")
    s.add_argument("--suite", default=None)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    # looked up by name on every call, so that a handler replaced after the
    # parser was built (a test double, a tracing wrapper) is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    cfg = Config(getattr(args, "output", "json"))
    try:
        return handler(cfg, args)
    except ResourceLimitError as e:
        if cfg.output == "json":
            fields = {"engine": e.engine, "cap": e.cap, "limit": e.limit, "count": e.count}
            print(json.dumps({**fields, "message": str(e)}, sort_keys=True), file=sys.stderr)
        else:
            print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        if cfg.output == "json":
            print(json.dumps({"message": "out of memory"}), file=sys.stderr)
        else:
            print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except (RootSystemError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
