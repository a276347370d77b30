"""Command-line front end.

Exit codes: 0 success / boolean yes; 1 boolean no; 2 usage error; 3 an
engine's resource cap was hit (the caps are fixed module constants).  Output
is JSON (sorted keys, versioned with a ``schema`` field).  Weight and module
grammar lives in :mod:`rootsys` / :mod:`repthy`; the CLI only splits flag
values.  Each ``cmd_*`` handler returns its payload and exit code, and
:func:`main` alone prints.

The subcommands and their arguments are written once, in :data:`COMMANDS`.
A well-formed request is read off that table without ``argparse``;
``argparse``'s parser, built from the same table, parses the rest and prints
help and usage errors (see :func:`parse_args`).
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
    components,
    covariant_vanishes,
    d4_adjoint_target_reachable,
    d4_triality_module,
    f4_two_26_support_bound,
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
from .rootsys import RootSystemError, parse_group, parse_weight
from .slices import bad_toral_slice, has_toral_slice
from . import classify as cls, paper

SCHEMA = 2

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


# ``json.dumps`` with keyword arguments builds an encoder on every call
_ENCODER = json.JSONEncoder(sort_keys=True)


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
    if ";" in text or "(" in text:
        ws = _parse_vectors(text)
    elif text.strip():
        ws = [(_weight_int(x),) for x in text.replace(" ", "").split(",")]
    else:
        ws = []
    if not ws:
        raise ValueError("--weights is empty; give weights like 4,-4,6,-6 or (1,0);(0,1)")
    return ws


# ---------------------------------------------------------------------------
# Subcommands


def _module(args: argparse.Namespace) -> ModuleSpec:
    return parse_module(parse_group(args.group), args.module)


def cmd_rootsys(args: argparse.Namespace) -> tuple[dict, int]:
    g = parse_group(args.group)
    payload = {
        "group": str(g),
        "rank": g.rank,
        "weyl_order": g.weyl_order,
        "positive_roots": g.num_positive_roots,
        "simple_factors": [str(t) for t in g.simple_factors],
    }
    return payload, EXIT_OK


def cmd_weights(args: argparse.Namespace) -> tuple[dict, int]:
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
    return payload, EXIT_OK


def cmd_torus_check(args: argparse.Namespace) -> tuple[dict, int]:
    ws = _parse_scalar_or_vectors(args.weights)
    verdict = is_torus_coreduced(ws)
    payload: dict = {"weights": [list(w) for w in ws], "coreduced": verdict.coreduced}
    if not verdict.coreduced:
        payload["certificate"] = {
            "coeffs": list(verdict.certificate.coeffs),
            "weights": [list(w) for w in verdict.weights],
        }
    return payload, EXIT_OK if verdict.coreduced else EXIT_NO


def cmd_hilbert_basis(args: argparse.Namespace) -> tuple[dict, int]:
    ws = _parse_scalar_or_vectors(args.weights)
    payload = {
        "weights": [list(w) for w in ws],
        "generators": [list(gen.coeffs) for gen in hilbert_basis(ws)],
    }
    return payload, EXIT_OK


def cmd_bad_slice(args: argparse.Namespace) -> tuple[dict, int]:
    m = _module(args)
    if not has_toral_slice(m):
        return {"module": str(m), "toral_slice": False, "bad": False}, EXIT_NO
    cert = bad_toral_slice(m)
    payload: dict = {"module": str(m), "toral_slice": True, "bad": cert is not None}
    if cert is not None:
        payload["certificate"] = cls.certificate_json(cert)
    return payload, EXIT_OK if cert is not None else EXIT_NO


def cmd_components(args: argparse.Namespace) -> tuple[dict, int]:
    m = _module(args)
    sets = components(m)
    payload = {
        "module": str(m),
        "candidates": [
            {
                "weights": [list(w) for w in a.weights],
                "dimension": a.dimension(),
                "cocharacter": list(a.defining.values),
            }
            for a in sets
        ],
    }
    return payload, EXIT_OK


def cmd_covariant_vanish(args: argparse.Namespace) -> tuple[dict, int]:
    m = _module(args)
    target = parse_weight(m.group, args.target)
    sets = components(m)
    results = []
    all_vanish = True
    for a in sets:
        ok = covariant_vanishes(a, target, args.degree)
        all_vanish = all_vanish and ok
        results.append({"dimension": a.dimension(), "vanishes": ok})
    payload = {
        "module": str(m),
        "target": list(target),
        "degree": args.degree,
        "vanishes_on_all": all_vanish,
        "per_component": results,
    }
    return payload, EXIT_OK if all_vanish else EXIT_NO


def cmd_support_rank(args: argparse.Namespace) -> tuple[dict, int]:
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
    return {"module": str(m), "bound": bound, "stats": stats}, EXIT_OK


def cmd_classify(args: argparse.Namespace) -> tuple[dict, int]:
    m = _module(args)
    verdict = cls.classify_module(m)
    code = EXIT_OK if verdict.coreduced in (cls.YES, cls.YES_PAPER) else EXIT_NO
    return cls.emit_report(verdict), code


# ---------------------------------------------------------------------------
# verify-paper suites: each recomputes recorded facts from coreduce.paper


def _check(name: str, ok: bool, **detail) -> dict:
    return {"name": name, "ok": bool(ok), **detail}


def _verdict_rows(rows: Sequence[tuple[str, str, str]]) -> list[dict]:
    """One check per recorded (group, module, verdict) row, each answered by
    :func:`classify.classify_module`."""
    out = []
    for gs, ms, want in rows:
        v = cls.classify_module(parse_module(parse_group(gs), ms))
        out.append(_check(f"{gs} {ms} -> {want}", v.coreduced == want))
    return out


def _suite_torus() -> list[dict]:
    v1 = is_torus_coreduced([(x,) for x in paper.TORUS_PLUS_MINUS])
    # the paper's generator is the greatest with a coefficient >= 2
    basis = hilbert_basis([(x,) for x in paper.TORUS_FOUR_SIX])
    bad = max((g.coeffs for g in basis if max(g.coeffs) >= 2), default=None)
    want = paper.TORUS_FOUR_SIX_GENERATOR
    return [
        _check("plus-minus-k coreduced", v1.coreduced),
        _check(
            f"{','.join(map(str, paper.TORUS_FOUR_SIX))} coefficient-{max(want)} generator",
            bad == want,
        ),
    ]


def _suite_sl2() -> list[dict]:
    out = []
    for parts in paper.SL2_YES:
        v = cls.classify_module(cls.sl2_module(parts))
        out.append(_check(f"binary forms {parts} yes", v.coreduced == cls.YES))
    v = cls.classify_module(cls.sl2_module(paper.SL2_TWO_QUADRATICS))
    screen = v.certificates[0]
    out.append(
        _check(
            "two quadratics rank screen",
            v.coreduced == cls.NO
            and screen.rank_bound == paper.SL2_TWO_QUADRATICS_RANK
            and screen.codim == paper.SL2_TWO_QUADRATICS_CODIM,
        )
    )
    v = cls.classify_module(cls.sl2_module(paper.SL2_SEXTIC))
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
    return out + _verdict_rows(paper.EXCEPTIONAL)


def _suite_sl3() -> list[dict]:
    g = parse_group("A2")

    def verdict(ms: str) -> cls.Verdict:
        return cls.classify_module(parse_module(g, ms))

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
    v = cls.classify_module(v31)
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
    for i, a in enumerate(components(d4_triality_module())):
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
    sets = components(m)
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
    "classical": partial(_verdict_rows, paper.CLASSICAL),
    "semisimple": partial(_verdict_rows, paper.SEMISIMPLE),
    "sl3": _suite_sl3,
    "appendixA": _suite_appendix_a,
    "appendixB": _suite_appendix_b,
}


def cmd_verify_paper(args: argparse.Namespace) -> tuple[dict, int]:
    names = [args.suite] if args.suite else sorted(SUITES)
    results = {n: SUITES[n]() for n in names}
    all_ok = all(c["ok"] for cs in results.values() for c in cs)
    return {"suites": results, "ok": all_ok}, EXIT_OK if all_ok else EXIT_NO


# ---------------------------------------------------------------------------
# Entry point


class Subcommand(NamedTuple):
    """One subcommand: its help line, its positional arguments and each of
    its options with the keywords ``add_argument`` takes for it."""

    help: str
    positionals: tuple[str, ...] = ()
    options: dict[str, dict] = {}


_MODULE = ("group", "module")
_WEIGHTS = {"--weights": {"required": True}}

COMMANDS: dict[str, Subcommand] = {
    "rootsys": Subcommand("root-system facts for a group", ("group",)),
    "weights": Subcommand("weight facts for a module", _MODULE),
    "torus-check": Subcommand("0/1-relation criterion for torus weights", options=_WEIGHTS),
    "hilbert-basis": Subcommand("indecomposable relations among weights", options=_WEIGHTS),
    "bad-slice": Subcommand("bad toral slice search", _MODULE),
    "components": Subcommand("candidate null-cone components", _MODULE),
    "covariant-vanish": Subcommand(
        "degree-d covariant vanishing check",
        _MODULE,
        {
            "--target": {"required": True},
            "--degree": {"type": int, "required": True},
        },
    ),
    "support-rank": Subcommand(
        "orbit-dimension lower bound from support",
        _MODULE,
        {"--support": {"action": "append", "required": True, "metavar": "WEIGHT:COPY"}},
    ),
    "classify": Subcommand("verdict for a module", _MODULE),
    "verify-paper": Subcommand(
        "reproduce the recorded computations",
        options={"--suite": {"choices": tuple(SUITES), "default": None}},
    ),
}
"""The CLI's arguments, written once: :func:`build_parser` builds argparse's
parser from this table and :func:`parse_args` reads a well-formed argv off
it.  Subcommand ``x-y`` runs ``cmd_x_y``, looked up at dispatch time (see
:func:`main`)."""


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of :data:`COMMANDS`, built on the first call and
    reused by every later one: parsing makes a fresh namespace each time and
    leaves the parser as it was."""
    p = argparse.ArgumentParser(
        prog="coreduce", description="Certificates for null-cone reducedness questions."
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        s = sub.add_parser(name, help=command.help)
        for arg in command.positionals:
            s.add_argument(arg)
        for flag, keywords in command.options.items():
            s.add_argument(flag, **keywords)
    return p


def _read(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace argparse gives a well-formed request, read off
    :data:`COMMANDS` in one pass; None for every other shape.

    Well-formed: a subcommand name, then exactly its positionals, and its
    options by their exact names as ``--opt value`` or ``--opt=value``, each
    value of its type and among its choices, every required option given.
    Any other token that starts with ``-`` (``-h``, ``--``, an abbreviation,
    a negative number) and any separate value that starts with ``-`` returns
    None, so argparse parses it and prints its own help or error."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    positionals: list[str] = []
    given: dict[str, object] = {}
    i, n = 1, len(argv)
    while i < n:
        token = argv[i]
        i += 1
        if not token.startswith("-"):
            positionals.append(token)
            continue
        flag, eq, value = token.partition("=")
        keywords = command.options.get(flag)
        if keywords is None:
            return None
        if not eq:
            if i == n or argv[i].startswith("-"):
                return None
            value = argv[i]
            i += 1
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        if keywords.get("action") == "append":
            given.setdefault(flag, []).append(value)
        else:
            given[flag] = value
    if len(positionals) != len(command.positionals):
        return None
    args = argparse.Namespace(command=argv[0], **dict(zip(command.positionals, positionals)))
    for flag, keywords in command.options.items():
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        else:
            value = keywords.get("default")
        setattr(args, _dest(flag), value)
    return args


def _dest(flag: str) -> str:
    """The namespace attribute argparse gives an option: ``--suite`` sets
    ``suite``."""
    return flag[2:].replace("-", "_")


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The namespace of ``build_parser().parse_args(argv)``: a well-formed
    request is read off :data:`COMMANDS` (:func:`_read`), and every other
    argv goes to argparse, which prints its own help and usage errors."""
    args = _read(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one request; ``argv`` defaults to ``sys.argv[1:]`` (parsed by
    :func:`parse_args`).  The handler returns its payload, which is printed
    here, stamped with :data:`SCHEMA`."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    # looked up by name on every call, so that a handler replaced after the
    # parser was built (a test double, a tracing wrapper) is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        payload, code = handler(args)
    except ResourceLimitError as e:
        fields = {"engine": e.engine, "cap": e.cap, "limit": e.limit, "count": e.count}
        print(_ENCODER.encode({**fields, "message": str(e)}), file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print(_ENCODER.encode({"message": "out of memory"}), file=sys.stderr)
        return EXIT_RESOURCE
    except (RootSystemError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(_ENCODER.encode({**payload, "schema": SCHEMA}))
    return code


if __name__ == "__main__":
    sys.exit(main())
