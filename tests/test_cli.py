import ast
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import coreduce
from coreduce import paper
from coreduce.cli import main
from coreduce.repthy import parse_module, weyl_dim
from coreduce.rootsys import parse_group
from coreduce.slices import slice_diagram

from test_classify import CAPPED_SEARCHES, PAST_THE_SCAN

FOUR_SIX = ",".join(map(str, paper.TORUS_FOUR_SIX))


def run_cli(args):
    """Invoke main() in-process, capturing stdout and the exit code."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_rootsys_json():
    code, out = run_cli(["rootsys", "G2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 2
    assert payload["weyl_order"] == 12
    assert payload["positive_roots"] == 6


def test_json_is_byte_identical_across_runs():
    a = run_cli(["classify", "A2", "[2,1]"])
    b = run_cli(["classify", "A2", "[2,1]"])
    assert a == b
    code, out = a
    assert code == 1
    assert list(json.loads(out)) == sorted(json.loads(out))


def test_torus_check_exit_codes_and_certificate():
    code, out = run_cli(["torus-check", "--weights", ",".join(map(str, paper.TORUS_PLUS_MINUS))])
    assert code == 0
    code, out = run_cli(["torus-check", "--weights", FOUR_SIX])
    assert code == 1
    # the torus verdict's certificate, 3*(-4) + 2*6 = 0: the first generator
    # with a coefficient >= 2, where the paper names (3,0,0,2)
    assert json.loads(out)["certificate"]["coeffs"] == [0, 3, 2, 0]


def test_torus_check_runs_one_hilbert_search(monkeypatch):
    # the torus verdict reads one search degree by degree and lists no basis
    from coreduce import monoid

    calls = {"iter_hilbert_basis": 0, "_degrees": 0}

    def counted(name):
        search = getattr(monoid, name)

        def run(*args, **kwargs):
            calls[name] += 1
            return search(*args, **kwargs)

        return run

    for name in calls:
        monkeypatch.setattr(monoid, name, counted(name))
    monoid._torus_verdict.cache_clear()
    code, out = run_cli(["torus-check", "--weights", FOUR_SIX])
    assert code == 1
    assert json.loads(out)["certificate"]["coeffs"] == [0, 3, 2, 0]
    assert calls == {"iter_hilbert_basis": 0, "_degrees": 1}


def test_torus_check_answers_on_the_f4_slice_with_the_classify_certificate():
    # the 24 weights of the toral slice of F4 [1,0,0,0]+[0,0,0,1]: a full
    # listing of the basis stops at HILBERT_COORD_CAP, the torus verdict
    # stops at its first degree with a coefficient >= 2
    from coreduce.slices import weyl_symmetric_list
    from oracles import reference_toral_slice

    g = parse_group("F4")
    m = parse_module(g, "[1,0,0,0]+[0,0,0,1]")
    ws, _ = weyl_symmetric_list(g, reference_toral_slice(m))
    weights = ";".join("(" + ",".join(map(str, w)) + ")" for w in ws)
    code, out = run_cli(["torus-check", f"--weights={weights}"])
    assert code == 1
    cert = json.loads(out)["certificate"]
    support = [(w, c) for w, c in zip(cert["weights"], cert["coeffs"]) if c]
    assert support == [
        ([-1, -1, -1, 0], 1), ([0, -1, -1, 0], 1), ([0, 0, -1, 0], 1), ([0, 0, 0, -1], 2),
        ([1, 2, 3, 2], 1),
    ]
    row = json.loads(run_cli(["classify", "F4", str(m)])[1])["rows"][0]
    (toral,) = row["certificates"]
    assert toral["kind"] == "toral_relation"
    assert list(zip(toral["weights"], toral["coeffs"])) == support


# --weights values by the rule the benchmark draws them by: rank 1, 2-8
# nonzero weights in -6..6; rank 2, 2-6 nonzero weights in -3..3
TORUS_WEIGHTS = st.one_of(
    st.lists(st.integers(-6, 6).filter(bool), min_size=2, max_size=8).map(
        lambda ws: ",".join(map(str, ws))
    ),
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any), min_size=2, max_size=6
    ).map(lambda ws: ";".join(f"({a},{b})" for a, b in ws)),
)


@given(weights=TORUS_WEIGHTS)
@settings(max_examples=150, deadline=None)
def test_torus_check_agrees_with_the_hilbert_basis_listing(weights):
    # torus-check reads the torus verdict and hilbert-basis lists the whole
    # basis: the certificate is the first listed generator with a
    # coefficient >= 2, in (degree, tuple) order
    code, out = run_cli(["torus-check", f"--weights={weights}"])
    verdict = json.loads(out)
    basis = json.loads(run_cli(["hilbert-basis", f"--weights={weights}"])[1])["generators"]
    first = next((g for g in basis if max(g) >= 2), None)
    assert verdict["coreduced"] == (first is None) == (code == 0)
    assert verdict.get("certificate", {}).get("coeffs") == first


def _package_names(skip=()):
    """(module:line, name) for every module or name that an import brings
    in and every name or attribute read, over the package's modules but
    those named in ``skip``."""
    pkg = pathlib.Path(coreduce.__file__).parent
    for path in sorted(pkg.rglob("*.py")):
        if path.stem in skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            yield from ((f"{path.relative_to(pkg)}:{node.lineno}", name) for name in names)


def test_every_top_level_definition_is_read():
    """No dead helpers: every top-level function and class of the package,
    and every method and property of its classes, is read somewhere in it
    outside its own definition.  The ``cmd_*`` handlers are exempt, as
    ``main`` looks them up by name, and so are the dunders, which Python
    calls."""
    pkg = pathlib.Path(coreduce.__file__).parent
    spans = {}
    for path in sorted(pkg.rglob("*.py")):
        body = ast.parse(path.read_text(), str(path)).body
        methods = [n for c in body if isinstance(c, ast.ClassDef) for n in c.body]
        for node in body + methods:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("cmd_")
                and not (node.name.startswith("__") and node.name.endswith("__"))
            ):
                spans.setdefault(node.name, []).append(
                    (str(path.relative_to(pkg)), node.lineno, node.end_lineno)
                )
    read = set()
    for where, name in _package_names():
        path, line = where.rsplit(":", 1)
        if all(path != p or not lo <= int(line) <= hi for p, lo, hi in spans.get(name, ())):
            read.add(name)
    assert sorted(set(spans) - read) == []


def test_every_record_field_is_read():
    """No dead fields: every field of every ``NamedTuple`` record of the
    package is read as an attribute somewhere in it.  Fields are matched by
    name, as the scan above matches definitions."""
    pkg = pathlib.Path(coreduce.__file__).parent
    fields, read = [], set()
    for path in sorted(pkg.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
                for base in node.bases
            ):
                fields += [
                    (f"{path.stem}.{node.name}", item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                ]
    assert fields
    assert [f"{record}.{name}" for record, name in fields if name not in read] == []


# defaulted parameters that package calls need not both pass and leave out
PARAMETER_SCAN_EXEMPT = {
    "cli.main.argv": "the console script calls main() without it, and bench/serve.py "
    "passes argv from outside the package",
}


def test_every_defaulted_parameter_is_passed_and_left_at_its_default():
    """No parameter without a caller: each parameter with a default, of
    every function and method of the package, is passed by at least one
    call in the package and left at its default by at least one, calls
    matched to functions by name.  A parameter that only tests pass is code
    that no request runs; one that every call passes needs no default."""
    pkg = pathlib.Path(coreduce.__file__).parent
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(pkg.rglob("*.py"))}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unpaid = []
    for path, tree in trees.items():
        methods = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for n in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args][id(fn) in methods :]
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for param in defaulted:
                where = f"{path.stem}.{fn.name}.{param}"
                at = positional.index(param) if param in positional else len(positional)
                passed = [
                    at < len(call.args) or any(k.arg == param for k in call.keywords)
                    for call in calls.get(fn.name, ())
                ]
                if where not in PARAMETER_SCAN_EXEMPT and not (any(passed) and not all(passed)):
                    unpaid.append(where)
    assert unpaid == []


# memos of the package that are not keyed on request input, or whose
# entries are bounded by the group types and weights a session names
MEMO_SCAN_EXEMPT = {
    "cli.build_parser": "takes no argument: the one parser of the process",
    "rootsys.build_root_system": "a per-type root-system table",
    "rootsys._root_data": "a per-group root-system table",
    "rootsys._sub_weyl_order": "a per-type root-system table",
    "rootsys._weyl_order": "a per-type root-system table",
    "rootsys._eps_roots": "a per-type root-system table",
    "repthy._root_orbits": "a per-group root-system table",
}


def _package_memos():
    """'module.name' of every function of the package decorated with a
    ``functools.lru_cache``."""
    pkg = pathlib.Path(coreduce.__file__).parent
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.attr if isinstance(target, ast.Attribute) else target.id
                    if name in ("lru_cache", "cache"):
                        yield f"{path.stem}.{node.name}"


def test_every_memo_keyed_on_request_input_is_bounded_and_stores_hashable_values(monkeypatch):
    """Each ``lru_cache`` of the package but those named in
    ``MEMO_SCAN_EXEMPT`` is keyed on request input (specs, text, weight
    lists), so it must have a bound and hand every caller the same immutable
    value: what it returns must hash, which no list, dict or set does, nor a
    tuple holding one.  Each memo is recorded under every name a module of
    the package binds it to, since ``from .x import y`` copies the binding."""
    import importlib
    import pkgutil

    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(coreduce.__path__, "coreduce.")
    ]
    memos = sorted(_package_memos())
    assert set(MEMO_SCAN_EXEMPT) <= set(memos)
    returned = {}
    for memo in memos:
        if memo in MEMO_SCAN_EXEMPT:
            continue
        stem, name = memo.split(".")
        fn = getattr(importlib.import_module(f"coreduce.{stem}"), name)
        assert fn.cache_parameters()["maxsize"] is not None, f"{memo} has no bound"
        returned[memo] = []

        def recorded(*args, _fn=fn, _out=returned[memo], **kwargs):
            value = _fn(*args, **kwargs)
            _out.append(value)
            return value

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, recorded)
    for argv in (
        ["classify", "A2", "[3,1]"],
        ["classify", "A2", "[2,2]"],
        # classify and bad-slice answer A2 "[2,2]" with a violating pair; the
        # coreduced slice of A1 "[4]" runs the search
        ["bad-slice", "A1", "[4]"],
        ["components", "A1xA2", "[1,0,1]"],
        ["hilbert-basis", "--weights", "2,-3,5,-4"],
    ):
        assert run_cli(argv)[0] in (0, 1)
    for memo, values in returned.items():
        assert values, f"no request read {memo}"
        for value in values:
            hash(value)


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    """The records are NamedTuples and short classes, so importing the CLI
    loads neither ``dataclasses`` nor the ``inspect`` it pulls in; a module
    already loaded before the import (say, by a ``.pth`` file) does not
    count."""
    code = (
        "import sys; before = set(sys.modules); import coreduce.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    added = set(out.stdout.split())
    assert "coreduce.cli" in added
    assert added & {"dataclasses", "inspect"} == set()


def test_import_does_not_load_numpy():
    """No module of the package imports numpy, and a cold import of the CLI
    leaves it out of ``sys.modules``."""
    found = [where for where, name in _package_names() if name.split(".")[0] == "numpy"]
    assert found == []
    code = "import sys, coreduce.cli; sys.exit('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stdout + out.stderr


def test_only_rootsys_reads_the_per_type_root_systems():
    """The engines read a group's root data; the per-type builder stays
    inside ``rootsys``."""
    per_type = {"RootSystem", "build_root_system"}
    found = [where for where, name in _package_names(skip=("rootsys",)) if name in per_type]
    assert found == []


def test_cli_import_leaves_numpy_unloaded():
    """The appendixB suite, whose G2xG2 symmetric powers are the largest the
    paper needs, ends without numpy in ``sys.modules``."""
    code = "\n".join([
        "import contextlib, io, sys",
        "from coreduce.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = main(['verify-paper', '--suite', 'appendixB'])",
        "print(code, 'numpy' in sys.modules)",
    ])
    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout) == (0, "0 False\n"), done.stderr


def test_import_builds_no_parser_and_main_builds_it_once():
    """The parser is built neither at import nor for a well-formed request,
    which is read off the subcommand table; the first request that needs
    argparse (here a usage error) builds it, and every later one reuses
    it."""
    code = "\n".join([
        "import argparse, contextlib, io, json",
        "made = []",
        "init = argparse.ArgumentParser.__init__",
        "def counted(self, *args, **kwargs):",
        "    made.append(1)",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counted",
        "import coreduce.cli",
        "counts = [len(made)]",
        "for argv, code in ((['rootsys', 'A1'], 0), (['rootsys'], 2), (['rootsys'], 2)):",
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        "        assert coreduce.cli.main(argv) == code",
        "    counts.append(len(made))",
        "print(json.dumps(counts))",
    ])
    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stdout + out.stderr
    at_import, well_formed, first, second = json.loads(out.stdout)
    assert at_import == 0 and well_formed == 0
    assert first > 0 and second == first


def test_reused_parser_keeps_no_support_entries(monkeypatch):
    from coreduce import cli

    seen = []

    def recorded(m, support):
        seen.append(support)
        return 0, {}

    monkeypatch.setattr(cli, "support_orbit_dim_bound", recorded)
    for weight in ("[0,0,0,1]", "[1,0,0,0]"):
        assert run_cli(["support-rank", "F4", "[0,0,0,1]", "--support", f"{weight}:0"])[0] == 0
    assert seen == [[((0, 0, 0, 1), 0)], [((1, 0, 0, 0), 0)]]


def test_usage_error_leaves_the_parser_usable(capsys):
    assert run_cli(["weights", "A2"])[0] == 2
    code, out = run_cli(["weights", "A2", "[1,1]"])
    assert code == 0 and json.loads(out)["dimension"] == 8


def _parsed(parse, argv):
    """What ``parse(argv)`` returns or exits with, and what it prints."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("namespace", vars(parse(argv)))
        except SystemExit as e:
            result = ("exit", e.code)
    return result, out.getvalue(), err.getvalue()


def _top_level_parse(argv):
    from coreduce.cli import build_parser

    return build_parser().parse_args(argv)


def assert_parses_as_the_top_level_parser(argv):
    """Returns what the top-level parser gives."""
    from coreduce.cli import parse_args

    want = _parsed(_top_level_parse, argv)
    assert _parsed(parse_args, argv) == want
    return want


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["classify", "-h"],
        ["--output", "text", "classify", "A2", "[1,1]"],
        ["classify", "A2", "[1,1]", "extra"],
        ["classify", "--", "A2", "[1,1]"],
        ["classify", "--output", "xml", "A2", "[1,1]"],
        ["classify", "A2", "[1,1]", "--out", "text"],
        ["torus-check"],
        ["torus-check", "--weights"],
        ["covariant-vanish", "A2", "[1,1]", "--target", "[1,1]", "--degree", "x"],
        ["nope", "A2"],
        # the top-level parser refuses "--=" as ambiguous before the subcommand runs
        ["classify", "A2", "--=x"],
        ["covariant-vanish", "A2", "[1,1]", "--target", "[1,1]", "--deg", "2"],
        ["covariant-vanish", "A2", "[1,1]", "--target", "[1,1]", "--degree=-1"],
        ["covariant-vanish", "A2", "[1,1]", "--target", "[1,1]", "--degree", "-1"],
        ["covariant-vanish", "A2", "[1,1]", "--target", "[1,1]", "--degree", "2", "--all-degrees=1"],
        ["covariant-vanish", "A2", "[1,1]", "--degree", "2"],
        ["torus-check", "--weights=-1,2"],
        ["torus-check", "--weights", "-1,2"],
        ["support-rank", "A2", "[1,1]", "--support", "[1,1]:0", "--support", "[1,0]:1"],
        ["classify", "A2", "[1,1]", "--output=text"],
        ["classify", "A2", "[1,1]", "--output", "xml"],
        ["classify", "A2", "[1,1]", "--"],
        ["rootsys", "A2", "-h"],
        ["classify", "", "[1,1]"],
        ["rootsys", "A2", "A3"],
    ],
    ids=repr,
)
def test_the_subcommand_parser_parses_as_the_top_level_parser(argv):
    assert_parses_as_the_top_level_parser(argv)


SUBCOMMANDS = [
    "rootsys", "weights", "torus-check", "hilbert-basis", "bad-slice", "components",
    "covariant-vanish", "support-rank", "classify", "verify-paper",
]
ARGV_GROUPS = ["A1", "A2", "B2", "A1xA2", "Z9"]
ARGV_MODULES = ["[1]", "[2]", "[1,0]", "[1,1]", "[2,1]", "2*[1,0]", "[1,0]+[0,1]", "[1,0,1]", "-1*[1]"]
ARGV_TOKENS = st.sampled_from(SUBCOMMANDS + ARGV_GROUPS + ARGV_MODULES + [
    "nope", "--output", "--out", "--output=text", "--output=xml", "json", "text", "xml",
    "-h", "--help", "--", "--=x", "-x", "--weights", "--weights=;", "--target", "--degree",
    "--deg", "--all-degrees", "--support", "--suite", "torus", "sl2",
    "[1,0]:0", "4,-4,6,-6", "(1,0);(0,1)", ";", "1", "2", "x", "",
])


@st.composite
def well_formed_argv(draw):
    """A well-formed request of a random subcommand, with up to two random
    tokens put in anywhere."""
    pick = lambda xs: draw(st.sampled_from(xs))  # noqa: E731
    command = pick(SUBCOMMANDS)
    if command == "rootsys":
        argv = [command, pick(ARGV_GROUPS)]
    elif command in ("torus-check", "hilbert-basis"):
        argv = [command, "--weights", pick(["4,-4,6,-6", "(1,0);(0,1)", "1,-1", ";", ""])]
    elif command == "verify-paper":
        argv = [command, "--suite", pick(["torus", "sl2", "nope"])]
    else:
        argv = [command, pick(ARGV_GROUPS), pick(ARGV_MODULES)]
        if command == "covariant-vanish":
            argv += ["--target", pick(ARGV_MODULES), "--degree", pick(["1", "2", "x"])]
        elif command == "support-rank":
            argv += ["--support", pick(["[1,0]:0", "[1]:0", "[1]:x"])]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(ARGV_TOKENS))
    return argv


ARGVS = st.one_of(well_formed_argv(), st.lists(ARGV_TOKENS, max_size=6))


@given(argv=ARGVS)
@settings(max_examples=300, deadline=None)
def test_any_argv_parses_as_the_top_level_parser_and_main_exits_cleanly(argv):
    """The same namespace, or the same exit code and messages, as the
    top-level parser; and ``main`` answers with an exit code of the CLI and
    no traceback."""
    import contextlib
    import io

    (how, parsed), _, _ = assert_parses_as_the_top_level_parser(argv)
    if how == "namespace" and parsed.get("suite", "") is None:
        return  # every verify-paper suite, which test_fast_suites_pass runs
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def _table_requests(name):
    """Two requests of subcommand ``name`` written from the table: the
    least it takes (its positionals and its required options) and one with
    every option of the table."""
    from coreduce.cli import COMMANDS

    command = COMMANDS[name]
    least = [name] + ["x"] * len(command.positionals)
    every = list(least)
    for flag, keywords in command.options.items():
        value = keywords["choices"][0] if "choices" in keywords else "1"
        every += [flag, value]
        if keywords.get("required"):
            least += [flag, value]
    return least, every


def test_the_table_and_the_parser_agree():
    """Every subcommand of the table is a subparser of ``build_parser``
    with the same arguments: dests, flags, required, type, default, choices
    and action; and the table's reader reads a request of each as argparse
    does, defaults included."""
    import argparse

    from coreduce.cli import COMMANDS, _read, build_parser

    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(COMMANDS) == SUBCOMMANDS

    def option(flag, keywords):
        dest = flag[2:].replace("-", "_")
        kind = parser._registry_get("action", keywords.get("action"))
        return (dest, [flag], keywords.get("required", False), keywords.get("type"),
                keywords.get("default"), keywords.get("choices"), kind)

    for name, command in COMMANDS.items():
        sub = subparsers.choices[name]
        got = [
            (a.dest, a.option_strings, a.required, a.type, a.default, a.choices, type(a))
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        want = [(arg, [], True, None, None, None, argparse._StoreAction) for arg in command.positionals]
        want += [option(flag, keywords) for flag, keywords in command.options.items()]
        assert got == want, name
        for argv in _table_requests(name):
            assert _read(argv) is not None, argv
            assert assert_parses_as_the_top_level_parser(argv)[0][0] == "namespace"


WELL_FORMED = {
    "rootsys": ["rootsys", "A2"],
    "weights": ["weights", "A2", "[1,1]"],
    "torus-check": ["torus-check", "--weights=4,-4,6,-6"],
    "hilbert-basis": ["hilbert-basis", "--weights", "2,-3,5,-4"],
    "bad-slice": ["bad-slice", "A1", "[6]"],
    "components": ["components", "A2", "[1,1]"],
    "covariant-vanish": ["covariant-vanish", "A2", "[1,1]", "--target", "[1,1]", "--degree=2"],
    "support-rank": ["support-rank", "A2", "2*[1,1]", "--support", "[1,1]:0", "--support=[1,1]:1"],
    "classify": ["classify", "A2", "[1,1]"],
    "verify-paper": ["verify-paper", "--suite", "torus"],
}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_a_well_formed_request_builds_no_parser(name):
    """A well-formed request is read off the subcommand table, so it runs
    without argparse's parser; a malformed one builds it."""
    from coreduce.cli import build_parser

    build_parser.cache_clear()
    assert run_cli(WELL_FORMED[name])[0] in (0, 1)
    assert build_parser.cache_info().misses == 0
    assert run_cli([name, "--nope"])[0] == 2
    assert build_parser.cache_info().misses == 1


def test_a_request_that_starts_with_its_subcommand_is_parsed_once(monkeypatch):
    import argparse

    from coreduce.cli import build_parser

    parse_known_args = argparse.ArgumentParser.parse_known_args
    progs = []

    def counted(self, *args, **kwargs):
        progs.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    build_parser()
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run_cli(["classify", "A2", "[3,1]"])[0] == 1
    assert progs == []
    # a flag before the subcommand goes through the top-level parser
    assert run_cli(["--nope", "rootsys", "A2"]) == (2, "")
    assert progs == ["coreduce", "coreduce rootsys"]


WEIGHTS_POOL_GROUPS = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2", "F4", "E6", "E7",
]


def small_highest_weights(g, max_dim=1000):
    # the trivial module, the fundamental weights and the sums of two of them
    # (or one doubled) up to a dimension that keeps the expansion quick
    units = [tuple(int(i == j) for j in range(g.rank)) for i in range(g.rank)]
    hws = {tuple(0 for _ in range(g.rank))} | set(units)
    hws |= {tuple(a + b for a, b in zip(u, v)) for u in units for v in units}
    return sorted(hw for hw in hws if weyl_dim(g, hw) <= max_dim)


def expanded_weight_counts(g, module):
    chi = parse_module(g, module).weights
    zero = tuple(0 for _ in range(g.rank))
    return chi.mult(zero), sum(chi.nonzero_weights().values())


@pytest.mark.parametrize("group", WEIGHTS_POOL_GROUPS)
def test_weights_counts_equal_the_expanded_diagram(group):
    g = parse_group(group)
    for hw in small_highest_weights(g):
        module = "[" + ",".join(map(str, hw)) + "]"
        code, out = run_cli(["weights", group, module])
        assert code == 0, module
        got = json.loads(out)
        want = expanded_weight_counts(g, module)
        assert (got["zero_multiplicity"], got["nonzero_weight_count"]) == want, module
        assert sum(want) == got["dimension"], module


@pytest.mark.parametrize(
    "group,module",
    [
        ("A2", "2*[1,0]+[0,1]"),
        ("A1xG2", "[2,1,0]"),
        ("A1xG2", "[1,0,1]+2*[0,1,0]"),
        ("A1xT1", "[2,1]+[1,0]"),
    ],
)
def test_weights_counts_of_sums_and_products(group, module):
    g = parse_group(group)
    code, out = run_cli(["weights", group, module])
    assert code == 0
    got = json.loads(out)
    want = expanded_weight_counts(g, module)
    assert (got["zero_multiplicity"], got["nonzero_weight_count"]) == want
    assert sum(want) == got["dimension"]


def test_weights_expands_no_orbit(monkeypatch, weight_builds):
    # warm the Freudenthal and Weyl-order caches first: closure also runs
    # the dominant-weight descent and the Weyl-order count, and what is left
    # for it after the warm-up is orbit expansion (1.6e6 weights here)
    from coreduce import repthy, rootsys

    g = parse_group("E6")
    hw = (0, 0, 0, 0, 3, 0)
    for d in repthy.dominant_diagram(g, hw):
        rootsys.orbit_size(g, d)
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(repthy, "closure", counting("closure", repthy.closure))
    monkeypatch.setattr(rootsys, "closure", counting("closure", rootsys.closure))
    code, out = run_cli(["weights", "E6", "[0,0,0,0,3,0]"])
    assert code == 0
    got = json.loads(out)
    assert got["zero_multiplicity"] + got["nonzero_weight_count"] == got["dimension"] == 1559376
    assert calls == [] and weight_builds == []


@pytest.mark.parametrize(
    "group,module",
    [("A2", "[1,0]+2*[0,1]"), ("A1xT1", "[2,-3]"), ("E7", "[0,0,0,0,0,0,1]"), ("B3", "[0,0,1]+[1,0,1]")],
)
def test_weights_off_the_root_lattice_run_no_recursion(group, module, monkeypatch):
    # every summand is off the coset of the zero weight: all its weights are
    # nonzero and none is a root, so no diagram is needed
    from coreduce import repthy

    calls = []
    freudenthal = repthy._freudenthal

    def counted(g, hw):
        calls.append((str(g), hw))
        return freudenthal(g, hw)

    monkeypatch.setattr(repthy, "_freudenthal", counted)
    code, out = run_cli(["weights", group, module])
    assert code == 0
    got = json.loads(out)
    assert calls == []
    assert (got["zero_multiplicity"], got["min_root_multiplicity"]) == (0, 0)
    assert got["nonzero_weight_count"] == got["dimension"]
    assert run_cli(["weights", "A2", "[1,1]"])[0] == 0
    assert calls == [("A2", (1, 1))]


def test_weights_of_a_rootless_group_exit_two(capsys):
    assert main(["weights", "T1", "[1]"]) == 2
    assert "T1 has no roots" in capsys.readouterr().err


def test_hilbert_basis_command():
    code, out = run_cli(["hilbert-basis", "--weights", FOUR_SIX])
    assert code == 0
    gens = {tuple(g) for g in json.loads(out)["generators"]}
    assert gens == {(1, 1, 0, 0), (0, 0, 1, 1), paper.TORUS_FOUR_SIX_GENERATOR, (0, 3, 2, 0)}


@pytest.mark.parametrize("command", ["torus-check", "hilbert-basis"])
@pytest.mark.parametrize(
    "weights",
    ["", "  ", "4,,6", ";", " ; "],
    ids=["empty", "blank", "empty-entry", "no-vector", "blank-vectors"],
)
def test_bad_weights_usage_message(command, weights, capsys):
    code, out = run_cli([command, "--weights", weights])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert "--weights" in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("command", ["weights", "classify"])
@pytest.mark.parametrize(
    "group,weight",
    [("A1", "[a]"), ("A1", "[1,]"), ("A1", "[1.5]"), ("A2", "(1,)@root")],
    ids=["letter", "empty-entry", "decimal", "root-empty-entry"],
)
def test_bad_weight_labels_usage_message(command, group, weight, capsys):
    code, out = run_cli([command, group, weight])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert repr(weight) in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("command", ["weights", "classify"])
@pytest.mark.parametrize(
    "module,term",
    [("a*[1]", "a*[1]"), ("*[1]", "*[1]"), ("1.5*[1]", "1.5*[1]"), ("[1]+x*[2]", "x*[2]")],
    ids=["letter", "empty", "decimal", "second-term"],
)
def test_bad_coefficient_usage_message(command, module, term, capsys):
    code, out = run_cli([command, "A1", module])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == f"error: cannot parse the coefficient of the term {term!r}\n"


@pytest.mark.parametrize("command", ["weights", "classify"])
@pytest.mark.parametrize("module", ["-1*[1]", "0*[1]"], ids=["negative", "zero"])
def test_nonpositive_coefficient_usage_message(command, module, capsys):
    # a coefficient that parses is checked for its sign, not reported
    # unparsable; "--" keeps argparse from reading "-1*[1]" as an option
    code, out = run_cli([command, "A1", "--", module])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: summand coefficients must be positive\n"


def test_bad_slice_command():
    code, out = run_cli(["bad-slice", "A1", "[6]"])
    assert code == 0 and json.loads(out)["bad"]
    code, out = run_cli(["bad-slice", "G2", "[0,1]"])
    assert code == 1 and not json.loads(out)["bad"]


@pytest.mark.parametrize("group,module", [("A1", "[6]"), ("G2", "[0,1]"), ("A1xA2", "[2,1,1]")])
def test_bad_slice_command_computes_the_weights_once(group, module, weight_builds):
    # the slice's orbits are expanded once, and the module's weight
    # multiset is never built
    assert run_cli(["bad-slice", group, module])[0] in (0, 1)
    m = parse_module(parse_group(group), module)
    assert weight_builds == [slice_diagram(m)]
    assert "weights" not in vars(m)


@pytest.mark.parametrize("group,module", [("A2xA2", "[7,7,7,7]"), ("A3", "[48,0,0]")])
def test_bad_slice_refuses_a_slice_the_search_cannot_take_unlisted(group, module, weight_builds, capsys, monkeypatch):
    # whether there is a slice is read off the root multiplicity, and the
    # size of the scan and of the search off the dominant diagrams, so no
    # weight diagram is built; with the pair reader out, as both modules
    # hold a pair it reads
    from coreduce import slices

    monkeypatch.setattr(slices, "diagram_pair", lambda g, diagram: None)
    assert run_cli(["bad-slice", group, module]) == (3, "")
    assert json.loads(capsys.readouterr().err)["cap"] == "HILBERT_COORD_CAP"
    assert weight_builds == []


@pytest.mark.parametrize("group,module", PAST_THE_SCAN)
def test_a_slice_past_the_scans_bound_answers_with_a_pair_unlisted(group, module, weight_builds):
    # the pair is read off the dominant diagrams, so no weight diagram is
    # built, and classify prints the relation that bad-slice prints
    code, out = run_cli(["bad-slice", group, module])
    bad = json.loads(out)["certificate"]
    assert code == 0 and bad["kind"] == "toral_relation" and 2 in bad["coeffs"]
    assert weight_builds == []
    _, out = run_cli(["classify", group, module])
    (row,) = json.loads(out)["rows"]
    assert row["coreduced"] == "no" and row["certificates"] == [bad]


@pytest.mark.parametrize("module", ["[1]+[6]", "[6]", "[3]+[4]"])
def test_bad_slice_prints_a_hilbert_generator_of_the_slice(module):
    # the least violating circuit of two or three weights: the search's
    # first violating generator where that is such a circuit, and a later
    # generator where it is not, as on [1]+[6], where the search's first is
    # (1,2,1) on -4, -1 and 6, three weights of one line
    from coreduce.monoid import Relation, hilbert_basis, is_torus_coreduced
    from coreduce.slices import weyl_symmetric_list
    from oracles import reference_toral_slice

    code, out = run_cli(["bad-slice", "A1", module])
    assert code == 0
    cert = json.loads(out)["certificate"]
    g = parse_group("A1")
    ws, symmetry = weyl_symmetric_list(g, reference_toral_slice(parse_module(g, module)))
    placed = {tuple(w): c for w, c in zip(cert["weights"], cert["coeffs"])}
    relation = Relation(tuple(placed.get(w, 0) for w in ws))
    assert relation in hilbert_basis(ws)
    first = is_torus_coreduced(ws, symmetry).certificate
    assert (relation == first) == (module != "[1]+[6]")


# bench rows, then paper rows, whose classify certificate differed from
# bad-slice's while the classical, product-group and irreducible A2 drivers
# scanned for triples through dominant weights only
ONCE_TWO_CERTIFICATES = [
    ("A3", "[0,1,2]"), ("A3", "2*[0,2,0]"), ("A3", "[2,1,0]"), ("A3", "[0,2,0]+[1,0,1]"),
    ("B3", "[0,0,2]"), ("B3", "2*[0,1,0]"), ("B3", "[0,0,2]+[1,0,0]"), ("C3", "2*[2,0,0]"),
    ("A1xA2", "[2,1,1]"), ("A1xG2", "[2,0,1]"),
    ("A2xA2", "[1,1,1,1]"), ("A3", "[4,0,0]"), ("C3", "[1,0,1]"),
]
PAPER_ROWS = [
    (group, module)
    for group, module, _ in paper.EXCEPTIONAL + paper.CLASSICAL + paper.SEMISIMPLE
    + paper.SL3_IRREDUCIBLE + paper.SL3_REDUCIBLE
] + [
    ("A1", "+".join(f"[{p}]" for p in parts))
    for parts in (*paper.SL2_YES, paper.SL2_TWO_QUADRATICS, paper.SL2_SEXTIC)
]


@pytest.mark.parametrize("group,module", ONCE_TWO_CERTIFICATES + PAPER_ROWS + CAPPED_SEARCHES)
def test_classify_prints_the_toral_relation_that_bad_slice_prints(group, module):
    # one toral-slice test serves every command: a relation on the module's
    # own slice (one with no note) is the one bad-slice prints
    _, out = run_cli(["classify", group, module])
    (row,) = json.loads(out)["rows"]
    relations = [
        c for c in row["certificates"]
        if isinstance(c, dict) and c.get("kind") == "toral_relation" and not c["note"]
    ]
    _, out = run_cli(["bad-slice", group, module])
    bad = json.loads(out).get("certificate")
    if (group, module) in ONCE_TWO_CERTIFICATES + CAPPED_SEARCHES:
        assert relations == [bad] and bad is not None
    else:
        assert relations in ([], [bad])


def test_components_command():
    code, out = run_cli(["components", "A2", "[3,1]"])
    assert code == 0
    cands = json.loads(out)["candidates"]
    assert all(c["dimension"] >= 1 for c in cands)


def test_covariant_vanish_command():
    code, out = run_cli(
        ["covariant-vanish", "A2", "[2,1]", "--target", "[1,0]", "--degree", "3"]
    )
    assert code == 0
    assert json.loads(out)["vanishes_on_all"]


def test_weights_on_one_line_still_have_a_component():
    # every weight of A1xT1 [2,0] lies on one line; the weight [2,0] is itself
    # a degree-1 monomial on the component {[2,0]}
    code, out = run_cli(
        ["covariant-vanish", "A1xT1", "[2,0]", "--target", "[2,0]", "--degree", "1"]
    )
    assert code == 1
    assert json.loads(out)["per_component"] == [{"dimension": 1, "vanishes": False}]
    code, out = run_cli(["components", "A1xT1", "[2,0]"])
    assert code == 0
    assert [c["weights"] for c in json.loads(out)["candidates"]] == [[[2, 0]]]
    # a group with no roots: the one support weight is the only column
    code, out = run_cli(["support-rank", "T1", "[1]", "--support", "[1]:0"])
    assert code == 0
    assert json.loads(out)["bound"] == 1


@pytest.mark.parametrize("copy", ["1", "-1"])
def test_support_copy_out_of_range_exits_two(copy, capsys):
    code, out = run_cli(["support-rank", "F4", "[0,0,0,1]", "--support", f"[0,0,0,1]:{copy}"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert f"support copy {copy} of" in err and "copy range 0..0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("copy", ["x", ""])
def test_support_copy_not_an_integer_exits_two(copy, capsys):
    # the copy index once reached int() unchecked and exited 2 with its raw
    # "invalid literal" message, which names no entry
    code, out = run_cli(["support-rank", "A2", "[1,1]", "--support", f"[1,1]:{copy}"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert f"support copy of '[1,1]:{copy}' is not an integer" in err
    assert "invalid literal" not in err and "Traceback" not in err


def test_classify_exit_zero_on_yes():
    code, out = run_cli(["classify", "A2", "[1,1]"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["coreduced"] in ("yes", "yes_paper_proof")


# the exact classify output for one module per certificate kind and per
# route to a toral relation (a circuit of the scan, the search, the odd
# orthogonal triple), and for an A1 module typed out of order, which prints
# as typed
CLASSIFY_GOLDEN = [
    pytest.param(
        "A1",
        "[1]+2*[2]",
        1,
        (
            '{"rows": [{"certificates": [{"coeffs": [2, 1], "kind": "toral_relation",'
            ' "note": "", "weights": [[-1], [2]]}], "coreduced": "no", "group": "A1",'
            ' "module": "[1]+2*[2]", "notes": [], "theorem": "binary-forms"}],'
            ' "schema": 2}\n'
        ),
        id="toral_relation",
    ),
    pytest.param(
        "F4",
        "[1,0,0,0]+[0,0,0,1]",
        1,
        (
            '{"rows": [{"certificates": [{"coeffs": [1, 1, 1, 2, 1], "kind": "toral_relation",'
            ' "note": "", "weights": [[-1, -1, -1, 0], [0, -1, -1, 0], [0, 0, -1, 0],'
            ' [0, 0, 0, -1], [1, 2, 3, 2]]}], "coreduced": "no", "group": "F4",'
            ' "module": "[1,0,0,0]+[0,0,0,1]", "notes": [], "theorem": "exceptional-F4"}],'
            ' "schema": 2}\n'
        ),
        id="searched_relation",
    ),
    pytest.param(
        "B2xB2xB2",
        "[1,0,1,0,1,0]",
        1,
        (
            '{"rows": [{"certificates": [{"coeffs": [1, 1, 2], "kind": "toral_relation",'
            ' "note": "the rank-2 torus at the end of the slice-quotient chain",'
            ' "weights": [[2, 0], [0, 2], [-1, -1]]},'
            ' {"kind": "citation", "statement": "slice-quotient chain to a rank-2 torus"}],'
            ' "coreduced": "no", "group": "B2xB2xB2", "module": "[1,0,1,0,1,0]",'
            ' "notes": ["final torus step machine-checked"],'
            ' "theorem": "semisimple-irreducible"}], "schema": 2}\n'
        ),
        id="odd_orthogonal_triple",
    ),
    pytest.param(
        "E6",
        "2*[0,1,0,0,0,0]",
        1,
        (
            '{"rows": [{"certificates": [{"coeffs": [1, 1, 1, 2, 3, 2, 1],'
            ' "kind": "roots_mult2",'
            ' "note": "factor 0 (E6) root with a coefficient-2 expansion", "weights": [[3,'
            ' 3, 6, 9, 6, 3], [-3, 0, 0, 0, 0, 0], [0, -3, 0, 0, 0, 0], [0, 0, -3, 0, 0,'
            ' 0], [0, 0, 0, -3, 0, 0], [0, 0, 0, 0, -3, 0], [0, 0, 0, 0, 0, -3]]}],'
            ' "coreduced": "no", "group": "E6", "module": "2*[0,1,0,0,0,0]", "notes": [],'
            ' "theorem": "exceptional-E6"}], "schema": 2}\n'
        ),
        id="roots_mult2",
    ),
    pytest.param(
        "A1xA2",
        "[2,1,1]",
        1,
        (
            '{"rows": [{"certificates": [{"coeffs": [2, 1, 1], "kind": "toral_relation",'
            ' "note": "", "weights": [[-2, 0, 0], [2, 0, -3], [2, 0, 3]]}],'
            ' "coreduced": "no", "group": "A1xA2", "module": "[2,1,1]", "notes": [],'
            ' "theorem": "semisimple-irreducible"}], "schema": 2}\n'
        ),
        id="product_group_circuit",
    ),
    pytest.param(
        "A1",
        "3*[2]",
        1,
        (
            '{"rows": [{"certificates": [{"degree": 2, "ideal_bound": 0,'
            ' "kind": "generating_covariant", "multiplicity": 3, "target": [2]}],'
            ' "coreduced": "no", "group": "A1", "module": "3*[2]",'
            ' "notes": ["generating covariant of low target degree vanishes on the null cone"],'
            ' "theorem": "binary-forms"}], "schema": 2}\n'
        ),
        id="generating_covariant",
    ),
    pytest.param(
        "A1",
        "2*[2]",
        1,
        (
            '{"rows": [{"certificates": [{"codim": 3, "invariants_available": 3,'
            ' "kind": "degree_rank_screen", "max_useful_degree": 2, "rank_bound": 2}],'
            ' "coreduced": "no", "group": "A1", "module": "2*[2]",'
            ' "notes": ["rank of the quotient differential on the null cone"],'
            ' "theorem": "binary-forms"}], "schema": 2}\n'
        ),
        id="degree_rank_screen",
    ),
    pytest.param(
        "A2",
        "[1,2]",
        1,
        (
            '{"rows": [{"certificates": [{"kind": "citation",'
            ' "statement": "codimension-2 bound for the slab in its component"},'
            ' {"cocharacter": [2, 5], "codim_lower_bound": 2, "directions": 4,'
            ' "generator_bounds_by_degree": [0, 0, 1, 0, 0, 2, 0, 0, 1, 0, 0, 10],'
            ' "generators_available": 1, "kind": "data", "max_monomial_degree": 4}],'
            ' "coreduced": "no", "group": "A2", "module": "[1,2]",'
            ' "notes": ["rank of the invariant differentials on a dominant component"],'
            ' "theorem": "rank2-special-linear"}], "schema": 2}\n'
        ),
        id="data",
    ),
    pytest.param(
        "A2",
        "2*[2,0]",
        1,
        (
            '{"rows": [{"certificates": [{"codim": 4, "invariants_available": 4,'
            ' "kind": "degree_rank_screen", "max_useful_degree": 3, "rank_bound": 2},'
            ' {"codim_source": "recorded", "kind": "data"}], "coreduced": "no",'
            ' "group": "A2", "module": "2*[2,0]", "notes": [],'
            ' "theorem": "rank2-special-linear"}], "schema": 2}\n'
        ),
        id="data_string",
    ),
    pytest.param(
        "A2",
        "[0,1]",
        0,
        (
            '{"rows": [{"certificates": [{"kind": "citation",'
            ' "statement": "cofree; quotient of small dimension"}],'
            ' "coreduced": "yes_paper_proof", "group": "A2", "module": "[0,1]",'
            ' "notes": [], "theorem": "rank2-special-linear"}], "schema": 2}\n'
        ),
        id="citation",
    ),
    pytest.param(
        "A1",
        "[2]+[1]",
        1,
        (
            '{"rows": [{"certificates": [{"degree": 2, "ideal_bound": 0,'
            ' "kind": "generating_covariant", "multiplicity": 1, "target": [1]}],'
            ' "coreduced": "no", "group": "A1", "module": "[2]+[1]",'
            ' "notes": ["generating covariant of low target degree vanishes on the null cone"],'
            ' "theorem": "binary-forms"}], "schema": 2}\n'
        ),
        id="module_as_typed",
    ),
]


@pytest.mark.parametrize("group, module, code, stdout", CLASSIFY_GOLDEN)
def test_classify_prints_the_recorded_bytes(group, module, code, stdout):
    assert run_cli(["classify", group, module]) == (code, stdout)


def test_usage_errors_exit_two(capsys):
    assert run_cli(["no-such-command"])[0] == 2
    assert run_cli([])[0] == 2
    assert run_cli(["rootsys", "Z9"])[0] == 2
    assert run_cli(["classify", "A2", "[1,0,0]"])[0] == 2
    capsys.readouterr()
    # the message names the epsilon coefficients by their values
    assert run_cli(["weights", "G2", "1/2e1@eps"]) == (2, "")
    err = capsys.readouterr().err
    assert "epsilon vector (1/2, 0, 0) is not in the weight lattice of G2" in err
    assert "Fraction(" not in err


# one JSON request of each subcommand, in the order of the table
CONTRACT_REQUESTS = [
    ["rootsys", "A2"],
    ["weights", "A2", "[1,1]"],
    ["torus-check", "--weights", FOUR_SIX],
    ["hilbert-basis", "--weights", FOUR_SIX],
    ["bad-slice", "A1", "[6]"],
    ["components", "A2", "[3,1]"],
    ["covariant-vanish", "A2", "[2,1]", "--target", "[1,0]", "--degree", "3"],
    ["support-rank", "A2", "2*[1,1]", "--support", "[1,1]:0", "--support=[1,1]:1"],
    ["classify", "A2", "[1,2]"],
    ["verify-paper", "--suite", "torus"],
]


def test_every_output_is_plain_json(monkeypatch, capsys):
    """Every subcommand prints one object of plain JSON values, stamped with
    the schema, which a plain encoder writes back byte for byte; so does the
    object on stderr of a request stopped by a cap; a usage error prints
    nothing."""
    from coreduce import monoid

    encoder = json.JSONEncoder(sort_keys=True)
    with monkeypatch.context() as mp:
        mp.setattr(monoid, "HILBERT_COORD_CAP", 10)
        assert run_cli(["torus-check", "--weights", FOUR_SIX]) == (3, "")
    err = capsys.readouterr().err
    assert err == encoder.encode(json.loads(err)) + "\n"
    assert [argv[0] for argv in CONTRACT_REQUESTS] == SUBCOMMANDS
    for argv in CONTRACT_REQUESTS:
        code, out = run_cli(argv)
        payload = json.loads(out)
        assert code in (0, 1) and out == encoder.encode(payload) + "\n", argv
        assert payload["schema"] == 2
    assert run_cli(["rootsys", "Z9"]) == (2, "")


def test_classify_and_bad_slice_print_one_certificate_form():
    _, out = run_cli(["classify", "A1", "[6]"])
    (cert,) = json.loads(out)["rows"][0]["certificates"]
    _, out = run_cli(["bad-slice", "A1", "[6]"])
    assert json.loads(out)["certificate"] == cert


def test_a_certificate_without_a_json_form_raises():
    from coreduce.classify import certificate_json

    with pytest.raises(TypeError):
        certificate_json(object())


def test_reducible_product_group_classify_exits_two(capsys):
    code, _ = run_cli(["classify", "A1xA1", "2*[1,1]"])
    err = capsys.readouterr().err
    assert code == 2
    assert "outside the classification" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "group,module",
    [
        ("A1", "[0]"),
        ("A2", "[0,0]"),
        ("A2", "[1,0]+[0,0]"),
        ("B3", "[0,0,0]"),
        ("F4", "[0,0,0,0]"),
        ("G2", "[0,0]"),
        ("A1xA1", "[0,0]"),
    ],
)
def test_trivial_summand_classify_exits_two(group, module, capsys):
    code, out = run_cli(["classify", group, module])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert "need a nontrivial module with no trivial summands" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["components", "A2", "[0,0]"],
        ["covariant-vanish", "A2", "[0,0]", "--target", "[0,0]", "--degree", "1"],
    ],
)
def test_trivial_module_components_exit_two(argv, capsys):
    # a module without a nonzero weight has no positive weight space to
    # answer for; it once got a zero-dimensional "component" and exit 0
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert "need a nontrivial module with no trivial summands" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_covariant_degree_below_one_exits_two(degree):
    code, out = run_cli(
        ["covariant-vanish", "A2", "[2,1]", "--target", "[1,0]", "--degree", degree]
    )
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("group,module,target", [("A2", "[1,1]", "[-1,0]"), ("A1xT1", "[2,0]", "[-2,0]")])
def test_non_dominant_covariant_target_exits_two(group, module, target, capsys):
    # V(target) with a negative semisimple label is no covariant type; the
    # check once answered vanishes_on_all: true with exit 0
    code, out = run_cli(
        ["covariant-vanish", group, module, "--target", target, "--degree", "2"]
    )
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert "is not a dominant weight" in err and "Traceback" not in err


def test_covariant_target_torus_label_may_be_negative():
    # torus labels are free, as in a module's highest weights
    code, out = run_cli(
        ["covariant-vanish", "A1xT1", "[1,-2]", "--target", "[1,-1]", "--degree", "1"]
    )
    assert code == 0
    assert json.loads(out)["vanishes_on_all"]


def test_limit_states_flag_is_gone():
    for n in ["0", "10"]:
        assert run_cli(["--limit-states", n, "rootsys", "A2"])[0] == 2
        assert run_cli(["rootsys", "A2", "--limit-states", n])[0] == 2


def assert_environment_is_ignored(monkeypatch, capsys, settings):
    # classify A2 [2,1] needs more than 10 symmetric-power cells, and the
    # variables once set the state cap and the output mode
    argv = ["classify", "A2", "[2,1]"]
    want = run_cli(argv)
    for name, value in settings:
        with monkeypatch.context() as mp:
            mp.setenv(name, value)
            assert run_cli(argv) == want, (name, value)
    assert want[0] == 1 and json.loads(want[1])["schema"] == 2
    assert capsys.readouterr().err == ""


def test_env_limit_states_not_integer_is_ignored(monkeypatch, capsys):
    assert_environment_is_ignored(
        monkeypatch, capsys, [("COREDUCE_LIMIT_STATES", "abc")]
    )


def test_env_no_longer_overrides(monkeypatch, capsys):
    assert_environment_is_ignored(
        monkeypatch,
        capsys,
        [("COREDUCE_LIMIT_STATES", "10"), ("COREDUCE_OUTPUT", "text")],
    )


def test_jobs_flag_is_gone():
    assert run_cli(["--jobs", "2", "rootsys", "A1"])[0] == 2


def test_cache_dir_flag_is_gone(tmp_path):
    assert run_cli(["--cache-dir", str(tmp_path), "rootsys", "A1"])[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--output", "json", "rootsys", "A1"],
        ["--output", "text", "rootsys", "A1"],
        ["classify", "A2", "[1,1]", "--output=text"],
        ["covariant-vanish", "A2", "[1,1]", "--target", "[1,1]", "--degree", "2", "--all-degrees"],
    ],
    ids=repr,
)
def test_output_and_all_degrees_flags_are_gone(argv, capsys):
    from coreduce.cli import _read

    assert _read(argv) is None
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("usage: coreduce") and "\ncoreduce: error: " in err
    assert "Traceback" not in err


def test_resource_limit_exit_three(monkeypatch, capsys):
    from coreduce import monoid, repthy

    for module, cap, argv in [
        (monoid, "SUM_STATE_CAP", ["verify-paper", "--suite", "appendixA"]),
        (repthy, "SYMPOW_CELL_CAP", ["verify-paper", "--suite", "appendixB"]),
        (monoid, "HILBERT_COORD_CAP", ["torus-check", "--weights", FOUR_SIX]),
    ]:
        # the error's fields go to stderr as one object
        with monkeypatch.context() as mp:
            mp.setattr(module, cap, 10)
            assert run_cli(argv) == (3, ""), cap
            err = json.loads(capsys.readouterr().err)
            assert (err["cap"], err["limit"]) == (cap, 10)
            assert err["message"].endswith(f", over {cap} = 10")


@pytest.mark.parametrize(
    "argv,npos",
    [(["weights", "A1", "[100000000]"], 1), (["weights", "E8", "[3,3,3,3,3,3,3,3]"], 120)],
    ids=["A1", "E8"],
)
def test_oversized_diagrams_exit_three(argv, npos, capsys):
    # the descent stops at the first dominant weight it visits that takes
    # the visited weights times the positive roots past the cap
    from coreduce import repthy

    count = (repthy.DIAGRAM_CAP // npos + 1) * npos
    start = time.monotonic()
    assert run_cli(argv) == (3, "")
    assert time.monotonic() - start < 5
    err = json.loads(capsys.readouterr().err)
    assert {k: err[k] for k in ("engine", "cap", "limit", "count")} == {
        "engine": "repthy.diagram",
        "cap": "DIAGRAM_CAP",
        "limit": repthy.DIAGRAM_CAP,
        "count": count,
    }
    assert err["message"].endswith(f"{count} root tests, over DIAGRAM_CAP = {repthy.DIAGRAM_CAP}")


def test_oversized_product_diagram_exits_three(capsys):
    # each A1 factor holds 201 dominant weights, small enough; their product
    # is sized before it is built
    from coreduce import repthy

    start = time.monotonic()
    assert run_cli(["weights", "A1xA1xA1", "[400,400,400]"]) == (3, "")
    assert time.monotonic() - start < 5
    assert json.loads(capsys.readouterr().err) == {
        "engine": "repthy.diagram",
        "cap": "PRODUCT_DIAGRAM_CAP",
        "limit": repthy.PRODUCT_DIAGRAM_CAP,
        "count": 201**3,
        "message": "the diagram of V((400, 400, 400)) over A1xA1xA1 would hold 8120601 "
        f"dominant weights, over PRODUCT_DIAGRAM_CAP = {repthy.PRODUCT_DIAGRAM_CAP}",
    }


def test_diagram_cap_fires_at_its_count_before_the_recursion(monkeypatch, capsys):
    """A2 [4,1] has 6 dominant weights and 3 positive roots: 18 root tests.
    A cap of 18 lets the diagram through; one of 17 stops the descent at
    its last weight, before the recursion takes its first root orbit."""
    from coreduce import repthy

    argv = ["weights", "A2", "[4,1]"]
    monkeypatch.setattr(repthy, "DIAGRAM_CAP", 18)
    assert run_cli(argv)[0] == 0
    # the interned module keeps its diagram too
    repthy.simple_dominant_diagram.cache_clear()
    repthy.parse_module.cache_clear()
    monkeypatch.setattr(repthy, "DIAGRAM_CAP", 17)

    def refuse(*args):
        raise AssertionError("the recursion ran past the cap")

    monkeypatch.setattr(repthy, "_root_orbits", refuse)
    assert run_cli(argv) == (3, "")
    assert json.loads(capsys.readouterr().err) == {
        "engine": "repthy.diagram",
        "cap": "DIAGRAM_CAP",
        "limit": 17,
        "count": 18,
        "message": "the diagram of V((4, 1)) over A2 reached 6 dominant weights "
        "times 3 positive roots, 18 root tests, over DIAGRAM_CAP = 17",
    }


def test_every_cap_is_documented_with_its_value():
    """Each constant passed as the ``cap`` of a ``ResourceLimitError`` in
    the package is named in README's paragraph on resource caps, with its
    value in the parenthesis after its name."""
    import importlib
    import re

    pkg = pathlib.Path(coreduce.__file__).parent
    readme = (pkg.parent.parent / "README.md").read_text()
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("Resource caps are"))
    paragraph = " ".join(paragraph.split())
    caps = []
    for path in sorted(pkg.glob("*.py")):
        module = importlib.import_module(f"coreduce.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "ResourceLimitError"
            ):
                name = node.args[1].value
                caps.append(f"{path.stem}.{name}")
                found = re.search(rf"`{path.stem}\.{name}` \(([^)]*)\)", paragraph)
                assert found, f"README does not name {path.stem}.{name}"
                value = f"{getattr(module, name):,}"
                assert re.search(rf"(?<![\d,]){re.escape(value)}(?![\d,])", found.group(1)), (
                    f"README does not give {path.stem}.{name} = {value}"
                )
    assert "repthy.DIAGRAM_CAP" in caps and len(caps) >= 7


# The G2xG2 S^9 of appendixB, with the target (0,0,1,0) and 0, in the DP's
# reduced coordinates (x + y, y, z + w, w) of the Dynkin labels (x, y, z, w):
# each G2 factor's weights span -1..1 in both, and the dominant
# representatives of the points w(lam+rho) - rho fill the box
# F = 0..5 x 0..3 x 0..6 x 0..3.  Degree k keeps the cells of k*mn .. k*mx
# inside F - (9-k)*mx .. F - (9-k)*mn.  In Dynkin coordinates, where the
# weights span -2..2 and -1..1, the same formula gives 122,313.
G2XG2_SYMPOW_CELLS = sum(
    math.prod(
        min(k * h, f_hi - (9 - k) * l) - max(k * l, f_lo - (9 - k) * h) + 1
        for l, h, f_lo, f_hi in zip((-1, -1, -1, -1), (1, 1, 1, 1), (0, 0, 0, 0), (5, 3, 6, 3))
    )
    for k in range(10)
)


def test_sympow_cell_cap_counts_the_per_degree_boxes(monkeypatch, capsys):
    """The G2xG2 S^9 of appendixB holds one clipped box per degree; the cap
    counts exactly those cells, before any is built."""
    from coreduce import repthy

    assert G2XG2_SYMPOW_CELLS == 39_333
    argv = ["verify-paper", "--suite", "appendixB"]
    monkeypatch.setattr(repthy, "SYMPOW_CELL_CAP", G2XG2_SYMPOW_CELLS)
    code, out = run_cli(argv)
    assert code == 0 and json.loads(out)["ok"]
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(repthy, "SYMPOW_CELL_CAP", G2XG2_SYMPOW_CELLS - 1)

    def refuse(*args):
        raise AssertionError("a mask was built past the cap")

    monkeypatch.setattr(repthy, "_box_mask", refuse)
    assert run_cli(argv) == (3, "")
    assert json.loads(capsys.readouterr().err) == {
        "engine": "repthy.sympow",
        "cap": "SYMPOW_CELL_CAP",
        "limit": 39332,
        "count": 39333,
        "message": "symmetric_power would need 39333 DP cells, "
        "over SYMPOW_CELL_CAP = 39332",
    }


def test_appendix_b_is_the_same_under_python_optimize():
    """``python -O`` drops every assert; the appendixB suite, whose
    multigraded sums pack weights into ints, prints the same bytes with and
    without it, so no packing bound rests on an assert."""
    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "coreduce.cli", "verify-paper", "--suite", "appendixB"],
            capture_output=True,
            text=True,
            env=env,
        )
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["ok"]


# Runs one suite in a fresh interpreter and prints its exit code and how far
# the suite raised the process's peak resident set over ``import
# coreduce.cli``, in kB: the ``VmHWM`` line of /proc/self/status, which is
# the peak of this process's own memory map (``ru_maxrss`` of a child starts
# from its parent's peak on Linux, so a test process would mask the rise).
RSS_PROBE = """
import contextlib, io, sys
import coreduce.cli

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

before = peak_kb()
with contextlib.redirect_stdout(io.StringIO()):
    code = coreduce.cli.main(["verify-paper", "--suite", sys.argv[1]])
print(code, peak_kb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM of Linux")
@pytest.mark.parametrize("suite", ["appendixB", "exceptional"])
def test_the_two_long_suites_raise_their_peak_rss_by_under_two_megabytes(suite):
    """Above the import floor, the Appendix B series (its symmetric-power DP
    in reduced coordinates) raises a process's peak RSS by under 2 MB, and
    the F4 slice search (its candidates held as support masks, its degree-6
    relations found before the other candidates of degree 6) by under
    700 kB; their layers and pairing ints once raised it by 3.8 and 2.5 MB,
    and the whole degree-6 level of the search by about 1 MB."""
    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    done = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, suite],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    code, rise_kb = map(int, done.stdout.split())
    assert code == 0
    bound_kb = {"appendixB": 2 * 1024, "exceptional": 700}[suite]
    assert rise_kb < bound_kb, f"{suite} raised the peak RSS by {rise_kb} kB"


def test_fast_suites_pass():
    for suite in ["torus", "sl2", "classical", "semisimple", "appendixA"]:
        code, out = run_cli(["verify-paper", "--suite", suite])
        assert code == 0, (suite, out)
        payload = json.loads(out)
        assert payload["ok"]
        assert all(c["ok"] for c in payload["suites"][suite])


def test_unknown_suite_is_usage_error(capsys):
    assert run_cli(["verify-paper", "--suite", "nonsense"]) == (2, "")
    assert "argument --suite: invalid choice: 'nonsense'" in capsys.readouterr().err


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "coreduce.cli", "rootsys", "A1"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["rank"] == 1


def test_components_lists_every_maximal_set():
    code, out = run_cli(["components", "A1xA2", "[1,0,1]"])
    assert code == 0
    sets = [c["weights"] for c in json.loads(out)["candidates"]]
    assert [[-1, 0, 1], [1, -1, 0], [1, 0, 1], [1, 1, -1]] in sets
    assert [[1, -1, 0], [1, 0, 1], [1, 1, -1]] not in sets
    assert len(sets) == 2


def test_out_of_memory_exits_three(monkeypatch, capsys):
    from coreduce import cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_classify", exhausted)
    assert main(["classify", "A2", "[1,1]"]) == 3
    assert json.loads(capsys.readouterr().err) == {"message": "out of memory"}


# (stored candidates, distinct weights) when each search below hits its
# cap; the search checks each candidate as it is stored, so it stops at the
# first count over HILBERT_COORD_CAP // weights.  The F4 slices are sized
# before the search starts, on one start per distinct dominant weight
HILBERT_CAP_COUNTS = {
    ("B3", "[2,2,2]"): (18391, 870),
    ("G2", "[5,5]"): (25397, 630),
    ("F4", "[3,2,2,1]"): (480, 238200),
    ("F4", "[2,3,2,0]"): (488, 241656),
}


def hilbert_cap_error(group, module):
    """The JSON object on stderr when the search for ``module`` hits the
    coordinate cap."""
    candidates, n = HILBERT_CAP_COUNTS[group, module]
    return {
        "engine": "monoid.hilbert",
        "cap": "HILBERT_COORD_CAP",
        "limit": 16000000,
        "count": candidates * n,
        "message": f"hilbert basis search: {candidates} candidates of {n} coefficients "
        f"make {candidates * n} coordinates, over HILBERT_COORD_CAP = 16000000",
    }


# the CLI with no pair read off the dominant diagram, so that a slice past
# the scan's bound is refused
WITHOUT_THE_PAIR = (
    "import sys\n"
    "from coreduce import cli, slices\n"
    "slices.diagram_pair = lambda g, diagram: None\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("module", ["[3,2,2,1]", "[2,3,2,0]"])
def test_hilbert_search_stops_at_its_cap_before_memory_runs_out(module):
    # each toral-slice search here and below stops at the coordinate cap
    # inside a 1 GB address space, which each was once seen to fill; these
    # F4 slices (about 3e11 weights, 238,200 and 241,656 distinct) are sized
    # before they are listed.  The counts pin the candidates the search
    # stores.  With the pair reader, each answers no with a pair
    out = run_in_one_gigabyte(["classify", "F4", module], WITHOUT_THE_PAIR)
    assert out.returncode == 3 and out.stdout == ""
    assert json.loads(out.stderr) == hilbert_cap_error("F4", module)
    out = run_in_one_gigabyte(["classify", "F4", module])
    (row,) = json.loads(out.stdout)["rows"]
    assert (out.returncode, out.stderr, row["coreduced"]) == (1, "", "no")
    (cert,) = row["certificates"]
    assert cert["kind"] == "toral_relation" and len(cert["weights"]) == 2


# the CLI with the circuit scan finding nothing, so that bad-slice runs the
# Hilbert search on every slice
WITHOUT_THE_SCAN = (
    "import sys\n"
    "from coreduce import cli, slices\n"
    "slices.violating_circuit = lambda ws: None\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize(
    "group, module", [("B3", "[1,3,0]"), ("G2", "2*[3,3]"), ("B3", "[2,2,2]"), ("G2", "[5,5]")]
)
def test_the_search_behind_the_scan_stops_at_its_cap_before_memory_runs_out(group, module):
    # each of these slices holds a violating pair of degree 3, which
    # classify and bad-slice answer with before any search, so the search
    # runs here with the scan switched off.  B3 [1,3,0] and G2 2*[3,3] (460
    # and 234 distinct weights) answer with the scan's own pair: the search
    # finds the degree-3 relations before it makes the other candidates of
    # degree 3, whose level once hit the cap.  B3 [2,2,2] and G2 [5,5] (870
    # and 630) still stop at the cap before they reach degree 3
    out = run_in_one_gigabyte(["bad-slice", group, module], WITHOUT_THE_SCAN)
    if (group, module) in HILBERT_CAP_COUNTS:
        assert out.returncode == 3 and out.stdout == ""
        assert json.loads(out.stderr) == hilbert_cap_error(group, module)
    else:
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == run_in_one_gigabyte(["bad-slice", group, module]).stdout
        pair = {"B3": [[0, 0, -2], [0, 0, 4]], "G2": [[0, -1], [0, 2]]}[group]
        assert json.loads(out.stdout)["certificate"]["weights"] == pair


def run_in_one_gigabyte(argv, program=None):
    """Run the CLI, or the Python ``program`` that takes its arguments, in a
    child process limited to a 1 GB address space; it must finish within
    10 s."""
    import resource
    import time

    def one_gigabyte():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, *(["-m", "coreduce.cli"] if program is None else ["-c", program]), *argv],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=one_gigabyte,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert time.perf_counter() - t0 < 10
    return out


@pytest.mark.parametrize(
    "argv",
    [
        ["components", "A2", "99999999999*[1,1]"],
        ["covariant-vanish", "A2", "99999999999*[1,1]", "--target", "[1,1]", "--degree", "2"],
    ],
)
def test_admissible_sets_are_sized_before_they_are_listed(argv):
    # each admissible set holds its weights with multiplicity; the count,
    # read off the dominant diagram, stops the enumeration before the first
    # chamber instead of an allocation with no bound
    out = run_in_one_gigabyte(argv)
    assert out.returncode == 3 and out.stdout == ""
    count = 6 * 99999999999
    assert json.loads(out.stderr) == {
        "engine": "nullcone.chambers",
        "cap": "CHAMBER_WEIGHT_CAP",
        "limit": 10000,
        "count": count,
        "message": f"chamber enumeration got a module of {count} nonzero weights, "
        "over CHAMBER_WEIGHT_CAP = 10000",
    }


@pytest.mark.parametrize("command", ["hilbert-basis"])
@pytest.mark.parametrize("copies, candidates", [(300, 26667), (2000, 4001)])
def test_long_copy_chains_stop_at_the_coordinate_cap(command, copies, candidates):
    # k copies of 1 and k of -1: the degree-2 relations are the k * k ways
    # to spread the one relation of 1 and -1 over the copies, which count
    # against the cap before any is listed, so the listing stops at the
    # first past HILBERT_COORD_CAP // 2k, as when every arrangement was grown
    n = 2 * copies
    out = run_in_one_gigabyte([command, "--weights", ",".join(["1"] * copies + ["-1"] * copies)])
    assert out.returncode == 3 and out.stdout == ""
    assert json.loads(out.stderr) == {
        "engine": "monoid.hilbert",
        "cap": "HILBERT_COORD_CAP",
        "limit": 16000000,
        "count": candidates * n,
        "message": f"hilbert basis search: {candidates} candidates of {n} coefficients "
        f"make {candidates * n} coordinates, over HILBERT_COORD_CAP = 16000000",
    }


@pytest.mark.parametrize(
    "weights",
    [
        ",".join(["1"] * 300 + ["-1"] * 300),
        ",".join(["1"] * 2000 + ["-1"] * 2000),
        # three independent weights, repeated: a search that grew candidates
        # over the copies stopped at HILBERT_COORD_CAP after about 7 s
        "(-1,-2,2);(-1,-2,2);(-1,-2,2);(2,2,-1);(-1,1,-2);(-1,1,-2)",
    ],
    ids=["300-copies", "2000-copies", "three-independent"],
)
def test_torus_check_searches_the_distinct_weights(weights):
    # the verdict searches the distinct weights alone and spreads nothing
    start = time.perf_counter()
    code, out = run_cli(["torus-check", f"--weights={weights}"])
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["coreduced"] is True


@pytest.mark.parametrize(
    "group, module", [("G2", "3*[0,2]"), ("G2", "3*[1,1]"), ("B2", "3*[2,2]"), ("G2", "2*[2,2]")]
)
def test_slices_with_many_equal_weights_get_a_certificate(group, module):
    # these searches once stopped at the coordinate cap; on the distinct
    # weights each finds a degree-3 relation, the search alone as well as
    # the circuit scan
    from coreduce.slices import weyl_symmetric_list
    from oracles import brute_force_minimal_relations, reference_toral_slice

    code, out = run_cli(["classify", group, module])
    assert code == 1
    (row,) = json.loads(out)["rows"]
    assert row["coreduced"] == "no"
    (cert,) = row["certificates"]
    assert cert["kind"] == "toral_relation" and cert["coeffs"] == [2, 1]
    searched = run_in_one_gigabyte(["bad-slice", group, module], WITHOUT_THE_SCAN)
    assert searched.returncode == 0
    assert json.loads(searched.stdout)["certificate"] == cert
    weights = [tuple(w) for w in cert["weights"]]
    coeffs = tuple(cert["coeffs"])
    assert coeffs in brute_force_minimal_relations(weights, sum(coeffs))
    g = parse_group(group)
    slice_weights, _ = weyl_symmetric_list(g, reference_toral_slice(parse_module(g, module)))
    assert set(weights) <= set(slice_weights)


@pytest.mark.parametrize("module", ["[3,2,2,1]", "[2,3,2,0]"])
def test_f4_slices_are_sized_before_any_orbit_is_expanded(module, monkeypatch, capsys):
    # refused with no pair read, and answered by the pair read off the
    # dominant diagram, with no orbit expanded either way
    from coreduce import repthy, slices

    def refuse(g, diagram):
        raise AssertionError("an orbit was expanded")

    # the one orbit expansion, under both names the package binds it to
    for binder in (repthy, slices):
        monkeypatch.setattr(binder, "expand_orbits", refuse)
    with monkeypatch.context() as mp:
        mp.setattr(slices, "diagram_pair", lambda g, diagram: None)
        assert main(["classify", "F4", module]) == 3
    assert json.loads(capsys.readouterr().err) == hilbert_cap_error("F4", module)
    assert main(["classify", "F4", module]) == 1
    assert json.loads(capsys.readouterr().out)["rows"][0]["coreduced"] == "no"


def test_rank3_components_are_byte_identical_across_runs():
    a = run_cli(["components", "A3", "[0,1,2]"])
    assert a == run_cli(["components", "A3", "[0,1,2]"])
    assert all(
        type(v) is int for c in json.loads(a[1])["candidates"] for v in c["cocharacter"]
    )


def test_g2xg2_components_checked_have_dominant_cocharacters(monkeypatch):
    # testing only the highest weight of a covariant is sound on Borel-stable
    # sets, the positive weight spaces of dominant cocharacters
    from coreduce import classify, cli, nullcone

    checked = []
    vanishes = nullcone.covariant_vanishes

    def recorded(adm, *args, **kwargs):
        checked.append(adm)
        return vanishes(adm, *args, **kwargs)

    for module in (nullcone, classify, cli):
        monkeypatch.setattr(module, "covariant_vanishes", recorded)
    for argv in (["classify", "G2xG2", "[1,0,1,0]"], ["verify-paper", "--suite", "appendixB"]):
        checked.clear()
        code, _ = run_cli(argv)
        assert code == (1 if argv[0] == "classify" else 0)
        assert len(checked) == paper.G2XG2_MAXIMAL_SETS
        assert all(a.defining.is_dominant() for a in checked)
