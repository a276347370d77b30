import ast
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

import coreduce
from coreduce import paper
from coreduce.cli import main
from coreduce.repthy import parse_module, weyl_dim
from coreduce.rootsys import parse_group

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
    assert payload["schema"] == 1
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
    assert json.loads(out)["certificate"]["coeffs"] == list(paper.TORUS_FOUR_SIX_GENERATOR)


def test_torus_check_runs_one_hilbert_search(monkeypatch):
    from coreduce import monoid

    searches = []
    search = monoid.iter_hilbert_basis

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(monoid, "iter_hilbert_basis", counted)
    code, out = run_cli(["torus-check", "--weights", FOUR_SIX])
    assert code == 1
    assert json.loads(out)["certificate"]["coeffs"] == list(paper.TORUS_FOUR_SIX_GENERATOR)
    assert len(searches) == 1


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
    """No dead helpers: every top-level function and class of the package is
    read somewhere in it outside its own definition.  The ``cmd_*`` handlers
    are exempt: ``main`` looks them up by name."""
    pkg = pathlib.Path(coreduce.__file__).parent
    spans = {}
    for path in sorted(pkg.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("cmd_"):
                spans.setdefault(node.name, []).append(
                    (str(path.relative_to(pkg)), node.lineno, node.end_lineno)
                )
    read = set()
    for where, name in _package_names():
        path, line = where.rsplit(":", 1)
        if all(path != p or not lo <= int(line) <= hi for p, lo, hi in spans.get(name, ())):
            read.add(name)
    assert sorted(set(spans) - read) == []


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
    """The parser is built on the first main() call, not at import, and is
    reused by every later call."""
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
        "for _ in range(2):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert coreduce.cli.main(['rootsys', 'A1']) == 0",
        "    counts.append(len(made))",
        "print(json.dumps(counts))",
    ])
    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stdout + out.stderr
    at_import, first, second = json.loads(out.stdout)
    assert at_import == 0
    assert first > 0 and second == first


def test_reused_parser_keeps_no_output_mode():
    code, out = run_cli(["--output", "text", "rootsys", "A2"])
    assert code == 0 and "weyl_order: 6" in out
    code, out = run_cli(["rootsys", "A2"])
    assert code == 0 and json.loads(out)["weyl_order"] == 6


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


def test_weights_expands_no_orbit(monkeypatch):
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

    monkeypatch.setattr(repthy, "weight_diagram", counting("weight_diagram", repthy.weight_diagram))
    monkeypatch.setattr(repthy, "closure", counting("closure", repthy.closure))
    monkeypatch.setattr(rootsys, "closure", counting("closure", rootsys.closure))
    code, out = run_cli(["weights", "E6", "[0,0,0,0,3,0]"])
    assert code == 0
    got = json.loads(out)
    assert got["zero_multiplicity"] + got["nonzero_weight_count"] == got["dimension"] == 1559376
    assert calls == []


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
@pytest.mark.parametrize("weights", ["", "  ", "4,,6"], ids=["empty", "blank", "empty-entry"])
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
    assert run_cli(["bad-slice", group, module])[0] in (0, 1)
    m = parse_module(parse_group(group), module)
    assert weight_builds == [hw for _, hw in m.summands]


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


# the exact classify output for one module per certificate kind
CLASSIFY_GOLDEN = [
    pytest.param(
        "A1",
        "[1]+2*[2]",
        1,
        (
            '{"rows": [{"certificates": [{"coeffs": [2, 1], "kind": "toral_relation",'
            ' "note": "", "weights": [[-1], [2]]}], "coreduced": "no", "group": "A1",'
            ' "module": "[1]+2*[2]", "notes": [], "theorem": "binary-forms"}],'
            ' "schema": 1}\n'
        ),
        id="toral_relation",
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
            ' "theorem": "semisimple-irreducible"}], "schema": 1}\n'
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
            ' "theorem": "exceptional-E6"}], "schema": 1}\n'
        ),
        id="roots_mult2",
    ),
    pytest.param(
        "A1xA2",
        "[2,1,1]",
        1,
        (
            '{"rows": [{"certificates": [{"coeffs": [1, 1, 2, 2], "kind": "product_rule",'
            ' "note": "", "weights": [[2, 3, 0], [-2, 3, 0], [-2, 0, 3], [2, -3, -3]]}],'
            ' "coreduced": "no", "group": "A1xA2", "module": "[2,1,1]", "notes": [],'
            ' "theorem": "semisimple-irreducible"}], "schema": 1}\n'
        ),
        id="product_rule",
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
            ' "theorem": "binary-forms"}], "schema": 1}\n'
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
            ' "theorem": "binary-forms"}], "schema": 1}\n'
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
            ' {"cocharacter": "(2, 5)", "codim_lower_bound": "2", "directions": "4",'
            ' "generator_bounds_by_degree": "[0, 0, 1, 0, 0, 2, 0, 0, 1, 0, 0, 10]",'
            ' "generators_available": "1", "kind": "data", "max_monomial_degree": "4"}],'
            ' "coreduced": "no", "group": "A2", "module": "[1,2]",'
            ' "notes": ["rank of the invariant differentials on a dominant component"],'
            ' "theorem": "rank2-special-linear"}], "schema": 1}\n'
        ),
        id="data",
    ),
    pytest.param(
        "A2",
        "[0,1]",
        0,
        (
            '{"rows": [{"certificates": [{"kind": "citation",'
            ' "statement": "cofree; quotient of small dimension"}],'
            ' "coreduced": "yes_paper_proof", "group": "A2", "module": "[0,1]",'
            ' "notes": [], "theorem": "rank2-special-linear"}], "schema": 1}\n'
        ),
        id="citation",
    ),
]


@pytest.mark.parametrize("group, module, code, stdout", CLASSIFY_GOLDEN)
def test_classify_prints_the_recorded_bytes(group, module, code, stdout):
    assert run_cli(["classify", group, module]) == (code, stdout)


def test_usage_errors_exit_two():
    assert run_cli(["no-such-command"])[0] == 2
    assert run_cli([])[0] == 2
    assert run_cli(["rootsys", "Z9"])[0] == 2
    assert run_cli(["classify", "A2", "[1,0,0]"])[0] == 2


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
    assert want[0] == 1 and json.loads(want[1])["schema"] == 1
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


def test_resource_limit_exit_three(monkeypatch, capsys):
    from coreduce import monoid, repthy

    for module, cap, argv in [
        (monoid, "SUM_STATE_CAP", ["verify-paper", "--suite", "appendixA"]),
        (repthy, "SYMPOW_CELL_CAP", ["verify-paper", "--suite", "appendixB"]),
        (monoid, "HILBERT_COORD_CAP", ["torus-check", "--weights", FOUR_SIX]),
    ]:
        # JSON mode (the default) writes the error's fields as one object on
        # stderr; text mode writes one line
        with monkeypatch.context() as mp:
            mp.setattr(module, cap, 10)
            assert run_cli(argv) == (3, ""), cap
            err = json.loads(capsys.readouterr().err)
            assert (err["cap"], err["limit"]) == (cap, 10)
            assert err["message"].endswith(f", over {cap} = 10")
            assert run_cli(["--output", "text", *argv]) == (3, ""), cap
            assert capsys.readouterr().err == f"resource limit: {err['message']}\n"


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
    repthy.simple_dominant_diagram.cache_clear()
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


# The G2xG2 S^9 of appendixB, with the target (0,0,1,0) and 0: each G2 factor's
# weights span -2..2 and -1..1, and the dominant representatives of the
# points w(lam+rho) - rho fill the box F = 0..5 x 0..3 x 0..6 x 0..3.  Degree
# k keeps the cells of k*mn .. k*mx inside F - (9-k)*mx .. F - (9-k)*mn.
G2XG2_SYMPOW_CELLS = sum(
    math.prod(
        min(k * h, f_hi - (9 - k) * l) - max(k * l, f_lo - (9 - k) * h) + 1
        for l, h, f_lo, f_hi in zip((-2, -1, -2, -1), (2, 1, 2, 1), (0, 0, 0, 0), (5, 3, 6, 3))
    )
    for k in range(10)
)


def test_sympow_cell_cap_counts_the_per_degree_boxes(monkeypatch, capsys):
    """The G2xG2 S^9 of appendixB holds one clipped box per degree; the cap
    counts exactly those cells, before any is built."""
    from coreduce import repthy

    assert G2XG2_SYMPOW_CELLS == 122_313
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
        "limit": 122312,
        "count": 122313,
        "message": "symmetric_power would need 122313 DP cells, "
        "over SYMPOW_CELL_CAP = 122312",
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


def test_text_output_mode():
    code, out = run_cli(["--output", "text", "rootsys", "A2"])
    assert code == 0
    assert "weyl_order: 6" in out


def test_fast_suites_pass():
    for suite in ["torus", "sl2", "classical", "semisimple", "appendixA"]:
        code, out = run_cli(["verify-paper", "--suite", suite])
        assert code == 0, (suite, out)
        payload = json.loads(out)
        assert payload["ok"]
        assert all(c["ok"] for c in payload["suites"][suite])


def test_unknown_suite_is_usage_error():
    assert run_cli(["verify-paper", "--suite", "nonsense"])[0] == 2


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

    def exhausted(cfg, args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_classify", exhausted)
    assert main(["classify", "A2", "[1,1]"]) == 3
    assert json.loads(capsys.readouterr().err) == {"message": "out of memory"}
    assert main(["--output", "text", "classify", "A2", "[1,1]"]) == 3
    assert capsys.readouterr().err == "resource limit: out of memory\n"


# (stored candidates, weights) when each search below hits its cap; the
# search checks each candidate as it is stored, so it stops at the first
# count over HILBERT_COORD_CAP // weights.  The G2 "2*[3,3]" and F4 slices
# are sized before the search starts
HILBERT_CAP_COUNTS = {
    ("G2", "2*[2,2]"): (11397, 1404),
    ("B3", "[1,3,0]"): (5424, 2950),
    ("G2", "2*[3,3]"): (8052, 8052),
    ("F4", "[3,2,2,1]"): (312481753416, 312481753416),
    ("F4", "[2,3,2,0]"): (208297263504, 208297263504),
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


@pytest.mark.parametrize(
    "group, module",
    [
        ("G2", "2*[2,2]"),
        ("B3", "[1,3,0]"),
        ("F4", "[3,2,2,1]"),
        ("F4", "[2,3,2,0]"),
        ("G2", "2*[3,3]"),
    ],
)
def test_hilbert_search_stops_at_its_cap_before_memory_runs_out(group, module):
    # each toral-slice search here stops at the coordinate cap inside a 1 GB
    # address space, which all but G2 "2*[2,2]" were once seen to fill; the
    # F4 slices (about 3e11 weights) are sized before they are listed.  The
    # counts pin the candidates the search stores.
    out = run_in_one_gigabyte(["classify", group, module])
    assert out.returncode == 3 and out.stdout == ""
    assert json.loads(out.stderr) == hilbert_cap_error(group, module)


def run_in_one_gigabyte(argv):
    """Run the CLI in a child process limited to a 1 GB address space;
    it must finish within 10 s."""
    import resource
    import time

    def one_gigabyte():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "coreduce.cli", *argv],
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


@pytest.mark.parametrize("command", ["torus-check", "hilbert-basis"])
@pytest.mark.parametrize("copies, candidates", [(300, 26667), (2000, 4001)])
def test_long_copy_chains_stop_at_the_coordinate_cap(command, copies, candidates):
    # k copies of 1 and k of -1: the degree-2 relations are the k * k
    # arrangements of one copy of each, which count against the cap before
    # any is listed, so the search stops at the first candidate past
    # HILBERT_COORD_CAP // 2k, as when every arrangement was grown
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
    "group, module", [("G2", "3*[0,2]"), ("G2", "3*[1,1]"), ("B2", "3*[2,2]")]
)
def test_slices_with_many_equal_weights_get_a_certificate(group, module):
    # these searches once stopped at the coordinate cap; grown only over
    # copy-ascending candidates, each finds a degree-3 relation
    from coreduce.slices import toral_slice, weyl_symmetric_list
    from oracles import brute_force_minimal_relations

    code, out = run_cli(["classify", group, module])
    assert code == 1
    (row,) = json.loads(out)["rows"]
    assert row["coreduced"] == "no"
    (cert,) = row["certificates"]
    assert cert["kind"] == "toral_relation" and cert["coeffs"] == [2, 1]
    weights = [tuple(w) for w in cert["weights"]]
    coeffs = tuple(cert["coeffs"])
    assert coeffs in brute_force_minimal_relations(weights, sum(coeffs))
    g = parse_group(group)
    slice_weights, _ = weyl_symmetric_list(g, toral_slice(parse_module(g, module)))
    assert set(weights) <= set(slice_weights)


@pytest.mark.parametrize("module", ["[3,2,2,1]", "[2,3,2,0]"])
def test_f4_slices_are_sized_before_any_orbit_is_expanded(module, monkeypatch, capsys):
    from coreduce import repthy

    def refuse(g, hw):
        raise AssertionError("an orbit was expanded")

    monkeypatch.setattr(repthy, "weight_diagram", refuse)
    assert main(["classify", "F4", module]) == 3
    assert json.loads(capsys.readouterr().err) == hilbert_cap_error("F4", module)


def test_rank3_components_are_byte_identical_across_runs():
    a = run_cli(["components", "A3", "[0,1,2]"])
    assert a == run_cli(["components", "A3", "[0,1,2]"])
    assert all(
        "/" not in v for c in json.loads(a[1])["candidates"] for v in c["cocharacter"]
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
