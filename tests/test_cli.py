import json
import os
import subprocess
import sys

import pytest

import coreduce
from coreduce import paper
from coreduce.cli import main

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


def test_import_does_not_load_numpy():
    """Only symmetric powers use numpy, so a cold start does not import it."""
    code = "import sys, coreduce.cli; sys.exit('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stdout + out.stderr


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


def test_bad_slice_command():
    code, out = run_cli(["bad-slice", "A1", "[6]"])
    assert code == 0 and json.loads(out)["bad"]
    code, out = run_cli(["bad-slice", "G2", "[0,1]"])
    assert code == 1 and not json.loads(out)["bad"]


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


def test_classify_exit_zero_on_yes():
    code, out = run_cli(["classify", "A2", "[1,1]"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["coreduced"] in ("yes", "yes_paper_proof")


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


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_covariant_degree_below_one_exits_two(degree):
    code, out = run_cli(
        ["covariant-vanish", "A2", "[2,1]", "--target", "[1,0]", "--degree", degree]
    )
    assert code == 2
    assert out == ""


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
        with monkeypatch.context() as mp:
            mp.setattr(module, cap, 10)
            assert run_cli(argv) == (3, ""), cap
        err = capsys.readouterr().err
        assert err.startswith("resource limit: ") and f"{cap} = 10" in err


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
    err = capsys.readouterr().err
    assert "out of memory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("group, module", [("G2", "3*[0,2]"), ("B3", "[1,3,0]")])
def test_hilbert_search_stops_at_its_cap_before_memory_runs_out(group, module):
    # both toral-slice searches once ran until a 1 GB address space was full
    import resource
    import time

    def one_gigabyte():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = os.path.dirname(os.path.dirname(coreduce.__file__))
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "coreduce.cli", "classify", group, module],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=one_gigabyte,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert time.perf_counter() - t0 < 10
    assert out.returncode == 3 and out.stdout == ""
    assert out.stderr.startswith("resource limit: hilbert basis search: ")
    assert "over HILBERT_COORD_CAP = 16000000" in out.stderr


def test_rank3_components_are_byte_identical_across_runs():
    a = run_cli(["components", "A3", "[0,1,2]"])
    assert a == run_cli(["components", "A3", "[0,1,2]"])
    assert all(
        "/" not in v for c in json.loads(a[1])["candidates"] for v in c["cocharacter"]
    )
