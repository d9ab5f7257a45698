import json
import os
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

from conftest import GRAPH_DIR
import sgis.cli
import sgis.oracle
from sgis.cli import main
from sgis.paths import parse_word_string
from sgis.semigroup import evaluate, normal_form

ROSE2F = str(GRAPH_DIR / "rose2f.sg")
ROSE2T = str(GRAPH_DIR / "rose2t.sg")
ROSE1T = str(GRAPH_DIR / "rose1t.sg")
FIM2 = str(GRAPH_DIR / "fim2.sg")
FIM2INF = str(GRAPH_DIR / "fim2inf.sg")
MIXED = str(GRAPH_DIR / "mixed.sg")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nf_golden(capsys):
    code, out, _ = run(
        capsys, "nf", ROSE2F, "-w", "e e ~e f ~f e f f ~f e ~e ~f ~f"
    )
    assert code == 0
    assert out == "(e f)(e e f f)(e e f e) | e e ~f\n"


def test_nf_zero(capsys):
    code, out, _ = run(capsys, "nf", ROSE2T, "-w", "~e f")
    assert code == 0 and out == "0\n"


def test_nf_levels(capsys):
    code, out, _ = run(
        capsys, "nf", ROSE2F, "-w", "e e ~e f ~f e f f ~f e ~e ~f ~f", "--level", "free"
    )
    assert code == 0
    assert out == "(e f)(e e ~f)(e e f f)(e e f e) | e e ~f\n"


def test_eq(capsys):
    code, out, _ = run(capsys, "eq", ROSE2F, "-a", "e ~e f ~f", "-b", "f ~f e ~e")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "EQUAL"
    assert lines[1] == lines[2].replace("B:", "A:")


def test_eq_unequal(capsys):
    code, out, _ = run(capsys, "eq", ROSE2F, "-a", "e", "-b", "f")
    assert code == 0 and out.splitlines()[0] == "UNEQUAL"


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", ROSE2F, "-a", "e", "-b", "~e f")
    assert code == 0
    assert out == "(f)(e) | f\n"


@pytest.mark.parametrize(
    "graph, a, b, want",
    [
        (ROSE2T, "e ~e", "f ~f", "0\n"),  # e and f share a block
        (ROSE2F, "e ~e", "f ~f", "(f)(e) | v\n"),
        (MIXED, "a ~a", "a d ~d ~a", "(a d) | v\n"),
    ],
)
def test_mul_idempotents(capsys, graph, a, b, want):
    """Products of two idempotents, which merge their trees."""
    code, out, _ = run(capsys, "mul", graph, "-a", a, "-b", b)
    assert (code, out) == (0, want)


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", FIM2INF)
    assert code == 0
    assert "finitely separated: no" in out
    assert "infinite sources: v" in out


def test_validate_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.sg"
    bad.write_text("vertex v\nvertex v\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and "line 2" in err


def test_undecodable_graph_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "latin1.sg"
    bad.write_bytes("vertex v\nvertex caf\xe9\n".encode("latin-1"))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and err.startswith("error:") and "UTF-8" in err


def test_word_error_exit_code(capsys):
    code, _, err = run(capsys, "nf", ROSE2F, "-w", "ghost")
    assert code == 2 and "ghost" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "nf", "no-such-file.sg", "-w", "e")
    assert code == 2


def test_enumerate_basis(capsys):
    code, out, _ = run(capsys, "enumerate", ROSE1T, "--max-len", "1", "--what", "basis")
    assert code == 0
    assert out.splitlines()[-1] == "count: 5"
    # the idempotents are the basis elements whose carrier is a vertex
    code, out, _ = run(capsys, "enumerate", ROSE1T, "--max-len", "1", "--what", "idempotents")
    assert (code, out) == (0, "(v) | v\n(e) | v\ncount: 2\n")


def test_enumerate_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "enumerate", ROSE2F, "--max-len", "3", "--what", "basis", "--budget", "10"
    )
    assert code == 3 and "budget" in err


def test_enumerate_nc_paths(capsys):
    code, out, _ = run(
        capsys, "enumerate", ROSE2F, "--max-len", "1", "--what", "nc-paths"
    )
    assert code == 0
    lines = out.splitlines()
    assert set(lines[:-1]) == {"v: e", "v: f"}


def test_spectrum_check(capsys):
    code, out, _ = run(
        capsys, "spectrum", FIM2INF, "--check", "tight", "--set", "v", "--depth", "1"
    )
    assert code == 0 and out.splitlines()[0] == "PASS depth=1"
    code, out, _ = run(
        capsys, "spectrum", FIM2INF, "--check", "ultra", "--set", "v", "--depth", "1"
    )
    assert code == 0 and out.splitlines()[0] == "FAIL witness=v"
    # past the root: v is complete, and f, first in path order, sees only
    # the letter back to v, ~f
    code, out, _ = run(
        capsys, "spectrum", ROSE2F, "--check", "ultra", "--set", "e, f, ~e, ~f", "--depth", "2"
    )
    assert (code, out) == (0, "FAIL witness=f\n")
    # neither a check nor the cylinder mode: nothing to do
    code, out, err = run(capsys, "spectrum", FIM2INF, "--set", "v")
    assert (code, out) == (2, "") and "--check and --set are required" in err


def test_spectrum_cylinder_ops(capsys):
    code, out, _ = run(
        capsys, "spectrum", ROSE2T, "cylinder", "--op", "intersect",
        "--i1", "e", "--i2", "f",
    )
    assert code == 0 and out == "EMPTY\n"
    code, out, _ = run(
        capsys, "spectrum", ROSE2F, "cylinder", "--op", "diff", "--i1", "v", "--i2", "e"
    )
    assert code == 0 and out == "Z({v} \\ {e})\n"
    # e e and e f leave e by the two edges of rose2t's block B1, so the
    # subset H = {e e, e f} of F2 names no tree and gives no part
    code, out, _ = run(
        capsys, "spectrum", ROSE2T, "cylinder", "--op", "diff",
        "--i1", "v", "--i2", "e", "--f2", "e e, e f",
    )
    assert code == 0
    assert out == "Z({v} \\ {e})\nZ({v, e, e f} \\ {})\nZ({v, e, e e} \\ {})\n"
    code, out, _ = run(
        capsys, "spectrum", ROSE2F, "cylinder", "--op", "member",
        "--i1", "e", "--set", "e e, f", "--depth", "4",
    )
    assert code == 0 and out == "true\n"
    # Z({v, e}) lies inside Z({v}): the difference has no part
    code, out, _ = run(
        capsys, "spectrum", ROSE2F, "cylinder", "--op", "diff", "--i1", "e", "--i2", "v"
    )
    assert code == 0 and out == "EMPTY\n"


BAD_PATHS = [
    (ROSE2F, "e ~e", "path 'e ~e' is not reduced"),
    (ROSE2T, "~e f", "path '~e f' is not separated"),
    (FIM2, "e1 ~f2", "word 'e1 ~f2' is not composable"),
]
# the spectrum flags that take paths, each in a command with the text at {}
PATH_FLAGS = {
    "--i1": ["cylinder", "--op", "intersect", "--i1", "{}", "--i2", "v"],
    "--i2": ["cylinder", "--op", "intersect", "--i1", "v", "--i2", "{}"],
    "--f1": ["cylinder", "--op", "intersect", "--i1", "v", "--f1", "{}", "--i2", "v"],
    "--f2": ["cylinder", "--op", "diff", "--i1", "v", "--i2", "v", "--f2", "{}"],
    "--set": ["cylinder", "--op", "member", "--i1", "v", "--set", "{}"],
    "--check --set": ["--check", "ultra", "--set", "{}"],
}
NO_PATHS = (ROSE2F, " , ", "empty path set")
DOOR_CASES = [(*case, flag) for case in [*BAD_PATHS, NO_PATHS] for flag in PATH_FLAGS]


@pytest.mark.parametrize(
    "graph, text, err, flag",
    # a case through --i1 is named without its flag
    [pytest.param(*c, id="-".join(c if c[3] != "--i1" else c[:3])) for c in DOOR_CASES],
)
def test_spectrum_rejects_a_path_at_the_door(capsys, graph, text, err, flag):
    """A path given on the command line is read once, and checked once by
    the door it goes into: `lower_closure` for a tree (--i1, --i2),
    `make_cylinder` for an excluded path (--f1, --f2, a CylinderError with
    the same words) and `make_truncation` for a truncation (--set, in the
    cylinder mode and under --check).  A word that does not compose keeps
    its own message.  A list that names no path is rejected by one parser,
    `cli._parse_path_set`, with the same message for every flag."""
    argv = [text if a == "{}" else a for a in PATH_FLAGS[flag]]
    got = run(capsys, "spectrum", graph, *argv)
    assert got == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("flag", ["--f1", "--f2"])
def test_spectrum_empty_exclusions_exclude_nothing(capsys, flag):
    """An omitted or empty --f1 or --f2 means no excluded paths."""
    argv = ["spectrum", ROSE2F, "cylinder", "--op", "intersect", "--i1", "e", "--i2", "v"]
    assert run(capsys, *argv, flag, "") == run(capsys, *argv) == (0, "Z({v, e} \\ {})\n", "")


@pytest.mark.parametrize(
    "script, flag",
    [("run_crosscheck.py", "--len=0"), ("run_crosscheck.py", "--samples=-1"), ("basis_growth.py", "--budget=0"),
     ("basis_growth.py", "--max-len=-1"), ("spectrum_demo.py", "--depth=-1")],
)
def test_script_flag_out_of_range_exit_code(script, flag):
    """The scripts' numbers are range-checked as the command line's are."""
    path = FilePath(__file__).resolve().parents[1] / "scripts" / script
    done = subprocess.run([sys.executable, str(path), flag], capture_output=True, text=True)
    assert done.returncode == 2 and "must be at least" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "flags, missing",
    [
        (["--i1", "v", "--i2", "e"], "--op"),
        (["--op", "diff", "--i2", "e"], "--i1"),
        (["--op", "diff", "--i1", "v"], "--i2"),
        (["--op", "intersect", "--i1", "v"], "--i2"),
        (["--op", "member", "--set", "v"], "--i1"),
        (["--op", "member", "--i1", "v"], "--set (the truncation)"),
    ],
)
def test_spectrum_cylinder_missing_flag_exit_code(capsys, flags, missing):
    code, out, err = run(capsys, "spectrum", ROSE2F, "cylinder", *flags)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {missing} is required")


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", FIM2INF, "--check", "tight", "--set", "v", "--depth", "-3"],
        ["enumerate", ROSE1T, "--max-len", "-1"],
        ["enumerate", ROSE1T, "--budget", "0"],
        ["cover", ROSE2T, "--vertex", "v", "--block", "B1", "--max-len", "-1"],
        ["cover", ROSE2T, "--vertex", "v", "--block", "B1", "--demos", "-1"],
        ["cover", ROSE2T, "--vertex", "v", "--block", "B1", "--budget", "0"],
        ["aut", FIM2, "--budget", "0"],
        ["oracle", "crosscheck", ROSE2T, "--samples", "-1"],
        ["oracle", "crosscheck", ROSE2T, "--len", "0"],
    ],
)
def test_numeric_flag_out_of_range_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_cover(capsys):
    code, out, _ = run(
        capsys, "cover", ROSE2T, "--vertex", "v", "--block", "B1", "--max-len", "3"
    )
    assert code == 0
    assert "no counterexample" in out.splitlines()[0]
    assert "witness check" in out.splitlines()[-1]


def test_cover_two_edge_block(capsys):
    """Compatibility against a two-edge block: the witnesses pick the edge a
    tree already uses, and the first edge otherwise.  The witnesses walk the
    path list that the check has paid for, so the check's 60 paths and 11
    search nodes are the whole budget; one unit less stops the check before
    it prints."""
    argv = ("cover", MIXED, "--vertex", "v", "--block", "VAB", "--max-len", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "cover by block VAB: no counterexample up to max-len=3",
        "witness {v} -> a",
        "witness {v, a} -> a",
        "witness {v, b} -> b",
        "witness {v, c} -> a",
        "witness {v} -> a",
        "witness check: 60 trees validated",
    ]
    assert run(capsys, *argv, "--budget", "71")[:2] == (0, out)
    code, out, err = run(capsys, *argv, "--budget", "70")
    assert (code, out) == (3, "") and "budget" in err


def test_cover_unknown_block(capsys):
    code, _, err = run(
        capsys, "cover", ROSE2T, "--vertex", "v", "--block", "nope", "--max-len", "3"
    )
    assert code == 2
    # an infinite block has no finite cover to verify
    code, out, err = run(capsys, "cover", FIM2INF, "--vertex", "v", "--block", "B1", "--max-len", "3")
    assert (code, out) == (2, "") and "needs a finite block" in err


def test_aut(capsys):
    code, out, _ = run(capsys, "aut", FIM2)
    assert code == 0
    assert out.splitlines()[-1] == "count: 8"


def test_internal_error_exit_code(capsys, monkeypatch):
    """An exception that is no SgisError is a bug: exit 4 and one stderr line,
    never exit 1 (a property violation) and never a traceback."""

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(sgis.cli, "cmd_validate", crash)
    code, out, err = run(capsys, "validate", ROSE2T)
    assert code == 4 and out == ""
    assert err == "internal error: RuntimeError('boom')\n"


def test_oracle_crosscheck(capsys, monkeypatch):
    """A clean report exits 0.  An oracle that disagrees with the engine is
    a property violation: exit 1, and the report records the word, which
    reads back to the atoms the oracle was given, with both normal forms."""
    code, out, _ = run(
        capsys, "oracle", "crosscheck", ROSE2T, "--samples", "60", "--len", "6"
    )
    assert code == 0
    report = json.loads(out)
    assert report["samples"] == 60 and report["disagreements"] == []
    given = []

    def wrong(graph, atoms):
        given.append(list(atoms))
        return "wrong"

    monkeypatch.setattr(sgis.oracle, "string_normal_form", wrong)
    code, out, _ = run(capsys, "oracle", "crosscheck", ROSE2T, "--samples", "1", "--len", "6")
    assert code == 1
    [record] = json.loads(out)["disagreements"]
    graph = sgis.cli._load_graph(ROSE2T)
    assert parse_word_string(graph, record["word"]) == given[0]
    assert record["engine"] == normal_form(graph, evaluate(graph, given[0])) != "wrong"
    assert record["oracle"] == "wrong"


def test_output_is_deterministic(capsys):
    runs = set()
    for _ in range(2):
        _, out, _ = run(
            capsys, "nf", ROSE2F, "-w", "f ~f e e ~e f"
        )
        runs.add(out)
    assert len(runs) == 1


def test_main_in_process_matches_a_fresh_process(capsys, monkeypatch):
    """`main` keeps the parser it built first.  Repeated calls in one process,
    with an argparse error (exit 2) and the help screens among them, print
    what a fresh process prints and exit with the same code."""
    calls = [
        ["nf", ROSE2F, "-w", "e ~e f"],
        ["nf", ROSE2F, "-w", "e", "--level", "bogus"],
        ["eq", ROSE2F, "-a", "e ~e f ~f", "-b", "f ~f e ~e"],
        ["--help"],
        ["nf", "--help"],
        ["mul", ROSE2F, "-a", "e"],
        ["nf", ROSE2F, "-w", "e e ~e f", "--level", "free"],
        ["validate", ROSE2T],
        ["aut", FIM2, "--budget", "0"],
        ["aut", FIM2, "--budget", "1"],
        ["nf", ROSE2F, "-w", "e ~e f"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal
    src = str(FilePath(sgis.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fresh_main = "import sys; from sgis.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: help and usage errors
            code = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", fresh_main, *argv], capture_output=True, text=True, env=env
        )
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
