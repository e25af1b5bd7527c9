"""Exit-code contract on malformed input: exit 2 with an ``error:`` line,
never a traceback, and nothing on stdout.  Also: the CLI runs on the
standard library alone."""
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cantorperm
from cantorperm.cli import main

MALFORMED = [
    ["expand", "--bases", "2,x", "--value", "0"],
    ["expand", "--bases", ",", "--value", "0"],
    ["orbit", "--alpha", "abc", "--count", "2"],
    ["orbit", "--alpha", "1/0", "--count", "2"],
    ["expand", "--value", "abc"],
    ["decode", "--digits", "1,x"],
    ["orbit", "--count=--"],
    ["check", "preserve", "--source", "vdc", "--level", "1", "--count", "8",
     "--threshold", "abc"],
    ["probe", "monotone", "--level", "0", "--interval", "0", "--max-descend", "-1"],
    ["probe", "monotone", "--level", "3", "--interval", "0"],
    ["probe", "monotone", "--level", "7", "--interval", "0"],
]


def _cli_env() -> dict:
    """The environment for ``python -m cantorperm`` from this source tree."""
    env = dict(os.environ)
    src = str(Path(cantorperm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_2(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "cantorperm", *argv],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    # as `cantorperm orbit ... | head -1` does: the export is far larger than
    # the pipe, so the writer meets the closed pipe part way through
    argv = ["orbit", "--bases", "2,3,5,7,11,13,17,19,23", "--count", "200000", "--format", "csv"]
    proc = subprocess.Popen([sys.executable, "-m", "cantorperm", *argv], env=_cli_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"n,value_num,value_den,digits\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


# -I -S: no site-packages and no PYTHON* variables, so only the standard library
# and the source tree are importable; the test extras could not hide a runtime import
STDLIB_ONLY = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
from cantorperm.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {argvs!r}]
tops = {{name.partition(".")[0] for name in sys.modules}}
print(json.dumps([codes, sorted(tops - set(sys.stdlib_module_names) - {{"__main__"}})]))
"""


def test_cli_runs_on_the_standard_library_alone():
    src = str(Path(cantorperm.__file__).resolve().parents[1])
    argvs = [
        ["check", "equivalence", "--bases", "2,3,5", "--level", "2", "--count", "60"],
        ["orbit", "--bases", "2,3,5", "--count", "5", "--format", "csv"],
    ]
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", STDLIB_ONLY.format(src=src, argvs=argvs)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0], ["cantorperm"]]


@pytest.mark.parametrize("argv", [["orbit"], ["orbit", "--at", "3", "--count", "4"]], ids=" ".join)
def test_orbit_needs_exactly_one_of_count_and_at(argv, capsys):
    # argparse reports the usage error: a usage block, then "<prog>: error: ..."
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith("cantorperm orbit: error: ")


def test_depth_validates_only_the_used_moduli():
    # 2 and 4 share a factor, but --depth 2 uses only 2,3
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["expand", "--bases", "2,3,4", "--depth", "2", "--value", "1/2"]) == 0
    assert out.getvalue().splitlines()[1] == "1,0"


# no "e" in the alphabet, so no exponent literal can ask for a huge integer;
# five characters bound a modulus
TEXT = st.text(alphabet="0123456789,/-x ", max_size=5)
FUZZED = {
    "bases": lambda s: ["expand", "--value", "1/2", f"--bases={s}"],
    "alpha": lambda s: ["orbit", "--count", "3", f"--alpha={s}"],
    "value": lambda s: ["map", f"--value={s}"],
    "digits": lambda s: ["decode", f"--digits={s}"],
}


@settings(max_examples=200, deadline=None)
@given(option=st.sampled_from(sorted(FUZZED)), text=TEXT)
def test_fuzzed_numbers_keep_exit_contract(option, text):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(FUZZED[option](text))
    assert code in {0, 1, 2, 3}


def _rejected(argv, capsys):
    """``main`` exits 2 with one ``error:`` line and nothing on stdout."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    return err


def test_unwritable_out_exits_2(tmp_path, capsys):
    _rejected(["orbit", "--count", "3", "--out", str(tmp_path / "missing" / "x.csv")], capsys)


@pytest.mark.parametrize("content", [b"\xff\xfe", None], ids=["not-utf8", "directory"])
def test_unreadable_perms_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "perms"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    _rejected(["orbit", "--count", "3", "--perms", str(path)], capsys)


def test_more_perm_lines_than_moduli_exit_2(tmp_path, capsys):
    err = _rejected(
        ["orbit", "--bases", "2,3", "--perms", "2:1,0;3:1,2,0;5:1,2,3,4,0", "--count", "3"],
        capsys,
    )
    assert "LengthMismatch" in err
    path = tmp_path / "perms.txt"
    path.write_text("# three lines\n2: 1,0\n\n3: 1,2,0  # second\n5: 1,2,3,4,0\n")
    err = _rejected(["orbit", "--bases", "2,3", "--perms", str(path), "--count", "3"], capsys)
    assert "LengthMismatch" in err


def test_perm_lines_beyond_depth_are_dropped_with_their_moduli(capsys):
    tail = ["--count", "7", "--format", "csv"]
    assert main(["orbit", "--bases", "2,3,4", "--depth", "2",
                 "--perms", "2:1,0;3:1,2,0;4:1,2,3,0", *tail]) == 0
    dropped = capsys.readouterr().out
    assert main(["orbit", "--bases", "2,3", "--perms", "2:1,0;3:1,2,0", *tail]) == 0
    assert dropped == capsys.readouterr().out


# whole command lines: a subcommand with its required options and any of its
# optional ones, in any order, spelled "--name=value" or "--name value"; small
# values (moduli <= 30, counts <= 100), about one in ten of them malformed
MALFORMED_VALUE = st.sampled_from(["", "x", "1/0", "--", "-", "1.5", "2,,3", "1/2/3"])


def _or_malformed(valid):
    return st.integers(0, 9).flatmap(lambda i: valid if i else MALFORMED_VALUE)


INT = _or_malformed(st.integers(min_value=-1, max_value=4).map(str))
COUNT = _or_malformed(st.integers(min_value=-1, max_value=100).map(str))
FRACTION = _or_malformed(st.sampled_from(["0", "1/2", "29/30", "7/10", "1", "-1/3", "3"]))
INTS = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=3).map(
    lambda xs: ",".join(map(str, xs))
)
PERIODIC_SET = _or_malformed(st.builds("{}({})".format, INTS, st.integers(0, 30)))
COMMON_OPTIONS = {
    "bases": _or_malformed(st.sampled_from(["2,3,5", "2,3", "4,9,5", "7"]) | INTS),
    "perms": _or_malformed(st.sampled_from([
        "shift", "2:1,0;3:1,2,0", "2:0,1", "2:1,0;3:2,0,1;5:1,2,3,4,0", "3:1,1,0",
        "missing-perms.txt",
    ])),
    "alpha": FRACTION,
    "depth": INT,
    "format": _or_malformed(st.sampled_from(["table", "csv", "json"])),
}
# (words, required options, optional options besides the common ones)
COMMANDS = [
    (["expand"], {"value": FRACTION}, {}),
    (["decode"], {"digits": _or_malformed(INTS)}, {}),
    (["map"], {"value": FRACTION}, {}),
    (["orbit"], {"count": COUNT}, {"at": COUNT}),
    (["check", "ud"], {"level": INT, "count": COUNT}, {}),
    (["check", "equivalence"], {"level": INT, "count": COUNT}, {}),
    (["check", "preserve"],
     {"source": st.sampled_from(["vdc", "kronecker", "grid", "sobol"]), "level": INT,
      "count": COUNT},
     {"threshold": FRACTION}),
    (["density"], {"set": PERIODIC_SET}, {"intersect": PERIODIC_SET}),
    (["probe", "monotone"], {"level": INT, "interval": COUNT}, {"max-descend": INT}),
    (["probe", "quotient"], {"digit": INT, "ell": INT}, {}),
    (["probe", "derivative"], {"max-level": INT}, {}),
]


@st.composite
def command_lines(draw):
    words, required, optional = draw(st.sampled_from(COMMANDS))
    options = {**COMMON_OPTIONS, **optional, **required}
    extra = draw(st.lists(st.sampled_from(sorted(COMMON_OPTIONS.keys() | optional.keys())),
                          unique=True))
    argv = list(words)
    for name in draw(st.permutations([*required, *extra])):
        value = draw(options[name])
        argv += [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
@example(argv=["probe", "monotone", "--bases", "2,3", "--level", "0", "--interval", "0",
               "--max-descend", "0"])
def test_whole_command_lines_keep_exit_contract(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()
    if code in {1, 2}:
        assert out.getvalue() == ""


def test_memory_error_exits_1_with_one_error_line(monkeypatch, capsys):
    def exhausted(pv, seed_prefix):
        raise MemoryError("cannot allocate the residue table")

    monkeypatch.setattr(sys.modules["cantorperm.equidist"], "residue_table", exhausted)
    code = main(["check", "equivalence", "--bases", "2,3,5", "--level", "2", "--count", "30"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: MemoryError: cannot allocate the residue table\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_memory_error_without_text_exits_1_saying_out_of_memory(monkeypatch, capsys):
    # an allocation failure raised by the interpreter carries no text
    def exhausted(pv, source, sample, level):
        raise MemoryError()

    monkeypatch.setattr(sys.modules["cantorperm.cli"], "ud_preservation_probe", exhausted)
    code = main(["check", "preserve", "--bases", "2,3,5", "--source", "vdc", "--level", "2",
                 "--count", "30"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: MemoryError: out of memory\n"
    assert captured.out == ""


@pytest.mark.parametrize("check", ["equivalence", "ud"])
def test_equivalence_cross_check_fault_exits_1_with_one_error_line(monkeypatch, capsys, check):
    # orbit_point one step ahead of the numerator stream the proof reads
    equidist = sys.modules["cantorperm.equidist"]
    orbit_point = equidist.orbit_point
    monkeypatch.setattr(equidist, "orbit_point", lambda spec, n: orbit_point(spec, n + 1))
    code = main(["check", check, "--bases", "2,3,5", "--level", "2", "--count", "30"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ComputationError: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_a_level_report_past_the_orbit_period_runs_in_bounded_memory():
    # N = 10^12 past P = B_8 = 9,699,690 with full cycles: D* reads
    # min(r, P - r) iterates, not a period, so a 512 MB address-space
    # limit on the child is enough; reading the period took about 1.7 GB
    pytest.importorskip("resource")
    # the child sets its own limit before it imports the package
    limited = ("import resource, sys; cap = 512 * 2**20; "
               "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
               "from cantorperm.cli import main; sys.exit(main(sys.argv[1:]))")
    argv = ["check", "equivalence", "--bases", "2,3,5,7,11,13,17,19", "--level", "2",
            "--count", "1000000000000", "--format", "csv"]
    proc = subprocess.run(
        [sys.executable, "-c", limited, *argv],
        capture_output=True, text=True, env=_cli_env(), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "j,residue,modulus,count,expected_num,expected_den"
    assert len(lines) == 7
