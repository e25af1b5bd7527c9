"""Exit-code contract on malformed input: exit 2 with an ``error:`` line,
never a traceback, and nothing on stdout."""
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
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


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_2(argv):
    env = dict(os.environ)
    src = str(Path(cantorperm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cantorperm", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


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
# five characters bound a modulus, and so the shift permutation built for it
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
