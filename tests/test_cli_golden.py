"""Golden output of every subcommand in every format.

Each case runs ``main`` with one argv and ``--format`` set to table, csv and
json, and compares the exit code and the exact stdout with
``cli_golden.json``.  Regenerate that file only when an output change is
intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import json
from pathlib import Path

import pytest

from cantorperm.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("table", "csv", "json")
PERMS = "2:1,0;3:2,0,1;5:4,0,1,2,3"

CASES = {
    "expand": ["expand", "--bases", "2,3,5", "--value", "29/30"],
    "decode": ["decode", "--bases", "2,3,5", "--digits", "1,2,4"],
    "map": ["map", "--bases", "2,3,5", "--perms", PERMS, "--value", "29/30"],
    "orbit_count": ["orbit", "--bases", "2,3,5,7", "--alpha", "1/3", "--count", "9"],
    "orbit_at": ["orbit", "--bases", "2,3,5", "--at", "1000000000000"],
    "check_ud": ["check", "ud", "--bases", "2,3,5,7", "--level", "2", "--count", "13"],
    "check_equivalence": [
        "check", "equivalence", "--bases", "2,3,5", "--perms", PERMS,
        "--alpha", "3/7", "--level", "2", "--count", "14",
    ],
    "check_preserve_grid": [
        "check", "preserve", "--bases", "2,3,5", "--source", "grid",
        "--level", "2", "--count", "30",
    ],
    "check_preserve_kronecker": [
        "check", "preserve", "--bases", "2,3,5", "--perms", PERMS,
        "--source", "kronecker", "--level", "1", "--count", "40",
    ],
    "density_intersect": ["density", "--set", "1(2)", "--intersect", "2(3)"],
    "density_empty": ["density", "--set", "(4)"],
    "probe_monotone": [
        "probe", "monotone", "--bases", "2,3,5", "--level", "0", "--interval", "0",
    ],
    "probe_quotient": [
        "probe", "quotient", "--bases", "2,3,5", "--alpha", "29/30",
        "--digit", "2", "--ell", "0",
    ],
    "probe_derivative": [
        "probe", "derivative", "--bases", "2,3,5", "--perms", PERMS,
        "--alpha", "29/30", "--max-level", "3",
    ],
    "probe_derivative_no_levels": [
        "probe", "derivative", "--bases", "2,3,5", "--max-level", "0",
    ],
}


def run_case(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(capsys, golden, name, fmt):
    code, out = run_case(capsys, CASES[name] + ["--format", fmt])
    expected = golden[f"{name}/{fmt}"]
    assert code == expected["code"]
    assert out == expected["stdout"]


@pytest.mark.parametrize("fmt", FORMATS)
def test_out_file_matches_stdout(tmp_path, capsys, golden, fmt):
    target = tmp_path / f"out.{fmt}"
    code, out = run_case(capsys, CASES["orbit_count"] + ["--format", fmt, "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text() == golden[f"orbit_count/{fmt}"]["stdout"]


def _regenerate() -> None:
    import contextlib
    import io

    data = {}
    for name in sorted(CASES):
        for fmt in FORMATS:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                code = main(CASES[name] + ["--format", fmt])
            data[f"{name}/{fmt}"] = {"code": code, "stdout": sink.getvalue()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
