"""Command-line interface: formats, exit codes, determinism."""
import dataclasses
import json

from hypothesis import example, given
from hypothesis import strategies as st

import cantorperm.cli
import cantorperm.equidist
from cantorperm.cli import _json, build_parser, main
from test_cli_golden import CASES, FORMATS, GOLDEN
from test_equidist import collapsed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_table(capsys):
    code, out, err = run(
        capsys, "expand", "--bases", "2,3,5", "--value", "29/30", "--depth", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# cantorperm ")
    assert lines[1] == "1,2,4"


def test_expand_json_has_no_banner(capsys):
    code, out, err = run(
        capsys, "expand", "--bases", "2,3,5", "--value", "29/30", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"digits": [1, 2, 4], "value_num": 29, "value_den": 30}


def test_decode_round_trip(capsys):
    code, out, err = run(
        capsys, "decode", "--bases", "2,3,5", "--digits", "1,2,4", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["value_num,value_den", "29,30"]


def test_map_value(capsys):
    code, out, err = run(
        capsys, "map", "--bases", "2,3,5", "--value", "0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"digits": [1, 1, 1], "value_num": 7, "value_den": 10}


def test_orbit_csv_schema(capsys):
    code, out, err = run(
        capsys, "orbit", "--bases", "2,3,5", "--count", "3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == [
        "n,value_num,value_den,digits",
        "0,0,1,0;0;0",
        "1,7,10,1;1;1",
        "2,2,5,0;2;2",
    ]


def test_orbit_random_access(capsys):
    code, out, err = run(
        capsys,
        "orbit", "--bases", "2,3,5", "--at", "1000000000000", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1] == "1000000000000,1,6,0;1;0"


def test_orbit_requires_count_or_at(capsys):
    code, out, err = run(capsys, "orbit", "--bases", "2,3,5")
    assert code == 2


def test_check_ud_json(capsys):
    code, out, err = run(
        capsys,
        "check", "ud", "--bases", "2,3,5", "--level", "1", "--count", "12",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == 1
    assert payload["N"] == 12
    assert [iv["count"] for iv in payload["intervals"]] == [6, 6]
    assert {iv["residue"] for iv in payload["intervals"]} == {0, 1}
    assert all(iv["modulus"] == 2 for iv in payload["intervals"])
    assert payload["d_star_den"] > 0


def test_check_equivalence(capsys):
    code, out, err = run(
        capsys,
        "check", "equivalence", "--bases", "2,3,5", "--level", "3",
        "--count", "120", "--format", "csv",
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "j,residue,modulus,count,expected_num,expected_den"
    assert len(rows) == 31
    assert all(row.split(",")[3] == "4" for row in rows[1:])


def test_check_preserve_grid(capsys):
    code, out, err = run(
        capsys,
        "check", "preserve", "--bases", "2,3,5", "--source", "grid",
        "--level", "2", "--count", "30", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["grid_exact"] is True
    assert payload["input_d_star_num"] == payload["image_d_star_num"] == 1
    assert payload["input_d_star_den"] == payload["image_d_star_den"] == 30


def falsified(capsys, *argv):
    """Exit 3 with the report, as JSON, on stdout and one ``check
    falsified:`` line on stderr; returns the report."""
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("check falsified: ")
    return json.loads(out)


def test_check_preserve_threshold_falsified(capsys):
    report = falsified(
        capsys,
        "check", "preserve", "--bases", "2,3,5", "--source", "vdc",
        "--level", "1", "--count", "64", "--threshold", "1/1000000",
    )
    assert report["N"] == 64 and report["grid_exact"] is None


def test_check_ud_unbalanced_counts_falsified(capsys, monkeypatch):
    real = cantorperm.cli.membership_equivalence

    def off_by_one(spec, level, sample):
        report = real(spec, level, sample)
        first = dataclasses.replace(report.intervals[0], count=report.intervals[0].count + 1)
        return dataclasses.replace(report, intervals=(first,) + report.intervals[1:])

    monkeypatch.setattr(cantorperm.cli, "membership_equivalence", off_by_one)
    report = falsified(capsys, "check", "ud", "--bases", "2,3,5", "--level", "2", "--count", "30")
    assert [row["count"] for row in report["intervals"]] == [6] + [5] * 5


GRID = ("check", "preserve", "--bases", "2,3,5", "--source", "grid", "--level", "1", "--count", "60")


def test_check_preserve_grid_not_permuted_falsified(capsys, monkeypatch):
    # the planted image tables send grid point 1/30 where 0 goes
    monkeypatch.setattr(cantorperm.equidist, "_truncated_numerators", collapsed)
    assert falsified(capsys, *GRID)["grid_exact"] is False


def test_check_preserve_grid_dstar_changed_falsified(capsys, monkeypatch):
    real = cantorperm.cli.ud_preservation_probe

    def shifted(*args):
        probe = real(*args)
        return dataclasses.replace(probe, image_d_star=probe.image_d_star * 2)

    monkeypatch.setattr(cantorperm.cli, "ud_preservation_probe", shifted)
    report = falsified(capsys, *GRID)
    assert report["grid_exact"] is True
    assert (report["image_d_star_num"], report["image_d_star_den"]) == (1, 15)


def test_density_basic(capsys):
    code, out, err = run(capsys, "density", "--set", "0,3(6)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "modulus": 6, "residues": [0, 3], "density_num": 1, "density_den": 3,
    }


def test_density_intersect(capsys):
    code, out, err = run(
        capsys,
        "density", "--set", "1(2)", "--intersect", "2(3)", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "residues,modulus,density_num,density_den", "5,6,1,6",
    ]


def test_probe_monotone_descends(capsys):
    code, out, err = run(
        capsys,
        "probe", "monotone", "--bases", "2,3,5", "--level", "0",
        "--interval", "0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["requested_level"] == 0
    assert payload["level"] == 1
    assert payload["increasing_digits"] == [0, 1]
    assert payload["decreasing_digits"] == [1, 2]


def test_probe_monotone_identity_fails(capsys):
    code, out, err = run(
        capsys,
        "probe", "monotone", "--bases", "2,3,5",
        "--perms", "2:0,1;3:0,1,2;5:0,1,2,3,4",
        "--level", "0", "--interval", "0",
    )
    assert code == 1
    assert "NoWitnessAtLevel" in err


def test_probe_quotient_csv(capsys):
    code, out, err = run(
        capsys,
        "probe", "quotient", "--bases", "2,3,5", "--alpha", "29/30",
        "--digit", "2", "--ell", "0", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["s,a_s,ell,quot_num,quot_den", "2,4,0,-1,4"]


def test_probe_derivative_csv(capsys):
    code, out, err = run(
        capsys,
        "probe", "derivative", "--bases", "2,3,5", "--alpha", "0",
        "--max-level", "2", "--format", "csv",
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "s,a_s,ell,quot_num,quot_den"
    # level 0 contributes one row (ell=1), level 1 two rows (ell=1,2)
    assert rows[1] == "0,0,1,-1,1"
    assert rows[2] == "1,0,1,1,1"
    assert rows[3] == "1,0,2,-1,2"


def test_probe_derivative_identity(capsys):
    code, out, err = run(
        capsys,
        "probe", "derivative", "--bases", "2,3,5",
        "--perms", "2:0,1;3:0,1,2;5:0,1,2,3,4",
        "--alpha", "0", "--max-level", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    for level in payload["levels"]:
        assert level["quotients"] == ["1/1"]
    assert payload["one_at_every_level"] is True


def test_validation_exit_code(capsys):
    code, out, err = run(capsys, "expand", "--bases", "2,4", "--value", "0")
    assert code == 2
    assert "NotCoprime" in err


def test_perm_file_input(tmp_path, capsys):
    pf = tmp_path / "perms.txt"
    pf.write_text("# test vector\n2: 1,0\n3: 2,0,1\n5: 4,0,1,2,3\n")
    code, out, err = run(
        capsys,
        "map", "--bases", "2,3,5", "--perms", str(pf), "--value", "0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["digits"] == [1, 2, 4]


def test_perm_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    outputs = []
    for name, prefix in (("plain.txt", b""), ("bom.txt", b"\xef\xbb\xbf")):
        pf = tmp_path / name
        pf.write_bytes(prefix + b"2: 1,0\n3: 2,0,1\n")
        code, out, err = run(capsys, "map", "--bases", "2,3", "--perms", str(pf), "--value", "1/3")
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_missing_perm_file(capsys):
    code, out, err = run(
        capsys, "map", "--bases", "2,3,5", "--perms", "/nonexistent/p.txt",
        "--value", "0",
    )
    assert code == 2


def test_depth_truncates_base(capsys):
    code, out, err = run(
        capsys,
        "orbit", "--bases", "2,3,5", "--depth", "2", "--count", "7",
        "--format", "csv",
    )
    assert code == 0
    rows = out.splitlines()
    # period is B_2 = 6, so row 6 repeats row 0's value
    assert rows[1].split(",")[1:3] == rows[7].split(",")[1:3]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, err = run(
        capsys,
        "orbit", "--bases", "2,3,5", "--count", "2", "--format", "csv",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[1] == "0,0,1,0;0;0"


def test_determinism_run_twice(capsys):
    args = [
        "check", "ud", "--bases", "2,3,5,7", "--level", "2", "--count", "210",
        "--format", "json",
    ]
    code1, out1, err1 = run(capsys, *args)
    code2, out2, err2 = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_inline_perms(capsys):
    code, out, err = run(
        capsys,
        "map", "--bases", "2,3", "--perms", "2:1,0;3:1,2,0", "--value", "0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["digits"] == [1, 1]


# keys and strings with non-ASCII text, quotes, backslashes and control characters
TEXT = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€😀 '), max_size=6)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)


@given(JSON_VALUES)
@example({"a": [], "b": {}, "c": [[], {}, ()], "d": (True, False, None, 0)})
def test_json_renderer_matches_stdlib_indent(value):
    assert _json(value) == json.dumps(value, indent=2)


def test_one_parser_serves_every_golden_run_in_one_process(capsys):
    # main reuses the parser build_parser caches; a usage error and --help
    # in between runs must leave it as it was
    golden = json.loads(GOLDEN.read_text())
    runs = [(name, fmt) for name in sorted(CASES) for fmt in FORMATS]
    for order in (runs, runs[::-1]):
        for i, (name, fmt) in enumerate(order):
            if i == len(order) // 2:
                assert main(["check", "preserve", "--source", "sobol"]) == 2
                assert main(["--help"]) == 0
                assert "usage: cantorperm" in capsys.readouterr().out
            code = main(CASES[name] + ["--format", fmt])
            expected = golden[f"{name}/{fmt}"]
            assert (code, capsys.readouterr().out) == (expected["code"], expected["stdout"])
    assert build_parser() is build_parser()
