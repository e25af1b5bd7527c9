"""Command-line interface: formats, exit codes, determinism."""
import argparse
import contextlib
import dataclasses
import functools
import io
import itertools
import json
import math
import pathlib
import random
import sys
import tracemalloc
import typing
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cantorperm.cli
import cantorperm.dynamics
import cantorperm.equidist
from cantorperm import encode, from_cycle, make_base, make_orbit, orbit_point, shift_vector
from cantorperm.cli import Table, _json_pieces, build_parser, emit, fmt_frac, frac, main
from test_cli_contract import command_lines
from test_cli_golden import CASES, FORMATS, GOLDEN
from test_dynamics import per_level_prefix
from test_equidist import collapsed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_text(*texts: str) -> None:
    """Assert the outputs equal, naming the first line where one differs
    from the first: pytest's diff of two large outputs takes minutes."""
    first, *others = texts
    for other in others:
        if other != first:
            pairs = itertools.zip_longest(first.splitlines(True), other.splitlines(True))
            n, (line, other_line) = next((n, p) for n, p in enumerate(pairs, 1) if p[0] != p[1])
            pytest.fail(f"outputs differ first on line {n}: {line!r} != {other_line!r}")


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


def _plant_one_more(monkeypatch, j):
    """``check ud`` reads one iterate too many in interval ``j``."""
    real = cantorperm.cli.membership_equivalence

    def off_by_one(spec, level, sample):
        report = real(spec, level, sample)
        intervals = list(report.intervals)
        intervals[j] = dataclasses.replace(intervals[j], count=intervals[j].count + 1)
        return dataclasses.replace(report, intervals=tuple(intervals))

    monkeypatch.setattr(cantorperm.cli, "membership_equivalence", off_by_one)


def test_check_ud_unbalanced_counts_falsified(capsys, monkeypatch):
    _plant_one_more(monkeypatch, 0)
    report = falsified(capsys, "check", "ud", "--bases", "2,3,5", "--level", "2", "--count", "30")
    assert [row["count"] for row in report["intervals"]] == [6] + [5] * 5


def test_check_ud_counts_summing_past_the_sample_falsified(capsys, monkeypatch):
    # B_2 = 6 does not divide 13: the spread stays 1, but the total reads 14
    _plant_one_more(monkeypatch, 1)
    report = falsified(capsys, "check", "ud", "--bases", "2,3,5", "--level", "2", "--count", "13")
    assert [row["count"] for row in report["intervals"]] == [3, 3, 2, 2, 2, 2]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_check_equivalence_prints_a_planted_count_in_every_format(capsys, monkeypatch, fmt):
    # a report rebuilt around a tuple of stats is printed as it holds them
    argv = ("check", "equivalence", "--bases", "2,3,5", "--level", "2", "--count", "30",
            "--format", fmt)
    code, out, _ = run(capsys, *argv)
    _plant_one_more(monkeypatch, 4)
    planted_code, planted, _ = run(capsys, *argv)
    assert code == planted_code == 0
    lines, planted_lines = out.splitlines(), planted.splitlines()
    assert len(lines) == len(planted_lines)
    (before, after), = [(a, b) for a, b in zip(lines, planted_lines) if a != b]
    cells = before.split(",")
    expected = {
        "table": before.replace("count 5", "count 6") if before.startswith("I_4: ") else None,
        "csv": ",".join(cells[:3] + ["6"] + cells[4:]) if cells[0] == "4" else None,
        "json": before.replace('"count": 5', '"count": 6'),
    }[fmt]
    assert before != expected == after


EQUIVALENCE_CYCLES = ";".join(
    f"{m}:" + ",".join(map(str, from_cycle(m, random.Random(m).sample(range(m), m)).image))
    for m in (2, 3, 5, 7, 11)
)
# (argv, whether B_k divides N: every count the same, printed as a fixed cell)
EQUIVALENCE_RUNS = {
    "whole periods": (["--bases", "2,3,5,7", "--level", "2", "--count", "30"], True),
    "whole periods, random cycles": (
        ["--bases", "2,3,5,7,11", "--perms", EQUIVALENCE_CYCLES, "--alpha", "3/7",
         "--level", "3", "--count", "60"], True),
    "level 0": (["--bases", "2,3", "--level", "0", "--count", "5"], True),
    "one past": (["--bases", "2,3,5,7", "--level", "2", "--count", "31"], False),
    "one short, random cycles": (
        ["--bases", "2,3,5,7,11", "--perms", EQUIVALENCE_CYCLES, "--alpha", "3/7",
         "--level", "3", "--count", "59"], False),
    "below one period": (["--bases", "2,3,5,7", "--level", "3", "--count", "7"], False),
    # B_5 = 2310 classes: two blocks of rows and a part
    "past two blocks, whole periods": (
        ["--bases", "2,3,5,7,11,13", "--level", "5", "--count", "4620"], True),
    "past two blocks, one past": (
        ["--bases", "2,3,5,7,11,13", "--level", "5", "--count", "4621"], False),
}


def _equivalence_by_rows(argv, fmt) -> str:
    """The ``check equivalence`` output from the report's stats, one row
    each, through the per-row template."""
    args = build_parser().parse_args(["check", "equivalence", *argv, "--format", fmt])
    pv = cantorperm.cli._vector(args)
    spec = make_orbit(encode(args.alpha, pv.base, pv.depth), pv)
    report = cantorperm.equidist.membership_equivalence(spec, args.level, args.count)
    rows = [(s.index, s.residue.residue, s.residue.modulus, s.count, *frac(s.expected))
            for s in report.intervals]
    if fmt == "table":
        lines = [
            f"# cantorperm {cantorperm.__version__}",
            f"level {report.level}, N={report.sample_size}, "
            f"expected {fmt_frac(report.intervals[0].expected)} per interval",
            *(f"I_{j}: class {r}+({m})  count {c}" for j, r, m, c, _, _ in rows),
            f"d_star: {fmt_frac(report.d_star)}",
        ]
        return "\n".join(lines) + "\n"
    table = RowTable(("j", "residue", "modulus", "count", "expected_num", "expected_den"), rows)
    if fmt == "csv":
        return _rendered_by_rows(table, csv=True)
    payload = {"level": report.level, "N": report.sample_size, "intervals": None,
               "d_star_num": report.d_star.numerator, "d_star_den": report.d_star.denominator}
    rendered = _rendered_by_rows(table, csv=False, pad="  ")
    text = json.dumps(payload, indent=2).replace('"intervals": null', '"intervals": ' + rendered)
    assert json.loads(text)["intervals"] == [dict(zip(table.header, row)) for row in rows]
    return text + "\n"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_RUNS))
def test_check_equivalence_matches_the_per_row_oracle(capsys, monkeypatch, name, fmt):
    argv, constant = EQUIVALENCE_RUNS[name]
    tables, reads = [], []
    real = cantorperm.cli.emit

    def counted(column):
        for block in column:
            reads.append(len(block))
            yield block

    def emit(args, table_lines, table, payload=None):
        tables.append(table)
        read = table._replace(columns=list(map(counted, table.columns)))
        real(args, table_lines, read, {**payload, "intervals": read})

    monkeypatch.setattr(cantorperm.cli, "emit", emit)
    code, out, err = run(capsys, "check", "equivalence", *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert_same_text(out, _equivalence_by_rows(argv, fmt))
    # the count is a fixed cell exactly when every interval holds N / B_k
    (table,) = tables
    assert (3 in table.fixed) == constant
    assert len(table.columns) == 2 + (not constant)
    # the column blocks are cut only to be rendered: never for the table
    # format; rendered, each column is read whole, once
    assert sum(reads) == (fmt != "table") * len(table.columns) * table.count


def _preserve_by_rows(argv, fmt) -> str:
    """The ``check preserve`` CSV or JSON output from the probe's counts,
    one row each, through the per-row template."""
    args = build_parser().parse_args(["check", "preserve", *argv, "--format", fmt])
    probe = cantorperm.equidist.ud_preservation_probe(
        cantorperm.cli._vector(args), args.source, args.count, args.level)
    rows = [(j, count, *frac(probe.expected)) for j, count in enumerate(probe.counts)]
    table = RowTable(("j", "count", "expected_num", "expected_den"), rows)
    if fmt == "csv":
        return _rendered_by_rows(table, csv=True)
    payload = {"source": probe.source, "N": probe.sample_size, "level": probe.level,
               **cantorperm.cli.frac_fields("input_d_star", probe.input_d_star),
               **cantorperm.cli.frac_fields("image_d_star", probe.image_d_star),
               "intervals": None, "grid_exact": probe.grid_exact}
    rendered = _rendered_by_rows(table, csv=False, pad="  ")
    text = json.dumps(payload, indent=2).replace('"intervals": null', '"intervals": ' + rendered)
    return text + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    # B_5 = 2310 intervals: two blocks of rows and a part
    ["--bases", "2,3,5,7,11,13", "--source", "grid", "--level", "5", "--count", "2310"],
    ["--bases", "2,3,5,7,11,13", "--source", "kronecker", "--level", "5", "--count", "2311"],
    ["--bases", "2,3,5,7", "--source", "vdc", "--level", "1", "--count", "10"],
], ids=lambda argv: argv[3])
def test_check_preserve_matches_the_per_row_oracle(capsys, argv, fmt):
    code, out, err = run(capsys, "check", "preserve", *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert_same_text(out, _preserve_by_rows(argv, fmt))


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


def test_probe_monotone_rejects_a_negative_descent_budget(capsys):
    code, out, err = run(
        capsys,
        "probe", "monotone", "--level", "0", "--interval", "0", "--max-descend", "-1",
    )
    assert (code, out, err) == (2, "", "error: ValidationError: descent budget -1 < 0\n")


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


def _refuse(*args, **kwargs):
    raise AssertionError("this command reads no permutation vector")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", ["expand", "decode"])
def test_expand_and_decode_build_no_permutation_vector(capsys, monkeypatch, name, fmt):
    # the vector and the seed options are accepted unread: a broken --perms
    # spec and an --alpha outside [0, 1) change nothing
    monkeypatch.setattr(cantorperm.cli, "shift_vector", _refuse)
    monkeypatch.setattr(cantorperm.cli, "parse_permutations", _refuse)
    golden = json.loads(GOLDEN.read_text())[f"{name}/{fmt}"]
    for extra in ([], ["--perms", "2:0,0", "--alpha", "5"]):
        code, out, err = run(capsys, *CASES[name], *extra, "--format", fmt)
        assert (code, out, err) == (0, golden["stdout"], "")


@pytest.mark.parametrize("name", ["map", "check_preserve_kronecker", "probe_monotone"])
def test_commands_without_a_seed_accept_any_alpha(capsys, name):
    code, out, err = run(capsys, *CASES[name], "--format", "json")
    assert (code, err) == (0, "")
    assert run(capsys, *CASES[name], "--alpha", "5", "--format", "json") == (0, out, "")


@pytest.mark.parametrize("name", ["orbit_count", "check_equivalence", "probe_quotient"])
def test_commands_with_a_seed_check_alpha_and_perms(capsys, tmp_path, name):
    for extra in (["--alpha", "5"], ["--perms", str(tmp_path / "missing.txt")]):
        code, out, err = run(capsys, *CASES[name], *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1


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


# keys and strings with non-ASCII text, quotes, backslashes and control
# characters; fractions, which a report writes as "p/q"
TEXT = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€😀 '), max_size=6)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT | st.fractions()
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)


def _emitted(fmt, table, payload=None):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        emit(argparse.Namespace(format=fmt, out=None), [], table, payload)
    return out.getvalue()


def _blocked(cells) -> list[list]:
    """``cells`` as a :class:`Table` column that can be read again: a list
    of its blocks of ``_ROW_BLOCK`` cells, the last one the rest."""
    cells = list(cells)
    step = cantorperm.cli._ROW_BLOCK
    return [cells[i : i + step] for i in range(0, len(cells), step)]


# --- oracle: the renderer before rows came as columns, one `%` per row ---

class RowTable(typing.NamedTuple):
    """A table as rows: flat tuples of its varying cells, as
    :class:`Table` held them before it held columns."""

    header: tuple
    rows: object
    ints: tuple | None = None
    fixed: dict | None = None


def _as_rows(table: Table) -> RowTable:
    """``table``'s columns read as rows; a table of fixed cells only has
    ``count`` empty rows."""
    columns = table.columns(";") if callable(table.columns) else table.columns
    # cells read in step, as two columns may be one iterator
    columns = list(map(itertools.chain.from_iterable, columns))
    rows = list(zip(*columns)) if columns else [()] * table.count
    return RowTable(table.header, rows, table.ints, table.fixed)


@functools.lru_cache(maxsize=64)
def _json_template(header: tuple, slots: tuple, pad: str) -> str:
    """The JSON object ``header`` -> ``slots`` at ``pad``: each slot a bare
    ``%s``, or a tuple of them as a list; a key's own "%" is doubled."""
    cells = {key.replace("%", "%%"): slot for key, slot in zip(header, slots)}
    return json.dumps(cells, indent=2).replace("\n", "\n" + pad).replace('"%s"', "%s")


def _row_renderer(table: RowTable, first: tuple, csv: bool, pad: str = "", lead: str = ""):
    """One ``%`` template for the rows shaped like ``first``, as the
    function that renders a row with it: ``lead`` then a CSV line, or the
    JSON object at ``pad``; an int cell by ``%d`` and a text by ``%s``.  A
    fixed cell's text goes into the template with its own "%" doubled."""
    fixed = table.fixed or {}
    cells = list(first)
    for i in sorted(fixed):
        cells.insert(i, fixed[i])
    own = ["%d" if type(v) is int else "%s" for v in cells]
    for i, v in fixed.items():
        own[i] = (own[i] % v).replace("%", "%%")
    slots = ["%s"] * len(cells)
    if table.ints:
        i, width = table.ints
        ints = tuple(slots[i : i + width])
        slots[i : i + width] = [";".join(ints) if csv else ints]
    if csv:
        skeleton = ",".join(slots) + "\n"
    else:
        skeleton = _json_template(tuple(table.header), tuple(slots), pad)
    return ((lead + skeleton).replace("%%", "%%%%") % tuple(own)).__mod__


def _rendered_by_rows(table: RowTable, csv: bool, pad: str = "") -> str:
    """CSV under the header, or the JSON list of the rows at ``pad``."""
    inner = pad + "  "
    rows = iter(table.rows)
    first = next(rows, None)
    header = ",".join(table.header) + "\n"
    if first is None:
        return header if csv else "[]"
    if csv:
        render = _row_renderer(table, first, csv)
        return "".join(itertools.chain([header, render(first)], map(render, rows)))
    render = _row_renderer(table, first, csv, inner, lead=f",\n{inner}")
    return "".join(itertools.chain(["[", render(first)[1:]], map(render, rows), [f"\n{pad}]"]))


def _emitted_by_rows(fmt: str, table: RowTable, listed: bool = True) -> str:
    """What :func:`emit` wrote for ``table`` in CSV, or in JSON as the list
    of its rows (``listed``) or its one row as an object."""
    if fmt == "csv":
        return _rendered_by_rows(table, csv=True)
    if listed:
        return _rendered_by_rows(table, csv=False) + "\n"
    (row,) = table.rows
    return _row_renderer(table, row, csv=False)(row) + "\n"


def _old_cell(value):
    return ";".join(map(str, value)) if isinstance(value, list) else str(value)


INT = st.integers(min_value=-(10**40), max_value=10**40)
KEYS = st.text(st.sampled_from('ab"\\%dsé😀 '), min_size=1, max_size=4)


def _table(header, flat, ints=None, fixed=None, texts=()) -> Table:
    """Whole ``flat`` rows of ints as a :class:`Table` of columns, the
    positions in ``fixed`` left out of the columns and those in ``texts``
    handed over as the texts of their ints."""
    fixed = fixed or {}
    kept = [c for c in range(len(header) + (ints[1] - 1 if ints else 0)) if c not in fixed]
    columns = [[repr(row[c]) if c in texts else row[c] for row in flat] for c in kept]
    return Table(header, list(map(_blocked, columns)), len(flat), ints, fixed or None)


@st.composite
def tables(draw):
    """``(header, rows, table)``: ``rows`` nested, one int or int list per
    header name, and ``table`` the same rows as columns, with at most one
    int sequence, any other columns fixed: one int in every row, not a
    column, and any varying column handed over as the texts of its ints."""
    header = tuple(draw(st.lists(KEYS, min_size=1, max_size=5, unique=True)))
    cells = [INT for _ in header]
    i, width = len(header), 1  # no int sequence: i past the last column
    if draw(st.booleans()):
        i, width = draw(st.integers(0, len(header) - 1)), draw(st.integers(0, 3))
        cells[i] = st.lists(INT, min_size=width, max_size=width)
    fixed = {h: draw(INT) for h in range(len(header)) if h != i and draw(st.booleans())}
    cells = [st.just(fixed[h]) if h in fixed else cell for h, cell in enumerate(cells)]
    rows = draw(st.lists(st.tuples(*cells), max_size=4))
    flat = [(*r[:i], *r[i], *r[i + 1:]) if i < len(header) else r for r in rows]
    # a column after the int sequence is width - 1 cells further in a flat row
    at = {h + (width - 1) * (h > i): value for h, value in fixed.items()}
    texts = {c for c in range(len(header) + width - 1) if draw(st.booleans())}
    return header, rows, _table(header, flat, (i, width) if i < len(header) else None, at, texts)


@given(tables())
@example((("%d", '"%s"'), [(1, -2)], _table(("%d", '"%s"'), [(1, -2)], texts={1})))
@example((("residues", "n"), [([], 4)], _table(("residues", "n"), [(4,)], (0, 0))))
# fixed cells beside keys holding "%", a quote or a backslash
@example((("%d", "b", "%s"), [(5, 1, -7)] * 2,
          _table(("%d", "b", "%s"), [(5, 1, -7)] * 2, None, {0: 5, 2: -7}, {1})))
@example((("j", "%"), [(0, 100)], _table(("j", "%"), [(0, 100)], None, {1: 100})))
@example((("\\%", 'a"'), [(-3, 7)], _table(("\\%", 'a"'), [(-3, 7)], None, {0: -3}, {1})))
# every cell fixed; no row
@example((("a", "b"), [(1, 2)] * 3, _table(("a", "b"), [(1, 2)] * 3, None, {0: 1, 1: 2})))
@example((("a", "%"), [], _table(("a", "%"), [], None, {1: 5})))
def test_row_renderer_matches_dicts_through_stdlib_json_and_old_csv_cells(case):
    header, rows, table = case
    dicts = [dict(zip(header, row)) for row in rows]
    old_csv = [",".join(header)] + [",".join(_old_cell(v) for v in d.values()) for d in dicts]
    assert _emitted("csv", table) == "\n".join(old_csv) + "\n"
    assert _emitted("json", table, table) == json.dumps(dicts, indent=2) + "\n"
    nested = {"N": len(rows), "intervals": table, "flag": None}
    expected = json.dumps({**nested, "intervals": dicts}, indent=2)
    assert _emitted("json", table, nested) == expected + "\n"
    # byte for byte what the per-row template writes for the rows
    old = _as_rows(table)
    assert_same_text(_emitted("csv", table), _emitted_by_rows("csv", old))
    assert_same_text(_emitted("json", table, table), _emitted_by_rows("json", old))
    if len(rows) == 1:
        assert _emitted("json", table) == json.dumps(dicts[0], indent=2) + "\n"
        assert _emitted("json", table) == _emitted_by_rows("json", old, listed=False)


BLOCK = cantorperm.cli._ROW_BLOCK


def _straddling_table(count: int, texts: bool) -> tuple[Table, list[dict]]:
    """``count`` rows and the rows as dicts: an index, a wide int, an int
    sequence of two cells, and fixed cells, under keys holding "%", a
    quote and a backslash; the wide ints and the sequence as ints, or as
    texts of ints, as the ``orbit`` denominators and digits come."""
    header = ("j", 'na"me%', "digits", "k\\", "fixed%s")
    wide = [(-1) ** j * 10**20 + j for j in range(count)]
    pairs = [(j, -j * 10**20) for j in range(count)]
    dicts = [{"j": j, 'na"me%': w, "digits": list(pair), "k\\": -5, "fixed%s": 7}
             for j, w, pair in zip(range(count), wide, pairs)]
    cells = [wide, [pair[0] for pair in pairs], [pair[1] for pair in pairs]]
    if texts:
        def columns(sep):
            return list(map(_blocked, [range(count), *(map(repr, c) for c in cells)]))
    else:
        columns = list(map(_blocked, [range(count), *cells]))
    return Table(header, columns, count, (2, 2), {4: -5, 5: 7}), dicts


@pytest.mark.parametrize("texts", [False, True], ids=["ints", "texts"])
@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_rows_straddling_the_block_size_match_the_per_row_oracle(count, texts):
    table, dicts = _straddling_table(count, texts)
    csv, listed = _emitted("csv", table), _emitted("json", table, table)
    old = _as_rows(table)
    assert_same_text(csv, _emitted_by_rows("csv", old))
    assert_same_text(listed, _emitted_by_rows("json", old))
    assert json.loads(listed) == dicts
    assert [line.split(",")[0] for line in csv.splitlines()] == ["j", *map(str, range(count))]
    table, _ = _straddling_table(count, texts)
    nested = _emitted("json", table, {"N": count, "rows": table})
    assert_same_text(nested, json.dumps({"N": count, "rows": dicts}, indent=2) + "\n")


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1])
def test_columns_of_int_texts_render_as_their_ints(count):
    # columns of the texts of ints, as the `orbit` denominators (a few
    # distinct values, each rendered once), beside a column of ints, render
    # as the same columns of ints do
    header = ("den", "residue", "count")
    rows = [((1, 6, -10**20)[j % 5 % 3], (j * 7) % count, j % 4) for j in range(count)]
    dens, residues, counts = map(list, zip(*rows))
    texts = {den: repr(den) for den in dens}
    as_texts = Table(header, lambda sep: list(map(_blocked, [
        map(texts.__getitem__, dens), map(repr, residues), counts])), count)
    ints = Table(header, list(map(_blocked, [dens, residues, counts])), count)
    old = RowTable(header, rows)
    assert_same_text(_emitted("csv", as_texts), _emitted("csv", ints),
                     _emitted_by_rows("csv", old))
    listed = _emitted("json", as_texts, as_texts)
    assert_same_text(listed, _emitted("json", ints, ints), _emitted_by_rows("json", old))
    assert json.loads(listed) == [dict(zip(header, row)) for row in rows]


# ints either side of 0 and of the machine word
WIDE = st.integers(-(2**70), 2**70) | st.sampled_from([0, -1, 2**64 - 1, 2**64, -(2**64) - 1])


@given(ints=st.lists(WIDE, min_size=1, max_size=40))
def test_int_columns_and_their_texts_render_as_str_and_json_dumps(ints):
    # an int cell by repr: its str in CSV and its json.dumps in JSON; its
    # text, repr, as it is in both
    table = Table(("i", "t"), [_blocked(ints), _blocked(map(repr, ints))], len(ints))
    csv = ["i,t"] + [f"{str(i)},{str(i)}" for i in ints]
    assert _emitted("csv", table) == "\n".join(csv) + "\n"
    dicts = [{"i": i, "t": i} for i in ints]
    assert _emitted("json", table, table) == json.dumps(dicts, indent=2) + "\n"
    assert json.loads(_emitted("json", table, table)) == dicts


@st.composite
def payloads(draw):
    """``(payload, expected)``: a str-keyed dict with one or two
    :class:`Table` values at drawn key positions, and the same dict with each
    table's rows as dicts."""
    pairs = st.lists(st.tuples(TEXT, JSON_VALUES), max_size=4, unique_by=lambda kv: kv[0])
    items = [(key, value, value) for key, value in draw(pairs)]
    for _ in range(draw(st.integers(1, 2))):
        header, rows, table = draw(tables())
        key = draw(TEXT.filter(lambda k: k not in {item[0] for item in items}))
        dicts = [dict(zip(header, row)) for row in rows]
        items.insert(draw(st.integers(0, len(items))), (key, table, dicts))
    return {k: v for k, v, _ in items}, {k: e for k, _, e in items}


ROWS = Table(("a", "%s"), [[(1, -2)], [("30", "-4")]], 2)
ROWS_AS_DICTS = [{"a": 1, "%s": 30}, {"a": -2, "%s": -4}]
NESTED = {"a": [], "b": {}, "c": [[], {}, ()], "d": (True, False, None, Fraction(-1, 3))}


@given(payloads())
@example(({"rows": Table(("a",), [], 0)}, {"rows": []}))
@example(({"rows": ROWS}, {"rows": ROWS_AS_DICTS}))
@example(({"rows": ROWS, **NESTED}, {"rows": ROWS_AS_DICTS, **NESTED}))
@example(({**NESTED, "rows": ROWS}, {**NESTED, "rows": ROWS_AS_DICTS}))
# the same key, nested and null, before the table: only the top-level key is cut
@example(({"x": {"rows": None}, "rows": ROWS}, {"x": {"rows": None}, "rows": ROWS_AS_DICTS}))
def test_json_renderer_matches_stdlib_indent(case):
    payload, expected = case
    assert "".join(_json_pieces(payload)) == json.dumps(expected, indent=2, default=fmt_frac)


def test_empty_table_renders_its_header_in_csv_and_an_empty_list_in_json():
    # no row: the columns are not read
    table = Table(("a", "b"), [iter(()), iter(())], 0)
    assert _emitted("csv", table) == "a,b\n"
    assert _emitted("json", table, table) == "[]\n"
    assert _emitted("json", table, {"rows": table}) == '{\n  "rows": []\n}\n'


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", FORMATS)
def test_orbit_export_memory_does_not_grow_with_count(fmt):
    # the columns hold one block each: 200,000 rows peak within the text of
    # one block of rows of 20,000
    argv = ["orbit", "--bases", "2,3,5,7,11,13,17,19,23", "--format", fmt, "--count"]
    with contextlib.redirect_stdout(io.StringIO()) as block:
        assert main(argv + [str(BLOCK)]) == 0  # also the first-call caches
    peaks = []
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            for count in (20_000, 200_000):
                tracemalloc.reset_peak()
                assert main(argv + [str(count)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < len(block.getvalue()), peaks


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_level_report_render_memory_does_not_grow_with_the_classes(monkeypatch, fmt):
    # the reports are built beforehand: rendering one holds a block of rows
    # and no text per class, so B_k = 30,030 rows peak within the text of
    # one block of rows of B_k = 2,310 (its output's share of BLOCK rows)
    base = make_base([2, 3, 5, 7, 11, 13])
    spec = make_orbit(encode(0, base, base.depth), shift_vector(base))
    # N = B_k + 1: the counts vary, so all three columns stream
    sizes = {5: 2310, 6: 30030}
    reports = {level: cantorperm.equidist.membership_equivalence(spec, level, size + 1)
               for level, size in sizes.items()}
    monkeypatch.setattr(cantorperm.cli, "membership_equivalence",
                        lambda spec, level, sample: reports[level])
    argvs = [["check", "equivalence", "--bases", "2,3,5,7,11,13", "--level", str(level),
              "--count", str(size + 1), "--format", fmt] for level, size in sizes.items()]
    outputs = []
    for argv in argvs:  # also the first-call caches
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        outputs.append(out.getvalue())
    assert outputs[1].count("\n") > 10 * outputs[0].count("\n")
    peaks = []
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            for argv in argvs:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < len(outputs[0]) * BLOCK // sizes[5], peaks


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


# --- differential oracle: argparse's nested pass over the root parser ---

def _nested_main(argv) -> int:
    """``main`` as it parsed before: ``build_parser().parse_args``, where
    the root parser and each command parser under it read every string."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return cantorperm.cli._run(args)


EQUIVALENCE = ["check", "equivalence", "--level", "1", "--count", "6"]
USAGE_LINES = [
    [], ["--help"], ["-h", "orbit"], ["bogus"], ["bogus", "orbit"], ["orbit"], ["orbit", "-h"],
    ["check"], ["check", "-h"], ["check", "bogus"], ["check", "--help", "ud"],
    ["check", "ud", "-h"],
    ["probe"], ["probe", "bogus", "--level", "1"], ["che", "ud"], ["check", "check", "ud"],
    # abbreviated options: unique, ambiguous (--alpha, --at) and a command's own
    ["check", "ud", "--lev", "1", "--co", "6"], ["orbit", "--a", "1", "--count", "3"],
    ["orbit", "--al=1/3", "--cou", "3"],
    ["check", "preserve", "--so", "vdc", "--lev", "1", "--count", "4", "--thr", "1/2"],
    ["--he"], ["check", "--he"],
    # "--" before, after and inside a command line
    ["--", "orbit", "--count", "3"], ["check", "--", "ud", "--level", "1", "--count", "6"],
    ["orbit", "--", "--count", "3"], ["orbit", "--count", "3", "--"], ["orbit", "--count", "--"],
    ["orbit", "--count=--"], ["orbit", "--count", "3", "--", "extra"],
    # strings a command leaves: the root reports them
    ["orbit", "--count", "3", "extra"], ["check", "ud", "--level", "1", "--count", "6", "--zzz"],
    ["probe", "quotient", "--digit", "0", "--ell", "1", "x", "y"], [*EQUIVALENCE, "-x", "1"],
    ["density", "--set", "1(2)", "orbit"], ["expand", "--value", "1/2", "expand"],
    [*EQUIVALENCE, "--level", "-1"], [*EQUIVALENCE, "--format=json", "--format", "csv"],
]


def _same_as_nested(argv, capsys) -> None:
    ran = []
    for parse in (main, _nested_main):
        code = parse(list(argv))
        ran.append((code, *capsys.readouterr()))
    assert ran[0] == ran[1], argv


@pytest.mark.parametrize("argv", [
    *(CASES[name] + ["--format", fmt] for name in sorted(CASES) for fmt in FORMATS),
    *USAGE_LINES,
], ids=repr)
def test_main_parses_as_the_nested_pass(argv, capsys):
    _same_as_nested(argv, capsys)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines())
def test_whole_command_lines_parse_as_the_nested_pass(argv, capsys):
    _same_as_nested(argv, capsys)


@pytest.mark.parametrize("name, prog", [
    ("check_equivalence", "cantorperm check equivalence"),
    ("orbit_count", "cantorperm orbit"),
    ("probe_quotient", "cantorperm probe quotient"),
])
def test_a_command_line_is_parsed_once(name, prog, monkeypatch, capsys):
    # the nested pass parsed a `check ...` line three times, an `orbit ...` line twice
    parse = argparse.ArgumentParser.parse_known_args
    progs = []

    def counted(self, *args, **kwargs):
        progs.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert main(CASES[name]) == 0
    assert progs == [prog]


# --- differential oracle: `orbit` rows one generator step each, every digit its own cell ---

def _orbit_by_rows(args) -> None:
    """The ``orbit`` handler before its rows came from group columns: one
    pair of the per-level reader (or the one ``orbit_point``) per row,
    reduced in a generator, every digit a cell of its own, and the rows
    rendered by the per-row template."""
    pv = cantorperm.cli._vector(args)
    seed = encode(args.alpha, pv.base, pv.depth)
    spec = make_orbit(seed, pv)
    if args.at is not None:
        digits = orbit_point(spec, args.at).digits.digits
        start, pairs = args.at, [(seed.base.index_of(digits), digits)]
    else:
        start, pairs = 0, per_level_prefix(spec, args.count)
    total = seed.base.products[seed.depth]
    rows = [
        (n, num // (g := math.gcd(num, total)), total // g, *digits)
        for n, (num, digits) in enumerate(pairs, start)
    ]
    if args.format == "table":
        line = "n=%d  value=%d/%d  digits=" + ";".join(["%d"] * seed.depth) + "\n"
        text = f"# cantorperm {cantorperm.__version__}\n" + "".join(map(line.__mod__, rows))
    else:
        table = RowTable(("n", "value_num", "value_den", "digits"), rows, (3, seed.depth))
        text = _emitted_by_rows(args.format, table)
    if args.out:
        pathlib.Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# the seeds' cycle lengths in their level groups at cap 256, and the groups'
# periods: shift 2,3,5,7 | 11,13 | 17 | 19 (210, 143, 17, 19); partial cycles
# 2,6,5,4 | 11,6 (60, below the product 240, and 66); random cycles 6,35 |
# 11,13 (210, 143); depth 3: 2,3,5 (30); depth 1: 13; past the cap: 257 | 2,3
# (257, one level longer than the cap, and 6).  A count c reads c - 1 entries
# past row 0 from each column: the counts p, p + 1 and p + 2 put a column of
# period p just below, at and past its period (256: the cap)
ORBIT_VECTORS = {
    "shift": ["--bases", "2,3,5,7,11,13,17,19"],
    "past the cap": ["--bases", "257,2,3"],
    "partial cycles": [
        "--bases", "4,9,5,7,11,13", "--alpha", "3/5", "--perms",
        "4:1,0,3,2;9:1,2,0,4,5,6,7,8,3;5:1,2,3,4,0;7:1,2,3,0,5,6,4;"
        "11:1,2,3,4,5,6,7,8,9,10,0;13:1,2,3,4,5,0,7,8,9,10,11,12,6",
    ],
    "random cycles": [
        "--bases", "6,35,11,13", "--alpha", "5/7", "--perms", ";".join(
            f"{m}:" + ",".join(map(str, from_cycle(m, random.Random(m).sample(range(m), m)).image))
            for m in (6, 35, 11, 13)
        ),
    ],
    "depth 3": ["--bases", "2,3,5,7,11,13", "--depth", "3", "--alpha", "7/11"],
    "depth 1": ["--bases", "13,2,3", "--depth", "1", "--alpha", "9/13"],
}
ORBIT_COUNTS = [1, 2, 3, 700] + [p + k for p in (13, 17, 19, 30, 60, 66, 143, 210, 256, 257)
                                 for k in range(3)]
ORBIT_INDICES = [0, 1, 29, 209, 210, 211, 10**12]


def _orbit_outputs(tmp_path, handler, argv) -> tuple[str, str]:
    """The stdout of ``orbit argv`` through ``handler``, and the file it writes with ``--out``."""
    target = tmp_path / "orbit.out"
    outputs = []
    for extra in ([], ["--out", str(target)]):
        args = build_parser().parse_args(["orbit", *argv, *extra])
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            handler(args)
        outputs.append(sink.getvalue())
    assert outputs[1] == ""
    return outputs[0], target.read_text()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("vector", sorted(ORBIT_VECTORS))
def test_orbit_rows_match_the_per_row_oracle(tmp_path, vector, fmt):
    argv = ORBIT_VECTORS[vector] + ["--format", fmt]
    runs = [["--count", str(c)] for c in ORBIT_COUNTS] + [["--at", str(n)] for n in ORBIT_INDICES]
    for run_argv in runs:
        expected = _orbit_outputs(tmp_path, _orbit_by_rows, argv + run_argv)
        got = _orbit_outputs(tmp_path, cantorperm.cli.cmd_orbit, argv + run_argv)
        for text, want in zip(got, expected):
            assert_same_text(text, want)
        assert expected[0].count("\n") >= 2


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("vector", ["shift", "random cycles", "partial cycles", "past the cap"])
def test_orbit_rows_straddling_the_block_size_match_the_per_row_oracle(tmp_path, vector, fmt):
    # the columns come a block of rows at a time: the numerators reduced,
    # a denominator's text rendered once per gcd (B_K squarefree: shift,
    # random cycles, past the cap; with repeated primes: partial cycles, 4
    # and 9), the index in ranges and the digit texts sliced off their
    # periods; the table format reads the same columns cell by cell
    argv = ORBIT_VECTORS[vector] + ["--format", fmt]
    counts = [["--count", str(c)] for c in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)]
    for run_argv in counts + [["--at", str(n)] for n in (BLOCK - 1, BLOCK, 2 * BLOCK + 1)]:
        run_argv = argv + run_argv
        expected = _orbit_outputs(tmp_path, _orbit_by_rows, run_argv)
        got = _orbit_outputs(tmp_path, cantorperm.cli.cmd_orbit, run_argv)
        for text, want in zip(got, expected):
            assert_same_text(text, want)


@pytest.mark.parametrize("cap", [1, 10**9])
def test_orbit_rows_do_not_depend_on_the_group_cap(monkeypatch, capsys, cap):
    runs = [
        ORBIT_VECTORS[vector] + ["--format", fmt, "--count", "300"]
        for vector in sorted(ORBIT_VECTORS) for fmt in FORMATS
    ]
    expected = [run(capsys, "orbit", *argv) for argv in runs]
    monkeypatch.setattr(cantorperm.dynamics, "_GROUP_CAP", cap)
    for argv, (code, out, err) in zip(runs, expected):
        got_code, got_out, got_err = run(capsys, "orbit", *argv)
        assert (got_code, got_err) == (code, err)
        assert_same_text(got_out, out)


def test_a_spec_keeps_the_group_layout_it_was_built_with(monkeypatch):
    # built under cap 1 and read under the default cap: every level stays a
    # group of its own, and the rows' digit cells still match the columns
    pv = shift_vector(make_base((2, 3, 5, 7)))
    seed = encode(Fraction(1, 3), pv.base, pv.depth)
    monkeypatch.setattr(cantorperm.dynamics, "_GROUP_CAP", 1)
    spec = make_orbit(seed, pv)
    monkeypatch.undo()
    same = make_orbit(seed, pv)
    assert (spec._groups, same._groups) == (((1, 2), (1, 3), (1, 5), (1, 7)), ((4, 210),))
    assert (spec, hash(spec), repr(spec)) == (same, hash(same), repr(same))
    _, columns = cantorperm.dynamics._orbit_columns(spec, 1, 299)
    assert [len(list(column)) for column in columns] == [2, 3, 5, 7]
    first = orbit_point(spec, 0).digits.digits
    # cells read in step: the two value columns are one iterator
    columns = cantorperm.cli._orbit_rows(spec, 0, 300, first, ";")
    rows = list(zip(*map(itertools.chain.from_iterable, columns)))
    # the denominators come as texts, one per gcd of a numerator and 210
    assert rows == [
        (n, (value := Fraction(num, 210)).numerator, str(value.denominator), *map(str, digits))
        for n, (num, digits) in enumerate(per_level_prefix(spec, 300))
    ]


def test_orbit_at_builds_no_column(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a column was built")

    monkeypatch.setattr(cantorperm.cli, "_orbit_columns", refuse)
    code, out, err = run(capsys, "orbit", *ORBIT_VECTORS["shift"], "--at", "10", "--format", "csv")
    assert (code, out.splitlines()[1], err) == (0, "10,900301,4849845,0;1;0;3;10;10;10;10", "")
