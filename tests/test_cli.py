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

    def emit(args, table_lines, table, payload=None):
        def columns(sep):
            reads.append(sep)
            return table.columns(sep)

        tables.append(table)
        read = table._replace(columns=columns)
        real(args, table_lines, read, {**payload, "intervals": read})

    monkeypatch.setattr(cantorperm.cli, "emit", emit)
    code, out, err = run(capsys, "check", "equivalence", *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert_same_text(out, _equivalence_by_rows(argv, fmt))
    # the columns, with their texts of j and the residues, are built only to
    # be rendered: never for the table format
    assert len(reads) == (fmt != "table")
    # the count is a fixed cell exactly when every interval holds N / B_k
    (table,) = tables
    assert (3 in table.fixed) == constant
    assert len(table.columns(";")) == 2 + (not constant)


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
    JSON object at ``pad``.  A fixed cell's text goes into the template
    with its own "%" doubled."""
    fixed = table.fixed or {}
    cells = list(first)
    for i in sorted(fixed):
        cells.insert(i, fixed[i])
    quoted = [type(v) is not int for v in cells]
    own = ["%d" if type(v) is int else "%s" for v in cells]
    for i, v in fixed.items():
        own[i] = (own[i] % (json.dumps(v) if quoted[i] and not csv else v)).replace("%", "%%")
    slots = ["%s"] * len(cells)
    if table.ints:
        i, width = table.ints
        ints = tuple(slots[i : i + width])
        slots[i : i + width] = [";".join(ints) if csv else ints]
        quoted[i : i + width] = [False] * width  # pre-rendered texts go in bare
    if csv:
        skeleton = ",".join(slots) + "\n"
    else:
        skeleton = _json_template(tuple(table.header), tuple(slots), pad)
    template = (lead + skeleton).replace("%%", "%%%%") % tuple(own)
    quoted = [q for i, q in enumerate(quoted) if i not in fixed]
    if csv or not any(quoted):
        return template.__mod__
    return lambda row: template % tuple(json.dumps(v) if q else v for v, q in zip(row, quoted))


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


# a cell of each kind a CLI table holds; bools print as true/false in JSON,
# where a bare %d would print 1 and 0
INT = st.integers(min_value=-(10**40), max_value=10**40)
CELLS = {
    "int": INT,
    "bool": st.booleans(),
    "str": st.text(st.sampled_from('ab"\\%/\n\x00é€😀 '), max_size=6),
}
KEYS = st.text(st.sampled_from('ab"\\%dsé😀 '), min_size=1, max_size=4)


def _table(header, flat, ints=None, fixed=None) -> Table:
    """Whole ``flat`` rows as a :class:`Table` of columns, the positions in
    ``fixed`` left out of the columns."""
    fixed = fixed or {}
    columns = list(zip(*([v for c, v in enumerate(r) if c not in fixed] for r in flat)))
    return Table(header, columns, len(flat), ints, fixed or None)


@st.composite
def tables(draw):
    """``(header, rows, table)``: ``rows`` nested, one value per header name,
    and ``table`` the same rows as columns, with at most one int sequence
    and any other columns fixed: one value in every row, not a column."""
    header = tuple(draw(st.lists(KEYS, min_size=1, max_size=5, unique=True)))
    cells = [CELLS[draw(st.sampled_from(sorted(CELLS)))] for _ in header]
    i, width = len(header), 1  # no int sequence: i past the last column
    if draw(st.booleans()):
        i, width = draw(st.integers(0, len(header) - 1)), draw(st.integers(0, 3))
        cells[i] = st.lists(INT, min_size=width, max_size=width)
    fixed = {h: draw(cells[h]) for h in range(len(header)) if h != i and draw(st.booleans())}
    cells = [st.just(fixed[h]) if h in fixed else cell for h, cell in enumerate(cells)]
    rows = draw(st.lists(st.tuples(*cells), max_size=4))
    flat = [(*r[:i], *r[i], *r[i + 1:]) if i < len(header) else r for r in rows]
    # a column after the int sequence is width - 1 cells further in a flat row
    at = {h + (width - 1) * (h > i): value for h, value in fixed.items()}
    return header, rows, _table(header, flat, (i, width) if i < len(header) else None, at)


@given(tables())
@example((("%d", '"%s"'), [(1, "%s")], _table(("%d", '"%s"'), [(1, "%s")])))
@example((("residues", "n"), [([], 4)], _table(("residues", "n"), [(4,)], (0, 0))))
# fixed texts holding "%", a quote or a backslash, and such keys
@example((("%d", "b", "%s"), [("%d", 1, "%")] * 2,
          _table(("%d", "b", "%s"), [("%d", 1, "%")] * 2, None, {0: "%d", 2: "%"})))
@example((("j", "%"), [(0, 100)], _table(("j", "%"), [(0, 100)], None, {1: 100})))
@example((("\\%", 'a"'), [('"\\%s', 7)], _table(("\\%", 'a"'), [('"\\%s', 7)], None, {0: '"\\%s'})))
# every cell fixed; no row
@example((("a", "b"), [(1, "x")] * 3, _table(("a", "b"), [(1, "x")] * 3, None, {0: 1, 1: "x"})))
@example((("a", "%"), [], _table(("a", "%"), [], None, {1: "%s"})))
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
    """``count`` rows with a cell of every kind, and the rows as dicts: an
    index, a quoted string, a bool, an int sequence of two cells (ints, or
    texts of ints as the ``orbit`` digits come), and fixed cells holding
    "%", a quote and a backslash."""
    header = ("j", 'na"me%', "digits", "k\\", "flag", "fixed%s")
    names = [f'r{j}%s"\\' * (j % 3) for j in range(count)]
    pairs = [(j, -j * 10**20) for j in range(count)]
    flags = [j % 2 == 0 for j in range(count)]
    dicts = [
        {"j": j, 'na"me%': name, "digits": list(pair), "k\\": '%d"', "flag": flag, "fixed%s": 7}
        for j, name, pair, flag in zip(range(count), names, pairs, flags)
    ]
    firsts, seconds = [pair[0] for pair in pairs], [pair[1] for pair in pairs]
    if texts:
        def columns(sep):
            return [range(count), names, map(str, firsts), map(str, seconds), flags]
    else:
        columns = [range(count), names, firsts, seconds, flags]
    return Table(header, columns, count, (2, 2), {4: '%d"', 6: 7}), dicts


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
def test_bare_columns_of_int_texts_render_as_their_ints(count):
    # a role column of real strings, quoted in JSON as `probe monotone`'s
    # are, beside bare columns: texts of a few distinct ints (as the `orbit`
    # denominators), texts looked up in one list (as the `check
    # equivalence` residues), and ints, which a bare column may hold too
    header = ("role", "den", "residue", "count")
    rows = [(("inc_low", 'dec"\\%s', "7")[j % 3], (1, 6, -10**20)[j % 5 % 3],
             (j * 7) % count, j % 4) for j in range(count)]
    roles, dens, residues, counts = map(list, zip(*rows))
    texts = list(map(str, range(count)))
    bare = Table(header, lambda sep: [roles, map(str, dens), map(texts.__getitem__, residues),
                                      counts], count, bare=(1, 2, 3))
    ints = Table(header, [roles, dens, residues, counts], count)
    old = RowTable(header, rows)
    assert_same_text(_emitted("csv", bare), _emitted("csv", ints), _emitted_by_rows("csv", old))
    listed = _emitted("json", bare, bare)
    assert_same_text(listed, _emitted("json", ints, ints), _emitted_by_rows("json", old))
    assert json.loads(listed) == [dict(zip(header, row)) for row in rows]


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


ROWS = Table(("a", "%s"), [(1, -2), ("x", "\n")], 2)
ROWS_AS_DICTS = [{"a": 1, "%s": "x"}, {"a": -2, "%s": "\n"}]
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
    argv = ["orbit", "--bases", "2,3,5,7,11,13,17,19,23", "--format", fmt, "--count"]
    peaks = []
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            assert main(argv + ["10"]) == 0  # first-call caches, outside the peaks
            for count in (4_000, 40_000):
                tracemalloc.reset_peak()
                assert main(argv + [str(count)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("vector", ["shift", "random cycles", "partial cycles", "past the cap"])
def test_orbit_rows_straddling_the_block_size_match_the_per_row_oracle(tmp_path, vector, fmt):
    # the numerators are reduced a block of rows at a time, and a
    # denominator's text is rendered once per gcd: B_K squarefree (shift,
    # random cycles, past the cap) and with repeated primes (partial
    # cycles: 4 and 9)
    argv = ORBIT_VECTORS[vector] + ["--format", fmt]
    for count in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
        run_argv = argv + ["--count", str(count)]
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
    rows = list(zip(*cantorperm.cli._orbit_rows(spec, 0, 300, first, ";")))
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
