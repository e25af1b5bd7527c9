"""Command-line interface: formats, exit codes, determinism."""
import argparse
import contextlib
import dataclasses
import io
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cantorperm.cli
import cantorperm.dynamics
import cantorperm.equidist
from cantorperm import encode, from_cycle, make_orbit, orbit_point, orbit_prefix
from cantorperm.cli import Table, _json_pieces, build_parser, emit, fmt_frac, main
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


@st.composite
def tables(draw):
    """``(header, rows, table)``: ``rows`` nested, one value per header name,
    and ``table`` the same rows flat, with at most one int sequence column."""
    header = tuple(draw(st.lists(KEYS, min_size=1, max_size=5, unique=True)))
    cells = [CELLS[draw(st.sampled_from(sorted(CELLS)))] for _ in header]
    ints = None
    if draw(st.booleans()):
        ints = i, width = draw(st.integers(0, len(header) - 1)), draw(st.integers(0, 3))
        cells[i] = st.lists(INT, min_size=width, max_size=width)
    rows = draw(st.lists(st.tuples(*cells), max_size=4))
    if ints:
        return header, rows, Table(header, [(*r[:i], *r[i], *r[i + 1:]) for r in rows], ints)
    return header, rows, Table(header, rows)


@given(tables())
@example((("%d", '"%s"'), [(1, "%s")], Table(("%d", '"%s"'), [(1, "%s")])))
@example((("residues", "n"), [([], 4)], Table(("residues", "n"), [(4,)], (0, 0))))
def test_row_renderer_matches_dicts_through_stdlib_json_and_old_csv_cells(case):
    header, rows, table = case
    dicts = [dict(zip(header, row)) for row in rows]
    old_csv = [",".join(header)] + [",".join(_old_cell(v) for v in d.values()) for d in dicts]
    assert _emitted("csv", table) == "\n".join(old_csv) + "\n"
    assert _emitted("json", table, table) == json.dumps(dicts, indent=2) + "\n"
    nested = {"N": len(rows), "intervals": table, "flag": None}
    expected = json.dumps({**nested, "intervals": dicts}, indent=2)
    assert _emitted("json", table, nested) == expected + "\n"
    if len(rows) == 1:
        assert _emitted("json", table) == json.dumps(dicts[0], indent=2) + "\n"


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


ROWS = Table(("a", "%s"), [(1, "x"), (-2, "\n")])
ROWS_AS_DICTS = [{"a": 1, "%s": "x"}, {"a": -2, "%s": "\n"}]
NESTED = {"a": [], "b": {}, "c": [[], {}, ()], "d": (True, False, None, Fraction(-1, 3))}


@given(payloads())
@example(({"rows": Table(("a",), [])}, {"rows": []}))
@example(({"rows": ROWS}, {"rows": ROWS_AS_DICTS}))
@example(({"rows": ROWS, **NESTED}, {"rows": ROWS_AS_DICTS, **NESTED}))
@example(({**NESTED, "rows": ROWS}, {**NESTED, "rows": ROWS_AS_DICTS}))
# the same key, nested and null, before the table: only the top-level key is cut
@example(({"x": {"rows": None}, "rows": ROWS}, {"x": {"rows": None}, "rows": ROWS_AS_DICTS}))
def test_json_renderer_matches_stdlib_indent(case):
    payload, expected = case
    assert "".join(_json_pieces(payload)) == json.dumps(expected, indent=2, default=fmt_frac)


def test_empty_table_renders_its_header_in_csv_and_an_empty_list_in_json():
    # a generator is truthy even when it yields nothing
    assert _emitted("csv", Table(("a", "b"), iter(()))) == "a,b\n"
    assert _emitted("json", Table(("a", "b"), iter(())), Table(("a", "b"), iter(()))) == "[]\n"
    table = Table(("a", "b"), iter(()))
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


# --- differential oracle: `orbit` rows one generator step each, every digit its own cell ---

def _orbit_by_rows(args) -> None:
    """The ``orbit`` handler before its rows came from group columns: one
    ``orbit_prefix`` pair (or the one ``orbit_point``) per row, reduced in a
    generator, every digit a cell of its own."""
    pv = cantorperm.cli._vector(args)
    seed = encode(args.alpha, pv.base, pv.depth)
    spec = make_orbit(seed, pv)
    if args.at is not None:
        digits = orbit_point(spec, args.at).digits.digits
        start, pairs = args.at, [(seed.base.index_of(digits), digits)]
    else:
        start, pairs = 0, orbit_prefix(spec, args.count)
    total = seed.base.products[seed.depth]
    rows = [
        (n, num // (g := math.gcd(num, total)), total // g, *digits)
        for n, (num, digits) in enumerate(pairs, start)
    ]
    table = Table(("n", "value_num", "value_den", "digits"), rows, (3, seed.depth))
    line = "n=%d  value=%d/%d  digits=" + ";".join(["%d"] * seed.depth)
    emit(args, map(line.__mod__, rows), table, table)


# the seeds' cycle lengths in their level groups at cap 256, and the groups'
# periods: shift 2,3,5,7 | 11,13 | 17 | 19 (210, 143, 17, 19); partial cycles
# 2,6,5,4 | 11,6 (60, below the product 240, and 66); random cycles 6,35 |
# 11,13 (210, 143); depth 3: 2,3,5 (30); depth 1: 13.  A count c reads
# c - 1 entries past row 0 from each column: the counts p, p + 1 and p + 2
# put a column of period p just below, at and past its period (256: the cap)
ORBIT_VECTORS = {
    "shift": ["--bases", "2,3,5,7,11,13,17,19"],
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
ORBIT_COUNTS = [1, 2, 3, 700] + [p + k for p in (13, 17, 19, 30, 60, 66, 143, 210, 256)
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
        assert _orbit_outputs(tmp_path, cantorperm.cli.cmd_orbit, argv + run_argv) == expected
        assert expected[0].count("\n") >= 2


@pytest.mark.parametrize("cap", [1, 10**9])
def test_orbit_rows_do_not_depend_on_the_group_cap(monkeypatch, capsys, cap):
    runs = [
        ORBIT_VECTORS[vector] + ["--format", fmt, "--count", "300"]
        for vector in sorted(ORBIT_VECTORS) for fmt in FORMATS
    ]
    expected = [run(capsys, "orbit", *argv) for argv in runs]
    monkeypatch.setattr(cantorperm.dynamics, "_GROUP_CAP", cap)
    assert [run(capsys, "orbit", *argv) for argv in runs] == expected


def test_orbit_at_builds_no_column(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a column was built")

    monkeypatch.setattr(cantorperm.cli, "_orbit_columns", refuse)
    code, out, err = run(capsys, "orbit", *ORBIT_VECTORS["shift"], "--at", "10", "--format", "csv")
    assert (code, out.splitlines()[1], err) == (0, "10,900301,4849845,0;1;0;3;10;10;10;10", "")
