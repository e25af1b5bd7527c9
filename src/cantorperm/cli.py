"""Command-line front end.

Every subcommand is deterministic: identical arguments give byte-identical
output (the version banner appears only in the human-readable table format).
Handlers compute, emit and raise; :func:`main` alone maps the exception to
the exit code: 0 success, 1 computation error, 2 validation error, 3 a
mathematical check ran and was falsified.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .base import BaseSequence, as_fraction, encode, make_base, make_expansion
from .dynamics import OrbitSpec, _level_groups, _orbit_columns, apply_map, make_orbit, orbit_point
# bench/tracing.py wraps orbit_prefix under this name here, though `orbit`
# rows come from _orbit_columns; kept until the tracer reads library spans
from .dynamics import orbit_prefix  # noqa: F401
from .analysis import derivative_probe, difference_quotient, find_witness_descending
from .density import density, intersect, parse_periodic_set
from .equidist import SOURCES, membership_equivalence, ud_preservation_probe
from .errors import (
    CantorPermError,
    CheckFalsified,
    LengthMismatch,
    ValidationError,
)
from .perms import PermutationVector, _perm_lines, parse_permutations, shift_vector


def frac(f: Fraction) -> tuple[int, int]:
    return f.numerator, f.denominator


def fmt_frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def frac_fields(name: str, f: Fraction) -> dict:
    """``f`` as the two output fields ``<name>_num`` and ``<name>_den``."""
    return {f"{name}_num": f.numerator, f"{name}_den": f.denominator}


def _base(args) -> BaseSequence:
    """The first ``--depth`` moduli of ``--bases``, the only ones parsed and validated."""
    moduli = args.bases.split(",")
    depth = args.depth if args.depth is not None else len(moduli)
    if depth < 1 or depth > len(moduli):
        raise ValidationError(f"depth {depth} not in [1, {len(moduli)}]")
    return make_base(moduli[:depth])


def _vector(args) -> PermutationVector:
    """``--perms`` over :func:`_base`: at most one line per ``--bases``
    modulus; lines past ``--depth`` are dropped unparsed."""
    base, spec = _base(args), args.perms
    if spec == "shift":
        return shift_vector(base)
    if ":" in spec:
        text = spec.replace(";", "\n")
    else:
        try:
            text = Path(spec).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read permutation file {spec!r}: {exc}") from exc
    lines = _perm_lines(text)
    if len(lines) > (given := args.bases.count(",") + 1):
        raise LengthMismatch(f"{len(lines)} permutation lines for {given} moduli")
    return parse_permutations("\n".join(lines[: base.depth]), base)


class Table(NamedTuple):
    """A header and its rows: flat tuples of ints and strs (or bools), each
    row with the first row's cell kinds.  With ``ints = (i, width)``, column
    ``i`` is an int sequence: the ``width`` cells from cell ``i`` on, each an
    int or a text of ints pre-rendered with the sequence's separator.  Rows
    with such texts come as a function of that separator, called with ``;``
    for CSV and with the JSON list's own for JSON."""

    header: tuple[str, ...]
    rows: Iterable[tuple] | Callable[[str], Iterable[tuple]]
    ints: tuple[int, int] | None = None


@functools.lru_cache(maxsize=64)
def _json_template(header: tuple, pieces: tuple, pad: str) -> str:
    """The JSON object ``header`` -> placeholder ``pieces`` at ``pad``, once per
    shape: quoted placeholders become bare ones, a key's own "%" is doubled."""
    cells = {key.replace("%", "%%"): piece for key, piece in zip(header, pieces)}
    template = json.dumps(cells, indent=2).replace("\n", "\n" + pad)
    return template.replace('"%d"', "%d").replace('"%s"', "%s")


def _row_renderer(table: Table, first: tuple, csv: bool, pad: str = ""):
    """One ``%`` template for the rows shaped like ``first``, as the function
    that renders a row with it: a CSV line, or the JSON object at ``pad``."""
    pieces = ["%d" if type(v) is int else "%s" for v in first]
    quoted = [type(v) is not int for v in first]
    if table.ints:
        i, width = table.ints
        ints = tuple(pieces[i : i + width])
        pieces[i : i + width] = [";".join(ints) if csv else ints]
        quoted[i : i + width] = [False] * width  # pre-rendered texts go in bare
    if csv:
        return (",".join(pieces) + "\n").__mod__
    template = _json_template(tuple(table.header), tuple(pieces), pad)
    if not any(quoted):
        return template.__mod__
    return lambda row: template % tuple(json.dumps(v) if q else v for v, q in zip(row, quoted))


def _rendered(table: Table, csv: bool, pad: str = "") -> Iterator[str]:
    """``table`` in pieces: CSV under its header, or the JSON list of its
    rows at ``pad``."""
    inner = pad + "  "
    rows = table.rows
    if callable(rows):
        # a list value of a row object at `inner` has its items at inner + 4
        rows = rows(";" if csv else f",\n{inner}    ")
    rows = iter(rows)
    first = next(rows, None)
    header = ",".join(table.header) + "\n"
    if first is None:
        return iter([header if csv else "[]"])
    render = _row_renderer(table, first, csv, inner)
    if csv:
        return itertools.chain([header, render(first)], map(render, rows))
    rest = map(f",\n{inner}".__add__, map(render, rows))
    return itertools.chain([f"[\n{inner}", render(first)], rest, [f"\n{pad}]"])


def _json_pieces(payload) -> Iterator[str]:
    """``json.dumps(payload, indent=2, default=fmt_frac)`` in pieces, for a
    :class:`Table` or a str-keyed dict.  A :class:`Table`, the payload or a
    value of it, is the list of its rows, streamed as they render.  The rest
    is one ``json.dumps`` text with ``null`` in each table's place, cut where
    the table's key starts a line at indent 2, as no line of a value does."""
    if isinstance(payload, Table):
        return _rendered(payload, csv=False)
    tables = {key: value for key, value in payload.items() if isinstance(value, Table)}
    text = json.dumps({**payload, **dict.fromkeys(tables)}, indent=2, default=fmt_frac)
    parts = []
    for key, table in tables.items():
        anchor = f"\n  {json.dumps(key)}: "
        head, text = text.split(anchor + "null", 1)
        parts += [[head, anchor], _rendered(table, csv=False, pad="  ")]
    return itertools.chain(*parts, [text])


def emit(args, table_lines, table: Table, payload=None) -> None:
    """Write the requested format as it is rendered: ``table_lines`` (any
    iterable) under the version banner, ``table`` as CSV, or ``payload`` (a
    dict or a :class:`Table`) as JSON; with no ``payload``, ``table``'s one
    row as a JSON object."""
    if args.format == "table":
        pieces = map("%s\n".__mod__, itertools.chain([f"# cantorperm {__version__}"], table_lines))
    elif args.format == "csv":
        pieces = _rendered(table, csv=True)
    elif payload is None:
        (row,) = table.rows
        pieces = [_row_renderer(table, row, csv=False)(row), "\n"]
    else:
        pieces = itertools.chain(_json_pieces(payload), "\n")
    if not args.out:
        try:
            sys.stdout.writelines(pieces)
        except BrokenPipeError:
            # the reader has gone, as with `| head`: what stdout still holds
            # is flushed at exit, into the null device instead of the pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        with open(args.out, "w") as out:
            out.writelines(pieces)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out!r}: {exc.strerror}") from exc


# --- subcommand handlers ---

def cmd_expand(args) -> None:
    base = _base(args)
    value = as_fraction(args.value)
    digits = encode(value, base, base.depth)
    row = (*digits.digits, *frac(value))
    emit(args, [str(digits)], Table(("digits", "value_num", "value_den"), [row], (0, base.depth)))


def cmd_decode(args) -> None:
    value = make_expansion(args.digits, _base(args)).value
    emit(args, [fmt_frac(value)], Table(("value_num", "value_den"), [frac(value)]))


def cmd_map(args) -> None:
    pv = _vector(args)
    image = apply_map(pv, encode(args.value, pv.base, pv.depth))
    value = image.value
    row = (*image.digits, *frac(value))
    table = Table(("digits", "value_num", "value_den"), [row], (0, pv.depth))
    emit(args, [f"digits: {image}", f"value: {fmt_frac(value)}"], table)


def _orbit_rows(spec: OrbitSpec, start: int, count: int, first: tuple, sep: str):
    """The ``orbit`` rows of iterates ``start .. start + count - 1``, ``(n,
    value_num, value_den, *digit texts)`` with one text per group of
    :func:`_level_groups`, its digits joined by ``sep``.  Row ``start`` has
    the digits ``first``; the rest zip the cycled columns of
    :func:`_orbit_columns`, each digit tuple rendered once, with the sums of
    their terms reduced as Fraction would.  No Python code runs per row."""
    total = spec.alpha_digits.base.products[spec.depth]
    widths = [width for width, _ in _level_groups(spec)]
    templates = [sep.join(["%d"] * width) for width in widths]
    digits = iter(first)
    texts = [template % tuple(itertools.islice(digits, width))
             for template, width in zip(templates, widths)]
    num = spec.alpha_digits.base.index_of(first)
    g = math.gcd(num, total)
    row = (start, num // g, total // g, *texts)
    if count == 1:
        return iter([row])
    columns = _orbit_columns(spec, start + 1, count - 1)
    texts = [itertools.cycle(list(map(template.__mod__, digits)))
             for template, (_, digits) in zip(templates, columns)]
    nums = map(sum, zip(*[itertools.cycle(terms) for terms, _ in columns]))
    nums, to_reduce = itertools.tee(nums)
    gcds, to_divide = itertools.tee(map(math.gcd, to_reduce, itertools.repeat(total)))
    rest = zip(
        itertools.count(start + 1),
        map(operator.floordiv, nums, gcds),
        map(total.__floordiv__, to_divide),
        *texts,
    )
    return itertools.chain([row], itertools.islice(rest, count - 1))


def cmd_orbit(args) -> None:
    pv = _vector(args)
    seed = encode(args.alpha, pv.base, pv.depth)
    spec = make_orbit(seed, pv)
    start, count = (0, args.count) if args.at is None else (args.at, 1)
    if count < 1:
        raise ValidationError("count must be >= 1")
    # `--at` is the one-row case: random access only, no column is built
    first = orbit_point(spec, start).digits.digits
    rows = functools.partial(_orbit_rows, spec, start, count, first)
    groups = len(_level_groups(spec))
    table = Table(("n", "value_num", "value_den", "digits"), rows, (3, groups))
    line = "n=%d  value=%d/%d  digits=" + ";".join(["%s"] * groups)
    lines = map(line.__mod__, rows(";")) if args.format == "table" else ()
    emit(args, lines, table, table)


def _level_report(args):
    """The ``check equivalence`` handler, also run by ``check ud``: emit the
    membership equivalence report and return it; raises (exit 3) on any
    index violating the congruence."""
    pv = _vector(args)
    seed = encode(args.alpha, pv.base, pv.depth)
    report = membership_equivalence(make_orbit(seed, pv), args.level, args.count)

    def table_lines():
        yield (
            f"level {report.level}, N={report.sample_size}, "
            f"expected {fmt_frac(report.intervals[0].expected)} per interval"
        )
        for s in report.intervals:
            yield f"I_{s.index}: class {s.residue}  count {s.count}"
        yield f"d_star: {fmt_frac(report.d_star)}"

    expected = frac(report.intervals[0].expected)
    table = Table(
        ("j", "residue", "modulus", "count", "expected_num", "expected_den"),
        ((s.index, s.residue.residue, s.residue.modulus, s.count, *expected)
         for s in report.intervals),
    )
    payload = {
        "level": report.level,
        "N": report.sample_size,
        "intervals": table,
        **frac_fields("d_star", report.d_star),
    }
    emit(args, table_lines(), table, payload)
    return report


def cmd_check_ud(args) -> None:
    counts = [s.count for s in _level_report(args).intervals]
    if not (sum(counts) == args.count and max(counts) - min(counts) <= 1):
        raise CheckFalsified("interval counts unbalanced")


def cmd_check_preserve(args) -> None:
    pv = _vector(args)
    threshold = None if args.threshold is None else as_fraction(args.threshold)
    probe = ud_preservation_probe(pv, args.source, args.count, args.level)
    table_lines = [
        f"source {probe.source}, N={probe.sample_size}, level {probe.level}",
        f"input d_star: {fmt_frac(probe.input_d_star)}",
        f"image d_star: {fmt_frac(probe.image_d_star)}",
    ]
    if probe.grid_exact is not None:
        table_lines.append(f"grid image equals grid: {probe.grid_exact}")
    table = Table(
        ("j", "count", "expected_num", "expected_den"),
        ((j, c, *frac(probe.expected)) for j, c in enumerate(probe.counts)),
    )
    payload = {
        "source": probe.source,
        "N": probe.sample_size,
        "level": probe.level,
        **frac_fields("input_d_star", probe.input_d_star),
        **frac_fields("image_d_star", probe.image_d_star),
        "intervals": table,
        "grid_exact": probe.grid_exact,
    }
    emit(args, table_lines, table, payload)
    if probe.grid_exact is False:
        raise CheckFalsified("grid image differs from grid")
    if probe.grid_exact and probe.input_d_star != probe.image_d_star:
        raise CheckFalsified("grid discrepancy changed")
    if threshold is not None and probe.image_d_star > threshold:
        raise CheckFalsified(
            f"image d_star {fmt_frac(probe.image_d_star)} above threshold {args.threshold}"
        )


def cmd_density(args) -> None:
    ps = parse_periodic_set(args.set)
    if args.intersect:
        ps = intersect(ps, parse_periodic_set(args.intersect))
    d = density(ps)
    residues = sorted(ps.residues)
    row = (*residues, ps.modulus, *frac(d))
    table = Table(("residues", "modulus", "density_num", "density_den"), [row], (0, len(residues)))
    payload = {"modulus": ps.modulus, "residues": residues, **frac_fields("density", d)}
    emit(args, [f"set: {ps}", f"density: {fmt_frac(d)}"], table, payload)


def cmd_probe_monotone(args) -> None:
    pv = _vector(args)
    witness = find_witness_descending(
        pv, args.level, args.interval, max_descent=args.max_descend
    )
    roles = ("inc_low", "inc_high", "dec_low", "dec_high")
    digits = witness.increasing_digits + witness.decreasing_digits
    table_lines = [
        f"witness at level {witness.level}, interval {witness.interval_index}",
        f"increasing digits {witness.increasing_digits}, "
        f"decreasing digits {witness.decreasing_digits}",
    ]
    table_lines += [
        f"{role}: point {fmt_frac(point)} -> image {fmt_frac(image)}"
        for role, point, image in zip(roles, witness.points, witness.images)
    ]
    header = ("role", "digit", "point_num", "point_den", "image_num", "image_den")
    rows = [(role, digit, *frac(point), *frac(image))
            for role, digit, point, image in zip(roles, digits, witness.points, witness.images)]
    payload = {
        "requested_level": args.level,
        "requested_interval": args.interval,
        "level": witness.level,
        "interval_index": witness.interval_index,
        "increasing_digits": witness.increasing_digits,
        "decreasing_digits": witness.decreasing_digits,
        "points": witness.points,
        "images": witness.images,
    }
    emit(args, table_lines, Table(header, rows), payload)


QUOTIENT_HEADER = ("s", "a_s", "ell", "quot_num", "quot_den")


def _quotient_row(sample) -> tuple:
    q = sample.quotient
    return sample.digit_level, sample.original_digit, sample.perturbed_digit, *frac(q)


def cmd_probe_quotient(args) -> None:
    pv = _vector(args)
    seed = encode(args.alpha, pv.base, pv.depth)
    sample = difference_quotient(pv, seed, args.digit, args.ell)
    emit(args, [fmt_frac(sample.quotient)], Table(QUOTIENT_HEADER, [_quotient_row(sample)]))


def cmd_probe_derivative(args) -> None:
    pv = _vector(args)
    seed = encode(args.alpha, pv.base, pv.depth)
    report = derivative_probe(pv, seed, args.max_level)
    rows = [
        _quotient_row(difference_quotient(pv, seed, lq.level, ell))
        for lq in report.levels
        for ell in range(pv.perms[lq.level].modulus)
        if ell != lq.digit
    ]
    table_lines = [
        f"level {lq.level} digit {lq.digit}: quotients "
        + " ".join(fmt_frac(q) for q in lq.quotients)
        + f"  one_achievable={lq.achieves_one}"
        for lq in report.levels
    ]
    table_lines += [
        f"one_at_every_level: {report.one_at_every_level}",
        "candidates: " + ",".join(str(c) for c in report.candidates),
        f"candidates_stable: {report.candidates_stable}",
    ]
    emit(args, table_lines, Table(QUOTIENT_HEADER, rows), asdict(report))


# --- parser ---

def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bases", default="2,3,5", help="comma-separated moduli")
    common.add_argument(
        "--perms",
        default="shift",
        help='"shift", a permutation file path, or inline "m:i0,i1,..;m:.."',
    )
    common.add_argument("--alpha", default="0", help='seed as "p/q"')
    common.add_argument("--depth", type=int, default=None, help="working depth")
    common.add_argument(
        "--format", choices=("table", "csv", "json"), default="table"
    )
    common.add_argument("--out", default=None, help="write output to this file")
    return common


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on the first call, then shared.
    Parsing leaves it unchanged, so every call of :func:`main` can reuse it."""
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="cantorperm",
        description="Digit-permutation dynamics on Cantor series expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="digits of a rational")
    p.add_argument("--value", required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("decode", parents=[common], help="rational value of digits")
    p.add_argument("--digits", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("map", parents=[common], help="apply the map once")
    p.add_argument("--value", required=True)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("orbit", parents=[common], help="orbit points as CSV")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--count", type=int, default=None)
    which.add_argument("--at", type=int, default=None, help="single random-access index")
    p.set_defaults(func=cmd_orbit)

    check = sub.add_parser("check", help="exact and statistical checks")
    check_sub = check.add_subparsers(dest="subcheck", required=True)
    p = check_sub.add_parser("ud", parents=[common], help="interval count balance")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_check_ud)
    p = check_sub.add_parser(
        "equivalence", parents=[common], help="interval/residue-class equivalence"
    )
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_level_report)
    p = check_sub.add_parser(
        "preserve", parents=[common], help="distribution preservation probe"
    )
    p.add_argument("--source", choices=SOURCES, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--threshold", default=None, help='fail if image d_star > "p/q"')
    p.set_defaults(func=cmd_check_preserve)

    p = sub.add_parser("density", parents=[common], help="density of a periodic set")
    p.add_argument("--set", required=True, help='literal "r1,r2,...(M)"')
    p.add_argument("--intersect", default=None, help="intersect with this set first")
    p.set_defaults(func=cmd_density)

    probe = sub.add_parser("probe", help="monotonicity and derivative probes")
    probe_sub = probe.add_subparsers(dest="subprobe", required=True)
    p = probe_sub.add_parser(
        "monotone", parents=[common], help="non-monotonicity witness"
    )
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--interval", type=int, required=True)
    p.add_argument("--max-descend", type=int, default=None)
    p.set_defaults(func=cmd_probe_monotone)
    p = probe_sub.add_parser(
        "quotient", parents=[common], help="single difference quotient"
    )
    p.add_argument("--digit", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_probe_quotient)
    p = probe_sub.add_parser(
        "derivative", parents=[common], help="achievable quotients per level"
    )
    p.add_argument("--max-level", type=int, required=True)
    p.set_defaults(func=cmd_probe_derivative)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 2, --help exits 0
        return exc.code
    try:
        # argparse turns an option value of "--" into an empty list
        if [] in vars(args).values():
            raise ValidationError("'--' is not an option value")
        args.func(args)
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except CheckFalsified as exc:
        print(f"check falsified: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (CantorPermError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
