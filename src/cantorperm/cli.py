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
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import asdict
from fractions import Fraction
from gettext import gettext
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .base import BaseSequence, as_fraction, encode, make_base, make_expansion
from .dynamics import OrbitSpec, _orbit_columns, apply_map, make_orbit, orbit_point
# bench/tracing.py wraps orbit_prefix under this name here, though `orbit`
# rows come from _orbit_columns; kept until the tracer reads library spans
from .dynamics import orbit_prefix  # noqa: F401
from .analysis import derivative_probe, difference_quotient, find_witness_descending
from .density import density, intersect, parse_periodic_set
from .equidist import SOURCES, _LevelIntervals, membership_equivalence, ud_preservation_probe
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


# the rows written by one str.join
_ROW_BLOCK = 1024


class Table(NamedTuple):
    """A header and ``count`` rows, held as columns: ``columns`` has one
    iterable per varying cell of a row, each yielding that cell's blocks,
    lists (or ranges) of ``_ROW_BLOCK`` cells in row order, the last one
    the rest; :func:`_in_blocks` cuts plain iterables so.  The columns
    are read in order, one block of each per row block, so two columns may
    be one iterator that yields their blocks in turn.  A column's cells
    are all of its first cell's kind (int, str or bool).  ``fixed`` maps the
    position of a cell in the whole row to the value it holds in every
    row; ``columns`` leaves those positions out.  With ``ints = (i,
    width)``, the ``width`` cells from position ``i`` on are an int
    sequence, each cell an int or a text of ints pre-rendered with the
    sequence's separator.  Columns with such texts come as a function of
    that separator, called with ``;`` for CSV and with the JSON list's own
    for JSON.  ``bare`` holds the positions of other cells whose columns
    may hold the texts of ints in place of the ints, so that a column of
    few distinct values renders each once per table; like the int
    sequence's texts, they go in as they are, in CSV and JSON alike."""

    header: tuple[str, ...]
    columns: Iterable[Iterable[Sequence]] | Callable[[str], Iterable[Iterable[Sequence]]]
    count: int
    ints: tuple[int, int] | None = None
    fixed: dict[int, object] | None = None
    bare: tuple[int, ...] = ()


def _in_blocks(columns: Iterable[Iterable]) -> list[Iterator[list]]:
    """Plain iterables of cells as :class:`Table` columns: each cut into
    lists of ``_ROW_BLOCK`` cells, the last one the rest."""
    def cut(column):
        column = iter(column)
        return iter(lambda: list(itertools.islice(column, _ROW_BLOCK)), [])

    return list(map(cut, columns))


def _between(sep: str, items: Iterable[list]) -> list:
    """The parts of ``items``, ``sep`` between each two of them."""
    return [part for item in items for part in (sep, *item)][1:]


@functools.lru_cache(maxsize=64)
def _row_parts(header: tuple, ints: tuple | None, fixed: tuple, bare: tuple, csv: bool,
               pad: str) -> tuple:
    """A row as its parts, once per shape: constant texts, the position of
    each fixed cell in ``fixed``, and for each varying cell whether it is
    bare, in the int sequence ``ints`` or in ``bare``; a CSV line, or the
    JSON object at ``pad`` as ``json.dumps(row, indent=2)`` writes it."""
    i, width = ints or (0, 1)
    # one field per header name: its parts
    fields = [[at in bare] for at in range(len(header) + width - 1)]
    for at in fixed:
        fields[at] = [at]
    if ints:
        items = _between(";" if csv else f",\n{pad}    ", [[True]] * width)
        if not csv:
            items = [f"[\n{pad}    ", *items, f"\n{pad}  ]"] if width else ["[]"]
        fields[i : i + width] = [items]
    if csv:
        return (*_between(",", fields), "\n")
    keys = [[f"\n{pad}  {json.dumps(key)}: ", *field] for key, field in zip(header, fields)]
    return ("{", *_between(",", keys), f"\n{pad}}}") if keys else ("{}",)


def _row_texts(table: Table, csv: bool, pad: str = "") -> tuple[list[str], list[bool]]:
    """The constant texts of a row of ``table`` (:func:`_row_parts`), one
    more than its varying cells, and whether each varying cell is bare.  A
    fixed cell's text is its ``str`` in CSV and its ``json.dumps`` in JSON."""
    fixed = table.fixed or {}
    texts, bare = [""], []
    for part in _row_parts(tuple(table.header), table.ints, tuple(sorted(fixed)), table.bare,
                           csv, pad):
        if type(part) is bool:
            texts.append("")
            bare.append(part)
        elif type(part) is int:
            value = fixed[part]
            texts[-1] += str(value) if csv or type(value) is int else json.dumps(value)
        else:
            texts[-1] += part
    return texts, bare


def _blocks(table: Table, columns: Iterable[Iterable[Sequence]], csv: bool, pad: str = "",
            lead: str = "", opening: str = "") -> Iterator[str]:
    """The rows of ``table`` (:func:`_row_texts`) from ``columns``, each
    block of ``_ROW_BLOCK`` rows one ``str.join``: the constant texts go in
    by list repetition, the next block of column ``i`` by slice assignment
    into the slots ``2·i + 1``.  Every row is led by ``lead``, the first one by
    ``opening`` instead.  A column's cells are all of its first cell's
    kind and go in as that kind asks: an int by ``repr``, a str as it is
    in CSV or in a bare cell (the texts of ints), and in JSON any other str
    or other kind by ``json.dumps`` (by ``str`` in CSV)."""
    texts, bare = _row_texts(table, csv, pad)
    step = 2 * len(bare) + 1
    row = [None] * step
    row[::2] = texts
    row[0] = lead + texts[0]
    columns = list(map(iter, columns))
    for start in range(0, table.count, _ROW_BLOCK):
        pieces = row * min(_ROW_BLOCK, table.count - start)
        for i, (column, as_is) in enumerate(zip(columns, bare)):
            cells = next(column)
            kind = type(cells[0])
            if kind is str and (csv or as_is):
                pieces[2 * i + 1 :: step] = cells
            elif kind is int:
                pieces[2 * i + 1 :: step] = map(repr, cells)
            else:
                pieces[2 * i + 1 :: step] = map(str if csv else json.dumps, cells)
        if not start:
            pieces[0] = opening + texts[0]
        yield "".join(pieces)


def _rendered(table: Table, csv: bool, pad: str = "") -> Iterator[str]:
    """``table`` in pieces: CSV under its header, or the JSON list of its
    rows at ``pad``, in blocks of rows (:func:`_blocks`); a block is
    rendered when it is read."""
    inner = pad + "  "
    columns = table.columns
    if callable(columns):
        # a list value of a row object at `inner` has its items at inner + 4
        columns = columns(";" if csv else f",\n{inner}    ")
    header = ",".join(table.header) + "\n"
    if not table.count:
        return iter([header if csv else "[]"])
    if csv:
        return _blocks(table, columns, csv, opening=header)
    rows = _blocks(table, columns, csv, inner, f",\n{inner}", f"[\n{inner}")
    return itertools.chain(rows, [f"\n{pad}]"])


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
        pieces = itertools.chain(_blocks(table, table.columns, csv=False), "\n")
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
    table = Table(("digits", "value_num", "value_den"), _in_blocks(zip(row)), 1, (0, base.depth))
    emit(args, [str(digits)], table)


def cmd_decode(args) -> None:
    value = make_expansion(args.digits, _base(args)).value
    table = Table(("value_num", "value_den"), _in_blocks(zip(frac(value))), 1)
    emit(args, [fmt_frac(value)], table)


def cmd_map(args) -> None:
    pv = _vector(args)
    image = apply_map(pv, encode(args.value, pv.base, pv.depth))
    value = image.value
    row = (*image.digits, *frac(value))
    table = Table(("digits", "value_num", "value_den"), _in_blocks(zip(row)), 1, (0, pv.depth))
    emit(args, [f"digits: {image}", f"value: {fmt_frac(value)}"], table)


def _cycled(first, period: list, count: int) -> Iterator[list]:
    """The :class:`Table` column of ``count`` cells: ``first``, then the
    cells of ``period`` over and over; each block one slice of a list of
    one period and a block more."""
    ring = list(itertools.islice(itertools.cycle(period), len(period) + _ROW_BLOCK))
    for start in range(0, count, _ROW_BLOCK):
        at = (start - 1) % len(period)
        block = ring[at : at + min(_ROW_BLOCK, count - start)]
        if not start:
            block[0] = first
        yield block


def _orbit_rows(spec: OrbitSpec, start: int, count: int, first: tuple, sep: str) -> list:
    """The :class:`Table` columns of the ``orbit`` rows of iterates
    ``start .. start + count - 1``: ``n`` as ranges, ``value_num`` as
    ints, ``value_den`` and one digit text per group of ``spec._groups``,
    its digits joined by ``sep``, as texts; each column's cells all of its
    first cell's kind.  Row ``start`` has the digits ``first``; the rest
    read the numerators of :func:`_orbit_columns` and its digit columns,
    each digit tuple rendered once and cycled by :func:`_cycled`.  The
    numerators are reduced as Fraction would, a block of ``_ROW_BLOCK`` of
    them at a time from a list, and each block of both value columns is
    the list handed to the renderer.  A denominator is ``B_K // g``, ``g``
    the gcd of its numerator and ``B_K``: its text is rendered once per
    ``g`` the call meets, a divisor of ``B_K``.  No Python code runs per
    row."""
    total = spec.alpha_digits.base.products[spec.depth]
    widths = [width for width, _ in spec._groups]
    templates = [sep.join(["%d"] * width) for width in widths]
    digits = iter(first)
    heads = [template % tuple(itertools.islice(digits, width))
             for template, width in zip(templates, widths)]
    nums, periods = [spec.alpha_digits.base.index_of(first)], [[head] for head in heads]
    if count > 1:
        rest, columns = _orbit_columns(spec, start + 1, count - 1)
        nums = itertools.chain(nums, rest)
        periods = [list(map(template.__mod__, digits))
                   for template, digits in zip(templates, columns)]

    dens = {}  # the text of total // g, by g

    def values(blocks):
        # both value columns, one iterator: a block's numerators, then the
        # texts of its denominators
        for block in blocks:
            gcds = list(map(math.gcd, block, itertools.repeat(total)))
            for g in set(gcds).difference(dens):
                dens[g] = repr(total // g)
            yield list(map(operator.floordiv, block, gcds))
            yield list(map(dens.__getitem__, gcds))

    rows = range(start, start + count)
    value = values(*_in_blocks([nums]))
    return [(rows[i : i + _ROW_BLOCK] for i in range(0, count, _ROW_BLOCK)), value, value,
            *map(_cycled, heads, periods, itertools.repeat(count))]


def cmd_orbit(args) -> None:
    pv = _vector(args)
    seed = encode(args.alpha, pv.base, pv.depth)
    spec = make_orbit(seed, pv)
    start, count = (0, args.count) if args.at is None else (args.at, 1)
    if count < 1:
        raise ValidationError("count must be >= 1")
    # `--at` is the one-row case: random access only, no column is built
    first = orbit_point(spec, start).digits.digits
    columns = functools.partial(_orbit_rows, spec, start, count, first)
    header = ("n", "value_num", "value_den", "digits")
    table = Table(header, columns, count, (3, len(spec._groups)), bare=(2,))
    line = "n=%d  value=%d/%s  digits=" + ";".join(["%s"] * len(spec._groups))
    cells = map(itertools.chain.from_iterable, columns(";")) if args.format == "table" else ()
    emit(args, map(line.__mod__, zip(*cells)), table, table)


def _interval_columns(report) -> tuple[Sequence[int], Sequence[int]]:
    """The class residues and the counts of ``report.intervals``, in
    interval order: the library's lazy intervals hand over their columns; a
    report rebuilt around a tuple of stats (``dataclasses.replace``) is read
    stat by stat, so what it holds is what is printed."""
    intervals = report.intervals
    if isinstance(intervals, _LevelIntervals):
        return intervals.residues, intervals.counts
    return [s.residue.residue for s in intervals], [s.count for s in intervals]


def _level_report(args) -> Sequence[int]:
    """The ``check equivalence`` handler, also run by ``check ud``: emit the
    membership equivalence report and return its interval counts; raises
    (exit 3) on any index violating the congruence.  The rows' count is a
    fixed cell when the report's counts are all equal.  When the table is
    rendered (CSV, JSON), its ``j`` column, ``range(B_k)``, and the
    residues, a permutation of it (the proved complete residue system),
    read one list of their texts."""
    pv = _vector(args)
    seed = encode(args.alpha, pv.base, pv.depth)
    report = membership_equivalence(make_orbit(seed, pv), args.level, args.count)
    residues, counts = _interval_columns(report)
    expected = report.intervals[0].expected
    modulus = len(residues)
    table_lines = itertools.chain(
        [f"level {report.level}, N={report.sample_size}, "
         f"expected {fmt_frac(expected)} per interval"],
        map(f"I_%d: class %d+({modulus})  count %d".__mod__,
            zip(itertools.count(), residues, counts)),
        [f"d_star: {fmt_frac(report.d_star)}"],
    )
    num, den = frac(expected)
    varying, fixed = [counts], {2: modulus, 4: num, 5: den}
    if counts.count(counts[0]) == len(counts):
        fixed[3], varying = counts[0], []

    def columns(sep):
        texts = list(map(repr, range(modulus)))
        return _in_blocks([texts, map(texts.__getitem__, residues), *varying])

    table = Table(
        ("j", "residue", "modulus", "count", "expected_num", "expected_den"),
        columns, modulus, fixed=fixed, bare=(0, 1),
    )
    payload = {
        "level": report.level,
        "N": report.sample_size,
        "intervals": table,
        **frac_fields("d_star", report.d_star),
    }
    emit(args, table_lines, table, payload)
    return counts


def cmd_check_ud(args) -> None:
    counts = _level_report(args)
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
    num, den = frac(probe.expected)
    size = len(probe.counts)
    table = Table(
        ("j", "count", "expected_num", "expected_den"),
        _in_blocks((range(size), probe.counts)), size, fixed={2: num, 3: den},
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
    table = Table(("residues", "modulus", "density_num", "density_den"), _in_blocks(zip(row)), 1,
                  (0, len(residues)))
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
    emit(args, table_lines, Table(header, _in_blocks(zip(*rows)), len(rows)), payload)


QUOTIENT_HEADER = ("s", "a_s", "ell", "quot_num", "quot_den")


def _quotient_row(sample) -> tuple:
    q = sample.quotient
    return sample.digit_level, sample.original_digit, sample.perturbed_digit, *frac(q)


def cmd_probe_quotient(args) -> None:
    pv = _vector(args)
    seed = encode(args.alpha, pv.base, pv.depth)
    sample = difference_quotient(pv, seed, args.digit, args.ell)
    table = Table(QUOTIENT_HEADER, _in_blocks(zip(_quotient_row(sample))), 1)
    emit(args, [fmt_frac(sample.quotient)], table)


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
    table = Table(QUOTIENT_HEADER, _in_blocks(zip(*rows)), len(rows))
    emit(args, table_lines, table, asdict(report))


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


def build_parser() -> argparse.ArgumentParser:
    """The one root parser of the process: built on the first call, then
    shared.  Parsing leaves it unchanged, so every call can reuse it; its
    ``parse_args`` is argparse's nested pass over the command words."""
    return _parsers()[()]


@functools.cache
def _parsers() -> dict[tuple[str, ...], argparse.ArgumentParser]:
    """Every parser of the command line by its command words: ``()`` the
    root, ``("orbit",)``, ``("check",)``, ``("check", "equivalence")``, ..."""
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="cantorperm",
        description="Digit-permutation dynamics on Cantor series expansions",
    )
    parsers = {(): parser}

    def command(sub, path: tuple[str, ...], **kwargs) -> argparse.ArgumentParser:
        parsers[path] = sub.add_parser(path[-1], **kwargs)
        return parsers[path]

    sub = parser.add_subparsers(dest="command", required=True)

    p = command(sub, ("expand",), parents=[common], help="digits of a rational")
    p.add_argument("--value", required=True)
    p.set_defaults(func=cmd_expand)

    p = command(sub, ("decode",), parents=[common], help="rational value of digits")
    p.add_argument("--digits", required=True)
    p.set_defaults(func=cmd_decode)

    p = command(sub, ("map",), parents=[common], help="apply the map once")
    p.add_argument("--value", required=True)
    p.set_defaults(func=cmd_map)

    p = command(sub, ("orbit",), parents=[common], help="orbit points as CSV")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--count", type=int, default=None)
    which.add_argument("--at", type=int, default=None, help="single random-access index")
    p.set_defaults(func=cmd_orbit)

    check = command(sub, ("check",), help="exact and statistical checks")
    check_sub = check.add_subparsers(dest="subcheck", required=True)
    p = command(check_sub, ("check", "ud"), parents=[common], help="interval count balance")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_check_ud)
    p = command(check_sub, ("check", "equivalence"), parents=[common],
                help="interval/residue-class equivalence")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_level_report)
    p = command(check_sub, ("check", "preserve"), parents=[common],
                help="distribution preservation probe")
    p.add_argument("--source", choices=SOURCES, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--threshold", default=None, help='fail if image d_star > "p/q"')
    p.set_defaults(func=cmd_check_preserve)

    p = command(sub, ("density",), parents=[common], help="density of a periodic set")
    p.add_argument("--set", required=True, help='literal "r1,r2,...(M)"')
    p.add_argument("--intersect", default=None, help="intersect with this set first")
    p.set_defaults(func=cmd_density)

    probe = command(sub, ("probe",), help="monotonicity and derivative probes")
    probe_sub = probe.add_subparsers(dest="subprobe", required=True)
    p = command(probe_sub, ("probe", "monotone"), parents=[common],
                help="non-monotonicity witness")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--interval", type=int, required=True)
    p.add_argument("--max-descend", type=int, default=None)
    p.set_defaults(func=cmd_probe_monotone)
    p = command(probe_sub, ("probe", "quotient"), parents=[common],
                help="single difference quotient")
    p.add_argument("--digit", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_probe_quotient)
    p = command(probe_sub, ("probe", "derivative"), parents=[common],
                help="achievable quotients per level")
    p.add_argument("--max-level", type=int, required=True)
    p.set_defaults(func=cmd_probe_derivative)

    return parsers


def main(argv=None) -> int:
    # one parse, by the parser the leading command words name: argparse's
    # nested pass ends there too, after each parser above it has read every
    # string; what the command leaves is the root's error, as in that pass
    parsers = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    path = ()
    for word in argv:
        if path + (word,) not in parsers:
            break
        path += (word,)
    try:
        args, extra = parsers[path].parse_known_args(argv[len(path):])
        if extra:
            parsers[()].error(gettext("unrecognized arguments: %s") % " ".join(extra))
    except SystemExit as exc:  # usage errors exit 2, --help exits 0
        return exc.code
    return _run(args)


def _run(args) -> int:
    """Run the parsed command line ``args``: its handler's exception as
    the exit code, as the module docstring maps them."""
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
    except CantorPermError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # str(MemoryError()) is empty
        print(f"error: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
