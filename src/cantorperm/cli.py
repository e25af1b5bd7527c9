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
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .base import BaseSequence, DigitExpansion, as_fraction, encode, make_base, make_expansion
from .dynamics import apply_map, make_orbit, orbit_point, orbit_prefix
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


def fmt_frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def frac_fields(name: str, f: Fraction) -> dict:
    """``f`` as the two output fields ``<name>_num`` and ``<name>_den``."""
    return {f"{name}_num": f.numerator, f"{name}_den": f.denominator}


def build_session(args) -> tuple[PermutationVector, DigitExpansion]:
    """The permutation vector and the encoded ``--alpha`` seed.  Only the
    first ``--depth`` moduli of ``--bases`` are parsed and validated."""
    moduli = args.bases.split(",")
    depth = args.depth if args.depth is not None else len(moduli)
    if depth < 1 or depth > len(moduli):
        raise ValidationError(f"depth {depth} not in [1, {len(moduli)}]")
    base = make_base(moduli[:depth])
    pv = _build_perms(args.perms, base, len(moduli))
    return pv, encode(args.alpha, base, depth)


def _build_perms(spec: str, base: BaseSequence, moduli_given: int) -> PermutationVector:
    """At most one line per ``--bases`` modulus; lines past ``--depth`` are dropped."""
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
    if len(lines) > moduli_given:
        raise LengthMismatch(f"{len(lines)} permutation lines for {moduli_given} moduli")
    return parse_permutations("\n".join(lines[: base.depth]), base)


def _json(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for str-keyed values;
    written out here because before Python 3.13 ``indent`` makes ``json``
    fall back to its pure-Python encoder.  ``int`` leaves, most of any
    report, are written in place rather than through a call each."""
    if type(value) is int:
        return str(value)
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = (
            f"{encode_basestring_ascii(k)}: {v if type(v) is int else _json(v, inner)}"
            for k, v in value.items()
        )
        brackets = "{}"
    elif isinstance(value, (list, tuple)) and value:
        items = (str(v) if type(v) is int else _json(v, inner) for v in value)
        brackets = "[]"
    else:
        return json.dumps(value)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _cell(value) -> str:
    return ";".join(map(str, value)) if isinstance(value, list) else str(value)


def emit(args, table_lines, rows, payload, header=None) -> None:
    """Write the requested format: ``table_lines`` (any iterable) under the
    version banner, ``rows`` as CSV with the first row's keys as header (or
    ``header`` when there may be no rows), or ``payload`` as JSON."""
    if args.format == "table":
        text = "\n".join([f"# cantorperm {__version__}", *table_lines]) + "\n"
    elif args.format == "csv":
        lines = [",".join(rows[0] if rows else header)]
        lines += [",".join(_cell(v) for v in row.values()) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = _json(payload) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


# --- subcommand handlers ---

def cmd_expand(args) -> None:
    _, seed = build_session(args)
    value = as_fraction(args.value)
    digits = encode(value, seed.base, seed.depth)
    row = {"digits": list(digits.digits), **frac_fields("value", value)}
    emit(args, [str(digits)], [row], row)


def cmd_decode(args) -> None:
    _, seed = build_session(args)
    value = make_expansion(args.digits, seed.base).value
    row = frac_fields("value", value)
    emit(args, [fmt_frac(value)], [row], row)


def cmd_map(args) -> None:
    pv, seed = build_session(args)
    image = apply_map(pv, encode(args.value, seed.base, seed.depth))
    value = image.value
    row = {"digits": list(image.digits), **frac_fields("value", value)}
    emit(args, [f"digits: {image}", f"value: {fmt_frac(value)}"], [row], row)


def cmd_orbit(args) -> None:
    pv, seed = build_session(args)
    spec = make_orbit(seed, pv)
    if args.at is not None:
        digits = orbit_point(spec, args.at).digits.digits
        start, pairs = args.at, [(seed.base.index_of(digits), digits)]
    else:
        start, pairs = 0, orbit_prefix(spec, args.count)
    # every iterate is a numerator over B_K; reduce it as Fraction would
    total = seed.base.products[seed.depth]
    rows = []
    for n, (num, digits) in enumerate(pairs, start):
        g = math.gcd(num, total)
        rows.append(
            {"n": n, "value_num": num // g, "value_den": total // g, "digits": list(digits)}
        )
    table_lines = (
        f"n={r['n']}  value={r['value_num']}/{r['value_den']}  digits={_cell(r['digits'])}"
        for r in rows
    )
    emit(args, table_lines, rows, rows)


def _level_report(args):
    """The ``check equivalence`` handler, also run by ``check ud``: emit the
    membership equivalence report and return it; raises (exit 3) on any
    index violating the congruence."""
    pv, seed = build_session(args)
    report = membership_equivalence(make_orbit(seed, pv), args.level, args.count)

    def table_lines():
        yield (
            f"level {report.level}, N={report.sample_size}, "
            f"expected {fmt_frac(report.intervals[0].expected)} per interval"
        )
        for s in report.intervals:
            yield f"I_{s.index}: class {s.residue}  count {s.count}"
        yield f"d_star: {fmt_frac(report.d_star)}"

    expected = frac_fields("expected", report.intervals[0].expected)
    rows = [
        {
            "j": s.index,
            "residue": s.residue.residue,
            "modulus": s.residue.modulus,
            "count": s.count,
            **expected,
        }
        for s in report.intervals
    ]
    payload = {
        "level": report.level,
        "N": report.sample_size,
        "intervals": rows,
        **frac_fields("d_star", report.d_star),
    }
    emit(args, table_lines(), rows, payload)
    return report


def cmd_check_ud(args) -> None:
    counts = [s.count for s in _level_report(args).intervals]
    if args.count % len(counts) == 0:
        balanced = all(c == args.count // len(counts) for c in counts)
    else:
        balanced = max(counts) - min(counts) <= 1
    if not balanced:
        raise CheckFalsified("interval counts unbalanced")


def cmd_check_preserve(args) -> None:
    pv, _ = build_session(args)
    threshold = None if args.threshold is None else as_fraction(args.threshold)
    probe = ud_preservation_probe(pv, args.source, args.count, args.level)
    table_lines = [
        f"source {probe.source}, N={probe.sample_size}, level {probe.level}",
        f"input d_star: {fmt_frac(probe.input_d_star)}",
        f"image d_star: {fmt_frac(probe.image_d_star)}",
    ]
    if probe.grid_exact is not None:
        table_lines.append(f"grid image equals grid: {probe.grid_exact}")
    expected = frac_fields("expected", probe.expected)
    rows = [{"j": j, "count": c, **expected} for j, c in enumerate(probe.counts)]
    payload = {
        "source": probe.source,
        "N": probe.sample_size,
        "level": probe.level,
        **frac_fields("input_d_star", probe.input_d_star),
        **frac_fields("image_d_star", probe.image_d_star),
        "intervals": rows,
        "grid_exact": probe.grid_exact,
    }
    emit(args, table_lines, rows, payload)
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
    emit(
        args,
        table_lines=[f"set: {ps}", f"density: {fmt_frac(d)}"],
        rows=[{"residues": residues, "modulus": ps.modulus, **frac_fields("density", d)}],
        payload={"modulus": ps.modulus, "residues": residues, **frac_fields("density", d)},
    )


def cmd_probe_monotone(args) -> None:
    pv, _ = build_session(args)
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
    rows = [
        {
            "role": role,
            "digit": digit,
            **frac_fields("point", point),
            **frac_fields("image", image),
        }
        for role, digit, point, image in zip(roles, digits, witness.points, witness.images)
    ]
    payload = {
        "requested_level": args.level,
        "requested_interval": args.interval,
        "level": witness.level,
        "interval_index": witness.interval_index,
        "increasing_digits": list(witness.increasing_digits),
        "decreasing_digits": list(witness.decreasing_digits),
        "points": [fmt_frac(p) for p in witness.points],
        "images": [fmt_frac(im) for im in witness.images],
    }
    emit(args, table_lines, rows, payload)


QUOTIENT_HEADER = ("s", "a_s", "ell", "quot_num", "quot_den")


def _quotient_row(sample) -> dict:
    q = sample.quotient
    fields = (sample.digit_level, sample.original_digit, sample.perturbed_digit)
    return dict(zip(QUOTIENT_HEADER, (*fields, q.numerator, q.denominator)))


def cmd_probe_quotient(args) -> None:
    pv, seed = build_session(args)
    sample = difference_quotient(pv, seed, args.digit, args.ell)
    row = _quotient_row(sample)
    emit(args, [fmt_frac(sample.quotient)], [row], row)


def cmd_probe_derivative(args) -> None:
    pv, seed = build_session(args)
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
    payload = asdict(report)
    for level in payload["levels"]:
        level["quotients"] = [fmt_frac(q) for q in level["quotients"]]
    # --max-level 0 probes no level and leaves no rows
    emit(args, table_lines, rows, payload, header=QUOTIENT_HEADER)


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
    except CantorPermError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
