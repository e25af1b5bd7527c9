"""Orbit distribution statistics: exact per-interval counts, the
interval-membership / residue-class equivalence that drives them, exact star
discrepancy, and empirical probes of uniform-distribution preservation.
"""
from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from typing import Sequence

# prefix_of_interval and prefix_residue are not called here; they stay bound
# because bench/tracing.py wraps them under these names in this module
from .base import BaseSequence, prefix_of_interval  # noqa: F401
from .dynamics import OrbitSpec, apply_truncated, orbit_point, orbit_prefix
from .errors import (
    EquivalenceViolated,
    LevelExceeded,
    NotFullCycle,
    PointOutOfRange,
    UnknownSource,
    ValidationError,
)
from .perms import PermutationVector, ResidueCondition, residue_table
from .perms import prefix_residue  # noqa: F401


@dataclass(frozen=True, slots=True)
class IntervalStat:
    """One grid interval's residue class and observed/expected orbit counts."""

    index: int
    residue: ResidueCondition
    count: int
    expected: Fraction


@dataclass(frozen=True, slots=True)
class LevelReport:
    """Per-interval statistics of the first ``sample_size`` orbit points at
    one grid level, plus the star discrepancy of those points.

    ``period_proved`` says what was verified: true when ``sample_size`` is at
    least the period ``B_level``, so the interval/class equivalence is proved
    for every iterate by periodicity; false when only the ``sample_size``
    iterates were checked.  Library-only: the CLI does not print it."""

    level: int
    sample_size: int
    intervals: tuple[IntervalStat, ...]
    d_star: Fraction
    period_proved: bool


@dataclass(frozen=True, slots=True)
class DiscrepancyResult:
    sample_size: int
    d_star: Fraction


def _dstar(pairs: Sequence[tuple[int, int]]) -> Fraction:
    # term i over N*q, for the i-th smallest point p/q: max(i*q - N*p, N*p - (i-1)*q)
    n = len(pairs)
    best, best_q = 0, 1
    for i, (p, q) in enumerate(pairs, start=1):
        here = max(i * q - n * p, n * p - (i - 1) * q)
        if here * best_q > best * q:
            best, best_q = here, q
    return Fraction(best, n * best_q)


def star_discrepancy(points: Sequence[Fraction]) -> DiscrepancyResult:
    """Exact star discrepancy of a finite sample in ``[0, 1)``.

    Uses the closed form on the sorted sample ``x_(1) <= ... <= x_(N)``:

        D* = max_i  max( i/N - x_(i),  x_(i) - (i-1)/N )

    computed in integers, each term over ``N`` times the point's denominator;
    only the result becomes a ``Fraction``, so it is deterministic and exact.
    """
    if not points:
        raise ValidationError("empty sample")
    for x in points:
        if not 0 <= x.numerator < x.denominator:
            raise PointOutOfRange(f"point {x} not in [0, 1)")
    # floor(x * 2**64) decides almost every comparison in integers and x breaks
    # its ties, so this orders exactly as sorted(points) does
    ordered = sorted(points, key=lambda x: ((x.numerator << 64) // x.denominator, x))
    pairs = [(x.numerator, x.denominator) for x in ordered]
    return DiscrepancyResult(len(pairs), _dstar(pairs))


def _orbit_scan(spec: OrbitSpec, level: int, sample: int):
    """Check ``level`` and ``sample`` now; return a lazy iterator over the
    level-``level`` interval of each of the first ``sample`` orbit points."""
    if level > spec.depth or level < 0:
        raise LevelExceeded(f"level {level} not in [0, {spec.depth}]")
    if sample < 1:
        raise ValidationError("sample must be >= 1")
    return (orbit_point(spec, n).digits.prefix_index(level) for n in range(sample))


def interval_counts(spec: OrbitSpec, level: int, sample: int) -> list[int]:
    """How many of the first ``sample`` orbit points land in each level-
    ``level`` grid interval.

    With full cycles and ``sample`` a multiple of the interval count, every
    entry equals ``sample / products[level]`` exactly.
    """
    hits = Counter(_orbit_scan(spec, level, sample))
    return [hits[j] for j in range(spec.alpha_digits.base.products[level])]


def _dstar_cycled(nums: list[int], sample: int, q: int) -> Fraction:
    """Exact D* of ``sample`` points ``nums[n mod len(nums)] / q``, where the
    numerators in ``nums`` are pairwise distinct.

    Iterate ``n < sample mod len(nums)`` occurs once more than the others.
    A value ``p`` of multiplicity ``c`` after ``cum`` smaller points
    contributes ``max((cum + c)·q - N·p, N·p - cum·q)`` over ``N·q``; with
    one denominator each of the two maxima is one pass over integers.
    """
    period = len(nums)
    copies, extra = divmod(sample, period)
    if extra:
        values, mults = zip(*sorted(zip(nums, chain(repeat(copies + 1, extra), repeat(copies)))))
        steps = list(map(q.__mul__, accumulate(mults, initial=0)))
    else:
        values, steps = sorted(nums), range(0, (period + 1) * copies * q, copies * q)
    scaled = list(map(sample.__mul__, values))
    best = max(max(map(operator.sub, steps[1:], scaled)), max(map(operator.sub, scaled, steps)))
    return Fraction(best, sample * q)


def membership_equivalence(spec: OrbitSpec, level: int, sample: int) -> LevelReport:
    """Compute each interval's residue class and prove, for every ``n <
    sample``, that iterate ``n`` lies in the interval carrying the class of
    ``n``.

    The classes come from :func:`residue_table`, discrete logs and CRT
    only; they form a complete residue system mod ``B_k`` (``k = level``).
    With full cycles below ``level``, digit ``j`` of iterate ``n`` depends
    on ``n mod m_j`` and every ``m_j`` divides ``B_k``, so the level-``k``
    interval of iterate ``n`` depends only on ``n mod B_k``.  Checking the
    iterates ``n < min(sample, B_k)`` through :func:`orbit_point` therefore
    proves the equivalence for every ``n``: ``period_proved`` is true when
    that covers a whole period (``sample >= B_k``), false when only the
    ``sample`` iterates were checked.  A violation is an implementation bug,
    not a data property.

    Interval ``j`` with class ``r_j`` then holds ``ceil((sample - r_j) /
    B_k)`` of the iterates, 0 when ``r_j >= sample``.  The depth-``K`` orbit
    repeats with period ``P``, the ``lcm`` of the seed digits' cycle
    lengths, and is injective within a period, so D* comes from the first
    ``min(sample, P)`` numerators over ``B_K`` with their multiplicities.
    """
    scan = _orbit_scan(spec, level, sample)
    pv = spec.pv
    for perm in pv.perms[:level]:
        if not perm.full_cycle:
            raise NotFullCycle("membership equivalence needs full cycles at every level")
    base = spec.alpha_digits.base
    count = base.products[level]
    table = residue_table(pv, spec.alpha_digits.digits[:level])
    if len(set(table)) != count:
        raise EquivalenceViolated(
            f"residues at level {level} do not form a complete system mod {count}"
        )

    for n, idx in enumerate(islice(scan, count)):
        if n != table[idx]:
            raise EquivalenceViolated(
                f"iterate {n} lies in interval {idx} but {n} mod {count} != {table[idx]}"
            )

    expected = Fraction(sample, count)
    intervals = tuple(
        IntervalStat(
            index=j,
            residue=ResidueCondition(r, count),
            count=-((r - sample) // count),
            expected=expected,
        )
        for j, r in enumerate(table)
    )
    nums = [num for num, _ in orbit_prefix(spec, min(sample, spec.period))]
    return LevelReport(
        level=level,
        sample_size=sample,
        intervals=intervals,
        d_star=_dstar_cycled(nums, sample, base.products[spec.depth]),
        period_proved=sample >= count,
    )


# --- reference sequences for the preservation probe ---

def van_der_corput(count: int, base: int = 2) -> list[Fraction]:
    """First ``count`` terms of the van der Corput radical-inverse sequence."""
    if base < 2:
        raise ValidationError(f"radix {base} < 2")
    points = []
    for n in range(count):
        num, den = 0, 1
        while n:
            n, d = divmod(n, base)
            num = num * base + d
            den *= base
        points.append(Fraction(num, den))
    return points


def _golden_convergent(limit: int = 10**15) -> Fraction:
    # consecutive Fibonacci quotients converge to the golden rotation 1/phi
    a, b = 1, 2
    while b <= limit:
        a, b = b, a + b
    return Fraction(a, b)


def kronecker_golden(count: int) -> list[Fraction]:
    """Fractional parts ``{n * g}`` for a fixed rational convergent ``g`` of
    the golden rotation; exact stand-in for the irrational Kronecker sequence
    at sample sizes far below the convergent's denominator."""
    g = _golden_convergent()
    return [(n * g) % 1 for n in range(count)]


def grid_points(count: int, base: BaseSequence, depth: int) -> list[Fraction]:
    """``count`` points cycling through the level-``depth`` grid in order."""
    period = base.products[depth]
    return [Fraction(n % period, period) for n in range(count)]


SOURCES = ("vdc", "kronecker", "grid")


@dataclass(frozen=True, slots=True)
class PreservationReport:
    """Input vs image distribution of a reference sequence pushed through the
    truncated map.  Statistical evidence, except ``grid_exact``: when the
    sample cycles the grid a whole number of times, the image multiset must
    equal the input multiset (the truncated map permutes the grid)."""

    source: str
    sample_size: int
    level: int
    input_d_star: Fraction
    image_d_star: Fraction
    counts: tuple[int, ...]
    expected: Fraction
    grid_exact: bool | None


def ud_preservation_probe(
    pv: PermutationVector, source: str, sample: int, level: int
) -> PreservationReport:
    """Push a named uniformly-distributed sequence through the truncated map
    and report star discrepancies plus per-interval counts of the image."""
    base = pv.base
    if source not in SOURCES:
        raise UnknownSource(f"source {source!r}, expected one of {SOURCES}")
    if level > base.depth or level < 0:
        raise LevelExceeded(f"level {level} not in [0, {base.depth}]")
    if sample < base.products[level]:
        raise ValidationError(
            f"sample {sample} smaller than the {base.products[level]} level-{level} intervals"
        )
    depth = base.depth
    if source == "vdc":
        points = van_der_corput(sample)
    elif source == "kronecker":
        points = kronecker_golden(sample)
    else:
        points = grid_points(sample, base, depth)
    images = [apply_truncated(pv, x, depth) for x in points]

    count = base.products[level]
    counts = [0] * count
    for y in images:
        counts[(y.numerator * count) // y.denominator] += 1

    grid_exact = None
    if source == "grid" and sample % base.products[depth] == 0:
        # Fractions are normalised: equal multisets of (num, den) are equal multisets
        pair = operator.attrgetter("numerator", "denominator")
        grid_exact = Counter(map(pair, points)) == Counter(map(pair, images))

    return PreservationReport(
        source=source,
        sample_size=sample,
        level=level,
        input_d_star=star_discrepancy(points).d_star,
        image_d_star=star_discrepancy(images).d_star,
        counts=tuple(counts),
        expected=Fraction(sample, count),
        grid_exact=grid_exact,
    )
