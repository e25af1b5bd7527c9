"""Orbit distribution statistics: exact per-interval counts, the
interval-membership / residue-class equivalence that drives them, exact star
discrepancy, and empirical probes of uniform-distribution preservation.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from typing import Sequence

# bench/tracing.py wraps prefix_of_interval, prefix_residue, apply_truncated
# and orbit_point under these names here: the first two are not called, the
# others once per preservation probe and once per equivalence report
from .base import BaseSequence, _check_range, prefix_of_interval  # noqa: F401
from .dynamics import (
    OrbitSpec, _truncated_numerators, apply_truncated, orbit_numerators, orbit_point
)
from .errors import (
    ComputationError,
    EquivalenceViolated,
    NotFullCycle,
    PointOutOfRange,
    UnknownSource,
    ValidationError,
)
from .perms import PermutationVector, ResidueCondition, _residue_class, residue_table
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
    least the period ``B_level``, so the interval/class equivalence checked on
    one period's orbit numerators holds for every iterate by periodicity;
    false when only the ``sample_size`` iterates were checked.  Library-only:
    the CLI does not print it."""

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


def _check_level_and_sample(spec: OrbitSpec, level: int, sample: int) -> None:
    _check_range(level, spec.depth)
    if sample < 1:
        raise ValidationError("sample must be >= 1")


def _cycled_counts(nums, period: int, sample: int, width: int, count: int) -> list[int]:
    """How many of ``sample`` points ``nums[n mod period]`` land in each of
    ``count`` intervals, ``p`` in interval ``p // width``.  ``nums`` streams
    the first ``min(sample, period)`` numerators, read once; the first
    ``sample mod period`` occur once more than the rest."""
    copies, extra = divmod(sample, period)
    counts = [0] * count
    nums = iter(nums)
    for weight, part in ((copies + 1, islice(nums, extra)), (copies, nums)):
        for num in part:
            counts[num // width] += weight
    return counts


def interval_counts(spec: OrbitSpec, level: int, sample: int) -> list[int]:
    """How many of the first ``sample`` orbit points land in each level-
    ``level`` grid interval.

    The interval of iterate ``n`` depends only on ``n mod P``, ``P`` the
    :meth:`OrbitSpec.prefix_period` of ``level``, so iterate ``n < P``
    counts ``sample // P`` times, once more if ``n < sample mod P``.
    The iterates are the :func:`orbit_numerators` over ``B_K`` that D*
    reads, and numerator ``p`` lies in interval ``p // (B_K / B_level)``.
    With full cycles and ``sample`` a multiple of the interval count, every
    entry equals ``sample / products[level]`` exactly.
    """
    _check_level_and_sample(spec, level, sample)
    products = spec.alpha_digits.base.products
    width = products[spec.depth] // products[level]
    period = spec.prefix_period(level)
    nums = orbit_numerators(spec, min(sample, period))
    return _cycled_counts(nums, period, sample, width, products[level])


def _dstar_cycled(nums: list[int], sample: int, q: int) -> Fraction:
    """Exact D* of ``sample`` points ``nums[n mod len(nums)] / q``; equal
    numerators are allowed.

    Iterate ``n < sample mod len(nums)`` occurs once more than the others.
    An entry ``p`` of multiplicity ``c`` after ``cum`` points sorted before
    it contributes ``max((cum + c)·q - N·p, N·p - cum·q)`` over ``N·q``;
    with one denominator each of the two maxima is one pass over integers.
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
    iterates ``n < min(sample, B_k)`` therefore proves the equivalence for
    every ``n``: ``period_proved`` is true when that covers a whole period
    (``sample >= B_k``), false when only the ``sample`` iterates were
    checked.  They are the numerators D* reads (``P`` below is a multiple of
    ``B_k``), numerator ``p`` in interval ``p // (B_K / B_k)``; the last one
    also goes through :func:`orbit_point`, a disagreement raising
    ``ComputationError``.  A violation is an implementation bug.

    Interval ``j`` with class ``r_j`` then holds ``ceil((sample - r_j) /
    B_k)`` of the iterates, 0 when ``r_j >= sample``.  The depth-``K`` orbit
    repeats with period ``P``, the ``lcm`` of the seed digits' cycle
    lengths, and is injective within a period, so D* comes from the first
    ``min(sample, P)`` numerators over ``B_K`` with their multiplicities.
    """
    _check_level_and_sample(spec, level, sample)
    for perm in spec.pv.perms[:level]:
        if not perm.full_cycle:
            raise NotFullCycle("membership equivalence needs full cycles at every level")
    base = spec.alpha_digits.base
    count = base.products[level]
    table = residue_table(spec.pv, spec.alpha_digits.digits[:level])
    if len(set(table)) != count:
        raise EquivalenceViolated(
            f"residues at level {level} do not form a complete system mod {count}"
        )

    nums = list(orbit_numerators(spec, min(sample, spec.period)))
    proved = min(sample, count)
    if orbit_point(spec, proved - 1).digits.prefix_index(spec.depth) != nums[proved - 1]:
        raise ComputationError(f"orbit_point disagrees with the stream on iterate {proved - 1}")
    width = base.products[spec.depth] // count
    classes = map(table.__getitem__, map(width.__rfloordiv__, nums))
    if not all(map(operator.eq, classes, range(proved))):
        n, idx = next((n, p // width) for n, p in enumerate(nums) if n != table[p // width])
        raise EquivalenceViolated(
            f"iterate {n} lies in interval {idx} but {n} mod {count} != {table[idx]}"
        )

    expected = Fraction(sample, count)
    intervals = tuple(
        IntervalStat(j, _residue_class(r, count), -((r - sample) // count), expected)
        for j, r in enumerate(table)
    )
    return LevelReport(
        level=level,
        sample_size=sample,
        intervals=intervals,
        d_star=_dstar_cycled(nums, sample, base.products[spec.depth]),
        period_proved=sample >= count,
    )


# --- reference sequences for the preservation probe ---

def _radical_inverses(count: int, radix: int) -> tuple[list[int], int]:
    """Numerators of the first ``count`` van der Corput points over one
    denominator ``Q = radix**L``, the least power ``>= count``.

    For ``n < radix**k``, the radical inverse of ``n + d·radix**k`` over
    ``radix**(k+1)`` is ``radix`` times that of ``n`` over ``radix**k``,
    plus ``d``.  The last digit stops at ``count`` terms, so a large radix
    builds no more terms than a small one.
    """
    nums, q = [0], 1
    while q < count:
        nums = [radix * y + d for d in range(min(radix, -(-count // q))) for y in nums]
        q *= radix
    return nums[:count], q


def van_der_corput(count: int, base: int = 2) -> list[Fraction]:
    """First ``count`` terms of the van der Corput radical-inverse sequence."""
    if base < 2:
        raise ValidationError(f"radix {base} < 2")
    nums, q = _radical_inverses(count, base)
    return [Fraction(p, q) for p in nums]


def _kronecker_numerators(count: int) -> tuple[list[int], int]:
    """Numerators of ``{n * g}`` over the convergent's denominator ``Q``:
    ``g = F_73/F_74``, the last consecutive-Fibonacci quotient, converging
    to the golden rotation ``1/phi``, with denominator at most ``10**15``."""
    a, q = 806515533049393, 1304969544928657
    return [n * a % q for n in range(count)], q


def kronecker_golden(count: int) -> list[Fraction]:
    """Fractional parts ``{n * g}`` for a fixed rational convergent ``g`` of
    the golden rotation; exact stand-in for the irrational Kronecker sequence
    at sample sizes far below the convergent's denominator."""
    nums, q = _kronecker_numerators(count)
    return [Fraction(p, q) for p in nums]


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
    and report star discrepancies plus per-interval counts of the image.

    Source points are numerators over one denominator ``Q``: ``2**L >=
    sample`` for ``vdc``, the convergent's denominator for ``kronecker``,
    ``B_K`` for ``grid``.  The grid repeats with period ``B_K``, so only its
    first ``min(sample, B_K)`` points are built, each weighted by how often
    it occurs among the ``sample``.  The built points go through the
    truncated map by grouped image tables (:func:`_truncated_numerators`,
    no table larger than about the number of points), which give each image
    as a numerator over ``Q·B_K``; the first point also goes through
    :func:`apply_truncated`, and a disagreement raises
    ``ComputationError``.  Counts are floor divisions by ``Q·B_K /
    B_level``, and both D* values come from the kernel
    :func:`membership_equivalence` uses: no ``Fraction`` is compared or
    sorted.
    """
    base = pv.base
    if source not in SOURCES:
        raise UnknownSource(f"source {source!r}, expected one of {SOURCES}")
    _check_range(level, base.depth)
    count = base.products[level]
    if sample < count:
        raise ValidationError(
            f"sample {sample} smaller than the {count} level-{level} intervals"
        )
    depth = base.depth
    total = base.products[depth]
    if source == "vdc":
        nums, q = _radical_inverses(sample, 2)
    elif source == "kronecker":
        nums, q = _kronecker_numerators(sample)
    else:
        nums, q = list(range(min(sample, total))), total
    scale = q * total
    images = _truncated_numerators(pv, nums, q, depth)
    first = apply_truncated(pv, Fraction(nums[0], q), depth)
    if first != Fraction(images[0], scale):
        raise ComputationError(
            f"image tables send {nums[0]}/{q} to {images[0]}/{scale}, "
            f"apply_truncated to {first}"
        )

    grid_exact = None
    if source == "grid" and sample % total == 0:
        # one period of inputs over q == B_K, images over B_K**2: equal multisets
        grid_exact = sorted(p * total for p in nums) == sorted(images)

    return PreservationReport(
        source=source,
        sample_size=sample,
        level=level,
        input_d_star=_dstar_cycled(nums, sample, q),
        image_d_star=_dstar_cycled(images, sample, scale),
        counts=tuple(_cycled_counts(images, len(images), sample, scale // count, count)),
        expected=Fraction(sample, count),
        grid_exact=grid_exact,
    )
