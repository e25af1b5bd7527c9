"""Orbit distribution statistics: exact per-interval counts, the
interval-membership / residue-class equivalence that drives them, exact star
discrepancy, and empirical probes of uniform-distribution preservation.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat

from .base import BaseSequence, RationalLike, _as_int, _check_range, as_fraction

# bench/tracing.py wraps prefix_of_interval, prefix_residue, apply_truncated
# and orbit_point under these names here: the first two are not called, the
# others once per preservation probe and once per equivalence report
from .base import prefix_of_interval  # noqa: F401
from .dynamics import (
    OrbitSpec, _orbit_columns, _truncated_numerators, apply_truncated, orbit_numerators,
    orbit_point,
)
from .errors import (
    ComputationError,
    DepthExceeded,
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


class _LevelIntervals(Sequence):
    """The :class:`IntervalStat` of every interval of one level, in interval
    order, read off two columns: ``residues[j]`` is the class of interval
    ``j`` mod ``B_k = len(residues)`` and ``counts[j]`` its count.  A stat is
    built only when it is read; slices are tuples.  Equal to the tuple of
    the same stats, with its hash and repr."""

    __slots__ = ("residues", "counts", "expected")

    def __init__(self, residues: list[int], counts: list[int], expected: Fraction):
        self.residues, self.counts, self.expected = residues, counts, expected

    def __len__(self) -> int:
        return len(self.residues)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self.residues))[i]))
        j = range(len(self.residues))[i]
        residue = _residue_class(self.residues[j], len(self.residues))
        return IntervalStat(j, residue, self.counts[j], self.expected)

    def __iter__(self):
        size = len(self.residues)
        classes = map(_residue_class, self.residues, repeat(size))
        return map(IntervalStat, range(size), classes, self.counts, repeat(self.expected))

    def __eq__(self, other):
        if isinstance(other, (tuple, _LevelIntervals)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, slots=True)
class LevelReport:
    """Per-interval statistics of the first ``sample_size`` orbit points at
    one grid level, plus the star discrepancy of those points.

    ``period_proved`` says what was verified: true when ``sample_size`` is at
    least the period ``B_level``, so the interval/class equivalence checked on
    one period's orbit numerators holds for every iterate by periodicity;
    false when only the ``sample_size`` iterates were checked.  Library-only:
    the CLI does not print it.

    ``intervals`` is a lazy sequence of :class:`IntervalStat`, one per
    interval in interval order, each built when it is read; it equals, hashes
    and prints as the tuple of those stats."""

    level: int
    sample_size: int
    intervals: Sequence[IntervalStat]
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


def star_discrepancy(points: Sequence[RationalLike]) -> DiscrepancyResult:
    """Exact star discrepancy of a finite sample in ``[0, 1)``, each point
    read by :func:`~cantorperm.base.as_fraction`.

    Uses the closed form on the sorted sample ``x_(1) <= ... <= x_(N)``:

        D* = max_i  max( i/N - x_(i),  x_(i) - (i-1)/N )

    computed in integers, each term over ``N`` times the point's denominator;
    only the result becomes a ``Fraction``, so it is deterministic and exact.
    """
    points = [as_fraction(x) for x in points]
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


def _check_level_and_sample(spec: OrbitSpec, level: int, sample: int) -> tuple[int, int]:
    level = _check_range(level, spec.depth)
    if (sample := _as_int(sample, "sample")) < 1:
        raise ValidationError("sample must be >= 1")
    return level, sample


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
    level, sample = _check_level_and_sample(spec, level, sample)
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
    it contributes ``max((cum + c)·q - N·p, N·p - cum·q)`` over ``N·q``.
    When all occur ``c`` times, the maxima are ``max(d)`` and ``c·q -
    min(d)`` of one column ``d_i = N·v_i - i·c·q``, ``v`` the sorted values.
    """
    period = len(nums)
    copies, extra = divmod(sample, period)
    if not extra:
        step = copies * q
        diffs = [sample * v - i * step for i, v in enumerate(sorted(nums))]
        return Fraction(max(max(diffs), step - min(diffs)), sample * q)
    values, mults = zip(*sorted(zip(nums, chain(repeat(copies + 1, extra), repeat(copies)))))
    steps = list(map(q.__mul__, accumulate(mults, initial=0)))
    scaled = list(map(sample.__mul__, values))
    best = max(max(map(operator.sub, steps[1:], scaled)), max(map(operator.sub, scaled, steps)))
    return Fraction(best, sample * q)


def _dstar_of_classes(tails: list[int], copies: int, count: int, width: int) -> Fraction:
    """Exact D* of ``N = copies·count`` distinct points over ``count·width``
    when each of the ``count`` intervals of width ``width`` holds the points
    of the iterates ``r_j + s·count``, ``s < copies``, the classes ``r_j`` a
    complete residue system mod ``count``, and the point of iterate ``n``
    has the tail (offset in its interval) ``tails[n mod T]``, ``T =
    len(tails)`` at most ``count``.

    The discrepancy is 0 at each interval boundary; inside an interval, the
    point of rank ``t`` and tail ``u`` contributes ``max((t+1)·width -
    copies·u, copies·u - t·width)`` over ``copies·count·width``
    (Kuipers and Niederreiter, ch. 2).  The tails of interval ``j`` are
    those of row ``a = r_j mod T``: ``tails[(a + s·count) mod T]``; as
    ``T <= count``, every row ``a < T`` is some interval's.  D*
    takes, per rank, the least and the largest tail over the ``T`` rows:
    ``copies·T`` tails, not a sort of the ``N`` points.
    """
    tail = len(tails)
    starts = range(0, copies * count, count)
    rows = [sorted([tails[(a + s) % tail] for s in starts]) for a in range(tail)]
    # per rank over the rows; rows[0] once more, so min and max get two values
    least, most = map(min, *rows, rows[0]), map(max, *rows, rows[0])
    steps = range(0, (copies + 1) * width, width)
    below = map(operator.sub, steps[1:], map(copies.__mul__, least))
    above = map(operator.sub, map(copies.__mul__, most), steps)
    return Fraction(max(max(below), max(above)), copies * count * width)


def _dstar_of_grid(spec: OrbitSpec, sample: int) -> Fraction:
    """Exact D* of the first ``sample >= Q`` iterates when one period of the
    orbit is the whole grid over ``Q = B_K``: ``c`` copies of the grid and
    the first ``r`` iterates once more, ``c, r = divmod(sample, Q)``.

    Point ``p`` comes after ``c·p`` grid points and the read numerators
    below it (Kuipers and Niederreiter, ch. 2).  With ``v_0 < ... <
    v_{r-1}`` the first ``r`` numerators sorted, D* over ``N·Q`` is
    ``max((i+1+c)·Q - r·v_i, r·v_i - i·Q)``; the term ``c·Q`` of ``p = 0``
    is below the first at ``i = r - 1``, as ``r·v_{r-1} <= r·(Q-1)``.  For
    ``r > Q/2`` the sample is ``c + 1`` copies less the ``s = Q - r``
    iterates ``r .. Q-1``, sorted as ``w_0 < ... < w_{s-1}``, and D* over
    ``N·Q`` is ``max((c+1-i)·Q + s·(w_i - 1), (i+1)·Q - s·(w_i + 1))``.
    Both read one column ``d_i = t·u_i - i·Q`` of the ``t = min(r, s)``
    sorted iterates ``u``, never a period.
    """
    q = spec.period
    copies, extra = divmod(sample, q)
    if not extra:
        return Fraction(1, q)
    if 2 * extra <= q:
        t, nums = extra, orbit_numerators(spec, extra)
    else:
        t, nums = q - extra, _orbit_columns(spec, extra, q - extra)[0]
    diffs = list(map(operator.sub, sorted(map(t.__mul__, nums)), range(0, t * q, q)))
    if t == extra:
        best = max((copies + 1) * q - min(diffs), max(diffs))
    else:
        best = max((copies + 1) * q + max(diffs), q - min(diffs)) - t
    return Fraction(best, sample * q)


def membership_equivalence(spec: OrbitSpec, level: int, sample: int) -> LevelReport:
    """Compute each interval's residue class and prove, for every ``n <
    sample``, that iterate ``n`` lies in the interval carrying the class of
    ``n``.

    The classes come from :func:`residue_table`, discrete logs and CRT
    only.  With full cycles below ``level``, digit ``j`` of iterate ``n``
    depends on ``n mod m_j`` and every ``m_j`` divides ``B_k`` (``k =
    level``), so the level-``k`` interval of iterate ``n`` depends only on
    ``n mod B_k``.  Checking the iterates ``n < min(sample, B_k)`` therefore
    proves the equivalence for every ``n``: ``period_proved`` is true when
    that covers a whole period (``sample >= B_k``), false when only the
    ``sample`` iterates were checked.  A whole period checked also proves
    that the classes form a complete residue system mod ``B_k``; below one,
    the table is checked for it.  The proof reads the level-``k`` interval
    indices of those iterates alone, from the first ``k`` levels' cycles
    (:func:`_orbit_columns` at ``level``).  :func:`orbit_point` checks the
    streams: the last proved iterate's numerator over ``B_K``, read once
    more, and its level-``k`` index, the last the proof read; on a failed
    proof, also the failing iterate's index.  A disagreement raises
    ``ComputationError``; a violation is an implementation bug.

    Interval ``j`` with class ``r_j`` then holds ``ceil((sample - r_j) /
    B_k)`` of the iterates, 0 when ``r_j >= sample``: ``copies + (r_j <
    extra)`` with ``copies, extra = divmod(sample, B_k)``, one repeated
    ``copies`` when ``extra`` is 0.  The report's intervals read the
    classes and these counts as two columns, building no stat until one is
    read.

    D* reads numerators over ``B_K``.  The depth-``K`` orbit repeats with
    period ``P``, the ``lcm`` of the seed digits' cycle lengths, and is
    injective within a period.  The tail of iterate ``n``, its numerator
    mod ``B_K / B_k``, depends only on ``n mod T``, ``T`` the lcm of the
    cycle lengths at levels ``k`` on.  Three cases:

    - ``B_k`` divides ``sample``, ``sample < P`` and ``T < B_k``: from the
      proved classes and the first ``T`` tails (:func:`_dstar_of_classes`).
    - ``sample >= P = B_K``, every seed level a full cycle, so one period is
      the whole grid: from ``sample = c·P + r`` and ``min(r, P - r)``
      iterates (:func:`_dstar_of_grid`).
    - Otherwise from the first ``min(sample, P)`` numerators, each with its
      multiplicity (:func:`_dstar_cycled`): with ``T >= B_k`` the classes
      would take as many values as the sort.
    """
    level, sample = _check_level_and_sample(spec, level, sample)
    for perm in spec.pv.perms[:level]:
        if not perm.full_cycle:
            raise NotFullCycle("membership equivalence needs full cycles at every level")
    base = spec.alpha_digits.base
    count = base.products[level]
    table = residue_table(spec.pv, spec.alpha_digits.digits[:level])
    if sample < count and len(set(table)) != count:
        raise EquivalenceViolated(
            f"residues at level {level} do not form a complete system mod {count}"
        )

    proved = min(sample, count)
    point = orbit_point(spec, proved - 1).digits
    if point.prefix_index(spec.depth) != next(_orbit_columns(spec, proved - 1, 1)[0]):
        raise ComputationError(f"orbit_point disagrees with the stream on iterate {proved - 1}")
    indices = _orbit_columns(spec, 0, proved, level)[0]
    if not all(map(operator.eq, map(table.__getitem__, indices), range(proved))):
        indices = _orbit_columns(spec, 0, proved, level)[0]
        n, idx = next((n, idx) for n, idx in enumerate(indices) if n != table[idx])
        if orbit_point(spec, n).digits.prefix_index(level) != idx:
            raise ComputationError(f"orbit_point disagrees with the proof's stream on iterate {n}")
        raise EquivalenceViolated(
            f"iterate {n} lies in interval {idx} but {n} mod {count} != {table[idx]}"
        )
    # the proof makes the table one-to-one: only the proof's last index has class proved - 1
    if table[point.prefix_index(level)] != (n := proved - 1):
        raise ComputationError(f"orbit_point disagrees with the proof's stream on iterate {n}")

    copies, extra = divmod(sample, count)
    total = base.products[spec.depth]
    tail = math.lcm(*map(len, spec._tables[level:]))
    if not extra and sample < spec.period and tail < count:
        width = total // count
        tails = list(map(width.__rmod__, orbit_numerators(spec, tail)))
        d_star = _dstar_of_classes(tails, copies, count, width)
    elif sample >= spec.period == total:
        d_star = _dstar_of_grid(spec, sample)
    else:
        nums = list(orbit_numerators(spec, min(sample, spec.period)))
        d_star = _dstar_cycled(nums, sample, total)
    counts = list(map(copies.__add__, map(extra.__gt__, table))) if extra else [copies] * count
    return LevelReport(
        level=level,
        sample_size=sample,
        intervals=_LevelIntervals(table, counts, Fraction(sample, count)),
        d_star=d_star,
        period_proved=sample >= count,
    )


# --- reference sequences for the preservation probe ---

def _check_count(count) -> int:
    """A point count as an int by :func:`_as_int`'s rule, at least 0."""
    if (count := _as_int(count, "count")) < 0:
        raise ValidationError(f"count {count} < 0")
    return count


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
    count, base = _check_count(count), _as_int(base, "radix")
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
    nums, q = _kronecker_numerators(_check_count(count))
    return [Fraction(p, q) for p in nums]


def grid_points(count: int, base: BaseSequence, depth: int) -> list[Fraction]:
    """``count`` points cycling through the level-``depth`` grid in order."""
    count = _check_count(count)
    period = base.products[_check_range(depth, base.depth, DepthExceeded, "depth")]
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
    truncated map in columns, one table-lookup pass per group of image
    tables (:func:`_truncated_numerators`, none larger than about the
    number of points), giving each image as a numerator over ``Q·B_K``; the
    first point also goes through :func:`apply_truncated`, and a
    disagreement raises ``ComputationError``.  Counts are floor divisions
    by ``Q·B_K / B_level``, and both D* values come from the kernel
    :func:`membership_equivalence` uses: no ``Fraction`` is compared or
    sorted.
    """
    base = pv.base
    if source not in SOURCES:
        raise UnknownSource(f"source {source!r}, expected one of {SOURCES}")
    level, sample = _check_range(level, base.depth), _as_int(sample, "sample")
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
