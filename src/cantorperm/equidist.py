"""Orbit distribution statistics: exact per-interval counts, the
interval-membership / residue-class equivalence that drives them, exact star
discrepancy, and empirical probes of uniform-distribution preservation.
"""
from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .base import BaseSequence, prefix_of_interval
from .dynamics import OrbitSpec, apply_truncated, orbit_point
from .errors import (
    EquivalenceViolated,
    LevelExceeded,
    NotFullCycle,
    PointOutOfRange,
    UnknownSource,
    ValidationError,
)
from .perms import PermutationVector, ResidueCondition, prefix_residue


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
    one grid level, plus the star discrepancy of those points."""

    level: int
    sample_size: int
    intervals: tuple[IntervalStat, ...]
    d_star: Fraction


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
    first ``sample`` orbit points as ``(numerator, index)``: the numerator
    over ``B_K`` (``K`` the orbit depth) and the level-``level`` interval."""
    if level > spec.depth or level < 0:
        raise LevelExceeded(f"level {level} not in [0, {spec.depth}]")
    if sample < 1:
        raise ValidationError("sample must be >= 1")
    base = spec.alpha_digits.base
    width = base.products[spec.depth] // base.products[level]
    nums = (base.index_of(orbit_point(spec, n).digits.digits) for n in range(sample))
    return ((num, num // width) for num in nums)


def interval_counts(spec: OrbitSpec, level: int, sample: int) -> list[int]:
    """How many of the first ``sample`` orbit points land in each level-
    ``level`` grid interval.

    With full cycles and ``sample`` a multiple of the interval count, every
    entry equals ``sample / products[level]`` exactly.
    """
    hits = Counter(idx for _, idx in _orbit_scan(spec, level, sample))
    return [hits[j] for j in range(spec.alpha_digits.base.products[level])]


def membership_equivalence(spec: OrbitSpec, level: int, sample: int) -> LevelReport:
    """Compute each interval's residue class and verify, for every sampled
    index, that orbit membership in the interval matches the congruence.

    For interval ``j`` the class is ``prefix_residue`` from the seed's digit
    prefix to the interval's associated prefix.  The classes form a complete
    residue system, so checking "the interval hit by iterate ``n`` carries the
    class of ``n``" for all ``n < sample`` establishes the equivalence in both
    directions.  A violation is an implementation bug, not a data property.
    """
    scan = _orbit_scan(spec, level, sample)
    pv = spec.pv
    for perm in pv.perms[:level]:
        if not perm.full_cycle:
            raise NotFullCycle("membership equivalence needs full cycles at every level")
    base = spec.alpha_digits.base
    count = base.products[level]
    seed_prefix = spec.alpha_digits.digits[:level]

    residues = [
        prefix_residue(pv, seed_prefix, prefix_of_interval(level, j, base))
        for j in range(count)
    ]
    if len({cond.residue for cond in residues}) != count:
        raise EquivalenceViolated(
            f"residues at level {level} do not form a complete system mod {count}"
        )

    counts = [0] * count
    nums = []
    for n, (num, idx) in enumerate(scan):
        if n % count != residues[idx].residue:
            raise EquivalenceViolated(
                f"iterate {n} lies in interval {idx} but {n} mod {count} != "
                f"{residues[idx].residue}"
            )
        counts[idx] += 1
        nums.append(num)

    expected = Fraction(sample, count)
    intervals = tuple(
        IntervalStat(index=j, residue=residues[j], count=counts[j], expected=expected)
        for j in range(count)
    )
    return LevelReport(
        level=level,
        sample_size=sample,
        intervals=intervals,
        d_star=_dstar([(num, base.products[spec.depth]) for num in sorted(nums)]),
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
