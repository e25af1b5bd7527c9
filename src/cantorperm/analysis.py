"""Non-monotonicity witnesses and difference-quotient probes.

Two points that differ in a single digit have an exactly computable slope
under the map:

    ( T(a) - T(a') ) / ( a - a' )  =  ( p(b) - p(b') ) / ( b - b' )

where ``b, b'`` are the differing digits and ``p`` the permutation at their
level.  Witness search and the derivative probe are built on this identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .base import DigitExpansion, _as_int, _check_range
from .dynamics import _check_fits, apply_map
from .errors import (
    CheckFalsified,
    DegenerateDigit,
    IndexOutOfRange,
    LevelExceeded,
    NoWitnessAtLevel,
    ValidationError,
)
from .perms import CyclicPermutation, PermutationVector, _digit


@dataclass(frozen=True, slots=True)
class MonotonicityWitness:
    """Four points in one grid interval: the first pair has increasing images,
    the second pair decreasing images, so the map is monotone in no
    subinterval containing them."""

    level: int
    interval_index: int
    points: tuple[Fraction, Fraction, Fraction, Fraction]
    images: tuple[Fraction, Fraction, Fraction, Fraction]
    increasing_digits: tuple[int, int]
    decreasing_digits: tuple[int, int]


@dataclass(frozen=True, slots=True)
class QuotientSample:
    digit_level: int
    original_digit: int
    perturbed_digit: int
    quotient: Fraction


def _rise_and_fall(perm: CyclicPermutation):
    """The first adjacent rise ``(k, k + 1)``, ``image[k] < image[k + 1]``,
    and the first adjacent fall of ``perm``, each None when it has none."""
    found = {}
    for k in range(perm.modulus - 1):
        found.setdefault(perm.image[k] < perm.image[k + 1], (k, k + 1))
        if len(found) == 2:
            break
    return found.get(True), found.get(False)


def _check_interval(pv: PermutationVector, level: int, interval_index: int) -> tuple[int, int]:
    level, interval_index = _check_range(level, pv.depth - 1), _as_int(interval_index, "interval")
    if not 0 <= interval_index < pv.base.products[level]:
        raise IndexOutOfRange(
            f"interval {interval_index} not in [0, {pv.base.products[level]})"
        )
    return level, interval_index


def _witness(pv: PermutationVector, level: int, interval_index: int, rise, fall):
    """The four-point witness of a checked level and interval from that
    level's first rise and first fall: the interval's digit prefix, the
    varying digit, a zero tail."""
    base = pv.base
    prefix, tail = base.digits_of(level, interval_index), (0,) * (base.depth - level - 1)
    points, images = [], []
    for k in rise + fall:
        x = DigitExpansion(prefix + (k,) + tail, base)
        points.append(x.value)
        images.append(apply_map(pv, x).value)
    # all four share the digit prefix and the zero tail, so the image
    # comparisons are decided entirely by the varying digit
    if not (points[0] < points[1] and images[0] < images[1]):
        raise CheckFalsified("increasing pair failed re-evaluation")
    if not (points[2] < points[3] and images[2] > images[3]):
        raise CheckFalsified("decreasing pair failed re-evaluation")
    return MonotonicityWitness(level, interval_index, tuple(points), tuple(images), rise, fall)


def find_monotonicity_witness(
    pv: PermutationVector, level: int, interval_index: int
) -> MonotonicityWitness:
    """Search the digit permutation below interval ``interval_index`` at
    ``level`` for an increasing and a decreasing adjacent pair and return the
    corresponding four-point witness.

    Scanning adjacent digit pairs is a complete decision procedure: a
    permutation with no adjacent rise is strictly decreasing and one with no
    adjacent fall is strictly increasing, so non-adjacent pairs never help.
    Raises NoWitnessAtLevel when one orientation is missing (identity
    permutations; the swap on two digits); callers retry one level deeper,
    where sub-intervals of the same interval are governed by the next
    permutation.
    """
    level, interval_index = _check_interval(pv, level, interval_index)
    rise, fall = _rise_and_fall(pv.perms[level])
    if rise is None or fall is None:
        missing = "increasing" if rise is None else "decreasing"
        raise NoWitnessAtLevel(
            f"permutation at level {level} has no {missing} digit pair"
        )
    return _witness(pv, level, interval_index, rise, fall)


def find_witness_descending(
    pv: PermutationVector,
    level: int,
    interval_index: int,
    max_descent: int | None = None,
) -> MonotonicityWitness:
    """Witness search with the descent rule: when a level lacks one
    orientation, retry inside the first sub-interval one level deeper.

    The witness points stay inside the original interval, so the
    non-monotonicity conclusion for it survives the descent.
    """
    if max_descent is not None and (max_descent := _as_int(max_descent, "descent budget")) < 0:
        raise ValidationError(f"descent budget {max_descent} < 0")
    level, interval_index = _check_interval(pv, level, interval_index)
    products = pv.base.products
    stop = pv.depth if max_descent is None else min(level + max_descent + 1, pv.depth)
    for s in range(level, stop):
        rise, fall = _rise_and_fall(pv.perms[s])
        if rise is not None and fall is not None:
            return _witness(pv, s, interval_index * products[s] // products[level], rise, fall)
    raise NoWitnessAtLevel(
        f"no witness for interval {interval_index} at level {level} "
        f"within descent budget"
    )


def difference_quotient(
    pv: PermutationVector, alpha: DigitExpansion, s: int, ell: int
) -> QuotientSample:
    """Slope of the map between ``alpha`` and its single-digit perturbation at
    level ``s``, computed by the closed form and cross-checked against direct
    evaluation of both images."""
    _check_fits(pv, alpha)
    s = _as_int(s, "digit level")
    if s >= len(alpha.digits) or s < 0:
        raise LevelExceeded(f"digit level {s} not in [0, {len(alpha.digits)})")
    perm = pv.perms[s]
    a, ell = alpha.digits[s], _digit(perm, ell)
    if ell == a:
        raise DegenerateDigit(f"perturbed digit equals original digit {a}")
    closed = Fraction(perm.image[a] - perm.image[ell], a - ell)
    perturbed = alpha.replace_digit(s, ell)
    # all four points lie over the same B_len, which cancels in the quotient
    index_of = alpha.base.index_of
    direct = Fraction(
        index_of(apply_map(pv, alpha).digits) - index_of(apply_map(pv, perturbed).digits),
        index_of(alpha.digits) - index_of(perturbed.digits),
    )
    if closed != direct:
        raise CheckFalsified(
            f"difference-quotient identity violated at level {s}: {closed} != {direct}"
        )
    return QuotientSample(
        digit_level=s, original_digit=a, perturbed_digit=ell, quotient=closed
    )


@dataclass(frozen=True, slots=True)
class LevelQuotients:
    """All slopes achievable by perturbing one digit level, plus the
    candidate integer derivative values read off the permutation."""

    level: int
    digit: int
    quotients: tuple[Fraction, ...]
    achieves_one: bool
    successor_candidate: int | None
    zero_candidate: int


@dataclass(frozen=True, slots=True)
class DerivativeProbeReport:
    levels: tuple[LevelQuotients, ...]
    one_at_every_level: bool
    candidates: tuple[int, ...]
    candidates_stable: bool


def derivative_probe(
    pv: PermutationVector, alpha: DigitExpansion, max_level: int
) -> DerivativeProbeReport:
    """Enumerate achievable difference quotients at digit levels
    ``0 .. max_level-1``.

    Any derivative the map could have at a point must be an integer (the
    quotient ``p(b) - p(b-1)`` over successive digits); and if slope 1 stays
    achievable at every level -- automatic for shift permutations away from
    the wrap digit -- no derivative can exist anywhere, since derivative 1
    everywhere would force the identity map.  The report carries the finite
    evidence: quotient sets per level, whether 1 is achievable throughout,
    and whether the integer candidates stabilize over the probed range.
    """
    _check_fits(pv, alpha)
    max_level = _check_range(max_level, len(alpha.digits), what="max level")
    levels = []
    candidates = []
    for s in range(max_level):
        perm = pv.perms[s]
        a = alpha.digits[s]
        quotients = sorted(
            {
                Fraction(perm.image[a] - perm.image[ell], a - ell)
                for ell in range(perm.modulus)
                if ell != a
            }
        )
        successor = perm.image[a] - perm.image[a - 1] if a > 0 else None
        # digit 0 has no lower neighbour; the adjacent slope comes from above:
        # (image[0] - image[1]) / (0 - 1) = image[1] - image[0]
        zero_cand = perm.image[1] - perm.image[0]
        candidates.append(successor if successor is not None else zero_cand)
        levels.append(
            LevelQuotients(
                level=s,
                digit=a,
                quotients=tuple(quotients),
                achieves_one=Fraction(1) in quotients,
                successor_candidate=successor,
                zero_candidate=zero_cand,
            )
        )
    return DerivativeProbeReport(
        levels=tuple(levels),
        one_at_every_level=all(lq.achieves_one for lq in levels),
        candidates=tuple(candidates),
        candidates_stable=len(set(candidates)) <= 1,
    )
