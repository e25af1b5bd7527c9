"""The digit-permutation map and exact random-access orbit evaluation.

The map sends an expansion ``(b_0, b_1, ...)`` to ``(p_0(b_0), p_1(b_1), ...)``
digit-wise.  Because level ``j`` evolves independently under powers of its own
permutation, the ``n``-th iterate of any point is computable digit-by-digit in
O(depth), independent of ``n`` -- orbits have exact random access.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .base import DigitExpansion, as_fraction
from .errors import CheckFalsified, DepthMismatch, LevelExceeded, OutOfRange, ValidationError
from .perms import PermutationVector


def _check_fits(pv: PermutationVector, x: DigitExpansion) -> None:
    """Raise DepthMismatch unless ``pv`` has at least ``len(x.digits)`` levels and
    both bases share their first ``len(x.digits)`` moduli: the map permutes digit
    ``j`` on ``Z_{m_j}``.  The bases may differ past that depth."""
    depth = len(x.digits)
    if depth > pv.depth or x.base.moduli[:depth] != pv.base.moduli[:depth]:
        raise DepthMismatch(
            f"{depth} digits over moduli {x.base.moduli} do not fit vector moduli {pv.base.moduli}"
        )


@dataclass(frozen=True, slots=True)
class OrbitSpec:
    """Seed expansion plus the permutation vector driving it.

    Precomputes each level's cycle rotated to start at the seed digit, so that
    :func:`orbit_point` runs one lookup per digit and nothing else.
    """

    alpha_digits: DigitExpansion
    pv: PermutationVector
    _tables: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_fits(self.pv, self.alpha_digits)
        tables = []
        for perm, b in zip(self.pv.perms, self.alpha_digits.digits):
            cycle, start = perm.cycles[perm.cycle_id[b]], perm.cycle_pos[b]
            tables.append(cycle[start:] + cycle[:start])
        object.__setattr__(self, "_tables", tuple(tables))

    @property
    def depth(self) -> int:
        """Number of seed digits, the depth every orbit point carries."""
        return len(self.alpha_digits.digits)

    @property
    def period(self) -> int:
        """The orbit's period: the ``lcm`` of the seed digits' cycle lengths.
        Iterates ``n`` and ``n + period`` coincide, and no two iterates of one
        period do."""
        return math.lcm(*map(len, self._tables))


@dataclass(frozen=True, slots=True)
class OrbitPoint:
    """The ``index``-th iterate of the seed, as an exact digit expansion."""

    index: int
    digits: DigitExpansion

    @property
    def value(self) -> Fraction:
        return self.digits.value


def make_orbit(alpha_digits: DigitExpansion, pv: PermutationVector) -> OrbitSpec:
    return OrbitSpec(alpha_digits, pv)


def apply_map(pv: PermutationVector, x: DigitExpansion) -> DigitExpansion:
    """One application of the map: permute each digit by its level's
    permutation."""
    _check_fits(pv, x)
    return DigitExpansion(
        tuple(pv.perms[j].image[b] for j, b in enumerate(x.digits)), x.base
    )


def orbit_point(spec: OrbitSpec, n: int) -> OrbitPoint:
    """The ``n``-th iterate of the seed in O(depth), for arbitrarily large ``n``.

    Digit ``j`` is read off the precomputed cycle of the seed digit, advanced
    ``n mod cycle_length`` steps; agrees with ``n``-fold :func:`apply_map`.
    """
    if n < 0:
        raise ValidationError("orbit index must be >= 0")
    digits = tuple([cycle[n % len(cycle)] for cycle in spec._tables])
    return OrbitPoint(n, DigitExpansion(digits, spec.alpha_digits.base))


def orbit_prefix(spec: OrbitSpec, count: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The first ``count`` iterates, indices ``0 .. count-1``, lazily, as
    ``(numerator, digits)`` pairs: iterate ``n`` is ``numerator / B_K`` with
    ``K = spec.depth`` and has the digits ``orbit_point(spec, n)`` has.

    Every level steps through its rotated cycle in turn, and the numerator
    sums the levels' contributions ``cycle[t] * B_K / B_{j+1}`` (the
    mixed-radix weights of Garner's reconstruction), tabulated once per call.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    if not spec._tables:
        return itertools.repeat((0, ()), count)
    products = spec.alpha_digits.base.products
    total = products[spec.depth]
    terms = [
        [b * (total // products[j + 1]) for b in table]
        for j, table in enumerate(spec._tables)
    ]
    digits = zip(*map(itertools.cycle, spec._tables))
    numerators = map(sum, zip(*map(itertools.cycle, terms)))
    return itertools.islice(zip(numerators, digits), count)


def _permute_index(pv: PermutationVector, level: int, index: int) -> int:
    """Index of the level-``level`` interval the map sends interval ``index`` onto."""
    digits = pv.base.digits_of(level, index)
    return pv.base.index_of([perm.image[b] for perm, b in zip(pv.perms, digits)])


def apply_truncated(pv: PermutationVector, x, depth: int) -> Fraction:
    """The depth-``depth`` truncation of the map on an arbitrary rational:
    permute the first ``depth`` digits, carry the remaining tail unchanged.

    On grid rationals (denominator dividing ``products[depth]``) the tail is
    zero and the result is the exact digit-permuted value.  On any point the
    result differs from the fully-permuted value by less than
    ``1/products[depth]``, and the map is a bijection of ``[0, 1)`` (it
    translates each level-``depth`` grid interval onto another one).
    """
    x = as_fraction(x)
    if not 0 <= x < 1:
        raise OutOfRange(f"{x} not in [0, 1)")
    if depth > pv.depth or depth < 0:
        raise DepthMismatch(f"depth {depth} not in [0, {pv.depth}]")
    count, q = pv.base.products[depth], x.denominator
    index, rem = divmod(x.numerator * count, q)
    return Fraction(_permute_index(pv, depth, index) * q + rem, q * count)


def modulus_of_continuity_check(pv: PermutationVector, level: int) -> Fraction:
    """Certify the uniform-continuity bound at ``level`` and return it.

    Two points in the same level-``level`` grid interval share their first
    ``level`` digits, so their images share the first ``level`` permuted
    digits and differ by at most ``1/products[level]``.  The check verifies
    the finite content of that argument: the induced map on interval indices
    is a bijection of ``[0, products[level])``.
    """
    base = pv.base
    if level > base.depth or level < 0:
        raise LevelExceeded(f"level {level} not in [0, {base.depth}]")
    if level == 0:
        return Fraction(1)
    count = base.products[level]
    seen = [False] * count
    for index in range(count):
        image_index = _permute_index(pv, level, index)
        if seen[image_index]:
            raise CheckFalsified(
                f"interval map not injective at level {level}: index {image_index} hit twice"
            )
        seen[image_index] = True
    return Fraction(1, count)
