"""The digit-permutation map and exact random-access orbit evaluation.

The map sends an expansion ``(b_0, b_1, ...)`` to ``(p_0(b_0), p_1(b_1), ...)``
digit-wise.  Because level ``j`` evolves independently under powers of its own
permutation, the ``n``-th iterate of any point is computable digit-by-digit in
O(depth), independent of ``n`` -- orbits have exact random access.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .base import DigitExpansion, _as_int, _check_range, _point
from .errors import CheckFalsified, DepthMismatch, ValidationError
from .perms import PermutationVector


# the most entries a column of _orbit_columns holds, unless one level's
# cycle alone is longer; read when an OrbitSpec is built
_GROUP_CAP = 256

# the points _truncated_numerators maps in one pass of its columns
_POINT_BLOCK = 2048

# two streams added entry by entry, folded over a list of streams
_add_streams = functools.partial(map, operator.add)


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
    :func:`orbit_point` runs one lookup per digit and nothing else, and the
    orbit's column groups of consecutive levels as ``(width, period)``: a
    level joins the group before it while the lcm of the group's cycle
    lengths, its ``period``, stays at most ``_GROUP_CAP``.
    """

    alpha_digits: DigitExpansion
    pv: PermutationVector
    _tables: tuple = field(init=False, repr=False, compare=False)
    _groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_fits(self.pv, self.alpha_digits)
        tables, groups = [], []
        for perm, b in zip(self.pv.perms, self.alpha_digits.digits):
            cycle, start = perm.cycles[perm.cycle_id[b]], perm.cycle_pos[b]
            tables.append(cycle[start:] + cycle[:start])
            if groups and (period := math.lcm(groups[-1][1], len(cycle))) <= _GROUP_CAP:
                groups[-1] = (groups[-1][0] + 1, period)
            else:
                groups.append((1, len(cycle)))
        object.__setattr__(self, "_tables", tuple(tables))
        object.__setattr__(self, "_groups", tuple(groups))

    @property
    def depth(self) -> int:
        """Number of seed digits, the depth every orbit point carries."""
        return len(self.alpha_digits.digits)

    @property
    def period(self) -> int:
        """The orbit's period: the ``lcm`` of the seed digits' cycle lengths.
        Iterates ``n`` and ``n + period`` coincide, and no two iterates of one
        period do."""
        return self.prefix_period(self.depth)

    def prefix_period(self, level: int) -> int:
        """The ``lcm`` of the first ``level`` seed digits' cycle lengths: the
        level-``level`` interval of iterate ``n`` depends only on ``n`` mod it."""
        return math.lcm(*map(len, self._tables[:level]))


@dataclass(frozen=True, slots=True)
class OrbitPoint:
    """The ``index``-th iterate of the seed, as an exact digit expansion."""

    index: int
    digits: DigitExpansion

    @property
    def value(self) -> Fraction:
        return self.digits.value


_new = object.__new__
_set_digits, _set_base = DigitExpansion.digits.__set__, DigitExpansion.base.__set__
_set_index, _set_point = OrbitPoint.index.__set__, OrbitPoint.digits.__set__


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
    A non-int ``n`` is read by the integer rule (``2.0`` is 2, ``2.5`` raises).
    """
    if type(n) is not int:
        n = _as_int(n, "orbit index")
    if n < 0:
        raise ValidationError("orbit index must be >= 0")
    # trusted construction, as perms._residue_class: object.__new__ and the slot setters
    x = _new(DigitExpansion)
    _set_digits(x, tuple([cycle[n % len(cycle)] for cycle in spec._tables]))
    _set_base(x, spec.alpha_digits.base)
    point = _new(OrbitPoint)
    _set_index(point, n)
    _set_point(point, x)
    return point


def _orbit_columns(
    spec: OrbitSpec, start: int, count: int, level: int | None = None
) -> tuple[Iterator[int], Iterable]:
    """Iterates ``start .. start + count - 1`` from one cyclic column per
    group of ``spec._groups``, as ``(numerators, digits)``, of their first
    ``level`` digits (``K = spec.depth`` when ``level`` is None).
    ``numerators`` streams their numerators over ``B_level``, the level-
    ``level`` interval indices: level ``j`` adds ``b_j * B_level / B_{j+1}``
    (the mixed-radix weights of Garner's reconstruction), summed per group
    and then over the groups, the group holding level ``level - 1`` cut
    there.  ``digits`` yields each group's column of digit tuples, entry
    ``t`` those of iterate ``start + t`` when read cyclically, built only
    when read.  A column holds ``min(period, count)`` entries; at level 0
    the numerators are 0 and the one column holds ``()``.  A non-int
    ``count`` is read by the integer rule."""
    if type(count) is not int:
        count = _as_int(count, "count")
    if count < 1:
        raise ValidationError("count must be >= 1")
    level = spec.depth if level is None else level
    if not level:
        return itertools.repeat(0, count), [[()]]
    products = spec.alpha_digits.base.products
    total = products[level]
    cycles, terms = [], []
    for j, table in enumerate(spec._tables[:level]):
        # the cycle rotated to iterate `start`, cut where no column reads past it
        shift = start % len(table)
        end = shift + min(len(table), count)
        cycles.append(cycle := list(itertools.islice(itertools.cycle(table), shift, end)))
        terms.append(list(map((total // products[j + 1]).__mul__, cycle)))

    def columns(levels):
        # each group's levels zipped cyclically, cut at the group's entries;
        # a cut group's period is a multiple of its levels' lcm
        levels = iter(levels)
        for width, period in spec._groups:
            if not (group := list(itertools.islice(levels, width))):
                return
            yield itertools.islice(zip(*map(itertools.cycle, group)), min(period, count))

    sums = [itertools.cycle(list(map(sum, column))) for column in columns(terms)]
    return itertools.islice(functools.reduce(_add_streams, sums), count), columns(cycles)


def orbit_numerators(spec: OrbitSpec, count: int) -> Iterator[int]:
    """The first ``count`` iterates, indices ``0 .. count-1``, lazily, as
    numerators over ``B_K`` with ``K = spec.depth``: iterate ``n`` is
    ``numerator / B_K``, the value of ``orbit_point(spec, n)``."""
    return _orbit_columns(spec, 0, count)[0]


def orbit_prefix(spec: OrbitSpec, count: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The :func:`orbit_numerators` stream zipped with each iterate's
    digits: ``(numerator, digits)`` pairs, ``digits`` those of
    ``orbit_point(spec, n)``: its groups' digit tuples joined by ``+``."""
    numerators, columns = _orbit_columns(spec, 0, count)
    digits = functools.reduce(_add_streams, map(itertools.cycle, columns))
    return zip(numerators, digits)


def _image_tables(
    pv: PermutationVector, depth: int, cap: int
) -> list[tuple[int, Sequence[int], int]]:
    """The first ``depth`` levels in groups of consecutive levels, least
    significant first: a level joins the group after it while the group's
    interval count stays at most ``cap``, else it starts a group.

    Each group is ``(size, table, weight)``: ``table[i]`` is the index of
    the group interval that group interval ``i`` maps onto, and ``weight``
    is the interval count of the levels below the group.  Joining a level
    of modulus ``m`` above a group of ``size`` intervals is the product-sum
    ``idx = [i·size + x for i in image for x in idx]``, the one
    :func:`residue_table` uses.  A one-level group is that level's
    ``perm.image``, not a copy, so every table built has at most ``cap``
    entries and the ``depth`` levels cost at most O(``depth·cap``).
    """
    groups: list[tuple[int, Sequence[int], int]] = []
    weight = 1
    for perm in reversed(pv.perms[:depth]):
        m = perm.modulus
        if groups and groups[-1][0] * m <= cap:
            size, table, below = groups[-1]
            groups[-1] = (size * m, [i * size + x for i in perm.image for x in table], below)
        else:
            groups.append((m, perm.image, weight))
        weight *= m
    return groups


def _truncated_numerators(
    pv: PermutationVector, nums: Sequence[int], q: int, depth: int
) -> list[int]:
    """The depth-``depth`` truncated map on the points ``p / q``, ``p`` in
    ``nums`` with ``0 <= p < q``: the image numerators over ``q·B_depth``.

    Point ``p`` lies in interval ``index = x // q``, ``x = p·B_depth``, and
    maps to ``x + (image_index - index)·q``, its tail kept.  In columns, a
    block of ``_POINT_BLOCK`` points at a time: ``moved = image_index -
    index`` starts at ``-index`` and takes one table-lookup pass per group
    of :func:`_image_tables` (``cap = len(nums)``: tables cost no more than
    the points, built once for all blocks), the group's digit ``index //
    weight mod size`` at its weight; ``x`` is not kept.  Besides the
    images, the columns hold one block of points.
    """
    total = pv.base.products[depth]
    groups = _image_tables(pv, depth, len(nums))
    images: list[int] = []
    for start in range(0, len(nums), _POINT_BLOCK):
        block = nums[start : start + _POINT_BLOCK]
        index = [p * total // q for p in block]
        moved = list(map(operator.neg, index))
        for size, table, weight in groups:
            moved = [s + table[i // weight % size] * weight for s, i in zip(moved, index)]
        images += [p * total + s * q for p, s in zip(block, moved)]
    return images


def apply_truncated(pv: PermutationVector, x, depth: int) -> Fraction:
    """The depth-``depth`` truncation of the map on an arbitrary rational:
    permute the first ``depth`` digits, carry the remaining tail unchanged.

    On grid rationals (denominator dividing ``products[depth]``) the tail is
    zero and the result is the exact digit-permuted value.  On any point the
    result differs from the fully-permuted value by less than
    ``1/products[depth]``, and the map is a bijection of ``[0, 1)`` (it
    translates each level-``depth`` grid interval onto another one).
    """
    x = _point(x)
    depth = _check_range(depth, pv.depth, DepthMismatch, "depth")
    # one point: cap 1, so every level is its own group over perm.image
    q = x.denominator
    (image,) = _truncated_numerators(pv, [x.numerator], q, depth)
    return Fraction(image, q * pv.base.products[depth])


def modulus_of_continuity_check(pv: PermutationVector, level: int) -> Fraction:
    """Certify the uniform-continuity bound at ``level`` and return it.

    Two points in the same level-``level`` grid interval share their first
    ``level`` digits, so their images share the first ``level`` permuted
    digits and differ by at most ``1/products[level]``.  The check verifies
    the finite content of that argument: the induced map on interval indices
    is a bijection of ``[0, products[level])``.
    """
    level = _check_range(level, pv.depth)
    if level == 0:
        return Fraction(1)
    count = pv.base.products[level]
    # cap B_level puts every level into one group: the induced map itself
    ((_, table, _),) = _image_tables(pv, level, count)
    seen = [False] * count
    for image_index in table:
        if seen[image_index]:
            raise CheckFalsified(
                f"interval map not injective at level {level}: index {image_index} hit twice"
            )
        seen[image_index] = True
    return Fraction(1, count)
