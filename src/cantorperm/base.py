"""Mixed-radix (Cantor series) expansions over a pairwise-coprime base sequence.

A base sequence is a list of moduli ``m_0, m_1, ...`` (all >= 2, pairwise
coprime) with cumulative products ``B_0 = 1``, ``B_{j+1} = B_j * m_j``.  Every
rational in ``[0, 1)`` has a digit expansion

    alpha = sum_j  b_j / B_{j+1},     0 <= b_j < m_j,

and the level-``n`` grid partitions ``[0, 1)`` into ``B_n`` half-open
intervals of width ``1/B_n``, one per digit prefix of length ``n``.

Everything here is exact: values are ``fractions.Fraction``, never floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import index
from typing import Iterable, Sequence, Union

from .errors import (
    DepthExceeded,
    IndexOutOfRange,
    LevelExceeded,
    MalformedNumber,
    ModulusTooSmall,
    NotCoprime,
    OutOfRange,
)

RationalLike = Union[Fraction, int, str]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, "p/q" string, or Fraction to an exact Fraction (a float
    reads as the binary rational it holds); anything else raises MalformedNumber."""
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise MalformedNumber(f"not a rational number: {value!r}") from exc


def _point(value: RationalLike) -> Fraction:
    """``value`` as an exact Fraction, which must lie in ``[0, 1)``."""
    x = as_fraction(value)
    if not 0 <= x.numerator < x.denominator:
        raise OutOfRange(f"{x} not in [0, 1)")
    return x


def _check_range(value, top: int, error=LevelExceeded, what: str = "level") -> int:
    """The level, depth or max level ``value`` as an int by :func:`_as_int`'s
    rule; raise ``error`` unless it lies in ``[0, top]``."""
    value = _as_int(value, what)
    if not 0 <= value <= top:
        raise error(f"{what} {value} not in [0, {top}]")
    return value


def _check_index(level, index, base: "BaseSequence") -> tuple[int, int]:
    """``level`` and the level-``level`` interval ``index``, each read by
    :func:`_as_int`'s rule, ``level`` in ``[0, depth]``, ``index`` in ``[0, B_level)``."""
    level, index = _check_range(level, base.depth), _as_int(index, "index")
    if not 0 <= index < base.products[level]:
        raise IndexOutOfRange(f"index {index} not in [0, {base.products[level]})")
    return level, index


def _as_int(value, what: str) -> int:
    """``value`` as an int when it is integral (``3``, ``True``, ``1.0``,
    ``Fraction(2)``, the text ``"3"``); anything else, never truncated,
    raises MalformedNumber naming it."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        if number == value or isinstance(value, str):
            return number
    raise MalformedNumber(f"{what} {value!r} is not an integer")


def _as_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as a tuple of ints by :func:`_as_int`'s rule, at C speed
    (``operator.index``) when every value is an int."""
    if not isinstance(values, (list, tuple)):
        values = list(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        return tuple([_as_int(value, what) for value in values])


@dataclass(frozen=True, slots=True)
class BaseSequence:
    """Validated moduli with precomputed cumulative products.

    ``products[0] == 1`` and ``products[j + 1] == products[j] * moduli[j]``,
    so ``products[n]`` is the number of level-``n`` grid intervals.
    Immutable; safe to share between threads.
    """

    moduli: tuple[int, ...]
    products: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.moduli)

    def period(self, level: int) -> int:
        """Number of grid intervals at ``level`` (the product of the first
        ``level`` moduli)."""
        return self.products[level]

    def index_of(self, digits: Sequence[int]) -> int:
        """Mixed-radix index of a digit prefix, most significant digit first:
        the prefix of length ``n`` has value ``index_of(prefix) / products[n]``."""
        index = 0
        for m, b in zip(self.moduli, digits):
            index = index * m + b
        return index

    def digits_of(self, level: int, index: int) -> tuple[int, ...]:
        """The length-``level`` prefix with the given index; inverse of
        :meth:`index_of`.  Unchecked: ``index`` must lie in
        ``[0, products[level])``."""
        digits = [0] * level
        for j in range(level - 1, -1, -1):
            index, digits[j] = divmod(index, self.moduli[j])
        return tuple(digits)

    def __str__(self) -> str:
        return ",".join(str(m) for m in self.moduli)


def make_base(moduli: Union[Sequence[int], str]) -> BaseSequence:
    """Build a BaseSequence, validating every modulus and pairwise coprimality.

    Accepts a sequence of ints (or of integer strings) or a comma-separated
    string like ``"2,3,5"``.
    """
    if isinstance(moduli, str):
        moduli = moduli.split(",")
    mods = _as_ints(moduli, "modulus")
    if not mods:
        raise ModulusTooSmall("base sequence must be non-empty")
    for m in mods:
        if m < 2:
            raise ModulusTooSmall(f"modulus {m} < 2")
    for (i, a), (j, b) in combinations(enumerate(mods), 2):
        if math.gcd(a, b) != 1:
            raise NotCoprime(f"moduli {a} (level {i}) and {b} (level {j}) share a factor")
    products = [1]
    for m in mods:
        products.append(products[-1] * m)
    return BaseSequence(moduli=mods, products=tuple(products))


@dataclass(frozen=True, slots=True)
class DigitExpansion:
    """A finite digit vector ``b_0, ..., b_{K-1}``, most significant first.

    The constructor trusts its arguments (orbit evaluation creates millions of
    these); use :func:`make_expansion` for inputs that need checking.  The
    exact value is recomputed on access, not stored.
    """

    digits: tuple[int, ...]
    base: BaseSequence

    @property
    def depth(self) -> int:
        return len(self.digits)

    @property
    def value(self) -> Fraction:
        """Exact value ``sum_j digits[j] / products[j+1]`` in ``[0, 1)``."""
        return Fraction(self.base.index_of(self.digits), self.base.products[len(self.digits)])

    def prefix_index(self, level: int) -> int:
        """Index of the level-``level`` grid interval this expansion lies in;
        ``level`` is read by :func:`_check_range`, in ``[0, depth]``."""
        return self.base.index_of(self.digits[: _check_range(level, self.depth)])

    def replace_digit(self, position: int, digit: int) -> "DigitExpansion":
        digits = list(self.digits)
        digits[position] = digit
        return DigitExpansion(tuple(digits), self.base)

    def __str__(self) -> str:
        return ",".join(str(b) for b in self.digits)


def make_expansion(digits: Union[Sequence[int], str], base: BaseSequence) -> DigitExpansion:
    """Validated DigitExpansion constructor: each digit in its level's range.

    Accepts a sequence of ints (or of integer strings) or a comma-separated
    string like ``"1,2,4"``.
    """
    if isinstance(digits, str):
        digits = digits.split(",")
    digs = _as_ints(digits, "digit")
    if len(digs) > base.depth:
        raise DepthExceeded(f"{len(digs)} digits but base has depth {base.depth}")
    for j, (b, m) in enumerate(zip(digs, base.moduli)):
        if not 0 <= b < m:
            raise OutOfRange(f"digit {b} at position {j} not in [0, {m})")
    return DigitExpansion(digs, base)


def encode(alpha: RationalLike, base: BaseSequence, depth: int) -> DigitExpansion:
    """Digits of ``alpha`` to the given depth, through the codec: the
    mixed-radix digits of ``floor(alpha * products[depth])``.

    The result is the canonical (terminating-preferred) expansion: the digits
    are exactly the first ``depth`` digits of the unique expansion of
    ``alpha`` that does not end in an all-maximal tail, and

        value(result) <= alpha < value(result) + 1/products[depth].
    """
    alpha = _point(alpha)
    depth = _check_range(depth, base.depth, DepthExceeded, "depth")
    index = alpha.numerator * base.products[depth] // alpha.denominator
    return DigitExpansion(base.digits_of(depth, index), base)


def prefix_of_interval(level: int, index: int, base: BaseSequence) -> tuple[int, ...]:
    """The unique digit prefix ``(b_0, ..., b_{level-1})`` whose value is
    ``index / products[level]``: on grid points, the inverse of
    ``encode(alpha, base, level).prefix_index(level)``."""
    return base.digits_of(*_check_index(level, index, base))
