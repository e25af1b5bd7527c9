"""Digit permutations, their cycles and discrete logarithms, and the
residue-class bookkeeping that combines per-level conditions by the
Chinese remainder theorem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import getitem
from typing import Iterable, Sequence

from .base import BaseSequence, _as_int, _as_ints
from .errors import (
    DigitOutOfRange,
    LengthMismatch,
    ModuliNotCoprime,
    NotBijection,
    NotFullCycle,
    ValidationError,
)


@dataclass(frozen=True, slots=True)
class CyclicPermutation:
    """A permutation of ``{0, ..., m-1}`` in image form, with its cycle
    decomposition precomputed: discrete logs read cycle positions, orbits the cycles.

    ``cycles[cycle_id[b]][cycle_pos[b]] == b`` for every digit ``b``.
    Use :func:`make_cyclic` (enforces a single full-length cycle) or
    :func:`make_unchecked` (any bijection, e.g. the identity).
    """

    modulus: int
    image: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    cycle_id: tuple[int, ...]
    cycle_pos: tuple[int, ...]
    full_cycle: bool

    def __str__(self) -> str:
        return f"{self.modulus}: " + ",".join(str(i) for i in self.image)


def _decompose(modulus: int, image: Sequence[int]):
    """The image as ints with its cycles, ``cycle_id`` and ``cycle_pos``.  Each
    walk follows the image from an unplaced digit while the value is in
    ``[0, modulus)`` and unplaced; every walk closing at its start splits the
    digits into disjoint cycles, which is exactly a bijection, else NotBijection."""
    img = _as_ints(image, "image entry")
    if len(img) != modulus:
        raise NotBijection(f"image has length {len(img)}, expected {modulus}")
    cycles: list[tuple[int, ...]] = []
    cycle_id = [-1] * modulus
    cycle_pos = [0] * modulus
    for start in range(modulus):
        if cycle_id[start] != -1:
            continue
        cycle = []
        b = start
        while 0 <= b < modulus and cycle_id[b] == -1:
            cycle_id[b] = len(cycles)
            cycle_pos[b] = len(cycle)
            cycle.append(b)
            b = img[b]
        if b != start:
            raise NotBijection(f"image {img} is not a bijection of Z_{modulus}")
        cycles.append(tuple(cycle))
    return img, tuple(cycles), tuple(cycle_id), tuple(cycle_pos)


def make_cyclic(modulus: int, image: Sequence[int]) -> CyclicPermutation:
    """Validated constructor: ``image`` must be a single cycle of full length
    ``modulus``, as the discrete-log machinery requires."""
    perm = make_unchecked(modulus, image)
    if not perm.full_cycle:
        raise NotFullCycle(
            f"permutation splits into {len(perm.cycles)} cycles, need a single {modulus}-cycle"
        )
    return perm


def make_unchecked(modulus: int, image: Sequence[int]) -> CyclicPermutation:
    """Accept any bijection (identity, products of shorter cycles, ...).

    Orbits step through each cycle; operations that need a unique discrete
    log (discrete_log, prefix_residue) reject non-full-cycle permutations.
    """
    modulus = _as_int(modulus, "modulus")
    img, cycles, cycle_id, cycle_pos = _decompose(modulus, image)
    return CyclicPermutation(
        modulus, img, cycles, cycle_id, cycle_pos, full_cycle=(len(cycles) == 1)
    )


def from_cycle(modulus: int, cycle: Sequence[int]) -> CyclicPermutation:
    """Convert one-cycle notation ``(c_0, c_1, ..., c_{m-1})``, meaning
    ``c_0 -> c_1 -> ... -> c_{m-1} -> c_0``, to image form."""
    modulus, cyc = _as_int(modulus, "modulus"), _as_ints(cycle, "cycle entry")
    if len(cyc) != modulus:
        raise NotFullCycle(f"cycle lists {len(cyc)} digits, need all {modulus}")
    image = [-1] * modulus
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        if not 0 <= a < modulus:
            raise DigitOutOfRange(f"cycle entry {a} not in [0, {modulus})")
        if image[a] != -1:
            raise NotBijection(f"cycle entry {a} appears more than once")
        image[a] = b
    return make_cyclic(modulus, image)


def shift(modulus: int) -> CyclicPermutation:
    """The full cycle ``b -> b + 1 (mod m)``."""
    modulus = _as_int(modulus, "modulus")
    return make_cyclic(modulus, [(b + 1) % modulus for b in range(modulus)])


def _digit(perm: CyclicPermutation, d) -> int:
    """``d`` as an int by :func:`_as_int`'s rule; DigitOutOfRange outside ``[0, m)``."""
    if not 0 <= (d := _as_int(d, "digit")) < perm.modulus:
        raise DigitOutOfRange(f"digit {d} not in [0, {perm.modulus})")
    return d


def discrete_log(perm: CyclicPermutation, r: int, s: int) -> int:
    """The unique ``k`` in ``[0, m)`` with ``perm^n(r) == s  iff  n == k (mod m)``.

    Exists exactly because the permutation is one full cycle.
    """
    if not perm.full_cycle:
        raise NotFullCycle("discrete log needs a single full-length cycle")
    r, s = _digit(perm, r), _digit(perm, s)
    return (perm.cycle_pos[s] - perm.cycle_pos[r]) % perm.modulus


@dataclass(frozen=True, slots=True)
class ResidueCondition:
    """The congruence condition ``n == residue (mod modulus)`` on naturals."""

    residue: int
    modulus: int

    def __post_init__(self):
        object.__setattr__(self, "residue", _as_int(self.residue, "residue"))
        object.__setattr__(self, "modulus", _as_int(self.modulus, "modulus"))
        if self.modulus < 1:
            raise ValidationError(f"modulus {self.modulus} < 1")
        if not 0 <= self.residue < self.modulus:
            raise ValidationError(f"residue {self.residue} not in [0, {self.modulus})")

    def contains(self, n: int) -> bool:
        return n % self.modulus == self.residue

    def __str__(self) -> str:
        return f"{self.residue}+({self.modulus})"


_new = object.__new__
_set_residue, _set_modulus = ResidueCondition.residue.__set__, ResidueCondition.modulus.__set__


def _residue_class(residue: int, modulus: int) -> ResidueCondition:
    """An unchecked ``ResidueCondition``, for a residue just reduced mod ``modulus``."""
    cond = _new(ResidueCondition)
    _set_residue(cond, residue)
    _set_modulus(cond, modulus)
    return cond


def combine_crt(conditions: Iterable[ResidueCondition]) -> ResidueCondition:
    """Collapse congruences ``n == r_j (mod m_j)`` with pairwise coprime moduli
    into one class mod ``M = prod m_j``: the idempotent sum ``sum r_j * c_j *
    (c_j^-1 mod m_j) mod M`` with ``c_j = M / m_j``, invertible mod ``m_j`` as a
    product of moduli coprime to it.  No conditions give ``0+(1)``.
    """
    pairs = [(cond.residue, cond.modulus) for cond in conditions]
    modulus = 1
    for _, m in pairs:
        if math.gcd(modulus, m) != 1:
            raise ModuliNotCoprime(f"modulus {m} not coprime to accumulated {modulus}")
        modulus *= m
    # pairwise coprime m with product `modulus`; c * (c^-1 mod m) is 1 mod m, 0 mod the rest
    residue = sum(r * (c := modulus // m) * pow(c, -1, m) for r, m in pairs) % modulus
    return _residue_class(residue, modulus)


@dataclass(frozen=True, slots=True)
class PermutationVector:
    """One permutation per base level; level ``j`` acts on digit ``j``."""

    perms: tuple[CyclicPermutation, ...]
    base: BaseSequence
    # prefix length L -> (CRT weight tables of prefix_residue, B_L, last tuple seed of
    # length L, its weight sum), filled by _weight_tables and prefix_residue
    _weights: dict[int, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.perms) != self.base.depth:
            raise LengthMismatch(
                f"{len(self.perms)} permutations for base depth {self.base.depth}"
            )
        for j, perm in enumerate(self.perms):
            if perm.modulus != self.base.moduli[j]:
                raise ValidationError(
                    f"permutation at level {j} has modulus {perm.modulus}, "
                    f"base has {self.base.moduli[j]}"
                )

    @property
    def depth(self) -> int:
        return len(self.perms)


def shift_vector(base: BaseSequence) -> PermutationVector:
    """The all-shift vector: digit ``b`` at level ``j`` maps to ``b+1 mod m_j``."""
    return PermutationVector(tuple(shift(m) for m in base.moduli), base)


def _weight_tables(pv: PermutationVector, length: int) -> tuple:
    """Build and cache ``(tables, B_length, None, 0)``: per level below
    ``length`` a dict digit -> weight, ``None`` where the level is not a full
    cycle, and no seed yet (:func:`prefix_residue` stores one).  A length
    above the depth is never cached, so its ``LengthMismatch`` comes from here."""
    if length > pv.depth:
        raise LengthMismatch(f"prefix length {length} exceeds vector depth {pv.depth}")
    modulus = pv.base.products[length]
    tables = []
    for perm, m in zip(pv.perms[:length], pv.base.moduli):
        if perm.full_cycle:
            # the CRT idempotent: 1 mod m, 0 mod every other modulus of the prefix
            e = (c := modulus // m) * pow(c, -1, m)
            tables.append({b: pos * e % modulus for b, pos in enumerate(perm.cycle_pos)})
        else:
            tables.append(None)
    # one assignment of a finished entry: threads sharing pv at worst build it twice
    pv._weights[length] = entry = (tuple(tables), modulus, None, 0)
    return entry


def prefix_residue(
    pv: PermutationVector,
    from_digits: Sequence[int],
    to_digits: Sequence[int],
) -> ResidueCondition:
    """The residue class of all ``n`` whose ``n``-th power maps every digit of
    ``from_digits`` onto the matching digit of ``to_digits``.

    With full cycles at every level, the per-level discrete logs
    ``pos_j[s_j] - pos_j[r_j]`` (cycle positions) combine into one class mod
    ``M = products[len]`` by the idempotent sum of :func:`combine_crt`.  The
    idempotent ``e_j = c_j * (c_j^-1 mod m_j)`` with ``c_j = M / m_j`` depends
    only on the base and the prefix length, so level ``j`` gets a weight table
    ``W_j[b] = pos_j[b] * e_j mod M``, a dict keyed by the digits, and the
    class is ``(sum W_j[s_j] - sum W_j[r_j]) mod M``.  The tables of one
    prefix length are cached on the vector with ``M`` and the last seed read
    with them, an exact ``tuple`` whose digits are all keys, with its sum
    ``sum W_j[r_j]``: a ``from_digits`` equal to that seed (tuple ``==``)
    costs one sum of lookups, any other seed two, and an exact ``tuple``
    among those replaces the stored seed.  Lists and tuple subclasses are
    never stored.  Digits are read by the integer rule (``1.0``, ``True``
    and ``"1"`` as ``1``); the check runs only once a lookup has failed:
    the first level that is no full cycle or holds no digit of it raises
    what :func:`discrete_log` raises, its source digit first.
    """
    length = len(from_digits)
    if length != len(to_digits):
        raise LengthMismatch(f"prefix lengths differ: {length} vs {len(to_digits)}")
    tables, modulus, seed, offset = pv._weights.get(length) or _weight_tables(pv, length)
    try:
        residue = sum(map(getitem, tables, to_digits))
        if from_digits is not seed and (type(from_digits) is not tuple or from_digits != seed):
            offset = sum(map(getitem, tables, from_digits))
            if type(from_digits) is tuple:
                # one store of a whole entry, as in _weight_tables
                pv._weights[length] = (tables, modulus, from_digits, offset)
        residue = (residue - offset) % modulus
    except (TypeError, KeyError):
        pass
    else:
        cond = _new(ResidueCondition)
        _set_residue(cond, residue)
        _set_modulus(cond, modulus)
        return cond
    # a lookup failed: the first faulty level raises, else the digits read as ints ("1")
    logs = [discrete_log(perm, r, s) for perm, r, s in zip(pv.perms, from_digits, to_digits)]
    return combine_crt(map(_residue_class, logs, pv.base.moduli))


def residue_table(pv: PermutationVector, from_digits: Sequence[int]) -> list[int]:
    """The class of every interval at level ``L = len(from_digits)``, in
    interval order: entry ``i`` is the residue of ``prefix_residue(pv,
    from_digits, base.digits_of(L, i))``, all of them mod ``B_L``.

    The weight tables of the cache entry :func:`prefix_residue` reads,
    summed over every prefix at once: level by level, ``sums = [x + w for x
    in sums for w in W_j]``, ``W_j``'s weights read once as a list, runs
    through the prefixes most significant digit first, which is interval
    order; the last level's pass also reduces mod ``B_L`` (level 0, with
    no table, sums one weight 0).  Discrete logs and CRT only; no orbit is
    evaluated.  Faults raise what :func:`prefix_residue` raises for them; a
    seed of integral digits reads as its ints.
    """
    # checks the seed, first faulty level first, and caches its weight tables
    prefix_residue(pv, from_digits, from_digits)
    tables, modulus = pv._weights[len(from_digits)][:2]
    sums = [-sum(map(getitem, tables, _as_ints(from_digits, "digit")))]
    *inner, last = [list(table.values()) for table in tables] or [[0]]
    for weights in inner:
        sums = [x + w for x in sums for w in weights]
    return [(x + w) % modulus for x in sums for w in last]


def _perm_lines(text: str) -> list[str]:
    """The permutation lines of a text, without ``#`` comments, blanks or blank lines."""
    return [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]


def parse_permutations(text: str, base: BaseSequence) -> PermutationVector:
    """Parse one validated permutation per line, ``"m: i0,i1,...,i{m-1}"``.

    Blank lines and ``#`` comments are skipped.  Levels are taken in file
    order and must match the base moduli.  Any bijection is accepted;
    operations that need a single full cycle (orbit residue classes,
    equivalence reports) check that themselves.
    """
    perms = []
    for number, line in enumerate(_perm_lines(text), start=1):
        try:
            head, imgpart = line.split(":", 1)
            modulus = int(head)
            image = [int(p) for p in imgpart.split(",")]
        except ValueError as exc:
            raise ValidationError(f"permutation line {number}: cannot parse {line!r}") from exc
        perms.append(make_unchecked(modulus, image))
    return PermutationVector(tuple(perms), base)
