"""Measure density of residue-class sets, covering upper bounds, and the
partition criterion that turns verified bounds into exact measures.

A periodic set is a finite union of residue classes ``r+(M)``; its density is
``|residues| / M``, agreeing with natural density.  For sets given only by a
membership oracle, a verified covering by residue classes yields the upper
bound ``sum 1/D_j``.  The partition criterion: if finitely many disjoint sets
cover the naturals and the sum of their verified upper bounds is at most 1,
subadditivity forces every bound to be the exact measure.
"""
from __future__ import annotations

import math
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .base import _as_int, _as_ints, as_fraction
from .errors import (
    BoundsExceedOne,
    CheckFalsified,
    MalformedNumber,
    NotACovering,
    NotAPartition,
    ValidationError,
)
from .perms import ResidueCondition


@dataclass(frozen=True, slots=True)
class PeriodicSet:
    """A union of residue classes mod ``modulus``, stored as a residue set.

    The modulus is read as an int, never truncated, the residues as given (one that does
    not compare with ints raises MalformedNumber, and :func:`expand_to` reads them by
    the integer rule when it lifts them); :func:`normalize` reduces the modulus.
    """

    modulus: int
    residues: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "modulus", _as_int(self.modulus, "modulus"))
        if self.modulus < 1:
            raise ValidationError(f"modulus {self.modulus} < 1")
        with suppress(TypeError):
            if not self.residues or min(self.residues) >= 0 and max(self.residues) < self.modulus:
                return
        for r in self.residues:  # some residue is out of range or does not compare with ints
            try:
                inside = 0 <= r < self.modulus
            except TypeError:
                raise MalformedNumber(f"residue {r!r} is not an integer") from None
            if not inside:
                raise ValidationError(f"residue {r} not in [0, {self.modulus})")

    def contains(self, n: int) -> bool:
        return n % self.modulus in self.residues

    def __str__(self) -> str:
        return ",".join(str(r) for r in sorted(self.residues)) + f"({self.modulus})"


def periodic_set(residues: Iterable[int], modulus: int) -> PeriodicSet:
    """The set of the given residues mod ``modulus``; a modulus or residue
    that is not integral raises MalformedNumber, never truncated."""
    return PeriodicSet(modulus, frozenset(_as_ints(residues, "residue")))


def from_condition(cond: ResidueCondition) -> PeriodicSet:
    return PeriodicSet(cond.modulus, frozenset((cond.residue,)))


def parse_periodic_set(text: str) -> PeriodicSet:
    """Parse the literal syntax ``"r1,r2,...(M)"``, e.g. ``"0,3(6)"``."""
    text = text.strip()
    if not text.endswith(")") or "(" not in text:
        raise ValidationError(f"cannot parse periodic set {text!r}")
    respart, modpart = text[:-1].rsplit("(", 1)
    try:
        modulus = int(modpart)
        residues = [int(r) for r in respart.split(",")] if respart else []
    except ValueError as exc:
        raise ValidationError(f"cannot parse periodic set {text!r}") from exc
    return periodic_set(residues, modulus)


def density(ps: PeriodicSet) -> Fraction:
    """Measure density ``|residues| / modulus``; for a single class ``r+(m)``
    this is ``1/m``."""
    return Fraction(len(ps.residues), ps.modulus)


def expand_to(ps: PeriodicSet, modulus: int) -> PeriodicSet:
    """Rewrite the same set with a larger modulus (must be a multiple); the
    set's own modulus gives back ``ps`` itself."""
    if type(modulus) is not int:
        modulus = _as_int(modulus, "modulus")
    if modulus % ps.modulus != 0:
        raise ValidationError(f"{modulus} is not a multiple of {ps.modulus}")
    if modulus == ps.modulus:
        return ps
    try:
        lifts = [range(r, modulus, ps.modulus) for r in ps.residues]
    except TypeError:  # a residue kept as given and not an int: 1.0 lifts as 1, 1.5 raises
        lifts = [range(r, modulus, ps.modulus) for r in _as_ints(ps.residues, "residue")]
    return PeriodicSet(modulus, frozenset().union(*lifts))


def normalize(ps: PeriodicSet) -> PeriodicSet:
    """Equivalent set with the least modulus: the least divisor ``d`` of the
    modulus ``m`` whose shift ``+d`` maps the residues onto themselves.  They are
    then classes mod ``d`` of ``m / d`` residues each, so only ``d = m / k`` for
    ``k | gcd(m, |residues|)`` are tried, largest ``k`` first; the empty set has modulus 1."""
    m, residues = ps.modulus, ps.residues
    if not residues:
        return PeriodicSet(1, frozenset())
    g = math.gcd(m, len(residues))
    small = [k for k in range(1, math.isqrt(g) + 1) if g % k == 0]
    for k in [g // k for k in small] + [k for k in reversed(small) if k * k != g]:
        d = m // k
        if all((r + d) % m in residues for r in residues):
            return PeriodicSet(d, frozenset(r for r in residues if r < d))


def intersect(ps1: PeriodicSet, ps2: PeriodicSet) -> PeriodicSet:
    """Intersection over one common period: only the operand with the smaller
    lift is rewritten there, and its residues the other set contains are kept."""
    modulus = math.lcm(ps1.modulus, ps2.modulus)
    small, other = sorted((ps1, ps2), key=lambda ps: len(ps.residues) * (modulus // ps.modulus))
    lifted = expand_to(small, modulus).residues
    return PeriodicSet(modulus, frozenset(r for r in lifted if other.contains(r)))


def union(ps1: PeriodicSet, ps2: PeriodicSet) -> PeriodicSet:
    modulus = math.lcm(ps1.modulus, ps2.modulus)
    r1, r2 = expand_to(ps1, modulus).residues, expand_to(ps2, modulus).residues
    return PeriodicSet(modulus, r1 | r2)


@dataclass(frozen=True, slots=True)
class CoveringBound:
    """A verified covering by residue classes and the upper bound it proves."""

    covering: tuple[ResidueCondition, ...]
    bound: Fraction


def covering_bound(
    target_period: int,
    member_oracle: Callable[[int], bool],
    covering: Sequence[ResidueCondition],
) -> CoveringBound:
    """Check that every member of the target set lies in some class of the
    covering, then report ``sum 1/D_j`` as a density upper bound.

    The target set is periodic with period ``target_period`` and membership
    decided by ``member_oracle`` on ``[0, target_period)``, asked once per
    residue; verification compares residue sets over one common period.
    """
    if (target_period := _as_int(target_period, "target period")) < 1:
        raise ValidationError(f"target period {target_period} < 1")
    period = math.lcm(target_period, *(cond.modulus for cond in covering))
    members = periodic_set((r for r in range(target_period) if member_oracle(r)), target_period)
    covered = set().union(*(expand_to(from_condition(c), period).residues for c in covering))
    escaped = expand_to(members, period).residues - covered
    if escaped:
        raise NotACovering(f"member {min(escaped)} escapes every covering class")
    bound = sum((Fraction(1, cond.modulus) for cond in covering), Fraction(0))
    return CoveringBound(tuple(covering), bound)


PartLike = Union[PeriodicSet, tuple]


@dataclass(frozen=True, slots=True)
class PartitionVerdict:
    """Outcome of the partition criterion: every part measurable, with the
    supplied bound as its exact measure."""

    parts: tuple[PeriodicSet, ...]
    measures: tuple[Fraction, ...]

    @property
    def measurable(self) -> bool:
        return True


def measurable_partition_check(parts: Iterable[PartLike]) -> PartitionVerdict:
    """Verify disjointness, full cover of the naturals, and bound sum <= 1;
    on success each part is measurable with measure equal to its bound.

    Each part is a PeriodicSet (bound defaults to its exact density) or a
    ``(PeriodicSet, bound)`` pair where the bound is a verified density upper
    bound; a bound below the part's exact density raises CheckFalsified.
    The measure 1 of the naturals is at most the sum of the parts'
    densities by subadditivity, and at most 1 by hypothesis, so every
    inequality in the chain is an equality.  Over the common period ``P``,
    lifted residue sets whose sizes sum to ``P`` and whose union has ``P``
    elements are disjoint and cover ``[0, P)``; only otherwise is every
    ``n < P`` counted, to name the smallest covered by no part or by several.
    """
    pairs, explicit = [], []
    for part in parts:
        if isinstance(part, PeriodicSet):
            pairs.append((part, density(part)))
        else:
            ps, bound = part
            pairs.append(pair := (ps, as_fraction(bound)))
            explicit.append(pair)
    if not pairs:
        raise NotAPartition("no parts given")
    period = math.lcm(*(ps.modulus for ps, _ in pairs))
    lifted = [expand_to(ps, period).residues for ps, _ in pairs]
    if sum(map(len, lifted)) != period or len(set().union(*lifted)) != period:
        hits = Counter(r for residues in lifted for r in residues)
        n = next(n for n in range(period) if hits[n] != 1)
        raise NotAPartition(f"{n} is covered by " + (f"{hits[n]} parts" if hits[n] else "no part"))
    # the cover makes the densities sum to 1; a plain part's measure is its density
    total = Fraction(1)
    for ps, bound in explicit:
        if bound < (exact := density(ps)):
            raise CheckFalsified(f"bound {bound} for part {ps} is below its density {exact}")
        total += bound - exact
    sets, measures = zip(*pairs)
    if total > 1:
        raise BoundsExceedOne(f"bounds sum to {total} > 1, criterion inapplicable")
    return PartitionVerdict(sets, measures)
