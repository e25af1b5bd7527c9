"""Periodic integer sets, densities, covering bounds, partition criterion."""
import ast
import importlib
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cantorperm
from cantorperm import (
    PartitionVerdict,
    PeriodicSet,
    ResidueCondition,
    covering_bound,
    density,
    expand_to,
    from_condition,
    intersect,
    measurable_partition_check,
    normalize,
    parse_periodic_set,
    periodic_set,
    union,
)
from cantorperm.errors import (
    BoundsExceedOne,
    CheckFalsified,
    MalformedNumber,
    NotACovering,
    NotAPartition,
    ValidationError,
)


@pytest.mark.parametrize("residues, message", [
    ([1.5], "residue 1.5 is not an integer"),
    ([0, "x"], "residue 'x' is not an integer"),
    ((r for r in [0, None]), "residue None is not an integer"),
])
def test_periodic_set_never_truncates_a_residue(residues, message):
    with pytest.raises(MalformedNumber) as info:
        periodic_set(residues, 4)
    assert str(info.value) == message


# the constructor reads its modulus as periodic_set does; its residues stay as given
MAKERS = {
    "periodic_set": lambda modulus: periodic_set([1], modulus),
    "PeriodicSet": lambda modulus: PeriodicSet(modulus, frozenset({1})),
}


@pytest.mark.parametrize("maker", sorted(MAKERS))
@pytest.mark.parametrize("modulus", [4.5, 2.5, None, "x"], ids=repr)
def test_periodic_set_never_truncates_its_modulus(maker, modulus):
    with pytest.raises(MalformedNumber) as info:
        MAKERS[maker](modulus)
    assert str(info.value) == f"modulus {modulus!r} is not an integer"


@pytest.mark.parametrize("maker", sorted(MAKERS))
def test_periodic_set_reads_an_integral_modulus_as_an_int(maker):
    ps = MAKERS[maker](4.0)
    assert ps == periodic_set([1], 4) and type(ps.modulus) is int
    assert density(ps) == Fraction(1, 4)
    assert intersect(ps, periodic_set([1], 2)) == ps


def test_periodic_set_reads_integral_residues_as_ints():
    ps = periodic_set((r for r in [True, 2.0, Fraction(3), "0"]), 4)
    assert ps == periodic_set([0, 1, 2, 3], 4)
    assert all(type(r) is int for r in ps.residues)


def test_periodic_set_basics():
    ps = periodic_set([0, 3], 6)
    assert ps.contains(0) and ps.contains(9)
    assert not ps.contains(1)
    assert str(ps) == "0,3(6)"
    assert density(ps) == Fraction(1, 3)


def test_periodic_set_rejects_bad_residue():
    for make, message in [
        (lambda: periodic_set([6], 6), "residue 6 not in [0, 6)"),
        (lambda: PeriodicSet(4, frozenset({4})), "residue 4 not in [0, 4)"),
        (lambda: periodic_set([0], 0), "modulus 0 < 1"),
    ]:
        with pytest.raises(ValidationError) as info:
            make()
        assert str(info.value) == message


@pytest.mark.parametrize("residues, message", [
    ({"1"}, "residue '1' is not an integer"),
    ({"1", 2}, "residue '1' is not an integer"),
    ({None, 0}, "residue None is not an integer"),
], ids=repr)
def test_periodic_set_constructor_names_a_residue_that_does_not_compare(residues, message):
    with pytest.raises(MalformedNumber) as info:
        PeriodicSet(5, frozenset(residues))
    assert str(info.value) == message
    # a residue that compares with ints stays as given
    assert PeriodicSet(5, frozenset({1.5, 2})).residues == {1.5, 2}


@pytest.mark.parametrize("operation", [
    lambda ps: expand_to(ps, 15),
    lambda ps: union(ps, periodic_set([1, 2], 3)),
    lambda ps: intersect(ps, periodic_set([1, 2], 3)),
], ids=["expand_to", "union", "intersect"])
def test_set_algebra_reads_residues_kept_as_given_by_the_integer_rule(operation):
    # lifting to 15 reads them as ints: 1.0 and Fraction(2) lift as 1 and 2
    as_ints = operation(periodic_set([1, 2], 5))
    assert operation(PeriodicSet(5, frozenset({1.0, Fraction(2)}))) == as_ints
    assert all(type(r) is int for r in as_ints.residues)
    with pytest.raises(MalformedNumber) as info:
        operation(PeriodicSet(5, frozenset({1.5})))
    assert str(info.value) == "residue 1.5 is not an integer"


def test_parse_round_trip():
    ps = parse_periodic_set("1,4,7(9)")
    assert ps.modulus == 9
    assert ps.residues == frozenset({1, 4, 7})
    assert parse_periodic_set(str(ps)) == ps


def test_density_counting_oracle():
    # density equals the limiting count fraction; check several prefixes
    ps = periodic_set([2, 5], 7)
    for n in (7, 70, 700):
        count = sum(1 for k in range(n) if ps.contains(k))
        assert Fraction(count, n) == density(ps)


def test_expand_and_normalize():
    ps = periodic_set([1], 2)
    wide = expand_to(ps, 6)
    assert wide.residues == frozenset({1, 3, 5})
    assert density(wide) == Fraction(1, 2)
    assert normalize(wide) == ps


def test_expand_to_own_modulus_is_the_set_itself():
    ps = periodic_set([1, 4], 6)
    assert expand_to(ps, 6) is ps
    with pytest.raises(ValidationError, match="9 is not a multiple of 6"):
        expand_to(ps, 9)


def test_normalize_no_smaller_period():
    ps = periodic_set([0, 1], 4)
    assert normalize(ps) == ps


def test_intersect_known():
    # 1 mod 2 and 2 mod 3 meet exactly in 5 mod 6
    got = intersect(periodic_set([1], 2), periodic_set([2], 3))
    assert got == periodic_set([5], 6)


def test_intersect_lifts_only_the_smaller_operand(monkeypatch):
    # lifting 0(1) to the common period would build 3,000,000 residues
    lifted = []

    def counting_expand_to(ps, modulus):
        wide = expand_to(ps, modulus)
        lifted.append(len(wide.residues))
        return wide

    # the package re-exports the function density, which shadows the module name
    module = importlib.import_module("cantorperm.density")
    monkeypatch.setattr(module, "expand_to", counting_expand_to)
    got = intersect(periodic_set([0], 1), periodic_set([0, 7], 3_000_000))
    assert got == periodic_set([0, 7], 3_000_000)
    assert sum(lifted) <= 2


def test_intersect_union_membership():
    a = periodic_set([0, 3], 6)
    p = periodic_set([2, 3], 4)
    both = intersect(a, p)
    either = union(a, p)
    for n in range(48):
        assert both.contains(n) == (a.contains(n) and p.contains(n))
        assert either.contains(n) == (a.contains(n) or p.contains(n))
    assert density(both) + density(either) == density(a) + density(p)


def test_from_condition():
    ps = from_condition(ResidueCondition(5, 6))
    assert ps == periodic_set([5], 6)


def test_covering_bound_exact_cover():
    # covering a class by itself gives its own density as the bound
    ps = periodic_set([3], 8)
    got = covering_bound(8, ps.contains, [ResidueCondition(3, 8)])
    assert got.bound == Fraction(1, 8)


def test_covering_bound_coarse_cover():
    # a union of two classes covered by one coarser class
    ps = periodic_set([1, 5], 8)
    got = covering_bound(8, ps.contains, [ResidueCondition(1, 4)])
    assert got.bound == Fraction(1, 4)


def test_covering_bound_detects_escape():
    ps = periodic_set([1, 2], 6)
    with pytest.raises(NotACovering):
        covering_bound(6, ps.contains, [ResidueCondition(1, 6)])


def test_partition_residues_mod_30():
    parts = [periodic_set([r], 30) for r in range(30)]
    verdict = measurable_partition_check(parts)
    assert verdict.measurable
    assert all(m == Fraction(1, 30) for m in verdict.measures)
    assert sum(verdict.measures) == 1


def test_partition_mixed_moduli():
    # 0 mod 2, 1 mod 4, 3 mod 4 partition the naturals
    parts = [periodic_set([0], 2), periodic_set([1], 4), periodic_set([3], 4)]
    verdict = measurable_partition_check(parts)
    assert verdict.measures == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


def test_partition_with_supplied_bounds():
    parts = [
        (periodic_set([0], 2), Fraction(1, 2)),
        (periodic_set([1], 2), Fraction(1, 2)),
    ]
    verdict = measurable_partition_check(parts)
    assert sum(verdict.measures) == 1


def test_partition_rejects_overlap():
    with pytest.raises(NotAPartition):
        measurable_partition_check([periodic_set([0], 2), periodic_set([0], 4)])


def test_partition_rejects_gap():
    with pytest.raises(NotAPartition):
        measurable_partition_check([periodic_set([0], 2), periodic_set([1], 4)])


def test_partition_rejects_bound_sum_above_one():
    parts = [
        (periodic_set([0], 2), Fraction(3, 4)),
        (periodic_set([1], 2), Fraction(1, 2)),
    ]
    with pytest.raises(BoundsExceedOne):
        measurable_partition_check(parts)


@pytest.mark.parametrize(
    "bound, other",
    [(Fraction(1, 4), Fraction(1, 4)), (Fraction(-1, 2), Fraction(1, 2))],
)
def test_partition_rejects_bound_below_density(bound, other):
    # evens and odds have density 1/2 each; a smaller bound is no upper bound
    parts = [(periodic_set([0], 2), bound), (periodic_set([1], 2), other)]
    with pytest.raises(CheckFalsified) as info:
        measurable_partition_check(parts)
    assert str(info.value) == f"bound {bound} for part 0(2) is below its density 1/2"


@pytest.mark.parametrize("bound, message", [
    ("x", "not a rational number: 'x'"),
    (None, "not a rational number: None"),
])
def test_partition_bounds_are_read_as_rationals(bound, message):
    with pytest.raises(MalformedNumber) as info:
        measurable_partition_check([(periodic_set([0], 1), bound)])
    assert str(info.value) == message


def test_all_is_the_import_block():
    # the function density shadows the submodule of that name; __all__ exports the function
    tree = ast.parse(Path(cantorperm.__file__).read_text())
    imported = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    names = cantorperm.__all__
    assert len(names) == len(set(names))
    assert not any(isinstance(getattr(cantorperm, name), ModuleType) for name in names)
    assert set(names) == {"__version__", *imported}


@given(st.integers(min_value=1, max_value=24), st.data())
@settings(max_examples=100)
def test_complement_density_property(modulus, data):
    residues = data.draw(
        st.sets(st.integers(min_value=0, max_value=modulus - 1), min_size=1)
    )
    ps = periodic_set(residues, modulus)
    if len(residues) < modulus:
        rest = periodic_set(set(range(modulus)) - residues, modulus)
        assert density(ps) + density(rest) == 1
        verdict = measurable_partition_check([ps, rest])
        assert verdict.measurable
    else:
        assert density(ps) == 1


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.data(),
)
@settings(max_examples=100)
def test_intersect_commutes_property(m1, m2, data):
    r1 = data.draw(st.sets(st.integers(min_value=0, max_value=m1 - 1), min_size=1))
    r2 = data.draw(st.sets(st.integers(min_value=0, max_value=m2 - 1), min_size=1))
    a, p = periodic_set(r1, m1), periodic_set(r2, m2)
    assert intersect(a, p) == intersect(p, a)


# --- differential oracles: exhaustive scans over one common period ---

def _scan_intersect(a, b):
    modulus = math.lcm(a.modulus, b.modulus)
    return periodic_set((n for n in range(modulus) if a.contains(n) and b.contains(n)), modulus)


def _scan_union(a, b):
    modulus = math.lcm(a.modulus, b.modulus)
    return periodic_set((n for n in range(modulus) if a.contains(n) or b.contains(n)), modulus)


def _scan_partition_failure(parts):
    """Message for the smallest ``n`` covered by no part or by several, or None."""
    for n in range(math.lcm(*(ps.modulus for ps in parts))):
        hits = sum(1 for ps in parts if ps.contains(n))
        if hits == 0:
            return f"{n} is covered by no part"
        if hits > 1:
            return f"{n} is covered by {hits} parts"
    return None


PERIODIC_SETS = st.integers(min_value=1, max_value=30).flatmap(
    lambda m: st.builds(
        periodic_set, st.sets(st.integers(min_value=0, max_value=m - 1)), st.just(m)
    )
)


@given(PERIODIC_SETS, PERIODIC_SETS)
@settings(max_examples=200)
def test_set_algebra_matches_period_scan(a, b):
    assert intersect(a, b) == _scan_intersect(a, b)
    assert union(a, b) == _scan_union(a, b)


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
@settings(max_examples=200)
def test_partition_check_matches_period_scan(modulus, k, data):
    owner = data.draw(
        st.lists(st.integers(min_value=0, max_value=k - 1), min_size=modulus, max_size=modulus)
    )
    # each part in its least modulus, so the parts' moduli differ
    parts = [
        normalize(periodic_set((n for n in range(modulus) if owner[n] == j), modulus))
        for j in range(k)
    ]
    change = data.draw(st.sampled_from(["none", "drop", "extra"]))
    if change == "drop":
        parts.pop(data.draw(st.integers(min_value=0, max_value=k - 1)))
    elif change == "extra":
        parts.append(data.draw(PERIODIC_SETS))
    assume(parts)
    failure = _scan_partition_failure(parts)
    if failure is None:
        verdict = measurable_partition_check(parts)
        assert verdict.parts == tuple(parts)
        assert verdict.measures == tuple(density(ps) for ps in parts)
    else:
        with pytest.raises(NotAPartition) as info:
            measurable_partition_check(parts)
        assert str(info.value) == failure


def _counter_sweep_partition_check(parts):
    """The partition criterion with disjointness and cover decided by counting
    the lifted residues at every ``n`` of the common period, as
    measurable_partition_check did before its disjointness test."""
    pairs = [
        (part, density(part)) if isinstance(part, PeriodicSet) else (part[0], Fraction(part[1]))
        for part in parts
    ]
    if not pairs:
        raise NotAPartition("no parts given")
    period = math.lcm(*(ps.modulus for ps, _ in pairs))
    hits = Counter(r for ps, _ in pairs for r in expand_to(ps, period).residues)
    for n in range(period):
        if hits[n] == 0:
            raise NotAPartition(f"{n} is covered by no part")
        if hits[n] > 1:
            raise NotAPartition(f"{n} is covered by {hits[n]} parts")
    for ps, bound in pairs:
        if bound < density(ps):
            raise CheckFalsified(f"bound {bound} for part {ps} is below its density {density(ps)}")
    total = sum((bound for _, bound in pairs), Fraction(0))
    if total > 1:
        raise BoundsExceedOne(f"bounds sum to {total} > 1, criterion inapplicable")
    return PartitionVerdict(tuple(ps for ps, _ in pairs), tuple(b for _, b in pairs))


@st.composite
def partition_parts(draw):
    """Parts of a drawn partition of ``[0, M)``, each in its least modulus and
    sometimes lifted to a multiple of it, with a part dropped (a gap), a
    drawn set added (an overlap) or a part rotated by one (sizes still
    summing to the period), and each part bare or paired with a bound at,
    above or below its density."""
    modulus = draw(st.integers(min_value=1, max_value=60))
    k = draw(st.integers(min_value=1, max_value=6))
    owner = draw(st.lists(st.integers(0, k - 1), min_size=modulus, max_size=modulus))
    parts = [
        normalize(periodic_set((n for n in range(modulus) if owner[n] == j), modulus))
        for j in range(k)
    ]
    parts = [expand_to(ps, ps.modulus * draw(st.sampled_from((1, 1, 2, 3)))) for ps in parts]
    change = draw(st.sampled_from(["none", "none", "drop", "extra", "rotate"]))
    i = draw(st.integers(min_value=0, max_value=len(parts) - 1))
    if change == "drop":
        parts.pop(i)
    elif change == "extra":
        parts.insert(i, draw(PERIODIC_SETS))
    elif change == "rotate":
        parts[i] = periodic_set(((r + 1) % parts[i].modulus for r in parts[i].residues),
                                parts[i].modulus)
    shifts = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 8))
    return [
        ps if draw(st.booleans()) else (ps, density(ps) + draw(st.just(0) | shifts))
        for ps in parts
    ]


@given(partition_parts())
@settings(max_examples=300, deadline=None)
def test_partition_check_matches_counter_sweep(parts):
    try:
        expected = _counter_sweep_partition_check(parts)
    except (NotAPartition, CheckFalsified, BoundsExceedOne) as exc:
        with pytest.raises(type(exc)) as info:
            measurable_partition_check(parts)
        assert str(info.value) == str(exc)
    else:
        assert measurable_partition_check(parts) == expected


@given(st.integers(1, 12), st.frozensets(st.integers(-15, 15), min_size=1))
def test_periodic_set_names_the_first_bad_residue_it_iterates(modulus, residues):
    bad = [r for r in residues if not 0 <= r < modulus]
    if bad:
        with pytest.raises(ValidationError) as info:
            PeriodicSet(modulus, residues)
        assert str(info.value) == f"residue {bad[0]} not in [0, {modulus})"
    else:
        assert PeriodicSet(modulus, residues).residues == residues


def _scan_normalize(ps):
    """The replaced normalize: every d in range(1, M + 1) that divides M."""
    for d in range(1, ps.modulus + 1):
        if ps.modulus % d != 0:
            continue
        reduced = frozenset(r % d for r in ps.residues)
        if len(reduced) * (ps.modulus // d) == len(ps.residues):
            candidate = periodic_set(reduced, d)
            if expand_to(candidate, ps.modulus).residues == ps.residues:
                return candidate
    return ps


# moduli with many divisors; a set drawn at a divisor d and widened to M has
# least period dividing d, and an extra residue usually breaks that period
MANY_DIVISORS = (1, 2, 12, 60, 360, 720, 2520)


@given(st.sampled_from(MANY_DIVISORS), st.data())
@settings(max_examples=300)
def test_normalize_matches_scan_of_every_candidate(modulus, data):
    d = data.draw(st.sampled_from([d for d in range(1, modulus + 1) if modulus % d == 0]))
    residues = data.draw(st.sets(st.integers(min_value=0, max_value=d - 1), max_size=d))
    ps = expand_to(periodic_set(residues, d), modulus)
    if data.draw(st.booleans()):
        ps = periodic_set(ps.residues | {data.draw(st.integers(0, modulus - 1))}, modulus)
    assert normalize(ps) == _scan_normalize(ps)


def test_normalize_empty_set():
    assert normalize(periodic_set([], 2520)) == _scan_normalize(periodic_set([], 2520))
    assert normalize(periodic_set([], 2520)) == periodic_set([], 1)
    assert normalize(periodic_set([], 10**30)) == periodic_set([], 1)


# moduli far past any divisor scan up to sqrt(M): the candidates come from the set's size
@pytest.mark.parametrize("ps, least", [
    (periodic_set([0, 5 * 10**29], 10**30), periodic_set([0], 5 * 10**29)),
    (periodic_set([7], 10**30), periodic_set([7], 10**30)),
    (periodic_set([1, 4, 10**18 + 1, 10**18 + 4], 2 * 10**18), periodic_set([1, 4], 10**18)),
    (periodic_set(range(0, 2**100, 2**98), 2**100), periodic_set([0], 2**98)),
    (periodic_set([3, 2**61 - 1 + 3], 2 * (2**61 - 1)), periodic_set([3], 2**61 - 1)),
], ids=["5e29", "one-residue", "1e18", "2^98", "mersenne"])
def test_normalize_of_a_small_set_under_a_huge_modulus(ps, least):
    assert normalize(ps) == least


def _generator_expand_to(ps, modulus):
    """The replaced expand_to: one generated residue per residue and multiple."""
    if modulus % ps.modulus != 0:
        raise ValidationError(f"{modulus} is not a multiple of {ps.modulus}")
    if modulus == ps.modulus:
        return ps
    residues = frozenset(
        r + k * ps.modulus for r in ps.residues for k in range(modulus // ps.modulus)
    )
    return PeriodicSet(modulus, residues)


@given(PERIODIC_SETS, st.integers(min_value=1, max_value=8), st.sampled_from((0, 0, 0, 1)))
@settings(max_examples=300)
def test_expand_to_matches_the_generator_lift(ps, multiple, off):
    # a multiple of the set's modulus, or one past it (a non-multiple unless the modulus is 1)
    modulus = ps.modulus * multiple + off
    try:
        expected = _generator_expand_to(ps, modulus)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            expand_to(ps, modulus)
        assert str(info.value) == str(exc)
    else:
        assert expand_to(ps, modulus) == expected


def _scan_covering(target_period, member_oracle, covering):
    """The replaced covering check: one oracle call per n in the common period."""
    period = math.lcm(target_period, *(cond.modulus for cond in covering))
    for n in range(period):
        if member_oracle(n % target_period):
            if not any(cond.contains(n) for cond in covering):
                raise NotACovering(f"member {n} escapes every covering class")
    return sum((Fraction(1, cond.modulus) for cond in covering), Fraction(0))


CONDITIONS = st.integers(min_value=1, max_value=12).flatmap(
    lambda m: st.builds(ResidueCondition, st.integers(min_value=0, max_value=m - 1), st.just(m))
)


@given(PERIODIC_SETS, st.lists(CONDITIONS, max_size=4))
@settings(max_examples=300)
def test_covering_bound_matches_period_scan(target, covering):
    calls = []

    def oracle(n):
        calls.append(n)
        return target.contains(n)

    try:
        expected = _scan_covering(target.modulus, target.contains, covering)
    except NotACovering as exc:
        with pytest.raises(NotACovering) as info:
            covering_bound(target.modulus, oracle, covering)
        assert str(info.value) == str(exc)
    else:
        got = covering_bound(target.modulus, oracle, covering)
        assert got.bound == expected
        assert got.covering == tuple(covering)
    assert sorted(calls) == list(range(target.modulus))


@pytest.mark.parametrize("func, args, error, message", [
    (covering_bound, (2.5, bool, [ResidueCondition(0, 1)]), MalformedNumber,
     "target period 2.5 is not an integer"),
    (expand_to, (periodic_set([0], 2), 4.5), MalformedNumber, "modulus 4.5 is not an integer"),
    (expand_to, (periodic_set([0], 2), None), MalformedNumber, "modulus None is not an integer"),
])
def test_invalid_arguments_raise_their_class_and_message(func, args, error, message):
    with pytest.raises(error) as info:
        func(*args)
    assert str(info.value) == message


def test_integral_periods_and_moduli_read_as_ints():
    covering = [ResidueCondition(0, 2)]
    expected = covering_bound(6, lambda r: r % 2 == 0, covering)
    for period in (6.0, Fraction(6), "6"):
        assert covering_bound(period, lambda r: r % 2 == 0, covering) == expected
    for modulus in (4.0, Fraction(4), "4"):
        wide = expand_to(periodic_set([0], 2), modulus)
        assert wide == periodic_set([0, 2], 4) and type(wide.modulus) is int


@pytest.mark.parametrize("func, args, message", [
    (covering_bound, (0, bool, [ResidueCondition(0, 1)]), "target period 0 < 1"),
    (parse_periodic_set, ("a(3)",), "cannot parse periodic set 'a(3)'"),
])
def test_invalid_arguments_raise_validation_error_and_message(func, args, message):
    with pytest.raises(ValidationError) as info:
        func(*args)
    assert type(info.value) is ValidationError
    assert str(info.value) == message
