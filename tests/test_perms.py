"""Cyclic permutations, discrete logs, residue combination."""
import copy
import dataclasses
import itertools
import math
import pickle
import random
import re
import sys
import threading
from collections.abc import Sequence
from fractions import Fraction
from operator import getitem

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorperm import (
    DigitExpansion,
    PermutationVector,
    ResidueCondition,
    apply_map,
    combine_crt,
    discrete_log,
    from_cycle,
    make_base,
    make_cyclic,
    make_unchecked,
    parse_permutations,
    prefix_residue,
    residue_table,
    shift,
    shift_vector,
)
from cantorperm.errors import (
    CantorPermError,
    DigitOutOfRange,
    LengthMismatch,
    MalformedNumber,
    ModuliNotCoprime,
    NotBijection,
    NotFullCycle,
    ValidationError,
)
import cantorperm.perms
from cantorperm.perms import CyclicPermutation, _residue_class, _weight_sums, _weight_tables
from test_dynamics import identity, outcome


def _power(perm, n, b):
    """``b`` under ``perm`` applied ``n`` times, read from ``image`` alone."""
    for _ in range(n):
        b = perm.image[b]
    return b


def test_shift_basic():
    p = shift(5)
    assert p.image == (1, 2, 3, 4, 0)
    assert p.full_cycle
    assert str(p) == "5: 1,2,3,4,0"


def test_identity_not_full_cycle():
    p = identity(3)
    assert p.image == (0, 1, 2) and p.cycles == ((0,), (1,), (2,))
    assert not p.full_cycle
    with pytest.raises(NotFullCycle):
        make_cyclic(3, (0, 1, 2))


def test_make_cyclic_rejects_non_bijection():
    with pytest.raises(NotBijection):
        make_unchecked(3, (0, 0, 2))
    with pytest.raises(NotBijection):
        make_unchecked(3, (0, 1))


def test_from_cycle():
    # cycle (0 2 1) means 0->2, 2->1, 1->0
    p = from_cycle(3, (0, 2, 1))
    assert p.image == (2, 0, 1)
    assert p.full_cycle


@given(st.permutations(range(7)), st.integers(min_value=0, max_value=30))
@example(from_cycle(7, (0, 3, 1, 5, 2, 6, 4)).image, 15)  # one full cycle, past two turns
def test_cycles_step_along_the_image(image, n):
    # orbits read cycle[(pos + n) % len(cycle)] for the n-th power of any bijection
    p = make_unchecked(7, image)
    for b in range(7):
        cycle = p.cycles[p.cycle_id[b]]
        assert cycle[p.cycle_pos[b]] == b
        assert cycle[(p.cycle_pos[b] + n) % len(cycle)] == _power(p, n, b)


def test_discrete_log_inverts_power():
    p = from_cycle(5, (0, 2, 4, 1, 3))
    for r in range(5):
        for k in range(5):
            b = _power(p, k, r)
            assert discrete_log(p, r, b) == k


def test_discrete_log_requires_full_cycle():
    with pytest.raises(NotFullCycle):
        discrete_log(identity(3), 0, 0)


def test_residue_condition():
    c = ResidueCondition(5, 6)
    assert c.contains(11)
    assert not c.contains(12)
    assert str(c) == "5+(6)"


def test_combine_crt_known():
    got = combine_crt(
        [ResidueCondition(1, 3), ResidueCondition(2, 4), ResidueCondition(3, 5)]
    )
    assert (got.residue, got.modulus) == (58, 60)
    got = combine_crt([ResidueCondition(1, 2), ResidueCondition(2, 3)])
    assert (got.residue, got.modulus) == (5, 6)


def test_combine_crt_empty():
    got = combine_crt([])
    assert (got.residue, got.modulus) == (0, 1)


def test_combine_crt_brute_force():
    # the combined class must contain exactly the n satisfying every condition
    conds = [ResidueCondition(2, 3), ResidueCondition(1, 4), ResidueCondition(4, 5)]
    got = combine_crt(conds)
    assert got.modulus == 60
    for n in range(120):
        expect = all(c.contains(n) for c in conds)
        assert got.contains(n) == expect


def test_combine_crt_rejects_shared_factor():
    with pytest.raises(ModuliNotCoprime):
        combine_crt([ResidueCondition(0, 4), ResidueCondition(1, 6)])


def test_prefix_residue_known():
    # orbit of 0 under shifts lands in the top interval exactly when
    # n is congruent to 29 mod 30
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    start = (0, 0, 0)
    target = (1, 2, 4)
    got = prefix_residue(pv, start, target)
    assert (got.residue, got.modulus) == (29, 30)


def test_prefix_residue_brute_force():
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    start = (0, 1, 3)
    for target in [(0, 0, 0), (1, 2, 4), (0, 2, 1)]:
        got = prefix_residue(pv, start, target)
        assert got.modulus == 30
        for n in range(60):
            digits = tuple(
                _power(pv.perms[j], n, start[j]) for j in range(3)
            )
            assert got.contains(n) == (digits == target)


def test_prefix_residue_complete_system():
    # distinct targets give distinct residues filling Z_30
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    start = (1, 0, 2)
    residues = set()
    for b0 in range(2):
        for b1 in range(3):
            for b2 in range(5):
                residues.add(prefix_residue(pv, start, (b0, b1, b2)).residue)
    assert residues == set(range(30))


def test_prefix_residue_empty_prefix():
    pv = shift_vector(make_base((2, 3, 5)))
    assert prefix_residue(pv, (), ()) == ResidueCondition(0, 1)
    assert str(prefix_residue(pv, [], [])) == "0+(1)"


def _vector_with_identity_at(level):
    moduli = (3, 4, 5)
    perms = [shift(m) for m in moduli]
    perms[level] = identity(moduli[level])
    return PermutationVector(tuple(perms), make_base(moduli))


@pytest.mark.parametrize(
    "level, src, dst, error, message",
    [
        # a level that is not a full cycle
        (1, (0, 0), (0, 0), NotFullCycle, "discrete log needs a single full-length cycle"),
        (0, (0,), (1,), NotFullCycle, "discrete log needs a single full-length cycle"),
        # digits out of range, on either side, below or above
        (2, (-1, 0), (0, 0), DigitOutOfRange, "digit -1 not in [0, 3)"),
        (2, (0, 0), (0, -4), DigitOutOfRange, "digit -4 not in [0, 4)"),
        (2, (3, 0), (0, 0), DigitOutOfRange, "digit 3 not in [0, 3)"),
        (2, (0, 0), (0, 4), DigitOutOfRange, "digit 4 not in [0, 4)"),
        (2, (0, 10**30), (0, 0), DigitOutOfRange, f"digit {10**30} not in [0, 4)"),
        # the first faulty level wins, and within a level the source digit
        (1, (0, 0), (3, 9), DigitOutOfRange, "digit 3 not in [0, 3)"),
        (1, (0, 0, 0), (0, 0, -1), NotFullCycle, "discrete log needs a single full-length cycle"),
        (2, (0, 0, 0), (-1, 5, 0), DigitOutOfRange, "digit -1 not in [0, 3)"),
        (2, (0, 7, 0), (0, 5, 0), DigitOutOfRange, "digit 7 not in [0, 4)"),
        (2, (0, 1, 0), (0, 2, 0), NotFullCycle, "discrete log needs a single full-length cycle"),
        (2, (0, 1.5), (0, -1), MalformedNumber, "digit 1.5 is not an integer"),
        (2, (0, 0), ("x", 9), MalformedNumber, "digit 'x' is not an integer"),
    ],
)
def test_prefix_residue_error_paths(level, src, dst, error, message):
    pv = _vector_with_identity_at(level)
    for _ in range(2):  # the same fault with an empty and with a filled cache
        with pytest.raises(error) as exc:
            prefix_residue(pv, src, dst)
        assert str(exc.value) == message
        assert exc.value.__context__ is None


@pytest.mark.parametrize("length", [0, 1, 2, 7, 10_000])
def test_the_weight_sum_kernel_adds_the_lookups_of_every_level(length):
    rng = random.Random(length)
    moduli = [rng.randrange(1, 8) for _ in range(length)]
    tables = tuple({b: rng.randrange(-10**30, 10**30) for b in range(m)} for m in moduli)
    digits = [rng.randrange(m) for m in moduli]
    kernel = _weight_sums[length]
    expected = sum(map(getitem, tables, digits))
    assert kernel(tables, digits) == kernel(tables, tuple(digits)) == expected
    assert _weight_sums[length] is kernel


def _crt_prefix_residue(pv, from_digits, to_digits):
    """One discrete log per level, combined by the Chinese remainder theorem."""
    return combine_crt(
        ResidueCondition(discrete_log(perm, r, s), perm.modulus)
        for perm, r, s in zip(pv.perms, from_digits, to_digits)
    )


class _Prefix(tuple):
    pass


class _IterOnly(Sequence):
    """Digits read by iteration; every index raises IndexError."""

    def __init__(self, digits):
        self._digits = tuple(digits)

    def __len__(self):
        return len(self._digits)

    def __iter__(self):
        return iter(self._digits)

    def __getitem__(self, i):
        raise IndexError(i)


def _as_range(digits):
    """The digits as an equal ``range``, or None where no range holds them."""
    first = digits[0] if digits else 0
    step = digits[1] - first if len(digits) > 1 else 1
    if step and tuple(r := range(first, first + step * len(digits), step)) == digits:
        return r
    return None


# each container of digits, and whether a call with a nonempty prefix falls back to discrete logs
DIGIT_CONTAINERS = [
    (tuple, False),
    (list, False),
    (_as_range, False),
    (lambda digits: "".join(map(str, digits)), True),  # "1" is no key: read by the integer rule
    (_Prefix, False),
    (_IterOnly, True),
]


@pytest.mark.parametrize("moduli", [(2, 3, 5), (3, 4, 5)])
@pytest.mark.parametrize("container, falls_back", DIGIT_CONTAINERS,
                         ids=["tuple", "list", "range", "str", "tuple-subclass", "iter-only"])
def test_prefix_residue_matches_the_crt_oracle_on_every_prefix(
    moduli, container, falls_back, monkeypatch
):
    base = make_base(moduli)
    pv = PermutationVector(tuple(from_cycle(m, range(m - 1, -1, -1)) for m in moduli), base)
    fallbacks = []

    def counted_combine_crt(conditions):
        fallbacks.append(1)
        return combine_crt(conditions)

    monkeypatch.setattr(cantorperm.perms, "combine_crt", counted_combine_crt)
    calls = mismatches = 0
    for length in range(base.depth + 1):
        prefixes = list(itertools.product(*map(range, moduli[:length])))
        for src, dst in itertools.product(prefixes, prefixes):
            src_in, dst_in = container(src), container(dst)
            if src_in is None or dst_in is None:
                continue
            expected = _crt_prefix_residue(pv, src, dst)
            mismatches += prefix_residue(pv, src_in, dst_in) != expected
            calls += length > 0
    assert mismatches == 0
    assert len(fallbacks) == (calls if falls_back else 0)
    assert calls > 0


@pytest.mark.parametrize(
    "level, seed",
    [
        (1, (0, 0)),
        (0, (0,)),
        (1, (0, 0, 0)),
        (2, (-1, 0)),
        (2, (3, 0)),
        (2, (0, 10**30)),
        (2, (0, 7, 0)),
        (0, (9, 0, 0, 0)),
    ],
)
def test_residue_table_raises_what_prefix_residue_raises(level, seed):
    pv = _vector_with_identity_at(level)
    with pytest.raises(CantorPermError) as expected:
        prefix_residue(pv, seed, seed)
    for _ in range(2):  # with an empty and with a filled cache
        with pytest.raises(type(expected.value)) as exc:
            residue_table(pv, seed)
        assert str(exc.value) == str(expected.value)


@pytest.mark.parametrize("digit", [1.0, True, Fraction(1), "1"], ids=repr)
def test_prefix_residue_reads_a_digit_equal_to_an_int_as_that_int(digit):
    pv, ref = shift_vector(make_base((3, 4, 5))), shift_vector(make_base((3, 4, 5)))
    for _ in range(2):  # with an empty and with a filled cache
        assert prefix_residue(pv, (0, digit), (2, 3)) == prefix_residue(ref, (0, 1), (2, 3))
        assert prefix_residue(pv, (2, 3), (digit, 0)) == prefix_residue(ref, (2, 3), (1, 0))
        assert residue_table(pv, (0, digit)) == residue_table(ref, (0, 1))


# -1 and m raise DigitOutOfRange: test_prefix_residue_error_paths pins those messages
@pytest.mark.parametrize("digit", [1.5, "x", None, [1]], ids=repr)
def test_prefix_residue_rejects_a_non_integer_digit(digit):
    for src, dst in [((0, digit), (2, 3)), ((2, 3), (0, digit))]:
        pv = shift_vector(make_base((3, 4, 5)))
        for _ in range(2):  # with an empty and with a filled cache
            with pytest.raises(MalformedNumber, match=f"digit {re.escape(repr(digit))} is not"):
                prefix_residue(pv, src, dst)


@pytest.mark.parametrize("digit", [1.5, "x", None, [1]], ids=repr)
def test_residue_table_rejects_a_non_integer_digit(digit):
    pv = shift_vector(make_base((3, 4, 5)))
    for _ in range(2):  # with an empty and with a filled cache
        with pytest.raises(MalformedNumber, match=f"digit {re.escape(repr(digit))} is not"):
            residue_table(pv, (0, digit))


def test_trusted_and_validated_residue_classes_agree():
    for residue, modulus in [(0, 1), (2, 3), (7, 36), (10**20, 10**21)]:
        trusted, checked = _residue_class(residue, modulus), ResidueCondition(residue, modulus)
        assert type(trusted) is ResidueCondition
        assert trusted == checked and hash(trusted) == hash(checked)
        assert str(trusted) == str(checked) and repr(trusted) == repr(checked)
        assert {trusted: 1}[checked] == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            trusted.residue = 0


@pytest.mark.parametrize(
    "residue, modulus, message",
    [(-1, 3, "residue -1 not in [0, 3)"), (3, 3, "residue 3 not in [0, 3)"),
     (0, 0, "modulus 0 < 1")],
)
def test_public_residue_condition_stays_validated(residue, modulus, message):
    with pytest.raises(ValidationError) as exc:
        ResidueCondition(residue, modulus)
    assert str(exc.value) == message


def test_prefix_residue_length_checks_come_first():
    pv = _vector_with_identity_at(0)
    with pytest.raises(LengthMismatch, match="prefix lengths differ: 1 vs 2"):
        prefix_residue(pv, (0,), (0, 9))
    with pytest.raises(LengthMismatch, match="prefix length 4 exceeds vector depth 3"):
        prefix_residue(pv, (9, 0, 0, 0), (0, 0, 0, 0))


def test_vectors_equal_with_and_without_a_filled_cache():
    base = make_base((4, 9, 5))
    filled, fresh = shift_vector(base), shift_vector(base)
    for length in range(base.depth + 1):
        prefix_residue(filled, (0,) * length, (1,) * length)
    assert filled == fresh and hash(filled) == hash(fresh)
    assert {filled: 1}[fresh] == 1
    assert repr(filled) == repr(fresh)
    copy = dataclasses.replace(filled)
    assert copy == filled and copy._weights == {}
    assert prefix_residue(copy, (0, 0), (3, 8)) == prefix_residue(filled, (0, 0), (3, 8))


def test_a_vector_with_a_filled_cache_survives_pickle_and_copy():
    moduli = (4, 9, 5)
    base = make_base(moduli)
    pv = PermutationVector(tuple(from_cycle(m, range(m - 1, -1, -1)) for m in moduli), base)
    prefix_residue(pv, (1,), (3,))
    prefix_residue(pv, (1, 2, 3), (0, 0, 0))
    assert sorted(pv._weights) == [1, 3]
    copies = [pickle.loads(pickle.dumps(pv)), copy.copy(pv), copy.deepcopy(pv)]
    assert all(other == pv and other._weights == pv._weights for other in copies)
    fresh = dataclasses.replace(pv)
    for length in range(base.depth + 1):
        seed = (2, 7, 4)[:length]
        for prefix in itertools.product(*map(range, moduli[:length])):
            expected = prefix_residue(fresh, seed, prefix)
            assert [prefix_residue(other, seed, prefix) for other in copies] == [expected] * 3


def test_threads_sharing_a_vector_get_the_classes_of_a_lone_caller(monkeypatch):
    moduli = (4, 9, 5, 7)
    cycles = [from_cycle(m, range(m - 1, -1, -1)) for m in moduli]
    base = make_base(moduli)
    # seeds of every length, several per length: threads replace each other's stored seed
    seeds = [(1, 2, 3, 4), (0, 8, 4, 6), (3, 0, 0, 1)]
    cases = [
        (seed[:length], prefix)
        for length in range(base.depth + 1)
        for i, prefix in enumerate(itertools.islice(
            itertools.product(*(range(m) for m in moduli[:length])), 300
        ))
        for seed in [seeds[i % len(seeds)]]
    ]
    lone = PermutationVector(tuple(cycles), base)
    expected = [_two_sum_prefix_residue(lone, seed, prefix) for seed, prefix in cases]
    shared = PermutationVector(tuple(cycles), base)
    results = {}
    # no sum kernel compiled yet: the workers' first calls compile them under contention
    kernels = type(_weight_sums)()
    monkeypatch.setattr(cantorperm.perms, "_weight_sums", kernels)
    start = threading.Barrier(6, timeout=60)

    def work(worker):
        # each worker starts at another case, so different seeds meet on one entry, and
        # all start at once, two of them at each of lengths 3 and 4
        turn = cases[worker * 211 % len(cases):] + cases[:worker * 211 % len(cases)]
        start.wait()
        results[worker] = dict(
            zip(turn, (prefix_residue(shared, seed, prefix) for seed, prefix in turn))
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for w in range(6):
        assert [results[w][case] for case in cases] == expected
    for length, (tables, modulus, seed, offset) in shared._weights.items():
        assert (tables, modulus) == _weight_tables(lone, length)[:2]
        assert seed in {s[:length] for s in seeds}
        assert offset == sum(map(getitem, tables, seed))
    assert sorted(kernels) == list(range(base.depth + 1))


def test_parse_permutations_round_trip():
    b = make_base((2, 3, 5))
    text = "2: 1,0\n# comment line\n3: 1,2,0\n\n5: 4,0,1,2,3\n"
    pv = parse_permutations(text, b)
    assert pv.perms[0].image == (1, 0)
    assert pv.perms[2].image == (4, 0, 1, 2, 3)
    assert "\n".join(str(p) for p in pv.perms) == "2: 1,0\n3: 1,2,0\n5: 4,0,1,2,3"


def test_parse_permutations_wrong_modulus():
    b = make_base((2, 3, 5))
    with pytest.raises(ValidationError):
        parse_permutations("3: 1,2,0\n2: 1,0\n5: 1,2,3,4,0", b)


@given(st.permutations(list(range(6))))
def test_full_cycle_detection_matches_order(image):
    p = make_unchecked(6, tuple(image))
    # a permutation is one cycle exactly when some element has orbit size 6
    seen = {0}
    cur = image[0]
    while cur not in seen:
        seen.add(cur)
        cur = image[cur]
    assert p.full_cycle == (len(seen) == 6)


# --- differential oracle: the pairwise CRT fold over per-level conditions ---

def _crt_pair(r1, m1, r2, m2):
    # m1, m2 coprime: unique solution mod m1*m2
    t = ((r2 - r1) * pow(m1, -1, m2)) % m2
    return r1 + m1 * t, m1 * m2


def _fold_crt(conditions):
    residue, modulus = 0, 1
    for cond in conditions:
        assert math.gcd(modulus, cond.modulus) == 1
        residue, modulus = _crt_pair(residue, modulus, cond.residue, cond.modulus)
    return ResidueCondition(residue, modulus)


def _fold_prefix_residue(pv, from_digits, to_digits):
    return _fold_crt(
        ResidueCondition(discrete_log(perm, r, s), perm.modulus)
        for perm, r, s in zip(pv.perms, from_digits, to_digits)
    )


# one power of each of up to four distinct primes, in any order: prime powers
# 4, 8, 9, 25, 27 and 49 exercise idempotents whose moduli are not prime
PRIME_POWERS = {2: (2, 4, 8), 3: (3, 9, 27), 5: (5, 25), 7: (7, 49), 11: (11,), 13: (13,)}
COPRIME_MODULI = (
    st.lists(st.sampled_from(sorted(PRIME_POWERS)), min_size=0, max_size=4, unique=True)
    .flatmap(lambda ps: st.tuples(*(st.sampled_from(PRIME_POWERS[p]) for p in ps)))
)


def _full_cycle(m):
    return st.permutations(range(m)).map(lambda cycle: from_cycle(m, cycle))


@st.composite
def _vectors_and_prefixes(draw):
    moduli = draw(COPRIME_MODULI.filter(len))
    base = make_base(moduli)
    pv = PermutationVector(tuple(draw(_full_cycle(m)) for m in moduli), base)
    seed = tuple(draw(st.integers(0, m - 1)) for m in moduli)
    target = tuple(draw(st.integers(0, m - 1)) for m in moduli)
    order = draw(st.permutations(range(len(moduli) + 1)))
    return pv, seed, target, order


@given(_vectors_and_prefixes())
@settings(max_examples=150, deadline=None)
def test_prefix_residue_matches_pairwise_fold_and_period_scan(case):
    # one vector serves every prefix length, in random order, so each length
    # is answered both right after its weight tables are built and after
    # other lengths have filled the cache
    pv, seed, target, order = case
    tables = {}
    for length in order + order:
        src, dst = seed[:length], target[:length]
        got = prefix_residue(pv, src, dst)
        assert got == _fold_prefix_residue(pv, src, dst)
        assert got.modulus == pv.base.products[length]
        # built once per prefix length, never rebuilt
        assert tables.setdefault(length, pv._weights[length][0]) is pv._weights[length][0]
        if got.modulus <= 2000:
            # every n of one period, the digits stepped by the images n times
            hits, digits = [], src
            for n in range(got.modulus):
                if digits == dst:
                    hits.append(n)
                digits = tuple(p.image[d] for p, d in zip(pv.perms, digits))
            assert hits == [got.residue]


@given(COPRIME_MODULI, st.data())
@settings(max_examples=150)
def test_combine_crt_matches_pairwise_fold_on_a_generator(moduli, data):
    conds = [ResidueCondition(data.draw(st.integers(0, m - 1)), m) for m in moduli]
    got = combine_crt(c for c in conds)
    assert got == _fold_crt(conds)
    if got.modulus <= 2000:
        hits = [n for n in range(got.modulus) if all(c.contains(n) for c in conds)]
        assert hits == [got.residue]


def test_combine_crt_on_short_generators():
    assert combine_crt(c for c in ()) == ResidueCondition(0, 1)
    assert combine_crt(c for c in [ResidueCondition(20, 27)]) == ResidueCondition(20, 27)
    assert combine_crt(iter([ResidueCondition(3, 4), ResidueCondition(7, 9)])) == (
        ResidueCondition(7, 36)
    )


@pytest.mark.parametrize(
    "moduli, message",
    [
        ((4, 6), "modulus 6 not coprime to accumulated 4"),
        ((3, 5, 7, 10), "modulus 10 not coprime to accumulated 105"),
        ((9, 2, 27, 4), "modulus 27 not coprime to accumulated 18"),
    ],
)
def test_combine_crt_shared_factor_message(moduli, message):
    with pytest.raises(ModuliNotCoprime) as exc:
        combine_crt(ResidueCondition(0, m) for m in moduli)
    assert str(exc.value) == message


@given(_vectors_and_prefixes())
@settings(max_examples=150, deadline=None)
def test_residue_table_matches_prefix_residue_per_class(case):
    pv, seed, _, order = case
    base = pv.base
    for length in order:
        table = residue_table(pv, seed[:length])
        assert sorted(table) == list(range(base.products[length]))
        if base.products[length] <= 3000:
            assert table == [
                prefix_residue(pv, seed[:length], base.digits_of(length, j)).residue
                for j in range(base.products[length])
            ]


# --- every small vector against repeated apply_map over one period ---

def _period_oracle(pv, seed):
    """Entry ``i`` is the least ``n < B_L`` whose ``n``-fold :func:`apply_map`
    takes the seed prefix into level-``L`` interval ``i``, ``L = len(seed)``;
    ``None`` where no ``n < B_L`` does."""
    base, length = pv.base, len(seed)
    table = [None] * base.products[length]
    x = DigitExpansion(seed, base)
    for n in range(base.products[length]):
        i = base.index_of(x.digits)
        if table[i] is None:
            table[i] = n
        x = apply_map(pv, x)
    return table


# every full cycle over (2,3,5): 1·2·24 = 48 vectors with 1+2+6+30 seeds each;
# every bijection over (3,4): 6·24 = 144 vectors with 1+3+12 seeds each
@pytest.mark.parametrize("moduli, full_cycles_only, tables", [
    ((2, 3, 5), True, 1_872), ((3, 4), False, 2_304),
])
def test_residue_classes_match_repeated_apply_map_on_every_small_vector(
    moduli, full_cycles_only, tables
):
    base = make_base(moduli)
    levels = [[make_unchecked(m, image) for image in itertools.permutations(range(m))]
              for m in moduli]
    not_full = (NotFullCycle, "discrete log needs a single full-length cycle")
    checked, mismatches = 0, []
    for perms in itertools.product(*levels):
        broken = next((j for j, perm in enumerate(perms) if not perm.full_cycle), len(perms))
        if full_cycles_only and broken < len(perms):
            continue
        pv = PermutationVector(perms, base)
        for length in range(base.depth + 1):
            period = base.products[length]
            for seed in itertools.product(*map(range, moduli[:length])):
                oracle = _period_oracle(pv, seed)
                # one period visits every interval exactly when the levels below are full cycles
                covered = None not in oracle
                if covered:
                    table, classes = oracle, [ResidueCondition(n, period) for n in oracle]
                else:
                    table, classes = not_full, [not_full] * period
                if (covered == (length > broken)
                        or outcome(residue_table, pv, seed) != table
                        or classes != [outcome(prefix_residue, pv, seed, base.digits_of(length, i))
                                       for i in range(period)]):
                    mismatches.append((perms, seed))
                checked += 1
    assert (checked, mismatches[:3]) == (tables, [])


# --- the seed cache: a call sequence on one vector against the two-sum oracle ---

def _two_sum_prefix_residue(pv, from_digits, to_digits):
    """The uncached two sums of lookups, over weight tables built afresh, once
    every level's digits pass discrete_log (first level first), read as ints."""
    length = len(from_digits)
    if length != len(to_digits):
        raise LengthMismatch(f"prefix lengths differ: {length} vs {len(to_digits)}")
    tables, modulus = _weight_tables(dataclasses.replace(pv), length)[:2]
    for perm, r, s in zip(pv.perms, from_digits, to_digits):
        discrete_log(perm, r, s)
    ints_from, ints_to = [int(d) for d in from_digits], [int(d) for d in to_digits]
    residue = sum(map(getitem, tables, ints_to)) - sum(map(getitem, tables, ints_from))
    return ResidueCondition(residue % modulus, modulus)


@st.composite
def _vectors_maybe_broken(draw):
    """A vector of full cycles over coprime moduli, one level sometimes the identity."""
    moduli = draw(COPRIME_MODULI.filter(len))
    perms = [draw(_full_cycle(m)) for m in moduli]
    broken = draw(st.none() | st.integers(0, len(moduli) - 1))
    if broken is not None:
        perms[broken] = identity(moduli[broken])
    return PermutationVector(tuple(perms), make_base(moduli))


# an int digit in another form (equal to it, or the text spelling it), and values that are no digit
_EQUAL_FORMS = (float, Fraction, str, lambda d: True if d == 1 else d)
_BAD_DIGITS = (-1, 1.5, None, "x")


@given(_vectors_maybe_broken(), st.data())
@settings(max_examples=200, deadline=None)
def test_prefix_residue_call_sequences_match_the_two_sum_oracle(pv, data):
    moduli = pv.base.moduli

    def prefix(length):
        return data.draw(st.tuples(*(st.integers(0, m - 1) for m in moduli[:length])))

    # two seeds per length, so that calls alternate between equal-length seeds
    seeds = {length: [prefix(length), prefix(length)] for length in range(pv.depth + 1)}
    lists = []  # list seeds, mutated in place between calls
    for _ in range(data.draw(st.integers(1, 16))):
        length = data.draw(st.integers(0, pv.depth))
        seed, target = data.draw(st.sampled_from(seeds[length])), prefix(length)
        action = data.draw(st.sampled_from(
            ["same", "copy", "list", "mutate", "equal", "bad seed", "bad target", "table"]))
        if action == "copy":
            seed = tuple(list(seed))
        elif action == "list":
            seed = list(seed)
            lists.append(seed)
        elif action == "mutate" and lists:
            seed = data.draw(st.sampled_from(lists))
            if seed:
                j = data.draw(st.integers(0, len(seed) - 1))
                seed[j] = (seed[j] + 1) % moduli[j]
            target = prefix(len(seed))
        elif action in ("equal", "bad seed", "bad target") and length:
            j = data.draw(st.integers(0, length - 1))
            edited = list(seed if action != "bad target" else target)
            if action == "equal":
                edited[j] = data.draw(st.sampled_from(_EQUAL_FORMS))(edited[j])
            else:
                edited[j] = data.draw(st.sampled_from(_BAD_DIGITS + (moduli[j],)))
            if action == "bad target":
                target = tuple(edited)
            else:
                seed = tuple(edited)
        if action == "table" and pv.base.products[length] <= 500:
            seed = data.draw(st.sampled_from([seed, list(seed)]))
            assert outcome(residue_table, pv, seed) == outcome(_residue_table_oracle, pv, seed)
        expected = outcome(_two_sum_prefix_residue, pv, seed, target)
        assert outcome(prefix_residue, pv, seed, target) == expected


def _residue_table_oracle(pv, seed):
    return [
        _two_sum_prefix_residue(pv, seed, pv.base.digits_of(len(seed), j)).residue
        for j in range(pv.base.products[len(seed)])
    ]


class _CountedDigit(int):
    """An int digit that counts how often it is hashed, as each dict lookup does."""

    hashes = 0

    def __hash__(self):
        _CountedDigit.hashes += 1
        return int.__hash__(self)


def test_a_seed_equal_to_the_stored_one_is_not_looked_up_again():
    pv = shift_vector(make_base((4, 9, 5)))
    seed = tuple(map(_CountedDigit, (3, 8, 1)))
    first = prefix_residue(pv, seed, (0, 0, 0))
    _CountedDigit.hashes = 0
    for target in itertools.product(range(4), range(9), range(5)):
        got = prefix_residue(pv, seed, target)
        assert got == _two_sum_prefix_residue(pv, (3, 8, 1), target)
        assert prefix_residue(pv, tuple(list(seed)), target) == got
    assert _CountedDigit.hashes == 0
    assert first == _two_sum_prefix_residue(pv, (3, 8, 1), (0, 0, 0))


@pytest.mark.parametrize("seed", [
    [3, 8, 1], _Prefix((3, 8, 1)), (3, 8, None), (3, 9, 1), (3, 8, 1.5),
], ids=repr)
def test_only_an_exact_tuple_of_digits_is_stored(seed):
    pv = shift_vector(make_base((4, 9, 5)))
    stored = (2, 0, 4)
    prefix_residue(pv, stored, (0, 0, 0))
    offset = pv._weights[3][3]
    assert pv._weights[3][2] is stored
    assert offset == sum(table[d] for table, d in zip(pv._weights[3][0], stored))
    outcome(prefix_residue, pv, seed, (1, 1, 1))
    assert pv._weights[3][2:] == (stored, offset)


PV_345 = shift_vector(make_base((3, 4, 5)))
# every reader of digits, with its digit d in a slot of modulus m
_DIGIT_READERS = [
    (discrete_log, lambda d: (shift(5), d, 0), 5),
    (discrete_log, lambda d: (shift(5), 0, d), 5),
    (prefix_residue, lambda d: (PV_345, (0, d), (2, 3)), 4),
    (prefix_residue, lambda d: (PV_345, (2, 3), (0, d)), 4),
    (residue_table, lambda d: (PV_345, (0, d)), 4),
]


@pytest.mark.parametrize("func, args, error, message", [
    (from_cycle, (3, (0, 1)), NotFullCycle, "cycle lists 2 digits, need all 3"),
    (from_cycle, (3, [0, 1.5, 2]), MalformedNumber, "cycle entry 1.5 is not an integer"),
    (make_unchecked, (2, [None, 0]), MalformedNumber, "image entry None is not an integer"),
    (make_unchecked, (3, [1, 2.5, 0]), MalformedNumber, "image entry 2.5 is not an integer"),
    (make_unchecked, (2.5, [1, 0]), MalformedNumber, "modulus 2.5 is not an integer"),
    (make_cyclic, (None, [1, 0]), MalformedNumber, "modulus None is not an integer"),
    (from_cycle, (2.5, [0, 1]), MalformedNumber, "modulus 2.5 is not an integer"),
    (shift, ("x",), MalformedNumber, "modulus 'x' is not an integer"),
    (make_unchecked, (None, [1, 0]), MalformedNumber, "modulus None is not an integer"),
    *[(func, args(bad), MalformedNumber, f"digit {bad!r} is not an integer")
      for func, args, _ in _DIGIT_READERS for bad in (1.5, None, [1])],
    *[(func, args(bad), DigitOutOfRange, f"digit {bad} not in [0, {m})")
      for func, args, m in _DIGIT_READERS for bad in (-1, m)],
    (ResidueCondition, (1.5, 4), MalformedNumber, "residue 1.5 is not an integer"),
    (ResidueCondition, (1, None), MalformedNumber, "modulus None is not an integer"),
    (from_cycle, (3, (0, 5, 1)), DigitOutOfRange, "cycle entry 5 not in [0, 3)"),
    # a cycle lists each digit once
    (from_cycle, (3, (0, 1, 1)), NotBijection, "cycle entry 1 appears more than once"),
    (from_cycle, (4, (2, 0, 2, 2)), NotBijection, "cycle entry 2 appears more than once"),
    (parse_permutations, ("2: 1,0\n3: 1,x,0", make_base((2, 3))), ValidationError,
     "permutation line 2: cannot parse '3: 1,x,0'"),
    (parse_permutations, ("2 1,0", make_base((2,))), ValidationError,
     "permutation line 1: cannot parse '2 1,0'"),
    # images are bijections of Z_m; make_cyclic also asks for one m-cycle
    (make_unchecked, (2, [1, 0, 2]), NotBijection, "image has length 3, expected 2"),
    (make_unchecked, (2, [1]), NotBijection, "image has length 1, expected 2"),
    (make_unchecked, (3, [0, 0, 1]), NotBijection, "image (0, 0, 1) is not a bijection of Z_3"),
    (make_cyclic, (3, [0, 1, 2]), NotFullCycle,
     "permutation splits into 3 cycles, need a single 3-cycle"),
    (make_cyclic, (4, [1, 0, 3, 2]), NotFullCycle,
     "permutation splits into 2 cycles, need a single 4-cycle"),
    (from_cycle, (3, (0, 1, 2, 0)), NotFullCycle, "cycle lists 4 digits, need all 3"),
    # one permutation per level, of that level's modulus
    (PermutationVector, ((shift(2), shift(3)), make_base((2, 3, 5))), LengthMismatch,
     "2 permutations for base depth 3"),
    (PermutationVector, ((shift(2), shift(5)), make_base((2, 3))), ValidationError,
     "permutation at level 1 has modulus 5, base has 3"),
])
def test_invalid_arguments_raise_their_class_and_message(func, args, error, message):
    with pytest.raises(error) as info:
        func(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("func, args, expected", [
    (make_unchecked, (2.0, [1, 0]), make_unchecked(2, [1, 0])),
    (make_cyclic, (Fraction(2), [1, 0]), make_cyclic(2, [1, 0])),
    (from_cycle, ("3", [0, 2, 1]), from_cycle(3, [0, 2, 1])),
    (shift, (3.0,), shift(3)),
    (make_unchecked, (True, [0]), make_unchecked(1, [0])),
])
def test_integral_moduli_read_as_ints(func, args, expected):
    perm = func(*args)
    assert perm == expected and type(perm.modulus) is int


@pytest.mark.parametrize("form", [1.0, True, Fraction(1), "1"], ids=repr)
@pytest.mark.parametrize("func, args, m", _DIGIT_READERS)
def test_every_digit_reader_reads_an_integral_digit_as_its_int(func, args, m, form):
    expected = func(*args(1))
    got = func(*args(form))
    assert got == expected and type(got) is type(expected)


def test_residue_condition_reads_integral_values_as_ints():
    cond = ResidueCondition(1.0, Fraction(4))
    assert cond == ResidueCondition(1, 4)
    assert (type(cond.residue), type(cond.modulus)) == (int, int)


# --- differential oracle: a sort proves the bijection, then a second walk splits it ---

def _check_bijection(modulus, image):
    img = tuple(int(i) for i in image)
    if len(img) != modulus:
        raise NotBijection(f"image has length {len(img)}, expected {modulus}")
    if sorted(img) != list(range(modulus)):
        raise NotBijection(f"image {img} is not a bijection of Z_{modulus}")
    return img


def _decompose(image):
    m = len(image)
    cycles = []
    cycle_id = [-1] * m
    cycle_pos = [0] * m
    for start in range(m):
        if cycle_id[start] != -1:
            continue
        cycle = []
        b = start
        while cycle_id[b] == -1:
            cycle_id[b] = len(cycles)
            cycle_pos[b] = len(cycle)
            cycle.append(b)
            b = image[b]
        cycles.append(tuple(cycle))
    return tuple(cycles), tuple(cycle_id), tuple(cycle_pos)


def _sorting_make_unchecked(modulus, image):
    img = _check_bijection(modulus, image)
    cycles, cycle_id, cycle_pos = _decompose(img)
    return CyclicPermutation(
        modulus, img, cycles, cycle_id, cycle_pos, full_cycle=(len(cycles) == 1)
    )


@st.composite
def _images(draw):
    """A modulus in 0..12 and an image for it: a bijection, or a list of
    length m-1 to m+1 with entries in -2..m+1 (repeats, out-of-range and
    negative entries)."""
    m = draw(st.integers(min_value=0, max_value=12))
    entries = st.integers(min_value=-2, max_value=m + 1)
    image = draw(st.one_of(
        st.permutations(list(range(m))),
        st.lists(entries, min_size=max(m - 1, 0), max_size=m + 1),
    ))
    return m, image


@given(_images())
@example((2, [-1, 0]))  # -1 read as index 1 would close the walk 0 -> -1 -> 0
@example((3, [1, 2, -3]))
@example((4, range(4)))  # the identity
@settings(max_examples=500)
def test_make_unchecked_matches_the_sorting_oracle(case):
    m, image = case
    assert outcome(make_unchecked, m, image) == outcome(_sorting_make_unchecked, m, image)


@given(_images())
@settings(max_examples=300)
def test_constructors_match_the_sorting_oracle(case):
    # from_cycle and shift reach the walk through make_unchecked
    m, cycle = case
    calls = [(from_cycle, m, cycle), (shift, m)]
    walked = [outcome(*call) for call in calls]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cantorperm.perms, "make_unchecked", _sorting_make_unchecked)
        assert walked == [outcome(*call) for call in calls]
