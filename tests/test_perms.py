"""Cyclic permutations, discrete logs, residue combination."""
import dataclasses
import itertools
import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorperm import (
    PermutationVector,
    ResidueCondition,
    combine_crt,
    discrete_log,
    from_cycle,
    identity,
    make_base,
    make_cyclic,
    make_unchecked,
    parse_permutations,
    power_apply,
    prefix_residue,
    residue_table,
    shift,
    shift_vector,
)
from cantorperm.errors import (
    CantorPermError,
    DigitOutOfRange,
    LengthMismatch,
    ModuliNotCoprime,
    NotBijection,
    NotFullCycle,
    ValidationError,
)


def test_shift_basic():
    p = shift(5)
    assert p.image == (1, 2, 3, 4, 0)
    assert p.apply(4) == 0
    assert p.full_cycle
    assert str(p) == "5: 1,2,3,4,0"


def test_identity_not_full_cycle():
    p = identity(3)
    assert p.is_identity()
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


def test_power_matches_repeated_application():
    p = from_cycle(7, (0, 3, 1, 5, 2, 6, 4))
    for b in range(7):
        cur = b
        for n in range(15):
            assert power_apply(p, n, b) == cur
            cur = p.apply(cur)


def test_power_period():
    p = shift(6)
    for b in range(6):
        assert power_apply(p, 6, b) == b
        assert power_apply(p, 6 * 10**12, b) == b


def test_power_rejects_negative_and_bad_digit():
    p = shift(4)
    with pytest.raises(ValidationError):
        power_apply(p, -1, 0)
    with pytest.raises(DigitOutOfRange):
        power_apply(p, 1, 4)


def test_discrete_log_inverts_power():
    p = from_cycle(5, (0, 2, 4, 1, 3))
    for r in range(5):
        for k in range(5):
            b = power_apply(p, k, r)
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
                power_apply(pv.perms[j], n, start[j]) for j in range(3)
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
    ],
)
def test_prefix_residue_error_paths(level, src, dst, error, message):
    pv = _vector_with_identity_at(level)
    for _ in range(2):  # the same fault with an empty and with a filled cache
        with pytest.raises(error) as exc:
            prefix_residue(pv, src, dst)
        assert str(exc.value) == message
        assert exc.value.__context__ is None


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


def test_threads_sharing_a_vector_get_the_classes_of_a_lone_caller():
    moduli = (4, 9, 5, 7)
    cycles = [from_cycle(m, range(m - 1, -1, -1)) for m in moduli]
    base = make_base(moduli)
    seed = (1, 2, 3, 4)
    cases = [
        (length, prefix)
        for length in range(base.depth + 1)
        for prefix in itertools.islice(
            itertools.product(*(range(m) for m in moduli[:length])), 300
        )
    ]
    lone = PermutationVector(tuple(cycles), base)
    expected = [prefix_residue(lone, seed[:length], prefix) for length, prefix in cases]
    shared = PermutationVector(tuple(cycles), base)
    results = {}

    def work(worker):
        results[worker] = [prefix_residue(shared, seed[:length], prefix) for length, prefix in cases]

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
    assert all(results[w] == expected for w in range(6))
    assert shared._weights == lone._weights


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


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=6))
@settings(max_examples=200)
def test_power_additivity(n, b):
    p = from_cycle(7, (0, 4, 2, 5, 1, 6, 3))
    # pi^(n+1)(b) == pi(pi^n(b))
    assert power_apply(p, n + 1, b) == p.apply(power_apply(p, n, b))


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
        assert tables.setdefault(length, pv._weights[length]) is pv._weights[length]
        if got.modulus <= 2000:
            hits = [
                n for n in range(got.modulus)
                if all(p.power(n, r) == s for p, r, s in zip(pv.perms, src, dst))
            ]
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
