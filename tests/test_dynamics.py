"""Orbit machinery: single application, random access, truncation."""
import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorperm import (
    DigitExpansion,
    OrbitPoint,
    PermutationVector,
    apply_map,
    apply_truncated,
    as_fraction,
    encode,
    make_base,
    make_expansion,
    make_orbit,
    make_unchecked,
    modulus_of_continuity_check,
    from_cycle,
    orbit_point,
    orbit_prefix,
    parse_permutations,
    shift_vector,
)
import cantorperm.dynamics
from cantorperm.dynamics import (
    _image_tables,
    _orbit_columns,
    _truncated_numerators,
    orbit_numerators,
)
from cantorperm.errors import (
    CheckFalsified,
    DepthMismatch,
    LevelExceeded,
    MalformedNumber,
    OutOfRange,
    ValidationError,
)


def _shift_setup():
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    return b, pv


def test_apply_map_shifts_zero():
    b, pv = _shift_setup()
    x = make_expansion((0, 0, 0), b)
    y = apply_map(pv, x)
    assert y.digits == (1, 1, 1)
    assert y.value == Fraction(7, 10)


def test_apply_map_wraps():
    b, pv = _shift_setup()
    x = make_expansion((1, 2, 4), b)
    assert apply_map(pv, x).digits == (0, 0, 0)


def test_apply_map_partial_depth():
    # an expansion shorter than the vector is fine: only its levels act
    b, pv = _shift_setup()
    short = make_expansion((0, 0), b)
    assert apply_map(pv, short).digits == (1, 1)


def test_apply_map_depth_mismatch():
    b2 = make_base((2, 3))
    pv2 = shift_vector(b2)
    b3 = make_base((2, 3, 5))
    long = make_expansion((0, 0, 0), b3)
    with pytest.raises(DepthMismatch):
        apply_map(pv2, long)


@pytest.mark.parametrize("point_modulus, vector_modulus", [(2, 3), (3, 2)])
def test_apply_map_rejects_other_moduli(point_modulus, vector_modulus):
    # shift on Z_3 sends digit 1 of Z_2 to 2, a "digit" of value 1 over (2,)
    x = make_expansion((1,), make_base((point_modulus,)))
    with pytest.raises(DepthMismatch):
        apply_map(shift_vector(make_base((vector_modulus,))), x)


@pytest.mark.parametrize(
    "point",
    [
        make_expansion((0, 0, 0, 0), make_base((2, 3, 5, 7))),
        make_expansion((0, 0, 0), make_base((2, 5, 3))),
        # the unchecked constructor: more digits than the point's own base
        DigitExpansion((0, 0, 0, 0), make_base((2, 3, 5))),
    ],
)
def test_orbit_and_map_reject_point_that_does_not_fit(point):
    b, pv = _shift_setup()
    with pytest.raises(DepthMismatch):
        make_orbit(point, pv)
    with pytest.raises(DepthMismatch):
        apply_map(pv, point)


def test_orbit_seed_over_a_prefix_of_the_vector_base():
    # the moduli agree up to the seed's depth, so its numerators are over the same B_2
    b, pv = _shift_setup()
    short = make_orbit(make_expansion((1, 2), make_base((2, 3))), pv)
    full = make_orbit(make_expansion((1, 2), b), pv)
    for n in (0, 1, 2, 5, 10**12 + 3):
        assert orbit_point(short, n).value == orbit_point(full, n).value


def test_orbit_first_values():
    b, pv = _shift_setup()
    spec = make_orbit(encode(Fraction(0), b, 3), pv)
    values = [Fraction(num, 30) for num, _ in orbit_prefix(spec, 4)]
    assert values == [
        Fraction(0),
        Fraction(7, 10),
        Fraction(2, 5),
        Fraction(3, 5),
    ]


@pytest.mark.parametrize("count", [0, -1])
def test_orbit_prefix_rejects_count_when_called(count):
    b, pv = _shift_setup()
    spec = make_orbit(encode(Fraction(0), b, 3), pv)
    with pytest.raises(ValidationError):
        orbit_prefix(spec, count)


def test_orbit_period_is_full_product():
    b, pv = _shift_setup()
    spec = make_orbit(encode(Fraction(0), b, 3), pv)
    assert orbit_point(spec, 30).value == Fraction(0)
    seen = {orbit_point(spec, n).digits for n in range(30)}
    assert len(seen) == 30


def test_orbit_random_access_matches_iteration():
    b = make_base((2, 3, 5, 7))
    pv = parse_permutations(
        "2: 1,0\n3: 2,0,1\n5: 3,0,4,2,1\n7: 5,3,0,6,2,1,4", b
    )
    spec = make_orbit(encode(Fraction(29, 30), b, 4), pv)
    x = spec.alpha_digits
    for n in range(60):
        assert orbit_point(spec, n).digits == x
        x = apply_map(pv, x)


def test_orbit_semigroup():
    # the n-th point of the orbit started at the m-th point is point n+m
    b, pv = _shift_setup()
    spec = make_orbit(encode(Fraction(29, 30), b, 3), pv)
    for m in (0, 7, 19):
        restart = make_orbit(orbit_point(spec, m).digits, pv)
        for n in (0, 5, 28):
            assert orbit_point(restart, n).digits == orbit_point(spec, n + m).digits


def test_orbit_huge_index():
    b, pv = _shift_setup()
    spec = make_orbit(encode(Fraction(0), b, 3), pv)
    n = 10**12
    want = tuple(n % m for m in (2, 3, 5))
    assert orbit_point(spec, n).digits.digits == want


def test_apply_truncated_on_grid_equals_map():
    b, pv = _shift_setup()
    for j in range(30):
        x = Fraction(j, 30)
        direct = apply_map(pv, encode(x, b, 3)).value
        assert apply_truncated(pv, x, 3) == direct


def test_apply_truncated_keeps_tail():
    b, pv = _shift_setup()
    # 1/7 = digits (0,0,4) + tail; image prefix (1,1,0) carries the same tail
    x = Fraction(1, 7)
    y = apply_truncated(pv, x, 3)
    prefix = encode(x, b, 3)
    image_prefix = apply_map(pv, prefix).value
    assert y - image_prefix == x - prefix.value
    assert 0 <= y < 1


def test_apply_truncated_bijective_on_sample():
    b, pv = _shift_setup()
    points = [Fraction(k, 97) for k in range(97)]
    images = [apply_truncated(pv, x, 3) for x in points]
    assert len(set(images)) == len(points)


def test_apply_truncated_rejects_outside():
    b, pv = _shift_setup()
    with pytest.raises(OutOfRange):
        apply_truncated(pv, Fraction(3, 2), 3)


def test_apply_truncated_rejects_negative_depth():
    b, pv = _shift_setup()
    with pytest.raises(DepthMismatch):
        apply_truncated(pv, Fraction(1, 2), -1)


def test_modulus_of_continuity():
    b, pv = _shift_setup()
    assert modulus_of_continuity_check(pv, 0) == 1
    assert modulus_of_continuity_check(pv, 2) == Fraction(1, 6)
    assert modulus_of_continuity_check(pv, 3) == Fraction(1, 30)


def test_truncation_error_bound():
    b, pv = _shift_setup()
    x = Fraction(355, 452)
    for depth in (1, 2, 3):
        shallow = apply_truncated(pv, x, depth)
        deep = apply_truncated(pv, x, 3)
        # both keep the level-depth prefix image, so they sit in one interval
        assert abs(shallow - deep) < Fraction(1, b.products[depth])


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100)
def test_orbit_additivity_property(n, m):
    b, pv = _shift_setup()
    spec = make_orbit(encode(Fraction(7, 30), b, 3), pv)
    a = orbit_point(spec, n).digits
    b2 = make_orbit(a, pv)
    assert orbit_point(b2, m).digits == orbit_point(spec, n + m).digits


@given(
    st.integers(min_value=0, max_value=97 - 1),
)
def test_truncated_translation_on_interval(k):
    # on one grid interval the truncated map is a translation
    b, pv = _shift_setup()
    x = Fraction(k, 97)
    lower = apply_truncated(pv, Fraction(0), 3)
    inside = apply_truncated(pv, x % Fraction(1, 30), 3)
    assert inside - lower == x % Fraction(1, 30)


# --- differential oracle: the replaced greedy digit extraction ---

def _greedy_digits(alpha, base, depth):
    """Digits by repeated multiply-and-divide, and the remainder ``rem`` with
    ``alpha == value(digits) + rem / (q * B_depth)``, ``q`` alpha's denominator."""
    num, den = alpha.numerator, alpha.denominator
    digits = []
    for j in range(depth):
        num *= base.moduli[j]
        b, num = divmod(num, den)
        digits.append(b)
    return digits, num


@st.composite
def bases_and_vectors(draw):
    # distinct primes, some squared or cubed, are pairwise coprime
    primes = draw(
        st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=5, unique=True)
    )
    moduli = [p ** draw(st.integers(min_value=1, max_value=3 if p < 5 else 1)) for p in primes]
    base = make_base(moduli)
    perms = tuple(make_unchecked(m, draw(st.permutations(range(m)))) for m in moduli)
    return base, PermutationVector(perms, base)


@given(
    bases_and_vectors(),
    st.integers(min_value=1, max_value=10**15),
    st.integers(min_value=0, max_value=10**18),
    st.data(),
)
@settings(max_examples=300)
def test_codec_extraction_matches_greedy_digits(setup, den, num, data):
    base, pv = setup
    alpha = Fraction(num % den, den)
    depth = data.draw(st.integers(min_value=0, max_value=base.depth))
    digits, rem = _greedy_digits(alpha, base, depth)
    assert encode(alpha, base, depth).digits == tuple(digits)
    image = base.index_of([pv.perms[j].image[b] for j, b in enumerate(digits)])
    q = alpha.denominator
    assert apply_truncated(pv, alpha, depth) == Fraction(
        image * q + rem, q * base.products[depth]
    )


# --- differential oracle: the Fraction-compared apply_truncated it replaced ---

def _fraction_apply_truncated(pv, x, depth):
    """Range checked by two Fraction comparisons, the index through
    ``digits_of``, one image per digit and ``index_of``."""
    x = as_fraction(x)
    if not 0 <= x < 1:
        raise OutOfRange(f"{x} not in [0, 1)")
    if depth > pv.depth or depth < 0:
        raise DepthMismatch(f"depth {depth} not in [0, {pv.depth}]")
    count, q = pv.base.products[depth], x.denominator
    index, rem = divmod(x.numerator * count, q)
    digits = pv.base.digits_of(depth, index)
    image = pv.base.index_of([perm.image[b] for perm, b in zip(pv.perms, digits)])
    return Fraction(image * q + rem, q * count)


def identity(m):
    """The identity on ``Z_m``."""
    return make_unchecked(m, range(m))


def identity_perms(base):
    """The vector of identities over ``base``."""
    return PermutationVector(tuple(identity(m) for m in base.moduli), base)


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the error's type and message are compared
        return type(exc), str(exc)


# every ordering of pairwise-coprime prime powers from 4, 8, 9, 25, 27 and 49
PRIME_POWER_BASES = [
    moduli
    for length in (1, 2, 3)
    for moduli in permutations((4, 8, 9, 25, 27, 49), length)
    if all(math.gcd(a, b) == 1 for a, b in combinations(moduli, 2))
]


@st.composite
def prime_power_vectors(draw, max_period=None):
    """A base from ``PRIME_POWER_BASES`` (``B_K <= max_period`` if given),
    with any bijection per level."""
    moduli = draw(st.sampled_from(
        [ms for ms in PRIME_POWER_BASES if max_period is None or math.prod(ms) <= max_period]
    ))
    base = make_base(moduli)
    perms = tuple(make_unchecked(m, draw(st.permutations(range(m)))) for m in moduli)
    return PermutationVector(perms, base)


# inside and outside [0, 1), as Fractions, ints and strings
POINTS = st.one_of(
    st.builds(
        Fraction,
        st.integers(min_value=-10**6, max_value=10**18),
        st.integers(min_value=1, max_value=10**15),
    ),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from(["1/2", "-1/3", "4/3", "0", "1", "29/30"]),
)


@given(prime_power_vectors(), POINTS, st.data())
@settings(max_examples=400)
def test_apply_truncated_matches_fraction_oracle(pv, x, data):
    depth = data.draw(st.integers(min_value=-2, max_value=pv.depth + 2))
    expected = outcome(_fraction_apply_truncated, pv, x, depth)
    assert outcome(apply_truncated, pv, x, depth) == expected


# --- differential oracles: the digit loop and the seen-list check the image tables replaced ---

def _permute_index(pv, level, index):
    """Index of the level-``level`` interval the map sends interval
    ``index`` onto, one ``divmod`` per level from the least significant up."""
    image_index, weight = 0, 1
    for perm in reversed(pv.perms[:level]):
        index, b = divmod(index, perm.modulus)
        image_index += perm.image[b] * weight
        weight *= perm.modulus
    return image_index


def _seen_modulus_of_continuity_check(pv, level):
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


@given(prime_power_vectors(max_period=2000))
@settings(max_examples=60, deadline=None)
def test_permute_index_matches_digit_oracle(pv):
    # the digit loop against digits_of/index_of, and the image tables
    # against both, with every level in one group
    base = pv.base
    for level in range(pv.depth + 1):
        count = base.products[level]
        images = []
        for index in range(count):
            digits = base.digits_of(level, index)
            image = base.index_of([perm.image[b] for perm, b in zip(pv.perms, digits)])
            assert _permute_index(pv, level, index) == image
            images.append(image)
        assert _truncated_numerators(pv, range(count), count, level) == [y * count for y in images]
        assert modulus_of_continuity_check(pv, level) == Fraction(1, count)


@given(prime_power_vectors(max_period=2000), st.data())
@settings(max_examples=100, deadline=None)
def test_modulus_of_continuity_matches_seen_oracle_on_non_bijections(pv, data):
    # plant a level whose image sends one digit where another goes: the
    # check fails at that level and above, naming the first index hit twice
    j = data.draw(st.integers(min_value=0, max_value=pv.depth - 1))
    perm = pv.perms[j]
    a, b = data.draw(st.lists(
        st.integers(min_value=0, max_value=perm.modulus - 1), min_size=2, max_size=2, unique=True
    ))
    image = list(perm.image)
    image[a] = image[b]
    perms = list(pv.perms)
    perms[j] = dataclasses.replace(perm, image=tuple(image))
    planted = PermutationVector(tuple(perms), pv.base)
    for level in range(-1, pv.depth + 2):
        expected = outcome(_seen_modulus_of_continuity_check, planted, level)
        assert outcome(modulus_of_continuity_check, planted, level) == expected
        if 0 <= level <= pv.depth:
            assert isinstance(expected, Fraction) == (level <= j)


@given(prime_power_vectors(), st.data())
@settings(max_examples=200, deadline=None)
def test_truncated_numerators_match_fraction_oracle(pv, data):
    # point lists: empty, one point, fewer points than some level's modulus
    # (that level is a group of its own), and at least B_depth points (one
    # group spans every level)
    depth = data.draw(st.integers(min_value=0, max_value=pv.depth))
    total = pv.base.products[depth]
    widest = max(pv.base.moduli[:depth], default=1)
    length = data.draw(st.sampled_from([0, 1, max(widest - 1, 0), total, total + 1]))
    q = data.draw(st.integers(min_value=1, max_value=10**15))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    nums = [rng.randrange(q) for _ in range(length)]
    images = _truncated_numerators(pv, nums, q, depth)
    assert images == [
        _fraction_apply_truncated(pv, Fraction(p, q), depth) * (q * total) for p in nums
    ]


# --- differential oracle: the per-point divmod loop the image columns replaced ---

def _per_point_truncated_numerators(pv, nums, q, depth):
    """One ``divmod`` for ``(index, rem)`` per point, then one ``divmod``
    and one lookup per group, least significant group first."""
    total = pv.base.products[depth]
    groups = _image_tables(pv, depth, len(nums))
    images = []
    for p in nums:
        index, rem = divmod(p * total, q)
        image_index = 0
        for size, table, weight in groups:
            index, digit = divmod(index, size)
            image_index += table[digit] * weight
        images.append(image_index * q + rem)
    return images


@pytest.mark.parametrize("moduli, seed, depth, nums, q", [
    # depth 0: no group, each image is p itself
    ((4, 9, 25), 1, 0, [0, 3, 6], 7),
    # ranges of points: one group spans every level
    ((4, 9, 25), 2, 3, range(900), 900),
    ((4, 9, 25), 3, 3, range(5, 905, 3), 907),
    # no point
    ((4, 9, 25), 4, 3, [], 11),
    # one point: cap 1, each level its own group over perm.image
    ((4, 9, 25), 5, 3, [5], 13),
    ((999983,), None, 1, [10**15 - 1], 10**15),
    # three points: the level of modulus 49 is a group of its own, larger than the count
    ((4, 49, 9), 6, 3, [1, 2, 10**15 + 36], 10**15 + 37),
])
def test_truncated_numerators_match_the_per_point_oracle(moduli, seed, depth, nums, q):
    # random full bijections, or the shift where a shuffle would be slow
    base = make_base(moduli)
    if seed is None:
        pv = shift_vector(base)
    else:
        rng = random.Random(seed)
        pv = PermutationVector(
            tuple(make_unchecked(m, rng.sample(range(m), m)) for m in moduli), base
        )
    assert _truncated_numerators(pv, nums, q, depth) == _per_point_truncated_numerators(
        pv, nums, q, depth
    )


@given(prime_power_vectors(), st.data())
@settings(max_examples=200, deadline=None)
def test_truncated_numerators_match_the_per_point_oracle_on_any_vector(pv, data):
    # the point counts of the Fraction-oracle test, as a list or as a range of top numerators
    depth = data.draw(st.integers(min_value=0, max_value=pv.depth))
    widest = max(pv.base.moduli[:depth], default=1)
    length = data.draw(st.sampled_from([0, 1, 2, max(widest - 1, 0), pv.base.products[depth]]))
    q = data.draw(st.integers(min_value=length + 1, max_value=10**15))
    if data.draw(st.booleans()):
        nums = range(q - length, q)
    else:
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
        nums = [rng.randrange(q) for _ in range(length)]
    assert _truncated_numerators(pv, nums, q, depth) == _per_point_truncated_numerators(
        pv, nums, q, depth
    )


BLOCK = cantorperm.dynamics._POINT_BLOCK


def _random_vector(moduli, seed):
    rng = random.Random(seed)
    return PermutationVector(
        tuple(make_unchecked(m, rng.sample(range(m), m)) for m in moduli), make_base(moduli)
    )


@pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_truncated_numerators_in_blocks_match_the_per_point_oracle(count):
    # a list and a range of points, the range's blocks sliced as ranges
    pv = _random_vector((4, 9, 25, 7, 11), count)
    q = 10**15 + 37
    rng = random.Random(count)
    for nums in ([rng.randrange(q) for _ in range(count)], range(q - count, q)):
        assert _truncated_numerators(pv, nums, q, 5) == _per_point_truncated_numerators(
            pv, nums, q, 5
        )


def _spread_points(count, q):
    """``count`` points over ``q``: the midpoints of ``count - 1`` equal
    parts of ``[0, 1)`` and the last point ``q - 1``, in the top interval."""
    return [(2 * j + 1) * q // (2 * count) for j in range(count - 1)] + [q - 1]


def _assert_both_oracles(pv, nums, q, depth):
    images = _truncated_numerators(pv, nums, q, depth)
    assert images == _per_point_truncated_numerators(pv, nums, q, depth)
    scale = q * pv.base.products[depth]
    assert images == [_fraction_apply_truncated(pv, Fraction(p, q), depth) * scale for p in nums]


@pytest.mark.parametrize("moduli, depth, count, groups", [
    # no group: each image is p itself
    ((2, 3, 5), 0, 3, 0),
    ((3, 4), 0, 2, 0),
    # one group: a lone level, fewer points than its modulus, or every level
    ((2, 3, 5), 1, 1, 1),
    ((3, 4), 1, 2, 1),
    ((2, 3, 5), 2, 6, 1),
    ((2, 3, 5), 3, 30, 1),
    ((3, 4), 2, 12, 1),
    # two groups: the first and the last, none between them
    ((2, 3, 5), 2, 5, 2),
    ((2, 3, 5), 3, 6, 2),
    ((2, 3, 5), 3, 15, 2),
    ((3, 4), 2, 1, 2),
    ((3, 4), 2, 11, 2),
    # three groups: one between the first and the last
    ((2, 3, 5), 3, 1, 3),
    ((2, 3, 5), 3, 5, 3),
])
def test_truncated_numerators_on_every_bijection_vector(moduli, depth, count, groups):
    # every vector of bijections, off-grid points spread over [0, 1) and the
    # top point q - 1; the group count is asserted so the cases cannot drift
    base = make_base(moduli)
    q = 10**15 + 37
    nums = _spread_points(count, q)
    for images in itertools.product(*(permutations(range(m)) for m in moduli)):
        pv = PermutationVector(
            tuple(make_unchecked(m, image) for m, image in zip(moduli, images)), base
        )
        assert len(_image_tables(pv, depth, count)) == groups
        _assert_both_oracles(pv, nums, q, depth)


@pytest.mark.parametrize("moduli, groups", [
    # B_5 = 2310: two groups below it, one above
    ((2, 3, 5, 7, 11), {BLOCK - 1: 2, BLOCK: 2, BLOCK + 1: 2, 2 * BLOCK + 1: 1}),
    # no two levels fit under 2 BLOCK + 1 points together
    ((101, 103, 107), {BLOCK - 1: 3, BLOCK: 3, BLOCK + 1: 3, 2 * BLOCK + 1: 3}),
])
def test_truncated_numerators_at_block_seams_with_one_to_three_groups(moduli, groups):
    # the block counts above, against both oracles, off the grid and on it
    pv = _random_vector(moduli, len(moduli))
    depth = len(moduli)
    for count, expected in groups.items():
        assert len(_image_tables(pv, depth, count)) == expected
        for q in (10**15 + 37, pv.base.products[depth] * 3):
            _assert_both_oracles(pv, _spread_points(count, q), q, depth)


def _peak_of_truncated_numerators(pv, nums, q, depth):
    tracemalloc.start()
    try:
        _truncated_numerators(pv, nums, q, depth)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_truncated_numerators_hold_one_block_of_columns(monkeypatch):
    # at four blocks of points the columns of one block and the images stay
    # well below the three whole columns the unblocked form holds
    pv = _random_vector((4, 9, 25, 7, 11), 8)
    q = 10**15 + 37
    rng = random.Random(8)
    nums = [rng.randrange(q) for _ in range(4 * BLOCK)]
    blocked = _peak_of_truncated_numerators(pv, nums, q, 5)
    monkeypatch.setattr(cantorperm.dynamics, "_POINT_BLOCK", len(nums))
    whole = _peak_of_truncated_numerators(pv, nums, q, 5)
    assert blocked < 0.75 * whole, (blocked, whole)


def test_apply_truncated_copies_no_table():
    # one point on a level of 999,983 digits: its group is perm.image itself
    pv = shift_vector(make_base((999983,)))
    x = Fraction(1, 3)
    expected = _fraction_apply_truncated(pv, x, 1)
    tracemalloc.start()
    try:
        image = apply_truncated(pv, x, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert image == expected == Fraction(333328 * 3 + 2, 3 * 999983)
    assert peak < 100_000


def test_orbit_points_equal_the_publicly_constructed_ones():
    b = make_base((4, 9, 5, 7))
    pv = shift_vector(b)
    spec = make_orbit(make_expansion((3, 8, 0, 2), b), pv)
    for n in (0, 1, 35, 10**30 + 7):
        got = orbit_point(spec, n)
        # the shift's n-th power adds n to each digit
        digits = tuple((d + n) % m for d, m in zip((3, 8, 0, 2), b.moduli))
        expected = OrbitPoint(n, DigitExpansion(digits, b))
        assert type(got) is OrbitPoint and type(got.digits) is DigitExpansion
        assert got == expected and hash(got) == hash(expected)
        assert repr(got) == repr(expected) and {got: 1}[expected] == 1
        assert got.value == expected.value and str(got.digits) == str(expected.digits)
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.index = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.digits.digits = ()


def test_orbit_point_rejects_a_negative_index():
    b, pv = _shift_setup()
    with pytest.raises(ValidationError) as info:
        orbit_point(make_orbit(encode(0, b, 3), pv), -1)
    assert str(info.value) == "orbit index must be >= 0"


def test_orbit_point_reads_its_index_by_the_integer_rule():
    b, pv = _shift_setup()
    spec = make_orbit(encode(0, b, 3), pv)
    for n in (2.0, Fraction(2), "2", True, False):
        got = orbit_point(spec, n)
        assert type(got.index) is int and got == orbit_point(spec, int(n))
    for n in (2.5, None, "x", Fraction(1, 2)):
        with pytest.raises(MalformedNumber) as info:
            orbit_point(spec, n)
        assert str(info.value) == f"orbit index {n!r} is not an integer"
    with pytest.raises(ValidationError, match="orbit index must be >= 0"):
        orbit_point(spec, -1.0)


SHIFT_235 = shift_vector(make_base((2, 3, 5)))
ORBIT_235 = make_orbit(encode(0, SHIFT_235.base, 3), SHIFT_235)


@pytest.mark.parametrize("func, args, error, message", [
    (apply_truncated, (SHIFT_235, 1, 3), OutOfRange, "1 not in [0, 1)"),
    (apply_truncated, (SHIFT_235, "-1/2", 3), OutOfRange, "-1/2 not in [0, 1)"),
    (apply_truncated, (SHIFT_235, "1/2", -1), DepthMismatch, "depth -1 not in [0, 3]"),
    (apply_truncated, (SHIFT_235, "1/2", 4), DepthMismatch, "depth 4 not in [0, 3]"),
    (modulus_of_continuity_check, (SHIFT_235, -1), LevelExceeded, "level -1 not in [0, 3]"),
    (modulus_of_continuity_check, (SHIFT_235, 4), LevelExceeded, "level 4 not in [0, 3]"),
    (apply_truncated, (SHIFT_235, "1/7", 1.5), MalformedNumber, "depth 1.5 is not an integer"),
    (modulus_of_continuity_check, (SHIFT_235, 1.5), MalformedNumber,
     "level 1.5 is not an integer"),
    # the count of an orbit stream is read once, where the columns are cut
    (orbit_prefix, (ORBIT_235, 2.5), MalformedNumber, "count 2.5 is not an integer"),
    (orbit_numerators, (ORBIT_235, None), MalformedNumber, "count None is not an integer"),
])
def test_invalid_arguments_raise_their_class_and_message(func, args, error, message):
    with pytest.raises(error) as info:
        func(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("stream", [orbit_numerators, orbit_prefix])
def test_orbit_streams_read_an_integral_count_as_an_int(stream):
    expected = list(stream(ORBIT_235, 3))
    for count in (3.0, Fraction(3), "3"):
        assert list(stream(ORBIT_235, count)) == expected


# --- differential oracle: the per-level orbit reader the grouped columns replaced ---

def per_level_numerators(spec, count):
    """The first ``count`` orbit numerators over ``B_K``: every level steps
    through its rotated cycle in turn, and the numerator sums the levels'
    contributions ``cycle[t] * B_K / B_{j+1}``."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    if not spec._tables:
        return itertools.repeat(0, count)
    products = spec.alpha_digits.base.products
    total = products[spec.depth]
    terms = [
        [b * (total // products[j + 1]) for b in table]
        for j, table in enumerate(spec._tables)
    ]
    return itertools.islice(map(sum, zip(*map(itertools.cycle, terms))), count)


def per_level_prefix(spec, count):
    """:func:`per_level_numerators` zipped with each iterate's digits, one
    cycled table per level."""
    numerators = per_level_numerators(spec, count)
    digits = zip(*map(itertools.cycle, spec._tables)) if spec._tables else itertools.repeat(())
    return zip(numerators, digits)


def level_groups(spec):
    """The levels in groups of consecutive levels, most significant first, as
    ``(width, period)``: a level joins the group before it while the lcm of
    the group's cycle lengths, its ``period``, stays at most ``_GROUP_CAP``,
    else it starts a group.  The cap is read at the call, not when the spec
    was built."""
    cap, groups = cantorperm.dynamics._GROUP_CAP, []
    for table in spec._tables:
        if groups and (period := math.lcm(groups[-1][1], len(table))) <= cap:
            groups[-1] = (groups[-1][0] + 1, period)
        else:
            groups.append((1, len(table)))
    return groups


def _bijections(m):
    """A full cycle, any bijection (partial cycles, fixed points) or the identity on ``Z_m``."""
    return st.one_of(
        st.permutations(range(m)).map(lambda cycle: from_cycle(m, cycle)),
        st.permutations(range(m)).map(lambda image: make_unchecked(m, image)),
        st.just(identity(m)),
    )


@st.composite
def orbit_windows(draw):
    """A seed of depth 0-6 under drawn bijections, its spec built under a
    drawn group cap, a start in ``[0, 3·period]`` and a count around one of
    the group periods."""
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=6, unique=True))
    moduli = [p * draw(st.sampled_from([1, p])) if p < 5 else p for p in primes] or [2]
    base = make_base(moduli)
    pv = PermutationVector(tuple(draw(_bijections(m)) for m in moduli), base)
    depth = len(primes)
    seed = [draw(st.integers(0, m - 1)) for m in moduli[:depth]]
    cap = draw(st.sampled_from([1, 12, 256]))
    with mock.patch.object(cantorperm.dynamics, "_GROUP_CAP", cap):
        spec = make_orbit(make_expansion(seed, base), pv)
    periods = [period for _, period in spec._groups] or [1]
    count = max(1, draw(st.sampled_from(periods)) + draw(st.integers(-1, 1)))
    return spec, cap, draw(st.integers(0, 3 * spec.period)), count


@given(orbit_windows())
@settings(max_examples=150, deadline=None)
def test_grouped_orbit_reader_matches_the_per_level_oracle(window):
    spec, cap, start, count = window
    base = spec.alpha_digits.base
    expected = list(itertools.islice(per_level_prefix(spec, start + count), start, None))
    with mock.patch.object(cantorperm.dynamics, "_GROUP_CAP", cap):
        assert spec._groups == tuple(level_groups(spec))
    nums, columns = _orbit_columns(spec, start, count)
    columns = [list(column) for column in columns]
    nums = list(nums)
    head = list(orbit_prefix(spec, count))
    assert list(orbit_numerators(spec, count)) == [num for num, _ in head]
    groups = spec._groups or [(0, 1)]
    assert [len(column) for column in columns] == [min(period, count) for _, period in groups]
    digits = [sum((column[t % len(column)] for column in columns), ()) for t in range(count)]
    assert list(zip(nums, digits)) == expected
    assert head == list(per_level_prefix(spec, count))
    for t, (num, point_digits) in enumerate(expected):
        point = orbit_point(spec, start + t).digits
        assert (base.index_of(point.digits), point.digits) == (num, point_digits)
    # cut at every level: the level-k interval indices of the same iterates
    for level in range(spec.depth + 1):
        indices = list(_orbit_columns(spec, start, count, level)[0])
        assert indices == [base.index_of(digits[:level]) for _, digits in expected]
