"""Orbit machinery: single application, random access, truncation."""
import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorperm import (
    DigitExpansion,
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
    orbit_point,
    orbit_prefix,
    parse_permutations,
    shift_vector,
)
from cantorperm.dynamics import _truncated_numerators
from cantorperm.errors import (
    CheckFalsified,
    DepthMismatch,
    LevelExceeded,
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
