"""Mixed-radix expansion layer: encode/decode, grid intervals, prefixes."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorperm import (
    as_fraction,
    decode,
    encode,
    grid_interval,
    interval_of,
    make_base,
    make_expansion,
    prefix_of_interval,
)
from cantorperm.errors import (
    DepthExceeded,
    IndexOutOfRange,
    LevelExceeded,
    MalformedNumber,
    ModulusTooSmall,
    NotCoprime,
    OutOfRange,
)


def test_make_base_products():
    b = make_base((2, 3, 5))
    assert b.moduli == (2, 3, 5)
    assert b.products == (1, 2, 6, 30)
    assert b.depth == 3
    assert b.period(2) == 6
    assert str(b) == "2,3,5"


def test_make_base_from_string():
    assert make_base("2,3,5").moduli == (2, 3, 5)
    assert make_base(" 7, 11 ").moduli == (7, 11)


def test_make_base_rejects_small_modulus():
    with pytest.raises(ModulusTooSmall):
        make_base((2, 1, 5))


def test_make_base_rejects_shared_factor():
    with pytest.raises(NotCoprime):
        make_base((2, 3, 4))
    with pytest.raises(NotCoprime):
        make_base((6, 10))


def test_as_fraction_forms():
    assert as_fraction("29/30") == Fraction(29, 30)
    assert as_fraction("0") == 0
    assert as_fraction(Fraction(1, 2)) == Fraction(1, 2)
    assert as_fraction(0.25) == Fraction(1, 4)


@pytest.mark.parametrize("two", [2, True + True, 2.0, Fraction(2), "2", " 2 "], ids=repr)
def test_integral_values_read_as_their_int(two):
    assert make_base([two, 3]).moduli == (2, 3)
    assert make_expansion([1, two], BASE).digits == (1, 2)
    assert type(make_expansion([0, two], BASE).digits[1]) is int


def test_encode_known_value():
    b = make_base((2, 3, 5))
    d = encode(Fraction(29, 30), b, 3)
    assert d.digits == (1, 2, 4)
    assert d.value == Fraction(29, 30)


def test_encode_zero_and_half():
    b = make_base((2, 3, 5))
    assert encode(Fraction(0), b, 3).digits == (0, 0, 0)
    assert encode(Fraction(1, 2), b, 3).digits == (1, 0, 0)


def test_encode_rejects_out_of_range():
    b = make_base((2, 3, 5))
    with pytest.raises(OutOfRange):
        encode(Fraction(1), b, 3)
    with pytest.raises(OutOfRange):
        encode(Fraction(-1, 2), b, 3)


def test_encode_rejects_excess_depth():
    b = make_base((2, 3, 5))
    with pytest.raises(DepthExceeded):
        encode(Fraction(1, 2), b, 4)


def test_exhaustive_grid_round_trip():
    # every j/30 must encode to its own interval prefix and decode back
    b = make_base((2, 3, 5))
    seen = set()
    for j in range(30):
        d = encode(Fraction(j, 30), b, 3)
        assert d.value == Fraction(j, 30)
        assert decode(d) == Fraction(j, 30)
        seen.add(d.digits)
    assert len(seen) == 30


def test_exhaustive_digit_oracle():
    # digits recovered positionally: j = b0*15 + b1*5 + b2 for j/30
    b = make_base((2, 3, 5))
    for b0 in range(2):
        for b1 in range(3):
            for b2 in range(5):
                j = b0 * 15 + b1 * 5 + b2
                assert encode(Fraction(j, 30), b, 3).digits == (b0, b1, b2)


def test_greedy_truncation_error_bound():
    # encoding of a non-grid rational truncates downward by less than 1/B_K
    b = make_base((2, 3, 5))
    x = Fraction(1, 7)
    d = encode(x, b, 3)
    assert d.value <= x < d.value + Fraction(1, 30)


def test_interval_of_partition():
    b = make_base((2, 3, 5))
    iv = grid_interval(2, 5, b)
    assert iv.lower == Fraction(5, 6)
    assert iv.upper == Fraction(1)
    assert iv.width == Fraction(1, 6)
    assert iv.contains(Fraction(5, 6))
    assert not iv.contains(Fraction(1))
    for j in range(6):
        assert interval_of(Fraction(j, 6), 2, b).index == j


def test_prefix_of_interval_known():
    b = make_base((2, 3, 5))
    assert prefix_of_interval(2, 5, b) == (1, 2)
    assert prefix_of_interval(3, 29, b) == (1, 2, 4)
    assert prefix_of_interval(1, 0, b) == (0,)


def test_prefix_of_interval_matches_encode():
    b = make_base((2, 3, 5, 7))
    for level in range(1, 5):
        period = b.period(level)
        for j in range(period):
            want = encode(Fraction(j, period), b, level).digits
            assert prefix_of_interval(level, j, b) == want


def test_replace_digit():
    b = make_base((2, 3, 5))
    d = make_expansion((1, 2, 4), b)
    assert d.replace_digit(2, 0).digits == (1, 2, 0)
    assert d.prefix_index(2) == 5


def test_refinement():
    # each level-k interval splits into exactly m_k children one level down
    b = make_base((2, 3, 5))
    for k in range(3):
        for j in range(b.period(k)):
            parent = grid_interval(k, j, b)
            children = [
                grid_interval(k + 1, j * b.moduli[k] + t, b)
                for t in range(b.moduli[k])
            ]
            assert children[0].lower == parent.lower
            assert children[-1].upper == parent.upper
            for left, right in zip(children, children[1:]):
                assert left.upper == right.lower


@given(
    num=st.integers(min_value=0, max_value=10**6 - 1),
    den=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=200)
def test_encode_value_bracket_property(num, den):
    b = make_base((2, 3, 5, 7))
    x = Fraction(num % den, den)
    d = encode(x, b, 4)
    assert d.value <= x < d.value + Fraction(1, 210)
    assert interval_of(x, 4, b).index == d.prefix_index(4)


@given(st.integers(min_value=0, max_value=209))
def test_decode_encode_identity_on_grid(j):
    b = make_base((2, 3, 5, 7))
    d = encode(Fraction(j, 210), b, 4)
    assert decode(d) == Fraction(j, 210)


BASE = make_base((2, 3, 5))


@pytest.mark.parametrize("func, args, error, message", [
    (make_base, ([],), ModulusTooSmall, "base sequence must be non-empty"),
    (make_expansion, ((1, 2, 4, 0), BASE), DepthExceeded, "4 digits but base has depth 3"),
    (grid_interval, (4, 0, BASE), LevelExceeded, "level 4 not in [0, 3]"),
    (grid_interval, (-1, 0, BASE), LevelExceeded, "level -1 not in [0, 3]"),
    (grid_interval, (2, 6, BASE), IndexOutOfRange, "index 6 not in [0, 6)"),
    (prefix_of_interval, (4, 0, BASE), LevelExceeded, "level 4 not in [0, 3]"),
    (prefix_of_interval, (-1, 0, BASE), LevelExceeded, "level -1 not in [0, 3]"),
    (prefix_of_interval, (1, -1, BASE), IndexOutOfRange, "index -1 not in [0, 2)"),
    (interval_of, (1, 1, BASE), OutOfRange, "1 not in [0, 1)"),
    (interval_of, ("-1/2", 1, BASE), OutOfRange, "-1/2 not in [0, 1)"),
    (interval_of, ("1/2", 4, BASE), LevelExceeded, "level 4 not in [0, 3]"),
    (interval_of, ("1/2", -1, BASE), LevelExceeded, "level -1 not in [0, 3]"),
    (encode, (1, BASE, 3), OutOfRange, "1 not in [0, 1)"),
    (encode, ("-1/2", BASE, 3), OutOfRange, "-1/2 not in [0, 1)"),
    (encode, ("1/2", BASE, 4), DepthExceeded, "depth 4 not in [0, 3]"),
    (encode, ("1/2", BASE, -1), DepthExceeded, "depth -1 not in [0, 3]"),
    # integers are never truncated, and a value int() refuses is named
    (make_base, ([2.5, 3],), MalformedNumber, "modulus 2.5 is not an integer"),
    (make_base, ([None],), MalformedNumber, "modulus None is not an integer"),
    (make_base, ("2,x",), MalformedNumber, "modulus 'x' is not an integer"),
    (make_base, ([float("inf")],), MalformedNumber, "modulus inf is not an integer"),
    (make_expansion, ([1.5, 0, 0], BASE), MalformedNumber, "digit 1.5 is not an integer"),
    (make_expansion, ([0, Fraction(1, 2)], BASE), MalformedNumber,
     "digit Fraction(1, 2) is not an integer"),
    # levels, depths and interval indices follow the same rule
    (prefix_of_interval, (2, 2.5, BASE), MalformedNumber, "index 2.5 is not an integer"),
    (grid_interval, (1, 1.5, BASE), MalformedNumber, "index 1.5 is not an integer"),
    (interval_of, ("1/2", 1.5, BASE), MalformedNumber, "level 1.5 is not an integer"),
    (encode, ("1/2", BASE, 1.5), MalformedNumber, "depth 1.5 is not an integer"),
    # points are read as rationals
    (as_fraction, (None,), MalformedNumber, "not a rational number: None"),
    (as_fraction, (float("inf"),), MalformedNumber, "not a rational number: inf"),
    (encode, (None, BASE, 3), MalformedNumber, "not a rational number: None"),
    (interval_of, ([1, 2], 1, BASE), MalformedNumber, "not a rational number: [1, 2]"),
])
def test_invalid_arguments_raise_their_class_and_message(func, args, error, message):
    with pytest.raises(error) as info:
        func(*args)
    assert str(info.value) == message


def test_integral_levels_and_indices_are_stored_as_ints():
    interval = grid_interval(True, True, BASE)
    assert (type(interval.level), type(interval.index)) == (int, int)
    assert interval == grid_interval(1, 1, BASE)
    assert prefix_of_interval(2.0, Fraction(5), BASE) == prefix_of_interval(2, 5, BASE) == (1, 2)
