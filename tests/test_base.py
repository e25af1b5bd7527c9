"""Mixed-radix expansion layer: encode, values, the prefix↔index codec."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorperm import (
    as_fraction,
    encode,
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
    # every j/30 must encode to its own interval prefix and read back
    b = make_base((2, 3, 5))
    seen = set()
    for j in range(30):
        d = encode(Fraction(j, 30), b, 3)
        assert d.value == Fraction(j, 30)
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


def test_interval_index_partition():
    # interval j of level 2 is [j/6, (j+1)/6): both ends of each read as j
    b = make_base((2, 3, 5))
    assert b.products[2] == 6
    assert make_expansion(prefix_of_interval(2, 5, b), b).value == Fraction(5, 6)
    for j in range(6):
        assert encode(Fraction(j, 6), b, 2).prefix_index(2) == j
        assert encode(Fraction(6 * j + 5, 36), b, 2).prefix_index(2) == j
        assert encode(Fraction(j, 6), b, 3).prefix_index(2) == j


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
    # each level-k interval splits into exactly m_k children one level down:
    # child t has the parent's prefix and digit t, and starts t/B_{k+1} into
    # the parent, so the m_k children of width 1/B_{k+1} tile it
    b = make_base((2, 3, 5))

    def lower(level, index):
        return make_expansion(prefix_of_interval(level, index, b), b).value

    for k in range(3):
        for j in range(b.period(k)):
            parent = prefix_of_interval(k, j, b)
            for t in range(b.moduli[k]):
                child = j * b.moduli[k] + t
                assert prefix_of_interval(k + 1, child, b) == parent + (t,)
                assert lower(k + 1, child) == lower(k, j) + Fraction(t, b.period(k + 1))


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
    # the level-L interval holding x, read at every level: nested, as floor(x * B_L)
    for level in range(5):
        index = x.numerator * b.products[level] // x.denominator
        assert encode(x, b, level).prefix_index(level) == d.prefix_index(level) == index


@given(st.integers(min_value=0, max_value=209))
def test_value_encode_identity_on_grid(j):
    b = make_base((2, 3, 5, 7))
    d = encode(Fraction(j, 210), b, 4)
    assert d.value == Fraction(j, 210)


BASE = make_base((2, 3, 5))


@pytest.mark.parametrize("func, args, error, message", [
    (make_base, ([],), ModulusTooSmall, "base sequence must be non-empty"),
    (make_expansion, ((1, 2, 4, 0), BASE), DepthExceeded, "4 digits but base has depth 3"),
    (prefix_of_interval, (4, 0, BASE), LevelExceeded, "level 4 not in [0, 3]"),
    (prefix_of_interval, (-1, 0, BASE), LevelExceeded, "level -1 not in [0, 3]"),
    (prefix_of_interval, (1, -1, BASE), IndexOutOfRange, "index -1 not in [0, 2)"),
    (prefix_of_interval, (2, 6, BASE), IndexOutOfRange, "index 6 not in [0, 6)"),
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
    (prefix_of_interval, (1.5, 0, BASE), MalformedNumber, "level 1.5 is not an integer"),
    (encode, ("1/2", BASE, 1.5), MalformedNumber, "depth 1.5 is not an integer"),
    # points are read as rationals
    (as_fraction, (None,), MalformedNumber, "not a rational number: None"),
    (as_fraction, (float("inf"),), MalformedNumber, "not a rational number: inf"),
    (encode, (None, BASE, 3), MalformedNumber, "not a rational number: None"),
    (encode, ([1, 2], BASE, 1), MalformedNumber, "not a rational number: [1, 2]"),
    (as_fraction, ("1/0",), MalformedNumber, "not a rational number: '1/0'"),
    (encode, ("1/2", BASE, "x"), MalformedNumber, "depth 'x' is not an integer"),
    (prefix_of_interval, (2, None, BASE), MalformedNumber, "index None is not an integer"),
    # moduli of at least 2, pairwise coprime, named with their levels
    (make_base, ((2, 1),), ModulusTooSmall, "modulus 1 < 2"),
    (make_base, ((2, 3, 4),), NotCoprime, "moduli 2 (level 0) and 4 (level 2) share a factor"),
    (make_base, ("6,5,9",), NotCoprime, "moduli 6 (level 0) and 9 (level 2) share a factor"),
    # each digit in its own level's range, named with its position
    (make_expansion, ((2, 0), BASE), OutOfRange, "digit 2 at position 0 not in [0, 2)"),
    (make_expansion, ((1, 3), BASE), OutOfRange, "digit 3 at position 1 not in [0, 3)"),
    (make_expansion, ("1,-1", BASE), OutOfRange, "digit -1 at position 1 not in [0, 3)"),
])
def test_invalid_arguments_raise_their_class_and_message(func, args, error, message):
    with pytest.raises(error) as info:
        func(*args)
    assert str(info.value) == message


def test_integral_levels_and_indices_are_read_as_ints():
    assert prefix_of_interval(True, True, BASE) == prefix_of_interval(1, 1, BASE) == (1,)
    assert encode("1/2", BASE, True) == encode("1/2", BASE, 1)
    assert prefix_of_interval(2.0, Fraction(5), BASE) == prefix_of_interval(2, 5, BASE) == (1, 2)
