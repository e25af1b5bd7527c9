"""Non-monotonicity witnesses and difference-quotient probes."""
import functools
import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorperm import (
    DigitExpansion,
    apply_map,
    derivative_probe,
    difference_quotient,
    encode,
    find_monotonicity_witness,
    find_witness_descending,
    make_base,
    make_expansion,
    make_unchecked,
    parse_permutations,
    prefix_of_interval,
    shift_vector,
)
import cantorperm.analysis
from cantorperm.analysis import MonotonicityWitness
from cantorperm.errors import (
    CheckFalsified,
    DegenerateDigit,
    DepthMismatch,
    DigitOutOfRange,
    IndexOutOfRange,
    LevelExceeded,
    MalformedNumber,
    NoWitnessAtLevel,
    ValidationError,
)
from cantorperm.perms import PermutationVector
from test_dynamics import identity_perms


def test_witness_shift_mod3():
    # shift on Z_3 rises 0->1 and falls 1->2, giving digits (0,1,1,2)
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    w = find_monotonicity_witness(pv, 1, 0)
    assert w.increasing_digits == (0, 1)
    assert w.decreasing_digits == (1, 2)
    assert w.points[0] < w.points[1] and w.images[0] < w.images[1]
    assert w.points[2] < w.points[3] and w.images[2] > w.images[3]


def test_witness_points_inside_interval():
    b = make_base((2, 3, 5, 7))
    pv = shift_vector(b)
    for level in range(3):
        for j in range(b.period(level)):
            w = find_witness_descending(pv, level, j)
            lower = Fraction(j, b.period(level))
            upper = Fraction(j + 1, b.period(level))
            for p in w.points:
                assert lower <= p < upper


def test_witness_swap_needs_descent():
    # on Z_2 the only non-identity permutation has no increasing pair
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    with pytest.raises(NoWitnessAtLevel):
        find_monotonicity_witness(pv, 0, 0)
    w = find_witness_descending(pv, 0, 0)
    assert w.level == 1
    assert all(p < Fraction(1, 2) for p in w.points)


def test_witness_identity_never_found():
    b = make_base((2, 3, 5))
    pv = identity_perms(b)
    with pytest.raises(NoWitnessAtLevel):
        find_witness_descending(pv, 0, 0)


def test_witness_level_bounds():
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    with pytest.raises(LevelExceeded):
        find_monotonicity_witness(pv, 3, 0)
    with pytest.raises(IndexOutOfRange):
        find_monotonicity_witness(pv, 1, 2)


@pytest.mark.parametrize(
    "level, interval, error",
    [(3, 0, LevelExceeded), (7, 0, LevelExceeded), (1, 2, IndexOutOfRange)],
)
@pytest.mark.parametrize("max_descent", [None, 5])
def test_witness_descending_rejects_interval_outside_vector(level, interval, error, max_descent):
    # a level at or past the depth leaves no descent budget; it is bad input
    pv = shift_vector(make_base((2, 3, 5)))
    with pytest.raises(error):
        find_witness_descending(pv, level, interval, max_descent=max_descent)


def test_witness_images_match_map():
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    w = find_monotonicity_witness(pv, 2, 3)
    for p, im in zip(w.points, w.images):
        digits = encode(p, b, 3)
        assert apply_map(pv, digits).value == im


def test_quotient_shift_known():
    # shift on Z_5: digit 4 maps to 0, digit 0 maps to 1
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    alpha = encode(Fraction(29, 30), b, 3)
    s = difference_quotient(pv, alpha, 2, 0)
    assert s.quotient == Fraction(-1, 4)
    assert (s.digit_level, s.original_digit, s.perturbed_digit) == (2, 4, 0)


def test_quotient_adjacent_slope_one():
    # moduli >= 3 keep the adjacent step wrap-free, so the slope is exactly 1
    b = make_base((3, 5, 7))
    pv = shift_vector(b)
    alpha = encode(Fraction(0), b, 3)
    for s_level in range(3):
        got = difference_quotient(pv, alpha, s_level, 1)
        assert got.quotient == 1


def test_quotient_swap_only_slope():
    # on Z_2 both digits trade places: the single quotient is -1, never 1
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    alpha = encode(Fraction(0), b, 3)
    got = difference_quotient(pv, alpha, 0, 1)
    assert got.quotient == -1


def test_quotient_wraparound_negative():
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    alpha = make_expansion((0, 2, 0), b)
    # level 1: digit 2 maps to 0, digit 0 maps to 1: (0-1)/(2-0)
    got = difference_quotient(pv, alpha, 1, 0)
    assert got.quotient == Fraction(-1, 2)


def test_quotient_rejects_same_digit():
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    alpha = encode(Fraction(0), b, 3)
    with pytest.raises(DegenerateDigit):
        difference_quotient(pv, alpha, 0, 0)


@pytest.mark.parametrize("moduli", [(2, 3, 5, 7), (2, 3, 7)])
def test_quotient_and_probe_reject_point_that_does_not_fit(moduli):
    # deeper than the vector, or as deep over other moduli
    pv = shift_vector(make_base((2, 3, 5)))
    alpha = make_expansion((0,) * len(moduli), make_base(moduli))
    with pytest.raises(DepthMismatch):
        difference_quotient(pv, alpha, len(moduli) - 1, 1)
    with pytest.raises(DepthMismatch):
        derivative_probe(pv, alpha, len(moduli))


def test_quotient_closed_equals_direct_spot():
    b = make_base((2, 3, 5, 7, 11))
    pv = parse_permutations(
        "2: 1,0\n3: 2,0,1\n5: 3,0,4,2,1\n7: 5,3,0,6,2,1,4\n"
        "11: 3,4,5,6,7,8,9,10,0,1,2",
        b,
    )
    alpha = make_expansion((1, 0, 3, 2, 6), b)
    for level in range(5):
        for ell in range(b.moduli[level]):
            if ell == alpha.digits[level]:
                continue
            got = difference_quotient(pv, alpha, level, ell)
            perturbed = alpha.replace_digit(level, ell)
            direct = Fraction(
                apply_map(pv, alpha).value - apply_map(pv, perturbed).value,
                alpha.value - perturbed.value,
            )
            assert got.quotient == direct


def test_derivative_probe_shift():
    b = make_base((3, 5, 7))
    pv = shift_vector(b)
    alpha = encode(Fraction(0), b, 3)
    report = derivative_probe(pv, alpha, 3)
    assert len(report.levels) == 3
    # every level has the adjacent pair achieving slope exactly 1
    assert report.one_at_every_level
    for lq in report.levels:
        assert Fraction(1) in lq.quotients
    assert report.candidates_stable
    assert report.candidates[0] == 1


def test_derivative_probe_modulus_two_level():
    # the Z_2 level blocks slope 1, so the all-level flag honestly drops
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    alpha = encode(Fraction(0), b, 3)
    report = derivative_probe(pv, alpha, 3)
    assert report.levels[0].quotients == (Fraction(-1),)
    assert not report.levels[0].achieves_one
    assert report.levels[1].achieves_one and report.levels[2].achieves_one
    assert not report.one_at_every_level
    assert report.candidates == (-1, 1, 1)
    assert not report.candidates_stable


def test_derivative_probe_identity():
    b = make_base((2, 3, 5))
    pv = identity_perms(b)
    alpha = encode(Fraction(0), b, 3)
    report = derivative_probe(pv, alpha, 3)
    # identity has every quotient equal to 1
    for lq in report.levels:
        assert lq.quotients == (Fraction(1),)
    assert report.one_at_every_level and report.candidates_stable


def test_derivative_probe_quotient_sets():
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    alpha = encode(Fraction(29, 30), b, 3)
    report = derivative_probe(pv, alpha, 3)
    top = report.levels[2]
    # digit 4 against 0..3: quotients (0-1)/4, (0-2)/3, (0-3)/2, (0-4)/1
    assert set(top.quotients) == {
        Fraction(-1, 4),
        Fraction(-2, 3),
        Fraction(-3, 2),
        Fraction(-4),
    }
    assert not top.achieves_one


@given(st.data())
@settings(max_examples=100)
def test_quotient_identity_property(data):
    # closed form always matches the direct two-point computation
    b = make_base((2, 3, 5, 7))
    pv = shift_vector(b)
    digits = tuple(
        data.draw(st.integers(min_value=0, max_value=m - 1)) for m in b.moduli
    )
    alpha = make_expansion(digits, b)
    level = data.draw(st.integers(min_value=0, max_value=3))
    choices = [x for x in range(b.moduli[level]) if x != digits[level]]
    ell = data.draw(st.sampled_from(choices))
    got = difference_quotient(pv, alpha, level, ell)
    perturbed = alpha.replace_digit(level, ell)
    direct = Fraction(
        apply_map(pv, alpha).value - apply_map(pv, perturbed).value,
        alpha.value - perturbed.value,
    )
    assert got.quotient == direct


SHIFT_235 = shift_vector(make_base((2, 3, 5)))
ALPHA_235 = encode(Fraction(29, 30), SHIFT_235.base, 3)


@pytest.mark.parametrize("func, args, error, message", [
    (derivative_probe, (SHIFT_235, ALPHA_235, -1), LevelExceeded, "max level -1 not in [0, 3]"),
    (derivative_probe, (SHIFT_235, ALPHA_235, 4), LevelExceeded, "max level 4 not in [0, 3]"),
    (find_witness_descending, (SHIFT_235, 0, 0, -1), ValidationError, "descent budget -1 < 0"),
    # levels, interval indices and descent budgets are never truncated
    (find_monotonicity_witness, (SHIFT_235, 1, 1.5), MalformedNumber,
     "interval 1.5 is not an integer"),
    (find_witness_descending, (SHIFT_235, 0, 0, 2.5), MalformedNumber,
     "descent budget 2.5 is not an integer"),
    (find_witness_descending, (SHIFT_235, 0.5, 0), MalformedNumber, "level 0.5 is not an integer"),
    (derivative_probe, (SHIFT_235, ALPHA_235, 1.5), MalformedNumber,
     "max level 1.5 is not an integer"),
    (difference_quotient, (SHIFT_235, ALPHA_235, 1.5, 0), MalformedNumber,
     "digit level 1.5 is not an integer"),
    (difference_quotient, (SHIFT_235, ALPHA_235, 1, 0.5), MalformedNumber,
     "digit 0.5 is not an integer"),
    (difference_quotient, (SHIFT_235, ALPHA_235, None, 0), MalformedNumber,
     "digit level None is not an integer"),
    # the level before the perturbed digit ell, which is read by the digit rule
    (difference_quotient, (SHIFT_235, ALPHA_235, 5, 1.5), LevelExceeded,
     "digit level 5 not in [0, 3)"),
    *[(difference_quotient, (SHIFT_235, ALPHA_235, 1, ell), MalformedNumber,
       f"digit {ell!r} is not an integer") for ell in (1.5, None, [1])],
    *[(difference_quotient, (SHIFT_235, ALPHA_235, 1, ell), DigitOutOfRange,
       f"digit {ell} not in [0, 3)") for ell in (-1, 3)],
])
def test_invalid_arguments_raise_their_class_and_message(func, args, error, message):
    with pytest.raises(error) as info:
        func(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("ell", [1.0, True, Fraction(1), "1"], ids=repr)
def test_difference_quotient_reads_an_integral_digit_as_its_int(ell):
    assert difference_quotient(SHIFT_235, ALPHA_235, 1, ell) == difference_quotient(
        SHIFT_235, ALPHA_235, 1, 1
    )


def test_difference_quotient_reads_integral_levels_and_digits_as_ints():
    expected = difference_quotient(SHIFT_235, ALPHA_235, 1, 0)
    for s, ell in ((1.0, 0.0), (Fraction(1), "0"), (True, False)):
        got = difference_quotient(SHIFT_235, ALPHA_235, s, ell)
        assert got == expected
        assert type(got.digit_level) is int and type(got.perturbed_digit) is int


@pytest.mark.parametrize("fake_map, message", [
    # every image equal: the rising pair no longer rises
    (lambda pv, x: DigitExpansion((0,) * len(x.digits), x.base),
     "increasing pair failed re-evaluation"),
    # the identity: the falling pair no longer falls
    (lambda pv, x: x, "decreasing pair failed re-evaluation"),
])
def test_witness_re_evaluation_raises_when_the_map_disagrees(monkeypatch, fake_map, message):
    monkeypatch.setattr(cantorperm.analysis, "apply_map", fake_map)
    with pytest.raises(CheckFalsified) as info:
        find_monotonicity_witness(SHIFT_235, 1, 0)
    assert str(info.value) == message


def test_difference_quotient_raises_when_direct_evaluation_disagrees(monkeypatch):
    # shift on Z_5 at digit 4 -> 0 against 0 -> 1: closed form (0 - 1) / (4 - 0)
    monkeypatch.setattr(cantorperm.analysis, "apply_map", lambda pv, x: x)
    with pytest.raises(CheckFalsified) as info:
        difference_quotient(SHIFT_235, ALPHA_235, 2, 0)
    assert str(info.value) == "difference-quotient identity violated at level 2: -1/4 != 1"


# --- differential oracle: the exception-driven descent the one-scan search replaced ---

def _adjacent_pair(perm, order):
    """First ``(k, k + 1)`` with ``order(image[k], image[k + 1])``, or None."""
    for k in range(perm.modulus - 1):
        if order(perm.image[k], perm.image[k + 1]):
            return k, k + 1
    return None


# the sweep below asks for each vector's witnesses once per budget and start level
@functools.lru_cache(maxsize=64)
def witness_oracle(pv, level, interval_index):
    """The four-point witness at one level of valid arguments: its pairs from
    two scans, its points built through the public codec and map."""
    perm = pv.perms[level]
    rise, fall = _adjacent_pair(perm, operator.lt), _adjacent_pair(perm, operator.gt)
    if rise is None or fall is None:
        missing = "increasing" if rise is None else "decreasing"
        raise NoWitnessAtLevel(f"permutation at level {level} has no {missing} digit pair")
    prefix = prefix_of_interval(level, interval_index, pv.base)
    tail = (0,) * (pv.depth - level - 1)
    points = [DigitExpansion(prefix + (k,) + tail, pv.base) for k in rise + fall]
    return MonotonicityWitness(
        level=level,
        interval_index=interval_index,
        points=tuple(x.value for x in points),
        images=tuple(apply_map(pv, x).value for x in points),
        increasing_digits=rise,
        decreasing_digits=fall,
    )


def descending_oracle(pv, level, interval_index, max_descent=None):
    """The witness of the first level from ``level`` on that has one, found by
    trying each level in turn and catching NoWitnessAtLevel, the interval
    index multiplied by each skipped level's modulus."""
    if max_descent is not None and max_descent < 0:
        raise ValidationError(f"descent budget {max_descent} < 0")
    base = pv.base
    stop = base.depth if max_descent is None else min(level + max_descent + 1, base.depth)
    j = interval_index
    for s in range(level, stop):
        try:
            return witness_oracle(pv, s, j)
        except NoWitnessAtLevel:
            j *= base.moduli[s]
    raise NoWitnessAtLevel(
        f"no witness for interval {interval_index} at level {level} "
        f"within descent budget"
    )


def test_a_two_level_descent_scales_the_interval_by_both_moduli():
    # identities at levels 1 and 2: from interval 1 of level 1 the witness
    # lies at level 3, in its sub-interval 1·3·5 = 15
    pv = parse_permutations("2:1,0\n3:0,1,2\n5:0,1,2,3,4\n7:1,2,3,4,5,6,0", make_base((2, 3, 5, 7)))
    witness = find_witness_descending(pv, 1, 1)
    assert (witness.level, witness.interval_index) == (3, 15)
    assert witness == descending_oracle(pv, 1, 1)


def _outcome(search, *args):
    try:
        return search(*args)
    except NoWitnessAtLevel as exc:
        return type(exc), str(exc)


# every bijection at every level: 2·6·120 = 1,440 vectors and 6·24 = 144 vectors
@pytest.mark.parametrize("moduli, cases", [((2, 3, 5), 51_840), ((3, 4), 2_304)])
def test_witness_search_matches_the_descent_oracle_on_every_small_vector(moduli, cases):
    base = make_base(moduli)
    levels = [[make_unchecked(m, image) for image in itertools.permutations(range(m))]
              for m in moduli]
    checked, mismatches = 0, []
    for perms in itertools.product(*levels):
        pv = PermutationVector(perms, base)
        for level in range(base.depth):
            for j in range(base.products[level]):
                for budget in (None, 0, 1, 2):
                    got = _outcome(find_witness_descending, pv, level, j, budget)
                    if got != _outcome(descending_oracle, pv, level, j, budget):
                        mismatches.append((perms, level, j, budget, got))
                    checked += 1
    assert (checked, mismatches[:3]) == (cases, [])


# find_witness_descending builds its witness without find_monotonicity_witness,
# so this one is swept on its own: every vector as above, level and interval
@pytest.mark.parametrize("moduli, cases", [((2, 3, 5), 12_960), ((3, 4), 576)])
def test_single_level_witness_matches_the_oracle_on_every_small_vector(moduli, cases):
    base = make_base(moduli)
    levels = [[make_unchecked(m, image) for image in itertools.permutations(range(m))]
              for m in moduli]
    checked, mismatches = 0, []
    for perms in itertools.product(*levels):
        pv = PermutationVector(perms, base)
        for level in range(base.depth):
            for j in range(base.products[level]):
                got = _outcome(find_monotonicity_witness, pv, level, j)
                if got != _outcome(witness_oracle, pv, level, j):
                    mismatches.append((perms, level, j, got))
                checked += 1
    assert (checked, mismatches[:3]) == (cases, [])
