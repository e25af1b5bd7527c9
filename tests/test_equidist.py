"""Interval counting, membership equivalence, discrepancy, preservation."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cantorperm import (
    PermutationVector,
    apply_map,
    encode,
    from_cycle,
    grid_points,
    interval_counts,
    kronecker_golden,
    make_base,
    make_expansion,
    make_orbit,
    make_unchecked,
    membership_equivalence,
    orbit_point,
    orbit_prefix,
    prefix_of_interval,
    prefix_residue,
    residue_table,
    shift_vector,
    star_discrepancy,
    ud_preservation_probe,
    van_der_corput,
)
import cantorperm.equidist as equidist_module
from cantorperm.errors import (
    EquivalenceViolated,
    LevelExceeded,
    NotFullCycle,
    PointOutOfRange,
    UnknownSource,
    ValidationError,
)
from cantorperm.perms import identity_vector


def _zero_orbit(moduli=(2, 3, 5)):
    b = make_base(moduli)
    pv = shift_vector(b)
    return b, pv, make_orbit(encode(Fraction(0), b, len(moduli)), pv)


def test_star_discrepancy_single_point():
    assert star_discrepancy([Fraction(0)]).d_star == 1


def test_star_discrepancy_two_points():
    assert star_discrepancy([Fraction(0), Fraction(1, 2)]).d_star == Fraction(1, 2)


def test_star_discrepancy_grid_optimal():
    # the left-endpoint grid has the least possible discrepancy 1/N
    for n in (2, 5, 30):
        pts = [Fraction(k, n) for k in range(n)]
        assert star_discrepancy(pts).d_star == Fraction(1, n)


def test_star_discrepancy_order_invariant():
    pts = [Fraction(2, 5), Fraction(0), Fraction(4, 5), Fraction(1, 5)]
    assert star_discrepancy(pts).d_star == star_discrepancy(sorted(pts)).d_star


def test_star_discrepancy_rejects_outside():
    with pytest.raises(PointOutOfRange):
        star_discrepancy([Fraction(1)])


def test_interval_counts_level_one():
    b, pv, spec = _zero_orbit()
    assert interval_counts(spec, 1, 12) == [6, 6]


def test_interval_counts_level_three_balanced():
    b, pv, spec = _zero_orbit()
    assert interval_counts(spec, 3, 60) == [2] * 30


def test_interval_counts_uneven_sample():
    # 61 points: one interval gets the extra visit, spread stays <= 1
    b, pv, spec = _zero_orbit()
    counts = interval_counts(spec, 3, 61)
    assert sum(counts) == 61
    assert max(counts) - min(counts) == 1


def test_membership_equivalence_report():
    b, pv, spec = _zero_orbit()
    report = membership_equivalence(spec, 2, 60)
    assert report.level == 2
    assert report.sample_size == 60
    assert [s.count for s in report.intervals] == [10] * 6
    # residues of the six intervals form a complete system mod 6
    assert sorted(s.residue.residue for s in report.intervals) == list(range(6))
    assert all(s.residue.modulus == 6 for s in report.intervals)
    assert all(s.expected == 10 for s in report.intervals)


def test_membership_equivalence_nonzero_seed():
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    spec = make_orbit(encode(Fraction(29, 30), b, 3), pv)
    report = membership_equivalence(spec, 3, 120)
    assert [s.count for s in report.intervals] == [4] * 30


def test_membership_equivalence_needs_full_cycles():
    b = make_base((2, 3, 5))
    pv = identity_vector(b)
    spec = make_orbit(encode(Fraction(0), b, 3), pv)
    with pytest.raises(NotFullCycle):
        membership_equivalence(spec, 1, 10)


def test_van_der_corput_prefix():
    got = van_der_corput(8)
    assert got == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(3, 4),
        Fraction(1, 8),
        Fraction(5, 8),
        Fraction(3, 8),
        Fraction(7, 8),
    ]


def test_van_der_corput_low_discrepancy():
    pts = van_der_corput(256)
    assert star_discrepancy(pts).d_star <= Fraction(9, 256)


def test_kronecker_golden_distinct():
    pts = kronecker_golden(200)
    assert len(set(pts)) == 200
    assert all(0 <= p < 1 for p in pts)
    # equidistribution at this sample size: no long gaps
    assert star_discrepancy(pts).d_star < Fraction(1, 20)


def test_grid_points():
    b = make_base((2, 3, 5))
    pts = grid_points(30, b, 3)
    assert pts == [Fraction(k, 30) for k in range(30)]
    assert grid_points(60, b, 3)[30] == Fraction(0)


def test_preserve_grid_exact():
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    probe = ud_preservation_probe(pv, "grid", 30, 2)
    assert probe.grid_exact is True
    assert probe.input_d_star == probe.image_d_star == Fraction(1, 30)
    assert probe.counts == (5,) * 6


def test_preserve_vdc_small():
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    probe = ud_preservation_probe(pv, "vdc", 64, 1)
    assert probe.sample_size == 64
    assert probe.counts == (32, 32)
    assert probe.image_d_star < Fraction(1, 20)
    assert probe.grid_exact is None


def test_preserve_kronecker_small():
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    probe = ud_preservation_probe(pv, "kronecker", 300, 1)
    assert probe.image_d_star < Fraction(1, 10)


def test_preserve_unknown_source():
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    with pytest.raises(UnknownSource):
        ud_preservation_probe(pv, "sobol", 10, 1)


@given(st.integers(min_value=1, max_value=500))
@settings(max_examples=60)
def test_star_discrepancy_lower_bound_property(n):
    # any n-point set has discrepancy at least 1/(2n); vdc stays near that
    pts = van_der_corput(n)
    d = star_discrepancy(pts).d_star
    assert d >= Fraction(1, 2 * n)


@given(st.integers(min_value=1, max_value=120), st.integers(min_value=1, max_value=3))
@settings(max_examples=60)
def test_counts_sum_property(sample, level):
    b, pv, spec = _zero_orbit()
    counts = interval_counts(spec, level, sample)
    assert len(counts) == b.period(level)
    assert sum(counts) == sample
    assert max(counts) - min(counts) <= 1


# --- differential oracles: the replaced Fraction closed form and n-fold apply_map ---

def _fraction_dstar(points):
    ordered = sorted(points)
    n = len(ordered)
    best = Fraction(0)
    for i, x in enumerate(ordered, start=1):
        best = max(best, Fraction(i, n) - x, x - Fraction(i - 1, n))
    return best


UNIT_POINTS = st.builds(
    lambda q, p: Fraction(p % q, q),
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=0, max_value=10**12),
)


@given(
    st.lists(UNIT_POINTS, min_size=1, max_size=12).flatmap(
        # drawing from a small pool repeats points, so the sample has ties
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)
    )
)
@settings(max_examples=300)
def test_star_discrepancy_matches_fraction_closed_form(points):
    result = star_discrepancy(points)
    assert result.sample_size == len(points)
    assert result.d_star == _fraction_dstar(points)


@st.composite
def full_cycle_orbits(draw):
    moduli = draw(st.sampled_from([(3, 4, 5), (2, 5, 7), (5, 7), (4, 3, 7, 5)]))
    cycles = [draw(st.permutations(range(m))) for m in moduli]
    base = make_base(moduli)
    pv = PermutationVector(
        tuple(from_cycle(m, c) for m, c in zip(moduli, cycles)), base
    )
    assume(pv.perms != shift_vector(base).perms)
    seed = tuple(draw(st.integers(min_value=0, max_value=m - 1)) for m in moduli)
    return pv, make_orbit(make_expansion(seed, base), pv)


@given(full_cycle_orbits(), st.data())
@settings(max_examples=60, deadline=None)
def test_orbit_scan_matches_repeated_apply_map(orbit, data):
    pv, spec = orbit
    base = pv.base
    level = data.draw(st.integers(min_value=0, max_value=base.depth))
    sample = data.draw(st.integers(min_value=1, max_value=3 * base.products[level] + 5))
    count = base.products[level]
    x, values, counts = spec.alpha_digits, [], [0] * count
    for n in range(sample):
        assert orbit_point(spec, n).digits.digits == x.digits
        idx = x.prefix_index(level)
        counts[idx] += 1
        values.append(x.value)
        x = apply_map(pv, x)
    assert interval_counts(spec, level, sample) == counts
    report = membership_equivalence(spec, level, sample)
    assert [s.count for s in report.intervals] == counts
    assert report.d_star == _fraction_dstar(values)
    for n, value in enumerate(values):
        idx = (value.numerator * count) // value.denominator
        assert report.intervals[idx].residue.residue == n % count


@given(full_cycle_orbits(), st.data())
@settings(max_examples=80, deadline=None)
def test_orbit_prefix_matches_orbit_point(orbit, data):
    pv, spec = orbit
    base = pv.base
    depth = data.draw(st.integers(min_value=0, max_value=base.depth))
    spec = make_orbit(make_expansion(spec.alpha_digits.digits[:depth], base), pv)
    count = data.draw(st.integers(min_value=1, max_value=4 * base.products[depth] + 3))
    pairs = list(orbit_prefix(spec, count))
    assert len(pairs) == count
    for n, (numerator, digits) in enumerate(pairs):
        assert digits == orbit_point(spec, n).digits.digits
        assert numerator == base.index_of(digits)


# points within 2**-64 of each other share floor(x * 2**64), so only the exact
# tie-break orders them; equal values and the int 0 next to Fraction(0) too
CLOSE_POINTS = st.builds(
    lambda base, k: base + Fraction(k, 2**80),
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(1, 2)]),
    st.integers(min_value=0, max_value=2**10),
)


@given(st.lists(st.one_of(CLOSE_POINTS, st.just(0), UNIT_POINTS), min_size=1, max_size=30))
@settings(max_examples=300)
def test_star_discrepancy_orders_close_equal_and_mixed_points(points):
    assert star_discrepancy(points).d_star == _fraction_dstar(points)


def test_star_discrepancy_rejects_int_one():
    with pytest.raises(PointOutOfRange):
        star_discrepancy([0, 1])


# --- membership_equivalence against the full scan it replaced ---

def _full_scan_equivalence(spec, level, sample):
    """Every iterate through orbit_point, one prefix_residue per class, and
    D* of all ``sample`` values: the per-iterate check the period proof replaced."""
    base, pv = spec.alpha_digits.base, spec.pv
    if not 0 <= level <= spec.depth:
        raise LevelExceeded(f"level {level}")
    if sample < 1:
        raise ValidationError("sample")
    if not all(p.full_cycle for p in pv.perms[:level]):
        raise NotFullCycle("levels below the report")
    count = base.products[level]
    seed_prefix = spec.alpha_digits.digits[:level]
    classes = [
        prefix_residue(pv, seed_prefix, prefix_of_interval(level, j, base))
        for j in range(count)
    ]
    counts, values = [0] * count, []
    for n in range(sample):
        point = orbit_point(spec, n).digits
        idx = point.prefix_index(level)
        assert classes[idx].contains(n)
        counts[idx] += 1
        values.append(point.value)
    return (
        [(j, classes[j], counts[j], Fraction(sample, count)) for j in range(count)],
        _fraction_dstar(values),
    )


@st.composite
def leveled_orbits(draw):
    """A seed, full cycles below a drawn level ``k`` and any bijection from
    ``k`` on, so the orbit's period ``P`` need not be ``B_K``; with a small
    chance one level below ``k`` is not a full cycle either."""
    moduli = draw(st.sampled_from([(3, 4, 5), (2, 5, 7), (5, 7), (4, 3, 7, 5), (9, 4)]))
    base = make_base(moduli)
    level = draw(st.integers(min_value=0, max_value=len(moduli)))
    broken = draw(st.sampled_from([None] * 9 + list(range(level))))
    perms = []
    for j, m in enumerate(moduli):
        image = draw(st.permutations(range(m)))
        if j < level and j != broken:
            perms.append(from_cycle(m, image))
        elif j == broken:
            perms.append(make_unchecked(m, range(m)))
        else:
            perms.append(make_unchecked(m, image))
    pv = PermutationVector(tuple(perms), base)
    seed = tuple(draw(st.integers(min_value=0, max_value=m - 1)) for m in moduli)
    return make_orbit(make_expansion(seed, base), pv), level


def _samples_around(spec, level):
    """Sample sizes below, at and across the level period and the orbit period."""
    marks = (spec.alpha_digits.base.products[level], spec.period)
    near = [mark + d for mark in marks for d in (-1, 0, 1)]
    return st.one_of(
        st.sampled_from(sorted({n for n in near if n >= 1})),
        st.integers(min_value=1, max_value=3 * max(marks) + 7),
    )


@given(leveled_orbits(), st.data())
@settings(max_examples=200, deadline=None)
def test_membership_equivalence_matches_full_scan(case, data):
    spec, level = case
    sample = data.draw(_samples_around(spec, level))
    try:
        expected = _full_scan_equivalence(spec, level, sample)
    except NotFullCycle:
        with pytest.raises(NotFullCycle):
            membership_equivalence(spec, level, sample)
        return
    report = membership_equivalence(spec, level, sample)
    intervals, d_star = expected
    assert [(s.index, s.residue, s.count, s.expected) for s in report.intervals] == intervals
    assert report.d_star == d_star
    assert (report.level, report.sample_size) == (level, sample)
    assert report.period_proved == (sample >= spec.alpha_digits.base.products[level])


@pytest.mark.parametrize("level, sample", [(0, 1), (0, 9), (2, 5), (2, 12), (2, 13), (3, 59), (3, 60), (3, 250)])
def test_membership_equivalence_scans_one_period(monkeypatch, level, sample):
    calls = []

    def counted(spec, n):
        calls.append(n)
        return orbit_point(spec, n)

    monkeypatch.setattr(equidist_module, "orbit_point", counted)
    b, pv, spec = _zero_orbit((3, 4, 5))
    membership_equivalence(spec, level, sample)
    assert calls == list(range(min(sample, b.products[level])))


def _planted(edit):
    def table(pv, seed_digits):
        return edit(residue_table(pv, seed_digits))
    return table


@pytest.mark.parametrize("sample", [2, 60, 61, 500])
@pytest.mark.parametrize(
    "edit, message",
    [
        # two classes trade intervals: still a complete system, caught by the proof
        (lambda t: [{0: 1, 1: 0}.get(r, r) for r in t], "iterate 0 lies in interval"),
        # one class twice: not a complete system
        (lambda t: [r or 1 for r in t], "do not form a complete system"),
    ],
)
def test_membership_equivalence_rejects_a_planted_table(monkeypatch, sample, edit, message):
    monkeypatch.setattr(equidist_module, "residue_table", _planted(edit))
    b, pv, spec = _zero_orbit((3, 4, 5))
    with pytest.raises(EquivalenceViolated, match=message):
        membership_equivalence(spec, 3, sample)
