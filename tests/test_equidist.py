"""Interval counting, membership equivalence, discrepancy, preservation."""
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cantorperm import (
    PermutationVector,
    apply_map,
    apply_truncated,
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
from cantorperm.dynamics import _truncated_numerators, orbit_numerators
from cantorperm.errors import (
    ComputationError,
    EquivalenceViolated,
    LevelExceeded,
    NotFullCycle,
    PointOutOfRange,
    UnknownSource,
    ValidationError,
)
from cantorperm.equidist import SOURCES, LevelReport, PreservationReport, _dstar_cycled
from cantorperm.perms import identity_vector
from test_dynamics import outcome, prime_power_vectors


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
    assert list(orbit_numerators(spec, count)) == [numerator for numerator, _ in pairs]
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


def _orbit_point_proof(spec, level, sample, table):
    """The period proof through orbit_point, one call per iterate ``n <
    min(sample, B_level)``: the loop the numerator read replaced."""
    count = spec.alpha_digits.base.products[level]
    for n in range(min(sample, count)):
        idx = orbit_point(spec, n).digits.prefix_index(level)
        if n != table[idx]:
            raise EquivalenceViolated(
                f"iterate {n} lies in interval {idx} but {n} mod {count} != {table[idx]}"
            )


@pytest.mark.parametrize("level, sample", [(0, 1), (0, 9), (2, 5), (2, 12), (2, 13), (3, 59), (3, 60), (3, 250)])
def test_membership_equivalence_reads_one_numerator_stream(monkeypatch, level, sample):
    # the proof reads the numerators D* reads, and random access only once,
    # on the last iterate it checks
    streams, points = [], []

    def counted_stream(spec, count):
        streams.append(count)
        return orbit_numerators(spec, count)

    def counted_point(spec, n):
        points.append(n)
        return orbit_point(spec, n)

    monkeypatch.setattr(equidist_module, "orbit_numerators", counted_stream)
    monkeypatch.setattr(equidist_module, "orbit_point", counted_point)
    b, pv, spec = _zero_orbit((3, 4, 5))
    membership_equivalence(spec, level, sample)
    assert streams == [min(sample, spec.period)]
    assert points == [min(sample, b.products[level]) - 1]


@pytest.mark.parametrize("level, sample", [(2, 3), (2, 12), (3, 17), (3, 60), (3, 500)])
@pytest.mark.parametrize("swap", [(0, 1), (4, 9), (11, 2)])
def test_membership_equivalence_names_the_iterate_the_orbit_point_proof_names(
    monkeypatch, level, sample, swap
):
    # two classes trade intervals; the first iterate the proof rejects, and
    # the message, are the ones the per-iterate orbit_point loop gives
    b, pv, spec = _zero_orbit((3, 4, 5))
    swapped = {swap[0]: swap[1], swap[1]: swap[0]}
    table = [swapped.get(r, r) for r in residue_table(pv, spec.alpha_digits.digits[:level])]
    expected = outcome(_orbit_point_proof, spec, level, sample, table)
    monkeypatch.setattr(equidist_module, "residue_table", lambda pv, seed_digits: table)
    got = outcome(membership_equivalence, spec, level, sample)
    if expected is None:
        assert isinstance(got, LevelReport)
    else:
        assert got == expected


def test_membership_equivalence_raises_when_stream_and_orbit_point_disagree(monkeypatch):
    # random access one step ahead of the numerator stream is a computation
    # fault, not a violated equivalence
    monkeypatch.setattr(equidist_module, "orbit_point", lambda spec, n: orbit_point(spec, n + 1))
    b, pv, spec = _zero_orbit((3, 4, 5))
    for level, sample in [(0, 1), (2, 12), (3, 60), (3, 250)]:
        with pytest.raises(ComputationError, match="orbit_point"):
            membership_equivalence(spec, level, sample)


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


# --- interval_counts over one period against the full scan it replaced ---

def _full_scan_counts(spec, level, sample):
    """Every one of the ``sample`` iterates by repeated apply_map."""
    if level > spec.depth or level < 0:
        raise LevelExceeded(f"level {level} not in [0, {spec.depth}]")
    if sample < 1:
        raise ValidationError("sample must be >= 1")
    counts, x = [0] * spec.alpha_digits.base.products[level], spec.alpha_digits
    for _ in range(sample):
        counts[x.prefix_index(level)] += 1
        x = apply_map(spec.pv, x)
    return counts


@given(prime_power_vectors(max_period=2000), st.data())
@settings(max_examples=150, deadline=None)
def test_interval_counts_matches_full_scan(pv, data):
    # any bijections, so levels below ``level`` need not be full cycles
    base = pv.base
    depth = data.draw(st.integers(min_value=0, max_value=base.depth))
    seed = tuple(data.draw(st.integers(min_value=0, max_value=m - 1)) for m in base.moduli[:depth])
    spec = make_orbit(make_expansion(seed, base), pv)
    level = data.draw(st.integers(min_value=-1, max_value=depth + 1))
    period = spec.prefix_period(min(max(level, 0), depth))
    sample = data.draw(st.one_of(
        st.sampled_from([period - 1, period, period + 1, 2 * period, 2 * period + 1]),
        st.integers(min_value=-1, max_value=3 * period + 7),
    ))
    expected = outcome(_full_scan_counts, spec, level, sample)
    assert outcome(interval_counts, spec, level, sample) == expected


@given(full_cycle_orbits(), st.data())
@settings(max_examples=80, deadline=None)
def test_interval_counts_matches_the_closed_form_far_past_one_period(orbit, data):
    # both sides read at most one period, so a sample past 10**12 stays cheap
    pv, spec = orbit
    level = data.draw(st.integers(min_value=0, max_value=pv.base.depth))
    sample = 10**12 + data.draw(st.integers(min_value=0, max_value=2 * pv.base.products[level]))
    report = membership_equivalence(spec, level, sample)
    assert interval_counts(spec, level, sample) == [s.count for s in report.intervals]


@pytest.mark.parametrize(
    "moduli, images, level, sample, period",
    [
        ((2, 3, 5), None, 2, 100_000, 6),
        ((2, 3, 5), None, 0, 7, 1),
        ((2, 3, 5), None, 3, 29, 30),
        # digit 0 sits in a 2-cycle of (0 1)(2 3) at level 0: P = lcm(2, 9) < 36
        ((4, 9), ((1, 0, 3, 2), (1, 2, 3, 4, 5, 6, 7, 8, 0)), 2, 40, 18),
        ((4, 9), ((1, 0, 3, 2), tuple(range(9))), 2, 5, 2),
        # 3-cycles through digit 0 at both levels: P = lcm(3, 3), not 3 * 3
        ((4, 9), ((1, 2, 0, 3), (1, 2, 0, 3, 4, 5, 6, 7, 8)), 2, 40, 3),
    ],
)
def test_interval_counts_scans_one_period(monkeypatch, moduli, images, level, sample, period):
    calls = []

    def counted(spec, count):
        calls.append(count)
        return orbit_numerators(spec, count)

    b = make_base(moduli)
    pv = shift_vector(b) if images is None else PermutationVector(
        tuple(make_unchecked(m, im) for m, im in zip(moduli, images)), b
    )
    spec = make_orbit(encode(Fraction(0), b, len(moduli)), pv)
    expected = _full_scan_counts(spec, level, sample)
    monkeypatch.setattr(equidist_module, "orbit_numerators", counted)
    assert interval_counts(spec, level, sample) == expected
    assert spec.prefix_period(level) == period
    assert calls == [min(sample, period)]


# --- the integer preservation probe against the Fraction probe it replaced ---

def _fraction_van_der_corput(count, base=2):
    if base < 2:
        raise ValidationError(f"radix {base} < 2")
    points = []
    for n in range(count):
        num, den = 0, 1
        while n:
            n, d = divmod(n, base)
            num = num * base + d
            den *= base
        points.append(Fraction(num, den))
    return points


def _fraction_kronecker_golden(count):
    a, b = 1, 2
    while b <= 10**15:
        a, b = b, a + b
    return [(n * Fraction(a, b)) % 1 for n in range(count)]


def _fraction_probe(pv, source, sample, level):
    """Fraction source points, each through apply_truncated, counts by
    Fraction floor, D* by star_discrepancy and grid_exact on (num, den)."""
    base = pv.base
    if source not in SOURCES:
        raise UnknownSource(f"source {source!r}, expected one of {SOURCES}")
    if level > base.depth or level < 0:
        raise LevelExceeded(f"level {level} not in [0, {base.depth}]")
    if sample < base.products[level]:
        raise ValidationError(
            f"sample {sample} smaller than the {base.products[level]} level-{level} intervals"
        )
    depth = base.depth
    if source == "vdc":
        points = _fraction_van_der_corput(sample)
    elif source == "kronecker":
        points = _fraction_kronecker_golden(sample)
    else:
        points = grid_points(sample, base, depth)
    images = [apply_truncated(pv, x, depth) for x in points]
    count = base.products[level]
    counts = [0] * count
    for y in images:
        counts[(y.numerator * count) // y.denominator] += 1
    grid_exact = None
    if source == "grid" and sample % base.products[depth] == 0:
        grid_exact = sorted(points) == sorted(images)
    return PreservationReport(
        source=source,
        sample_size=sample,
        level=level,
        input_d_star=star_discrepancy(points).d_star,
        image_d_star=star_discrepancy(images).d_star,
        counts=tuple(counts),
        expected=Fraction(sample, count),
        grid_exact=grid_exact,
    )


@given(prime_power_vectors(max_period=1000), st.data())
@settings(max_examples=150, deadline=None)
def test_preservation_probe_matches_fraction_probe(pv, data):
    base = pv.base
    # mostly valid arguments; an unknown source or level out of range sometimes
    source = data.draw(st.sampled_from(SOURCES * 4 + ("sobol",)))
    level = data.draw(st.one_of(
        st.integers(min_value=0, max_value=base.depth), st.sampled_from([-1, base.depth + 1])
    ))
    # N at, across and below B_level and B_K, or anywhere up to 2 B_K
    low, high = base.products[min(max(level, 0), base.depth)], base.products[base.depth]
    near = [low, low + 1, high - 1, high, high + 1, 2 * high, low - 1]
    sample = data.draw(st.one_of(
        st.sampled_from(near), st.integers(min_value=low, max_value=2 * high + 3)
    ))
    report = outcome(ud_preservation_probe, pv, source, sample, level)
    assert report == outcome(_fraction_probe, pv, source, sample, level)


def collapsed(pv, nums, q, depth):
    """The image tables with grid point 1/30 sent where 0 goes: a map that
    does not permute the grid, and agrees with ``apply_truncated`` at 0."""
    return _truncated_numerators(pv, [p - 1 if 30 * p == q else p for p in nums], q, depth)


@pytest.mark.parametrize("sample", [30, 60])
def test_preservation_probe_grid_exact_sees_a_planted_non_bijection(monkeypatch, sample):
    # the truncated map permutes the grid, so grid_exact is False only for a
    # map that is not one
    b = make_base((2, 3, 5))
    pv = shift_vector(b)
    assert ud_preservation_probe(pv, "grid", sample, 1).grid_exact is True
    monkeypatch.setattr(equidist_module, "_truncated_numerators", collapsed)
    assert ud_preservation_probe(pv, "grid", sample, 1).grid_exact is False


@pytest.mark.parametrize("sample", [6, 29, 30, 31, 61, 95])
def test_preservation_probe_maps_one_grid_period(monkeypatch, sample):
    # the grid repeats with period B_K = 30: no point past the first period
    # goes through the truncated map, and the weighted report is unchanged
    calls = []

    def counted(pv, nums, q, depth):
        calls.append(list(nums))
        return _truncated_numerators(pv, nums, q, depth)

    pv = shift_vector(make_base((2, 3, 5)))
    monkeypatch.setattr(equidist_module, "_truncated_numerators", counted)
    report = ud_preservation_probe(pv, "grid", sample, 1)
    assert [len(nums) for nums in calls] == [min(sample, 30)]
    assert report == _fraction_probe(pv, "grid", sample, 1)


def test_preservation_probe_raises_when_tables_and_apply_truncated_disagree(monkeypatch):
    # the first point also goes through apply_truncated; an image table that
    # moves it is a computation fault, not a falsified check
    def off_by_one(pv, nums, q, depth):
        images = _truncated_numerators(pv, nums, q, depth)
        return [images[0] + 1] + images[1:]

    pv = shift_vector(make_base((2, 3, 5)))
    monkeypatch.setattr(equidist_module, "_truncated_numerators", off_by_one)
    for source in SOURCES:
        with pytest.raises(ComputationError, match="apply_truncated"):
            ud_preservation_probe(pv, source, 60, 1)


FIRST_16_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def test_preservation_probe_tables_stay_as_small_as_the_sample():
    # B_K is about 3.3e19: tables split at sqrt(B_K) would hold billions of
    # entries, tables capped at the 64 points hold a few dozen
    pv = shift_vector(make_base(FIRST_16_PRIMES))
    tracemalloc.start()
    try:
        report = ud_preservation_probe(pv, "vdc", 64, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == _fraction_probe(pv, "vdc", 64, 3)
    assert peak < 100_000


@given(st.integers(min_value=-2, max_value=700), st.sampled_from([0, 1, 2, 3, 5, 7]))
@settings(max_examples=200)
def test_reference_sequences_match_fraction_oracles(count, radix):
    assert outcome(van_der_corput, count, radix) == outcome(_fraction_van_der_corput, count, radix)
    assert kronecker_golden(count) == _fraction_kronecker_golden(count)


def test_van_der_corput_builds_count_terms_for_any_radix():
    # one digit of radix 10**6 covers three terms: no table of 10**6 of them
    tracemalloc.start()
    try:
        points = van_der_corput(3, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points == [Fraction(0), Fraction(1, 10**6), Fraction(2, 10**6)]
    assert peak < 100_000


@given(st.integers(min_value=1, max_value=40), st.data())
@settings(max_examples=300)
def test_dstar_cycled_with_ties_matches_star_discrepancy(q, data):
    # a small denominator repeats numerators, so the sample has ties
    nums = data.draw(st.lists(st.integers(min_value=0, max_value=q - 1), min_size=1, max_size=30))
    sample = data.draw(st.one_of(
        st.just(len(nums)), st.integers(min_value=1, max_value=3 * len(nums) + 2)
    ))
    points = [Fraction(nums[n % len(nums)], q) for n in range(sample)]
    assert _dstar_cycled(nums, sample, q) == star_discrepancy(points).d_star
    if sample == len(nums):
        assert _dstar_cycled(sorted(nums), sample, q) == star_discrepancy(points).d_star


def test_star_discrepancy_rejects_an_empty_sample():
    with pytest.raises(ValidationError) as info:
        star_discrepancy([])
    assert str(info.value) == "empty sample"


ZERO_ORBIT_235 = _zero_orbit()[2]


@pytest.mark.parametrize("func, args, error, message", [
    (interval_counts, (ZERO_ORBIT_235, -1, 30), LevelExceeded, "level -1 not in [0, 3]"),
    (interval_counts, (ZERO_ORBIT_235, 4, 30), LevelExceeded, "level 4 not in [0, 3]"),
    (membership_equivalence, (ZERO_ORBIT_235, -1, 30), LevelExceeded, "level -1 not in [0, 3]"),
    (membership_equivalence, (ZERO_ORBIT_235, 4, 30), LevelExceeded, "level 4 not in [0, 3]"),
    (ud_preservation_probe, (ZERO_ORBIT_235.pv, "vdc", 30, -1), LevelExceeded,
     "level -1 not in [0, 3]"),
    (ud_preservation_probe, (ZERO_ORBIT_235.pv, "vdc", 30, 4), LevelExceeded,
     "level 4 not in [0, 3]"),
])
def test_invalid_arguments_raise_their_class_and_message(func, args, error, message):
    with pytest.raises(error) as info:
        func(*args)
    assert str(info.value) == message
