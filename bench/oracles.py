"""Independent oracles for the benchmark's operations.

They run outside the timed region and share no code path with the package
under test except where noted: orbits are stepped one iterate at a time
through each permutation's ``image`` table (not through the cycle tables that
``orbit_point`` uses), values and star discrepancies are recomputed on
integers over a common denominator, and interval counts come from their
closed form ``ceil((N - r_j) / B_k)``.  Each oracle raises ``OpFailed`` on
the first mismatch.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import cantorperm
from workloads import Op, OpFailed


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise OpFailed(f"oracle: {message}")


def greedy_digits(num: int, den: int, moduli) -> tuple[list[int], int]:
    """Digits of ``num/den`` and the remaining tail numerator (over ``den``)."""
    digits = []
    for m in moduli:
        b, num = divmod(num * m, den)
        digits.append(b)
    return digits, num


def horner(digits, moduli) -> int:
    num = 0
    for b, m in zip(digits, moduli):
        num = num * m + b
    return num


def stepped_orbit(op: Op, count: int):
    """Yield the digit vectors of iterates ``0 .. count-1``, each obtained
    from the previous one by applying every level's ``image`` table."""
    digits, _ = greedy_digits(op.alpha.numerator, op.alpha.denominator, op.moduli)
    images = op.images
    for _ in range(count):
        yield digits
        digits = [images[j][b] for j, b in enumerate(digits)]


def star_discrepancy(nums, den: int) -> Fraction:
    """Exact D* of the points ``nums[i] / den``, on integers:
    ``max_i max(i*L - a_i*N, a_i*N - (i-1)*L) / (N*L)``."""
    n = len(nums)
    best = 0
    for i, a in enumerate(sorted(nums), start=1):
        best = max(best, i * den - a * n, a * n - (i - 1) * den)
    return Fraction(best, n * den)


def as_common(fracs: list[tuple[int, int]]) -> tuple[list[int], int]:
    den = math.lcm(*(d for _, d in fracs))
    return [num * (den // d) for num, d in fracs], den


# --- orbit_export ---

def check_orbit(op: Op, text: str) -> None:
    count, fmt = op.params["count"], op.params["format"]
    if fmt == "csv":
        lines = text.splitlines()
        expect(lines[0] == "n,value_num,value_den,digits", f"csv header {lines[0]!r}")
        rows = []
        for line in lines[1:]:
            n, num, den, digs = line.split(",")
            rows.append((int(n), int(num), int(den), [int(d) for d in digs.split(";")]))
    else:
        rows = [
            (r["n"], r["value_num"], r["value_den"], r["digits"]) for r in json.loads(text)
        ]
    expect(len(rows) == count, f"{len(rows)} rows, expected {count}")
    full = math.prod(op.moduli)
    for n, (digits, row) in enumerate(zip(stepped_orbit(op, count), rows)):
        expect(row[0] == n, f"row {n} has index {row[0]}")
        expect(row[3] == digits, f"row {n} digits {row[3]} != {digits}")
        value = Fraction(horner(digits, op.moduli), full)
        expect(
            (row[1], row[2]) == (value.numerator, value.denominator),
            f"row {n} value {row[1]}/{row[2]} != {value}",
        )


# --- equivalence ---

def check_equivalence(op: Op, text: str) -> None:
    level, sample = op.params["level"], op.params["count"]
    report = json.loads(text)
    period = math.prod(op.moduli[:level])
    full = math.prod(op.moduli)
    expect(report["level"] == level and report["N"] == sample, "level or N echoed wrongly")
    intervals = report["intervals"]
    expect(len(intervals) == period, f"{len(intervals)} intervals, expected {period}")

    values = []
    first_visit = [-1] * period
    below = full // period
    for n, digits in enumerate(stepped_orbit(op, sample)):
        a = horner(digits, op.moduli)
        values.append(a)
        if n < period:
            j = a // below
            expect(first_visit[j] == -1, f"interval {j} visited twice in one period")
            first_visit[j] = n

    expected = Fraction(sample, period)
    for j, stat in enumerate(intervals):
        r = first_visit[j]
        expect(stat["j"] == j, f"interval {j} reported as {stat['j']}")
        expect(
            (stat["residue"], stat["modulus"]) == (r, period),
            f"interval {j} class {stat['residue']}+({stat['modulus']}) != {r}+({period})",
        )
        expect(
            stat["count"] == -((r - sample) // period),
            f"interval {j} count {stat['count']} != ceil(({sample} - {r})/{period})",
        )
        expect(
            (stat["expected_num"], stat["expected_den"])
            == (expected.numerator, expected.denominator),
            f"interval {j} expected count",
        )
    d_star = star_discrepancy(values, full)
    expect(
        (report["d_star_num"], report["d_star_den"]) == (d_star.numerator, d_star.denominator),
        f"d_star {report['d_star_num']}/{report['d_star_den']} != {d_star}",
    )


# --- preserve ---

def source_points(source: str, count: int) -> list[tuple[int, int]]:
    if source == "vdc":
        points = []
        for n in range(count):
            num, den = 0, 1
            while n:
                n, d = divmod(n, 2)
                num, den = 2 * num + d, 2 * den
            points.append((num, den))
        return points
    # rotation by the Fibonacci quotient F_k / F_{k+1} with F_{k+1} the
    # first term of 2, 3, 5, 8, ... above 10**15
    a, b = 1, 2
    while b <= 10**15:
        a, b = b, a + b
    return [((n * a) % b, b) for n in range(count)]


def check_preserve(op: Op, text: str) -> None:
    source, level, sample = op.params["source"], op.params["level"], op.params["count"]
    report = json.loads(text)
    expect(
        (report["source"], report["N"], report["level"]) == (source, sample, level),
        "source, N or level echoed wrongly",
    )
    period = math.prod(op.moduli[:level])
    full = math.prod(op.moduli)
    points = source_points(source, sample)
    images = []
    counts = [0] * period
    for p, q in points:
        digits, tail = greedy_digits(p, q, op.moduli)
        num = horner([op.images[j][b] for j, b in enumerate(digits)], op.moduli) * q + tail
        images.append((num, full * q))
        counts[num * period // (full * q)] += 1

    got = [s["count"] for s in report["intervals"]]
    expect(sum(got) == sample, f"counts sum to {sum(got)}, expected {sample}")
    expect(got == counts, "per-interval image counts differ from the recomputation")
    for key, fracs in (("input", points), ("image", images)):
        d_star = star_discrepancy(*as_common(fracs))
        reported = (report[f"{key}_d_star_num"], report[f"{key}_d_star_den"])
        expect(
            reported == (d_star.numerator, d_star.denominator),
            f"{key} d_star {reported[0]}/{reported[1]} != {d_star}",
        )
    expect(report["grid_exact"] is None, "grid_exact set for a non-grid source")


# --- partition ---

def prime_factors(m: int) -> list[int]:
    factors, p = [], 2
    while p * p <= m:
        if m % p == 0:
            factors.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return factors + ([m] if m > 1 else [])


def check_partition(op: Op, result: dict) -> None:
    level = op.params["level"]
    period = op.items
    classes = result["classes"]
    expect(len(classes) == period, f"{len(classes)} classes, expected {period}")
    expect(all(c.modulus == period for c in classes), "a class has the wrong modulus")
    residues = [c.residue for c in classes]
    expect(sorted(residues) == list(range(period)), f"classes are no complete system mod {period}")

    # one full period of the level-``level`` prefix, stepped through ``image``
    moduli = op.moduli[:level]
    for n, digits in enumerate(stepped_orbit(op, period)):
        j = horner(digits[:level], moduli)
        expect(residues[j] == n, f"iterate {n} lies in interval {j} of class {residues[j]}")

    # spot checks far out in the orbit, through ``orbit_point``
    rng = random.Random(period)
    for j in rng.sample(range(period), min(period, 16)):
        n = residues[j] + period * rng.randrange(10**9)
        digits = cantorperm.orbit_point(op.objects["orbit"], n).digits.digits
        expect(horner(digits[:level], moduli) == j, f"orbit_point({n}) misses interval {j}")

    parts = result["parts"]
    measures = result["verdict"].measures
    expect(sum(measures) == 1, f"measures sum to {sum(measures)}")
    for i, (group, part, measure) in enumerate(zip(op.params["groups"], parts, measures)):
        expect(
            part.modulus == period and part.residues == {residues[j] for j in group},
            f"part {i} does not hold the classes of its intervals",
        )
        expect(measure == Fraction(len(group), period), f"part {i}'s measure is not its density")
    for (a, b), (inter, union, norm) in zip(op.params["pairs"], result["set_ops"]):
        expect(inter.modulus == period and not inter.residues, f"parts {a} and {b} intersect")
        joined = parts[a].residues | parts[b].residues
        expect(
            union.modulus == period and union.residues == joined, f"union of parts {a}, {b}"
        )
        expect(period % norm.modulus == 0, f"normalized modulus {norm.modulus} does not divide {period}")
        expect(
            all((n % norm.modulus in norm.residues) == (n in joined) for n in range(period)),
            f"normalize changed the union of parts {a}, {b}",
        )
        m = norm.modulus
        for p in prime_factors(m):
            step = m // p
            expect(
                not all((r + step) % m in norm.residues for r in norm.residues),
                f"normalized modulus {m} of parts {a}, {b} is not the least",
            )


ORACLES = {
    "orbit": check_orbit,
    "equivalence": check_equivalence,
    "preserve": check_preserve,
    "partition": check_partition,
}


def check(op: Op, output) -> None:
    ORACLES[op.kind](op, output)
