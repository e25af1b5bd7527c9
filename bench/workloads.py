"""Seeded workload decks for the cantorperm benchmark.

A workload builds a *deck*: a fixed list of operations made from ``--seed``.
Every deck slot has a fixed shape (sizes, depth, level, format); the seed
chooses what fills it: the order of the slots, the pairwise-coprime moduli
(a seeded split of a fixed product, so the period ``B_k`` and therefore the
cost of a slot do not depend on the seed), the full-cycle permutations and
the seed point ``alpha``.  Fixed shapes keep the latency quantiles inside
clusters of equal-sized operations, so they do not jump between seeds.

CLI operations run in-process through ``cantorperm.cli.main(argv)`` with
stdout captured; library operations call the package's top-level API.  The
oracles that check the results live in ``oracles.py``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import cantorperm
from cantorperm import cli

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


class OpFailed(Exception):
    """An operation raised, exited with an unexpected code, or disagreed with
    its oracle."""


def split_product(rng: random.Random, primes, count: int) -> list[int]:
    """Seeded pairwise-coprime moduli whose product is ``prod(primes)``: the
    primes are dealt into ``count`` non-empty groups and the group products
    shuffled."""
    pool = list(primes)
    rng.shuffle(pool)
    groups = [[p] for p in pool[:count]]
    for p in pool[count:]:
        rng.choice(groups).append(p)
    moduli = [math.prod(g) for g in groups]
    rng.shuffle(moduli)
    return moduli


def random_cycle(rng: random.Random, modulus: int):
    """A uniformly random full cycle of ``Z_modulus``, built with ``from_cycle``."""
    cycle = list(range(modulus))
    rng.shuffle(cycle)
    return cantorperm.from_cycle(modulus, cycle)


def random_alpha(rng: random.Random) -> Fraction:
    den = rng.randrange(2, 10**6)
    return Fraction(rng.randrange(den), den)


def perms_for(rng: random.Random, moduli, use_shift: bool):
    perms = [cantorperm.shift(m) if use_shift else random_cycle(rng, m) for m in moduli]
    spec = "shift" if use_shift else ";".join(
        f"{p.modulus}:" + ",".join(map(str, p.image)) for p in perms
    )
    return perms, spec


@dataclass
class Op:
    """One closed-loop operation and what its oracle needs to check it."""

    kind: str
    items: int
    moduli: tuple[int, ...]
    images: tuple[tuple[int, ...], ...]
    alpha: Fraction
    params: dict
    argv: list[str] | None = None
    objects: dict = field(default_factory=dict)


def cli_op(kind, items, moduli, perms, spec, alpha, params, argv_tail) -> Op:
    argv = list(argv_tail) + [
        "--bases", ",".join(map(str, moduli)),
        "--perms", spec,
        "--alpha", f"{alpha.numerator}/{alpha.denominator}",
    ]
    return Op(
        kind=kind,
        items=items,
        moduli=tuple(moduli),
        images=tuple(p.image for p in perms),
        alpha=alpha,
        params=params,
        argv=argv,
    )


def run_cli(op: Op) -> str:
    """Run one CLI invocation in-process; return its stdout."""
    sink = io.StringIO()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        raise OpFailed(f"exited via SystemExit({exc.code}): {err.getvalue().strip()}")
    if code != 0:
        raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
    return sink.getvalue()


def cli_digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


# --- orbit_export ---

# (depth, format, rows, copies); row counts make a csv and a json export of
# the same kind cost about the same, and the four bulk exports at depth 9
# are the top fifth of the latencies, so p90 falls inside that cluster
ORBIT_SHAPES = [
    (depth, fmt, rows, 2)
    for depth in (6, 7, 8, 9)
    for fmt, rows in (("csv", 6000), ("json", 3200))
] + [(9, "csv", 12000, 2), (9, "json", 6400, 2)]
ORBIT_TINY = [(6, "csv", 20, 1), (7, "json", 12, 1), (9, "csv", 30, 1)]


def orbit_export_deck(seed: int, tiny: bool = False) -> list[Op]:
    """``orbit --count`` exports at depths 6-9 in csv and json.  ``B_K`` is
    the product of the first ``K + 1`` primes split into ``K`` moduli."""
    rng = random.Random(seed)
    ops = []
    for depth, fmt, rows, copies in ORBIT_TINY if tiny else ORBIT_SHAPES:
        for copy in range(copies):
            count = rows + rng.randrange(-rows // 100, rows // 100 + 1)
            moduli = split_product(rng, PRIMES[: depth + 1], depth)
            perms, spec = perms_for(rng, moduli, use_shift=(copy == 0))
            alpha = random_alpha(rng)
            ops.append(cli_op(
                "orbit", count, moduli, perms, spec, alpha,
                {"count": count, "format": fmt},
                ["orbit", "--count", str(count), "--format", fmt],
            ))
    rng.shuffle(ops)
    return ops


# --- equivalence ---

# (level, sample in periods of B_k, copies): many small sweeps, eight at
# level 5 (the p90 cluster) and one at level 6, whose 30030-class residue
# table and 60060-point D* are the large case
EQUIVALENCE_SHAPES = [(2, 200, 14), (3, 40, 14), (4, 6, 12), (5, 2, 8), (6, 2, 1)]
EQUIVALENCE_TINY = [(2, 3, 1), (3, 2, 1), (4, 2, 1)]


def equivalence_deck(seed: int, tiny: bool = False) -> list[Op]:
    """``check equivalence`` over levels 2-6.  Level ``k`` uses the first
    ``k`` primes in seeded order, so ``B_k`` is fixed per level; one deeper
    level (a seeded prime) is appended.  Samples are whole multiples of
    ``B_k``, at least two periods."""
    rng = random.Random(seed)
    ops = []
    for level, periods, copies in EQUIVALENCE_TINY if tiny else EQUIVALENCE_SHAPES:
        sample = periods * math.prod(PRIMES[:level])
        for copy in range(copies):
            moduli = rng.sample(PRIMES[:level], level) + [rng.choice(PRIMES[level:level + 4])]
            perms, spec = perms_for(rng, moduli, use_shift=(copy % 4 == 0))
            alpha = random_alpha(rng)
            ops.append(cli_op(
                "equivalence", sample, moduli, perms, spec, alpha,
                {"level": level, "count": sample},
                ["check", "equivalence", "--level", str(level), "--count", str(sample),
                 "--format", "json"],
            ))
    rng.shuffle(ops)
    return ops


# --- preserve ---

# (depth, source, points, copies); copy ``c`` probes level ``1 + c % 3``
PRESERVE_SHAPES = [
    (depth, source, 1500, 4) for depth in (5, 6, 7) for source in ("kronecker", "vdc")
]
PRESERVE_TINY = [(5, "kronecker", 64, 1), (6, "vdc", 64, 2)]


def preserve_deck(seed: int, tiny: bool = False) -> list[Op]:
    """``check preserve`` with the kronecker and vdc sources at depth 5-7:
    ``apply_truncated`` on off-grid rationals and D* over non-grid points."""
    rng = random.Random(seed)
    ops = []
    for depth, source, points, copies in PRESERVE_TINY if tiny else PRESERVE_SHAPES:
        for copy in range(copies):
            count = points + rng.randrange(-points // 100, points // 100 + 1)
            moduli = split_product(rng, PRIMES[: depth + 1], depth)
            # the probe needs at least one point per level-``level`` interval
            level = 1 + copy % 3
            while math.prod(moduli[:level]) > count:
                level -= 1
            perms, spec = perms_for(rng, moduli, use_shift=(copy == 0))
            ops.append(cli_op(
                "preserve", count, moduli, perms, spec, Fraction(0),
                {"source": source, "level": level, "count": count},
                ["check", "preserve", "--source", source, "--level", str(level),
                 "--count", str(count), "--format", "json"],
            ))
    rng.shuffle(ops)
    return ops


# --- partition ---

# (prime powers of B_k, level, parts, copies), B_k from 2310 to 13860, in
# three cost clusters: four cheap operations, seven middle ones that hold
# p50 and four expensive ones that hold p90
PARTITION_SHAPES = [
    ((2, 3, 5, 7, 11), 5, 240, 2),
    ((2, 9, 5, 7, 11), 4, 30, 2),
    ((4, 3, 5, 7, 11), 5, 100, 7),
    ((4, 9, 5, 7, 11), 5, 24, 4),
]
PARTITION_TINY = [((2, 3, 5), 2, 4, 1), ((4, 3, 5, 7), 3, 6, 1)]


def partition_deck(seed: int, tiny: bool = False) -> list[Op]:
    """The measurability pipeline through the library: residue classes of
    every level-``k`` interval, seeded grouping into parts, the partition
    criterion, then set algebra on pairs of parts.  ``B_k`` is a fixed
    product per slot, split into seeded moduli."""
    rng = random.Random(seed)
    ops = []
    for powers, level, parts, copies in PARTITION_TINY if tiny else PARTITION_SHAPES:
        period = math.prod(powers)
        for copy in range(copies):
            moduli = split_product(rng, powers, level) + [rng.choice(PRIMES[6:10])]
            perms, _ = perms_for(rng, moduli, use_shift=(copy == 0))
            alpha = random_alpha(rng)
            order = list(range(period))
            rng.shuffle(order)
            groups = [order[i::parts] for i in range(parts)]
            pairs = [tuple(rng.sample(range(parts), 2)) for _ in range(2)]
            base = cantorperm.make_base(moduli)
            pv = cantorperm.PermutationVector(tuple(perms), base)
            seed_digits = cantorperm.encode(alpha, base, len(moduli))
            ops.append(Op(
                kind="partition",
                items=period,
                moduli=tuple(moduli),
                images=tuple(p.image for p in perms),
                alpha=alpha,
                params={"level": level, "groups": groups, "pairs": pairs},
                objects={
                    "pv": pv,
                    "seed_prefix": seed_digits.digits[:level],
                    "orbit": cantorperm.make_orbit(seed_digits, pv),
                },
            ))
    rng.shuffle(ops)
    return ops


def run_partition(op: Op) -> dict:
    """One pass of the pipeline; every call goes through the public API."""
    api = cantorperm
    level = op.params["level"]
    pv = op.objects["pv"]
    seed_prefix = op.objects["seed_prefix"]
    classes = [
        api.prefix_residue(pv, seed_prefix, prefix)
        for prefix in itertools.product(*(range(m) for m in op.moduli[:level]))
    ]
    period = op.items
    parts = [
        api.periodic_set([classes[j].residue for j in group], period)
        for group in op.params["groups"]
    ]
    verdict = api.measurable_partition_check(parts)
    set_ops = []
    for a, b in op.params["pairs"]:
        union = api.union(parts[a], parts[b])
        set_ops.append((api.intersect(parts[a], parts[b]), union, api.normalize(union)))
    return {"classes": classes, "parts": parts, "verdict": verdict, "set_ops": set_ops}


def partition_digest(result: dict) -> str:
    canon = (
        [(c.residue, c.modulus) for c in result["classes"]],
        [str(m) for m in result["verdict"].measures],
        [
            [(ps.modulus, sorted(ps.residues)) for ps in triple]
            for triple in result["set_ops"]
        ],
    )
    return hashlib.sha1(repr(canon).encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    cli: bool  # operations go through ``cli.main``
    make_deck: Callable[[int, bool], list[Op]]
    execute: Callable[[Op], object]
    digest: Callable[[object], str]  # canonical fingerprint of an output


WORKLOADS = {
    "orbit_export": Workload(True, orbit_export_deck, run_cli, cli_digest),
    "equivalence": Workload(True, equivalence_deck, run_cli, cli_digest),
    "preserve": Workload(True, preserve_deck, run_cli, cli_digest),
    "partition": Workload(False, partition_deck, run_partition, partition_digest),
}


def setup(name: str, seed: int, tiny: bool = False) -> list[Op]:
    """Build a workload's reusable objects: the CLI parser for CLI workloads
    and the deck (permutations, bases and orbit specs through the public
    API)."""
    workload = WORKLOADS[name]
    if workload.cli:
        cli.build_parser()
    return workload.make_deck(seed, tiny)
