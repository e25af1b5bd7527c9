"""Tests of the benchmark itself: tiny decks through every workload and
oracle, planted wrong answers, the tracer, and the result-line contract.

Run from the repository root: ``python3 -m pytest -q bench``.
"""
from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import cantorperm  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402
from workloads import OpFailed  # noqa: E402


def tiny_runner(name: str, seed: int = 7) -> Runner:
    deck = workloads.setup(name, seed, tiny=True)
    return Runner(workloads.WORKLOADS[name], oracles, deck)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_deck_passes_every_oracle(name):
    runner = tiny_runner(name)
    first = runner.run_pass(verify=True)
    again = runner.run_pass(verify=False)
    assert runner.failures == []
    assert runner.attempted == 2 * len(runner.deck)
    assert first.items == again.items == sum(op.items for op in runner.deck) > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_deck_is_a_function_of_the_seed(name):
    def shape(deck):
        return [(op.kind, op.argv, op.moduli, op.images, op.alpha) for op in deck]

    a = workloads.setup(name, 3, tiny=True)
    assert shape(a) == shape(workloads.setup(name, 3, tiny=True))
    assert shape(a) != shape(workloads.setup(name, 4, tiny=True))


def test_moduli_are_pairwise_coprime_with_fixed_product():
    rng = random.Random(0)
    for count in (2, 4, 6):
        moduli = workloads.split_product(rng, workloads.PRIMES[:7], count)
        assert len(moduli) == count and math.prod(moduli) == math.prod(workloads.PRIMES[:7])
        cantorperm.make_base(moduli)  # raises unless pairwise coprime


def first_output(name: str):
    runner = tiny_runner(name)
    op = runner.deck[0]
    return op, runner.workload.execute(op)


def bump_first_count(text: str) -> str:
    report = json.loads(text)
    report["intervals"][0]["count"] += 1
    return json.dumps(report)


def bump_last_digit(text: str) -> str:
    head, _, last = text.rstrip("\n").rpartition("\n")
    fields = last.split(",")
    digits = fields[3].split(";")
    digits[-1] = str(int(digits[-1]) ^ 1)
    return f"{head}\n{','.join(fields[:3] + [';'.join(digits)])}\n"


@pytest.mark.parametrize(
    "name, tamper",
    [
        ("equivalence", bump_first_count),
        ("preserve", bump_first_count),
    ],
)
def test_oracle_flags_an_interval_count_off_by_one(name, tamper):
    op, text = first_output(name)
    oracles.check(op, text)
    with pytest.raises(OpFailed):
        oracles.check(op, tamper(text))


def test_oracle_flags_a_wrong_orbit_digit():
    runner = tiny_runner("orbit_export")
    op = next(op for op in runner.deck if op.params["format"] == "csv")
    text = runner.workload.execute(op)
    oracles.check(op, text)
    with pytest.raises(OpFailed):
        oracles.check(op, bump_last_digit(text))


def test_oracle_flags_a_wrong_d_star():
    op, text = first_output("equivalence")
    report = json.loads(text)
    report["d_star_den"] += 1
    with pytest.raises(OpFailed):
        oracles.check(op, json.dumps(report))


def test_planted_wrong_count_in_the_program_fails_the_operation(monkeypatch):
    real = cantorperm.cli.membership_equivalence

    def off_by_one(spec, level, sample):
        report = real(spec, level, sample)
        first = dataclasses.replace(report.intervals[0], count=report.intervals[0].count + 1)
        return dataclasses.replace(report, intervals=(first,) + report.intervals[1:])

    monkeypatch.setattr(cantorperm.cli, "membership_equivalence", off_by_one)
    runner = tiny_runner("equivalence")
    result = runner.run_pass(verify=True)
    assert runner.failed == len(runner.deck)
    assert result.items == 0
    assert all("count" in failure for failure in runner.failures)


def test_planted_wrong_residue_in_the_program_fails_the_operation(monkeypatch):
    real = cantorperm.prefix_residue

    def shifted(pv, from_digits, to_digits):
        cond = real(pv, from_digits, to_digits)
        if all(d == 0 for d in to_digits):
            return cantorperm.ResidueCondition((cond.residue + 1) % cond.modulus, cond.modulus)
        return cond

    monkeypatch.setattr(cantorperm, "prefix_residue", shifted)
    runner = tiny_runner("partition")
    runner.run_pass(verify=True)
    assert runner.failed == len(runner.deck)


def test_a_changed_output_after_the_verified_pass_fails():
    runner = tiny_runner("orbit_export")
    runner.run_pass(verify=True)
    runner.reference[0] = "digest of some other output"
    runner.run_pass(verify=False)
    assert runner.failed == 1
    assert "differs from the verified pass" in runner.failures[0]


EXPECTED_LAYERS = {
    "orbit_export": {"cli", "base", "perms", "dynamics"},
    "equivalence": {"cli", "base", "perms", "dynamics", "equidist"},
    "preserve": {"cli", "base", "perms", "dynamics", "equidist"},
    "partition": {"perms", "density"},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_reports_the_layers_each_workload_calls(name):
    runner = tiny_runner(name)
    runner.run_pass(verify=True)
    originals = (cantorperm.cli.main, cantorperm.prefix_residue,
                 cantorperm.base.DigitExpansion.value)
    with tracing.Tracer() as tracer:
        runner.run_pass(verify=False)
    assert (cantorperm.cli.main, cantorperm.prefix_residue,
            cantorperm.base.DigitExpansion.value) == originals
    assert runner.failures == []
    assert tracer.absent_layers() == []
    busy = {layer for layer, own in tracer.self_times().items() if own > 0}
    assert busy == EXPECTED_LAYERS[name]
    assert tracer.stack == []


def test_tracer_reports_a_missing_name_as_absent(monkeypatch):
    targets = [t for t in tracing.TARGETS if t[2] != "density"]
    targets.append(("cantorperm", "no_such_function", "density", None))
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent_targets == ["cantorperm.no_such_function"]
    assert tracer.absent_layers() == ["density"]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_trace_run_prints_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, "--workload", "orbit_export", "--seed", "5", "--seconds", "1",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "partition", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
