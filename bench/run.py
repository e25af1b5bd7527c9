"""The cantorperm benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen): ``orbit_export``,
``equivalence``, ``preserve`` and ``partition``.  One process, one client
thread, closed loop: each operation starts when the previous one returned.

A run builds the workload's deck from the seed, runs it once with every
output checked by the oracles in ``oracles.py`` (untimed warm-up), then
repeats the deck until ``--seconds`` have passed, checking that every
repeated output is identical to the verified one.

``--trace 0`` reports the end-to-end metrics: items per second of the deck
with every slot at its median latency over the passes, per-operation latency
p50 and p90 (pooled over all passes), peak resident memory, and set-up time
(median of several fresh interpreters).  All times are rescaled to a
reference machine speed by the calibration kernels of ``calibrate.py``.
``--trace 1`` runs the deck untraced and then traced for the same number of
passes and reports per-layer self times and counters per deck pass, plus the
tracing overhead.  The last line of stdout is one JSON object; details (span
table, sample counts, raw wall times, environment) go to
``bench/results/<workload>-seed<N>-trace<T>.json``.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_PROBES = 7
MIN_SAMPLES = 110  # latency samples a run collects at least: >= 10 beyond p90
WORKLOAD_NAMES = ("orbit_export", "equivalence", "preserve", "partition")


def probe_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and normalised set-up seconds of ``SETUP_PROBES`` fresh
    interpreters, after one discarded probe that lets bytecode caches be
    written.  Each probe is bracketed by calibration kernels: three here
    before it starts and three in the child after its set-up."""
    raw, norm = [], []
    for i in range(SETUP_PROBES + 1):
        before = statistics.median(calibrate.kernel() for _ in range(3))
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), name, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        elapsed, after = map(float, proc.stdout.split())
        if i:
            raw.append(elapsed)
            norm.append(elapsed * 2 * calibrate.REFERENCE_S / (before + after))
    return raw, norm


@dataclass
class Pass:
    raw: list[float]  # wall seconds per operation
    norm: list[float]  # the same, rescaled to the reference machine speed
    items: int  # items of the operations that succeeded


class Runner:
    """Runs operations in a closed loop and counts what failed."""

    def __init__(self, workload, oracles, deck):
        self.workload, self.oracles, self.deck = workload, oracles, deck
        self.reference: list[str | None] = [None] * len(deck)
        self.expected_s = [0.0] * len(deck)  # wall time of each slot in the verified pass
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.bytes_out = 0

    def _check(self, index: int, output, verify: bool) -> str | None:
        """With ``verify`` the output goes through its oracle and its digest
        is kept; otherwise it must match the kept digest."""
        try:
            digest = self.workload.digest(output)
            if verify:
                self.oracles.check(self.deck[index], output)
                self.reference[index] = digest
            elif digest != self.reference[index]:
                return "output differs from the verified pass"
        except self.oracles.OpFailed as exc:
            return str(exc)
        except Exception:  # malformed output the oracle cannot parse
            return "oracle: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        return None

    def run_pass(self, verify: bool) -> Pass:
        """One pass over the deck, each operation bracketed by calibration
        kernels outside its timed region (see ``calibrate``)."""
        result = Pass([], [], 0)
        clock = time.perf_counter
        for index, op in enumerate(self.deck):
            self.attempted += 1
            error = output = None
            before = calibrate.speed(self.expected_s[index])
            start = clock()
            try:
                output = self.workload.execute(op)
            except self.oracles.OpFailed as exc:
                error = str(exc)
            except Exception:  # any crash of the program is a failed operation
                error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            elapsed = clock() - start
            after = calibrate.speed(self.expected_s[index])
            if verify:
                self.expected_s[index] = elapsed
            result.raw.append(elapsed)
            result.norm.append(elapsed * 2 * calibrate.REFERENCE_S / (before + after))
            if error is None:
                if isinstance(output, str):
                    self.bytes_out += len(output)
                error = self._check(index, output, verify)
            if error is None:
                result.items += op.items
            else:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"op {index} ({op.kind}): {error}")
        return result


def src_line_counts() -> dict[str, int]:
    return {
        path.name: len(path.read_text().splitlines())
        for path in sorted((SRC / "cantorperm").glob("*.py"))
    }


def end_to_end(runner: Runner, name: str, seed: int, seconds: int) -> tuple[dict, dict]:
    setup_raw, setup_norm = probe_setup(name, seed)
    runner.run_pass(verify=True)
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(passes) * len(runner.deck) < MIN_SAMPLES:
        passes.append(runner.run_pass(verify=False))
    latencies = [t for p in passes for t in p.norm]
    p90 = statistics.quantiles(latencies, n=10)[8]
    # the median pass: each deck slot at its median latency over all passes,
    # so a burst of machine noise during one pass does not move it
    median_pass = sum(statistics.median(slot) for slot in zip(*(p.norm for p in passes)))
    items = passes[0].items
    metrics = {
        "items_per_s": (items / median_pass, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_norm), "s"),
    }
    raw = [t for p in passes for t in p.raw]
    details = {
        "passes": len(passes),
        "ops_per_pass": len(runner.deck),
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(t > p90 for t in latencies),
        "raw_wall": {
            "items_per_s": items * len(passes) / sum(raw),
            "op_p50_ms": statistics.median(raw) * 1000,
            "op_p90_ms": statistics.quantiles(raw, n=10)[8] * 1000,
            "setup_s": statistics.median(setup_raw),
        },
        "setup_samples_s": setup_norm,
        "pass_speed_factors": [sum(p.norm) / sum(p.raw) for p in passes],
    }
    if details["samples_beyond_p90"] < 10:
        print(f"warning: only {details['samples_beyond_p90']} samples beyond p90",
              file=sys.stderr)
    return metrics, details


def traced(runner: Runner, seconds: int, tracing) -> tuple[dict, dict]:
    runner.run_pass(verify=True)
    untraced, passes = 0.0, 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds / 2:
        untraced += sum(runner.run_pass(verify=False).norm)
        passes += 1
    bytes_before = runner.bytes_out
    tracer = tracing.Tracer()
    with tracer:
        traced_passes = [runner.run_pass(verify=False) for _ in range(passes)]
    traced_raw = sum(sum(p.raw) for p in traced_passes)
    traced_norm = sum(sum(p.norm) for p in traced_passes)
    # span times are raw wall time; rescale them with the traced passes'
    # overall speed factor so that they add up to the normalised totals
    scale = traced_norm / traced_raw / passes
    metrics = {
        f"{layer}.self_s": (own * scale, "s") for layer, own in tracer.self_times().items()
    }
    metrics["untraced.self_s"] = ((traced_raw - tracer.root_time) * scale, "s")
    metrics["trace.overhead_s"] = ((traced_norm - untraced) / passes, "s")
    metrics["cli.bytes_out"] = ((runner.bytes_out - bytes_before) // passes, "bytes")
    counters = tracer.counters
    metrics["equidist.dstar_points"] = (counters["equidist.dstar_points"] // passes, "count")
    sampled = counters["equidist.sample_iterates"]
    metrics["equidist.redundant_iterate_ratio"] = (
        counters["equidist.redundant_iterates"] / sampled if sampled else 0.0, "ratio"
    )
    metrics["density.residues_scanned"] = (counters["density.residues_scanned"] // passes, "count")
    for metric, target in tracing.CALL_METRICS.items():
        metrics[metric] = (tracer.calls[target] // passes, "count")
    details = {
        "passes": passes,
        "untraced_s": untraced,
        "traced_s": traced_norm,
        "traced_raw_wall_s": traced_raw,
        "absent_layers": tracer.absent_layers(),
        "absent_targets": tracer.absent_targets,
        "broken_counters": sorted(tracer.broken_counters),
        "spans_per_layer_parent": tracer.span_table(),
    }
    if details["absent_layers"]:
        print(f"warning: absent layers {details['absent_layers']}", file=sys.stderr)
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cantorperm" / "__init__.py").is_file():
        print(f"error: no cantorperm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cantorperm

    if Path(cantorperm.__file__).resolve().parent != SRC / "cantorperm":
        print(f"error: imported cantorperm from {cantorperm.__file__}", file=sys.stderr)
        return 2
    import oracles
    import tracing
    import workloads

    deck = workloads.setup(args.workload, args.seed)
    runner = Runner(workloads.WORKLOADS[args.workload], oracles, deck)
    if args.trace:
        metrics, details = traced(runner, args.seconds, tracing)
    else:
        metrics, details = end_to_end(runner, args.workload, args.seed, args.seconds)

    environment = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "src_lines": src_line_counts(),
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "result": result,
        "details": details,
        "ops_failed_ratio": runner.failed / runner.attempted,
        "failures": runner.failures,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{runner.attempted} operations, {runner.failed} failed")
    print(f"  ops_failed_ratio: {runner.failed / runner.attempted:.6g}")
    for key in ("passes", "ops_per_pass", "latency_samples", "samples_beyond_p90"):
        if key in details:
            print(f"  {key}: {details[key]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    print(f"  python {environment['python']}, {environment['cpu_count']} CPUs, "
          f"src lines {sum(environment['src_lines'].values())}; details in {out.relative_to(ROOT)}")
    for failure in runner.failures:
        print(f"  failed: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
