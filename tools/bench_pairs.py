"""Alternating parent/change runs of the benchmark, summarised as one
``BENCH_<n>.json``.

Usage (from the repository root):

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_12.json \\
        [--what TEXT]

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts, each with its own
``bench/`` and ``src/``.  Every workload gets ``PAIRS`` pairs; pair ``i``
runs

    python3 bench/run.py --workload W --seed 1 --seconds 20 --trace 0

once in each directory, one run at a time: the parent first when ``i`` is
even, the change first when it is odd.  The metrics are read from the last
stdout line of each run.  The workloads and the end-to-end metrics, their
units, directions and bounds, come from ``BENCHMARK.json`` in
``PARENT_DIR``; the script stops before any run if ``CHANGE_DIR``'s
``BENCHMARK.json`` lists other workloads or end-to-end metrics, so a change
cannot be judged against bounds it set itself.  Nothing under either
directory's ``bench/`` is changed by this script (``bench/run.py`` itself
writes its details under ``bench/results/``).

Per workload the output holds ``runs``, ``attempted``, ``failed`` and
``all_correct`` for each side, and per end-to-end metric its ``unit``,
``better`` and ``bound``; each side's ``median``, ``q1`` and ``q3``
(``statistics.quantiles(method="inclusive")``) and ``runs_by_pair``; and
``change_wins`` (pairs where the change is strictly better),
``median_change_pct`` (signed change of the median, in percent) and
``parent_iqr``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
SEED = 1
SECONDS = 20


def benchmark_spec(parent: Path, change: Path) -> dict:
    """The parent's ``BENCHMARK.json``, once the change's is seen to list the
    same workloads and end-to-end metrics."""
    specs = [json.loads((d / "BENCHMARK.json").read_text()) for d in (parent, change)]
    for key in ("workloads", "end_to_end"):
        if specs[0][key] != specs[1][key]:
            raise ValueError(f"BENCHMARK.json {key} differ between {parent} and {change}")
    return specs[0]


def run_once(directory: Path, workload: str) -> dict:
    """One ``bench/run.py`` run in ``directory``: its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=directory, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _side(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3,
            "runs_by_pair": [round(v, 4) for v in values]}


def summarise(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """One workload's summary from the run results of both sides, listed in
    pair order; ``end_to_end`` is the ``BENCHMARK.json`` list of the same
    name."""
    if len(runs["parent"]) != len(runs["change"]) or len(runs["parent"]) < 2:
        raise ValueError("need the same number of runs on both sides, at least 2")
    summary = {
        "runs": {side: len(runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "all_correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
    }
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        parent, change = _side(values["parent"]), _side(values["change"])
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": parent,
            "change": change,
            "change_wins": f"{wins}/{len(values['parent'])}",
            "median_change_pct": round(100 * (change["median"] / parent["median"] - 1), 2),
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)
    try:
        spec = benchmark_spec(args.parent, args.change)
    except ValueError as exc:
        parser.error(str(exc))

    dirs = {"parent": args.parent, "change": args.change}
    summaries = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in SIDES}
        for pair in range(PAIRS):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_once(dirs[side], workload)
                runs[side].append(result)
                print(f"{workload} pair {pair} {side}: "
                      f"{json.dumps(result['metrics'].get('items_per_s'))}", file=sys.stderr)
        summaries[workload] = summarise(runs, spec["end_to_end"])

    report = {
        "what": args.what,
        "method": (
            f"python3 bench/run.py --workload W --seed {SEED} --seconds {SECONDS} "
            f"--trace 0, run from a parent and a change checkout by tools/bench_pairs.py; "
            f"{PAIRS} pairs per workload, parent first in even pairs and change first "
            f"in odd pairs, one run at a time; Python {platform.python_version()}, "
            f"{os.cpu_count()} CPUs; metrics as printed on the last stdout line (times "
            f"rescaled to the reference machine by bench/calibrate.py); quartiles by "
            f"statistics.quantiles(method='inclusive')"
        ),
        "workloads": summaries,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
