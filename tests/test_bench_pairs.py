"""The summary step of ``tools/bench_pairs.py`` on hand-made run lists, and
the environment its runs get."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.15},
]


def _run(items, p50, attempted=10, failed=0, correct=True):
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {"items_per_s": {"value": items, "unit": "1/s"},
                    "op_p50_ms": {"value": p50, "unit": "ms"}},
    }


def test_summary_counts_quartiles_and_wins():
    runs = {
        "parent": [_run(100, 2.0), _run(110, 3.0), _run(120, 1.0), _run(130, 4.0), _run(140, 5.0)],
        "change": [_run(105, 2.0), _run(100, 2.5), _run(125, 1.5), _run(150, 3.0, failed=1),
                   _run(160, 4.0, correct=False)],
    }
    summary = bench_pairs.summarise(runs, END_TO_END)
    assert summary["runs"] == {"parent": 5, "change": 5}
    assert summary["attempted"] == {"parent": 50, "change": 50}
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["all_correct"] == {"parent": True, "change": False}

    items = summary["items_per_s"]
    assert (items["unit"], items["better"], items["bound"]) == ("1/s", "higher", 0.15)
    # inclusive quartiles of 100..140 step 10
    assert items["parent"] == {"median": 120, "q1": 110, "q3": 130,
                               "runs_by_pair": [100, 110, 120, 130, 140]}
    assert items["change"]["median"] == 125
    assert items["change_wins"] == "4/5"
    assert items["median_change_pct"] == pytest.approx(4.17)
    assert items["parent_iqr"] == 20

    # lower is better: equal values are no win, and the pairs are compared in order
    p50 = summary["op_p50_ms"]
    assert p50["change_wins"] == "3/5"
    assert p50["median_change_pct"] == pytest.approx(-16.67)
    assert p50["parent_iqr"] == pytest.approx(2.0)


def test_summary_rounds_runs_to_four_places():
    runs = {"parent": [_run(1.234567, 1), _run(2, 1)], "change": [_run(3, 1), _run(4, 1)]}
    assert bench_pairs.summarise(runs, END_TO_END)["items_per_s"]["parent"]["runs_by_pair"] == [
        1.2346, 2]


@pytest.mark.parametrize("sizes", [(1, 1), (3, 2)])
def test_summary_needs_paired_runs(sizes):
    runs = {side: [_run(1, 1)] * n for side, n in zip(("parent", "change"), sizes)}
    with pytest.raises(ValueError):
        bench_pairs.summarise(runs, END_TO_END)


def _checkout(root, name, spec, sources=None):
    (root / name).mkdir()
    (root / name / "BENCHMARK.json").write_text(json.dumps(spec))
    package = root / name / "src" / "cantorperm"
    package.mkdir(parents=True)
    for filename, text in (sources or {}).items():
        (package / filename).write_text(text)
    return root / name


def test_benchmark_spec_comes_from_the_parent(tmp_path):
    spec = {"workloads": [{"name": "w"}], "end_to_end": END_TO_END, "paths": ["bench"]}
    parent = _checkout(tmp_path, "parent", spec)
    change = _checkout(tmp_path, "change", {**spec, "paths": ["bench", "tools"]})
    assert bench_pairs.benchmark_spec(parent, change) == spec


@pytest.mark.parametrize("key, value", [
    ("end_to_end", [{**END_TO_END[0], "bound": 0.5}, END_TO_END[1]]),
    ("end_to_end", END_TO_END[:1]),
    ("workloads", []),
])
def test_benchmark_spec_refuses_a_change_that_moves_the_bounds(tmp_path, key, value):
    spec = {"workloads": [{"name": "w"}], "end_to_end": END_TO_END}
    parent = _checkout(tmp_path, "parent", spec)
    change = _checkout(tmp_path, "change", {**spec, key: value})
    with pytest.raises(ValueError, match=key):
        bench_pairs.benchmark_spec(parent, change)


def test_each_side_runs_from_one_fresh_bytecode_cache(tmp_path, monkeypatch):
    spec = {"workloads": [{"name": "w1"}, {"name": "w2"}], "end_to_end": END_TO_END}
    parent = _checkout(tmp_path, "parent", spec)
    change = _checkout(tmp_path, "change", spec)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    envs = {parent: [], change: []}

    def fake_run(argv, cwd, env, **kwargs):
        envs[cwd].append(env)
        return subprocess.CompletedProcess(argv, 0, stdout="log\n" + json.dumps(_run(1, 1)))

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main([str(parent), str(change), "--out", str(tmp_path / "o.json")]) == 0
    caches = {}
    for side, side_envs in envs.items():
        assert len(side_envs) == 4
        assert all("PYTHONDONTWRITEBYTECODE" not in env for env in side_envs)
        (caches[side],) = {env["PYTHONPYCACHEPREFIX"] for env in side_envs}
    assert caches[parent] != caches[change]
    for cache in caches.values():
        assert not {parent, change} & set(Path(cache).parents)
        assert not Path(cache).exists()
    assert "PYTHONPYCACHEPREFIX" in json.loads((tmp_path / "o.json").read_text())["method"]


def test_report_counts_each_sides_source_lines_as_the_bench_does(tmp_path, monkeypatch):
    # bench/run.py counts len(text.splitlines()) of every src/cantorperm/*.py
    spec = {"workloads": [{"name": "w"}], "end_to_end": END_TO_END}
    parent = _checkout(tmp_path, "parent", spec,
                       {"a.py": "x = 1\n\ny = 2\n", "b.py": "z = 3", "notes.txt": "1\n2\n"})
    change = _checkout(tmp_path, "change", spec, {"a.py": "x = 1\n", "c.py": ""})
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda argv, **kwargs: (
        subprocess.CompletedProcess(argv, 0, stdout=json.dumps(_run(1, 1)))))
    assert bench_pairs.main([str(parent), str(change), "--out", str(tmp_path / "o.json")]) == 0
    assert json.loads((tmp_path / "o.json").read_text())["src_lines"] == {
        "parent": {"total": 4, "files": {"a.py": 3, "b.py": 1}},
        "change": {"total": 1, "files": {"a.py": 1, "c.py": 0}},
    }
