"""The source tree itself: every import in ``src/`` is used, but the pinned
ones; every export has a caller, or a claim it is kept for; every file parses
at the oldest Python the package supports."""
import ast
import re
from pathlib import Path

import pytest

import cantorperm
from test_readme import SKETCH

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(cantorperm.__file__).parent

# bench/tracing.py wraps these names in the modules that import them, so each
# module keeps its import although its own code no longer calls the name
TRACER_PINNED = {
    ("cli", "orbit_prefix"),
    ("equidist", "prefix_of_interval"),
    ("equidist", "prefix_residue"),
}


def _unused_imports(tree):
    """The names the module's imports bind that no other line of it reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_the_only_unused_imports_are_the_tracer_pinned_ones():
    # __init__'s imports are the package's exports (test_all_is_the_import_block)
    unused = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(ast.parse(path.read_text()))
    }
    assert unused == TRACER_PINNED


# exports that no caller reaches, each kept for the claim or ROADMAP item it serves
KEPT = {
    "covering_bound": "Buck's outer-measure bound, density <= sum of 1/D_j over a covering "
                      "by classes (Amer. J. Math. 68, 1946): ROADMAP item 11's upper bound",
    "CoveringBound": "the verified covering and bound that covering_bound returns",
    "from_condition": "a residue class as a periodic set, the classes covering_bound sums",
    "modulus_of_continuity_check": "the part-three uniform-continuity statement; ROADMAP "
                                   "item 8 reads its sigma_level table",
    "find_monotonicity_witness": "the single-level non-monotonicity witness that ROADMAP "
                                 "item 9 extends to every interval of a level",
}


def _names_read(tree):
    """The identifiers a tree reads: names, attribute names and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _tracer_target_names(tree):
    """Every part of the attribute paths in ``bench/tracing.py``'s ``TARGETS``."""
    (targets,) = [
        stmt.value for stmt in tree.body
        if isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == ["TARGETS"]
    ]
    return {part for entry in targets.elts for part in entry.elts[1].value.split(".")}


def _reached():
    """The names read from the roots (``cli``, ``bench/``, the acceptance
    file, README's library sketch and module-level code in ``src/``), closed
    under the names each top-level ``def``/``class`` of ``src/`` reads."""
    definitions, names = {}, set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "cli.py":
            names |= _names_read(tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[stmt.name] = stmt
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                names |= _names_read(stmt)
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= _names_read(tree)
        if path.name == "tracing.py":
            names |= _tracer_target_names(tree)
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    names |= _names_read(ast.parse(acceptance))
    names |= _names_read(ast.parse(SKETCH))
    reached, todo = set(), list(names)
    while todo:
        if (name := todo.pop()) not in reached:
            reached.add(name)
            if name in definitions:
                todo.extend(_names_read(definitions[name]) - reached)
    return reached


def test_every_export_is_reached_or_kept_for_a_claim():
    unreached = set(cantorperm.__all__) - _reached()
    orphans, stale = sorted(unreached - KEPT.keys()), sorted(KEPT.keys() - unreached)
    assert not orphans, f"exports that no caller reaches: {orphans}"
    assert not stale, f"kept names that a caller reaches: {stale}"


@pytest.mark.parametrize("folder", ["src", "tests", "bench", "tools"])
def test_every_file_parses_at_the_oldest_supported_python(folder):
    # best effort: the parser rejects newer grammar, not newer library calls
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    paths = sorted((ROOT / folder).rglob("*.py"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        ast.parse(text, str(path), feature_version=(int(major), int(minor)))
