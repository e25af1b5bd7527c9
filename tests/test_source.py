"""The source tree itself: every import in ``src/`` is used, but the pinned ones."""
import ast
from pathlib import Path

import cantorperm

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
        for path in sorted(Path(cantorperm.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(ast.parse(path.read_text()))
    }
    assert unused == TRACER_PINNED
