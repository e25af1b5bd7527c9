"""Layer tracing for the benchmark's traced run.

The tracer wraps public functions where their callers look them up: the
attribute of the caller's module namespace (``equidist.orbit_point``,
``cli.emit``, the package's top-level ``cantorperm.prefix_residue`` that the
library workload calls) or a property of a class.  Targets are resolved by
name when the tracer is installed; a name that no longer exists is recorded
as absent instead of failing, and a layer with no target left is reported
absent.  The package itself is not modified on disk.

Spans are aggregated while the workload runs into totals per
(layer, parent layer): call count, total time and self time, where self time
is a span's duration minus the time its child spans cover.  Nothing is
written until the run ends.
"""
from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "base", "perms", "dynamics", "equidist", "density")


def _count_dstar(counters, args, kwargs, result):
    counters["equidist.dstar_points"] += result.sample_size


def _count_redundant(counters, args, kwargs, result):
    sample, period = result.sample_size, len(result.intervals)
    counters["equidist.sample_iterates"] += sample
    counters["equidist.redundant_iterates"] += sample - min(sample, period)


def _count_partition_scan(counters, args, kwargs, result):
    parts = result.parts
    counters["density.residues_scanned"] += (
        math.lcm(*(ps.modulus for ps in parts)) * len(parts)
    )


def _count_pair_scan(counters, args, kwargs, result):
    counters["density.residues_scanned"] += 2 * result.modulus


# (module, attribute path, layer, counter hook).  Each module's entry is the
# name under which its callers reach the function.
TARGETS = (
    ("cantorperm.cli", "main", "cli", None),
    ("cantorperm.cli", "emit", "cli", None),
    ("cantorperm.base", "DigitExpansion.value", "base", None),
    ("cantorperm.cli", "make_base", "base", None),
    ("cantorperm.cli", "encode", "base", None),
    ("cantorperm.equidist", "prefix_of_interval", "base", None),
    ("cantorperm.cli", "parse_permutations", "perms", None),
    ("cantorperm.cli", "shift_vector", "perms", None),
    ("cantorperm.equidist", "prefix_residue", "perms", None),
    ("cantorperm", "prefix_residue", "perms", None),
    ("cantorperm.cli", "orbit_point", "dynamics", None),
    ("cantorperm.cli", "orbit_prefix", "dynamics", None),
    ("cantorperm.dynamics", "orbit_point", "dynamics", None),
    ("cantorperm.equidist", "orbit_point", "dynamics", None),
    ("cantorperm.equidist", "apply_truncated", "dynamics", None),
    ("cantorperm.cli", "membership_equivalence", "equidist", _count_redundant),
    ("cantorperm.cli", "ud_preservation_probe", "equidist", None),
    ("cantorperm.equidist", "star_discrepancy", "equidist", _count_dstar),
    ("cantorperm.equidist", "van_der_corput", "equidist", None),
    ("cantorperm.equidist", "kronecker_golden", "equidist", None),
    ("cantorperm", "periodic_set", "density", None),
    ("cantorperm", "measurable_partition_check", "density", _count_partition_scan),
    ("cantorperm", "intersect", "density", _count_pair_scan),
    ("cantorperm", "union", "density", _count_pair_scan),
    ("cantorperm", "normalize", "density", None),
)

# per-layer call counts reported as metrics: metric name -> target function name
CALL_METRICS = {
    "perms.prefix_residue_calls": "prefix_residue",
    "dynamics.orbit_point_calls": "orbit_point",
    "dynamics.apply_truncated_calls": "apply_truncated",
    "base.value_calls": "DigitExpansion.value",
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [layer, time covered by children]
        self.spans: dict[tuple[str, str], list] = {}  # (layer, parent) -> [calls, total, self]
        self.calls: Counter = Counter()
        self.counters: defaultdict = defaultdict(int)
        self.root_time = 0.0  # time covered by spans opened outside any other
        self.installed: list[tuple[object, str, object]] = []
        self.absent_targets: list[str] = []
        self.broken_counters: set[str] = set()

    def wrap(self, fn, layer: str, name: str, hook):
        stack, spans, calls, counters = self.stack, self.spans, self.calls, self.counters
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "root"
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tracer.root_time += elapsed
                agg = spans.get((layer, parent))
                if agg is None:
                    agg = spans[(layer, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                calls[name] += 1
            if hook is not None:
                try:
                    hook(counters, args, kwargs, result)
                except (AttributeError, TypeError, ValueError):
                    # the result no longer has the shape the counter reads
                    tracer.broken_counters.add(hook.__name__)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, path, layer, hook in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                current = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent_targets.append(f"{module_name}.{path}")
                continue
            if isinstance(current, property):
                replacement = property(self.wrap(current.fget, layer, path, hook))
            else:
                replacement = self.wrap(current, layer, attr, hook)
            setattr(owner, attr, replacement)
            self.installed.append((owner, attr, current))

    def uninstall(self) -> None:
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def absent_layers(self) -> list[str]:
        present = {
            layer
            for module_name, path, layer, _ in TARGETS
            if f"{module_name}.{path}" not in self.absent_targets
        }
        return [layer for layer in LAYERS if layer not in present]

    def self_times(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for (layer, _), (_, _, own) in self.spans.items():
            totals[layer] += own
        return totals

    def span_table(self) -> list[dict]:
        return [
            {"layer": layer, "parent": parent, "calls": n, "total_s": total, "self_s": own}
            for (layer, parent), (n, total, own) in sorted(self.spans.items())
        ]
