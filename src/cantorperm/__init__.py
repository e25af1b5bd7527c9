"""Digit permutations acting on Cantor series expansions.

Exact (rational) machinery for a family of interval maps defined by
permuting each digit of a mixed-radix expansion independently: orbit
computation with random access, residue-class membership criteria,
density bookkeeping for periodic integer sets, star discrepancy, and
probes for non-monotonicity and difference-quotient behaviour.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    CantorPermError,
    CheckFalsified,
    ComputationError,
    ValidationError,
)
from .base import (
    BaseSequence,
    DigitExpansion,
    as_fraction,
    encode,
    make_base,
    make_expansion,
    prefix_of_interval,
)
from .perms import (
    CyclicPermutation,
    PermutationVector,
    ResidueCondition,
    combine_crt,
    discrete_log,
    from_cycle,
    make_cyclic,
    make_unchecked,
    parse_permutations,
    prefix_residue,
    residue_table,
    shift,
    shift_vector,
)
from .dynamics import (
    OrbitPoint,
    OrbitSpec,
    apply_map,
    apply_truncated,
    make_orbit,
    modulus_of_continuity_check,
    orbit_point,
    orbit_prefix,
)
from .density import (
    CoveringBound,
    PartitionVerdict,
    PeriodicSet,
    covering_bound,
    density,
    expand_to,
    from_condition,
    intersect,
    measurable_partition_check,
    normalize,
    parse_periodic_set,
    periodic_set,
    union,
)
from .equidist import (
    DiscrepancyResult,
    IntervalStat,
    LevelReport,
    PreservationReport,
    SOURCES,
    grid_points,
    interval_counts,
    kronecker_golden,
    membership_equivalence,
    star_discrepancy,
    ud_preservation_probe,
    van_der_corput,
)
from .analysis import (
    DerivativeProbeReport,
    LevelQuotients,
    MonotonicityWitness,
    QuotientSample,
    derivative_probe,
    difference_quotient,
    find_monotonicity_witness,
    find_witness_descending,
)

# The import block is the one list of exports: every public name it binds,
# minus the submodules the imports bind as a side effect.
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
