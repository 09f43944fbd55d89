"""Additive bases for the 2-stamp postage stamp problem.

The package computes ranges of h = 2 bases, enumerates p-bases, decides
extensibility and symmetricisability, builds symmetric closures, and
reproduces the census and extremal tables at desk scale.
"""

from types import ModuleType as _ModuleType

from .basis import (
    Basis,
    BasisError,
    PreconditionError,
    RangeResult,
    ReachSet,
    ResidueProfile,
    basis_range,
    extend_reach,
    is_p_basis,
    is_symmetric,
    residue_profile,
    symmetrize,
)
from .extension import (
    ExtensionReport,
    PeriodReport,
    StohrSequence,
    extend_arithmetic,
    extensible_completion,
    extension_range_identity,
    extension_threshold,
    is_extensible,
    m_zero,
    period_bound,
    periodic_scan,
    stohr_sequence,
)
from .optimize import (
    BestSegments,
    MaximalBasisSet,
    RangeTable,
    best_segments,
    maximal_symmetricisable,
    range_table,
)
from .search import (
    BudgetExceededError,
    ClassStats,
    MaximaRecord,
    PBasisRecord,
    PlusBasisRecord,
    RangeComparison,
    TailDistribution,
    classify,
    enumerate_p_bases,
    maxima_record,
    range_comparison_stats,
    run_enumeration,
    tail_distribution,
)
from .symmetric import (
    SymmetricClosure,
    SymmetricisabilityReport,
    build_symmetric_closure,
    closure_profile,
    closure_range,
    is_symmetricisable,
)

# the submodules are names here too, but a star import should not bind them
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
