"""Exact crossed products of piecewise constant function algebras.

The package models a finite partition (of the real line into intervals and
jump points, or an abstract finite set), a piece-permuting map, and the
algebra of formal sums f_n * t^n with twisted convolution.  It computes
cycle classes, separation sets, intensional commutant descriptions,
refinement comparisons, strong-grading certificates, and exhaustive case
atlases, all in exact rational arithmetic.
"""
from types import ModuleType as _ModuleType

from .commutant import (
    CommutantDescription,
    DifferenceDescription,
    MembershipResult,
    SubalgebraView,
    brute_force_sep,
    commutant_description,
    commutant_difference,
    descend_map,
    find_noncommuting_witness,
    generator_element,
    is_in_commutant,
    refined_sep,
    sep_set,
)
from .crossed import (
    CoefficientVector,
    CrossedElement,
    GradingResult,
    crossed_element,
    indicator_element,
    is_strongly_graded,
    monomial,
    multiply,
    rational_rank,
    sigma_tilde_pow,
)
from .dynamics import (
    CycleClassification,
    PieceMap,
    PiProfile,
    RefinedCycleClassification,
    ValidationReport,
    Violation,
    check_pi,
    cycle_classes,
    perm_cycles,
    perm_inverse,
    perm_power,
    pi_profile,
    realize_pi,
    refined_cycle_classes,
    validate_invariance,
    validate_refined_invariance,
)
from .enumeration import (
    CaseGroup,
    CaseSignature,
    SubcaseDiagnostic,
    atlas_instances,
    c1_subcase_count,
    c1_subcase_diagnostic,
    case_signature,
    classify_cases,
    count_refined_maps,
    enumerate_refined_maps,
    integer_partition_count,
    integer_partitions,
)
from .errors import (
    EngineError,
    InfeasibleProfile,
    InstanceFormatError,
    LiftInconsistent,
    MapDoesNotDescend,
    PartitionMismatch,
    ScaleExceeded,
)
from .fixtures import builtin_instance, builtin_names
from .instances import Instance, load_instance, parse_instance, render_instance
from .partition import (
    AbstractPartition,
    Piece,
    PieceKind,
    RealLinePartition,
    Refinement,
    as_fraction,
    build_abstract_partition,
    build_real_line_partition,
    evenly_spaced_inside,
    identity_refinement,
    refine_abstract,
    refine_real_line,
)
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
