"""Exact-arithmetic calculus of Rees valuations and their root extensions.

The package computes, with integers and rationals only: Rees valuations
and Rees integers of monomial ideals from their Newton polyhedra;
integral closures of powers, with an independent cone-membership
oracle; the invariants (degree, ramification, residue degree) of the
valuation towers obtained by adjoining roots of the distinguished
degree element; radicality of the extended principal ideal; semilocal
Dedekind ideal arithmetic; and Krull consistent systems with their
realization plans.
"""

from .dvrcalc import (
    DVRSpec,
    ExtensionStep,
    ResidueDescriptor,
    Tower,
    check_fundamental,
    compose,
    general_k_extension,
    itoh_tower,
    lift_to_rees_w,
    totally_ramified_root_step,
    unramified_kummer_step,
)
from .itoh import (
    EquivalenceReport,
    ItohReport,
    ItohValuationRecord,
    ReesData,
    SemilocalIdeal,
    is_projectively_equivalent,
    is_projectively_full,
    itoh_structure,
    jacobson_radical,
    radicality_equivalence,
    semilocal_product,
    semilocal_radical,
)
from .krull import (
    Component,
    ComponentPlan,
    ConsistentSystem,
    GateDecision,
    RealizationReport,
    SystemEntry,
    build_inert_system,
    build_ramified_system,
    build_root_adjunction_system,
    build_split_system,
    build_system,
    common_multiple_realization,
    direct_sum_plan,
    is_consistent,
    projective_fullness_check,
    realizability_gate,
    realize_plan,
)
from .monomial import (
    MonomialIdeal,
    ReesPackage,
    ReesValuationSpec,
    ideal_power,
    integral_closure_power,
    minimalize,
    oracle_is_integral,
    parse_ideal,
    principal_rees,
    rees_valuations,
)
from .numcore import QSubgroup, lcm_list, subgroup_generated
from .puiseux import (
    NewtonPolygonInput,
    PuiseuxModel,
    newton_polygon_irreducible,
    oracle_extension,
    oracle_ramification,
    oracle_residue_degree,
)

__version__ = "0.1.0"
