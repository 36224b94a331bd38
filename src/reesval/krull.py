"""Consistent systems of splitting data and realization planning.

An m-consistent system prescribes, for each valuation of a semilocal
Dedekind base, a list of (residue degree f, ramification e) pairs whose
products sum to m.  Krull's theorem gives sufficient conditions for a
degree-m extension field realizing the prescription to exist; it is
consumed here as a gate, and the numeric consequences of realizing the
four standard families are computed exactly:

* family S  - every valuation splits into k*e_j ideals of residue
  degree one and ramification lcm/e_j;
* family T  - one inert ideal per valuation with residue degree k*e_j;
* family U  - e_j ideals per valuation with ramification k*(lcm/e_j);
* family EXP2 - the system realized by adjoining a k-th root of the
  distinguished element, one ideal per valuation with residue degree
  gcd(k, e_j) and ramification k/gcd(k, e_j).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from .errors import (
    BadKError,
    InconsistentSystemError,
    IndexMismatchError,
    NonPositiveError,
    NonUniformError,
    NotCommonMultipleError,
    NotMultipleError,
)
from .dvrcalc import general_k_extension
from .itoh import (
    ReesData,
    SemilocalIdeal,
    is_projectively_equivalent,
    is_projectively_full,
    itoh_structure,
    jacobson_radical,
    rees_data,
    semilocal_radical,
)
from .record import Record

FAMILY_SPLIT = "S"
FAMILY_INERT = "T"
FAMILY_RAMIFIED = "U"
FAMILY_ROOT = "EXP2"

# the krull subcommand prints one exponent per maximal ideal, so
# realize_plan refuses systems with more maximal ideals than this
MAX_MAXIMAL_IDEALS = 100_000


class SystemEntry(Record):
    """One splitting prescription: residue degree, ramification, multiplicity."""

    __slots__ = ("residue_degree", "ramification", "multiplicity")
    _defaults = {"multiplicity": 1}

    def __post_init__(self):
        for name in ("residue_degree", "ramification", "multiplicity"):
            if getattr(self, name) < 1:
                raise NonPositiveError(f"{name} must be >= 1")

    @property
    def weight(self) -> int:
        """Contribution e*f*multiplicity to the consistency sum."""
        return self.residue_degree * self.ramification * self.multiplicity


class ConsistentSystem(Record):
    __slots__ = ("m", "per_valuation", "family")
    _defaults = {"family": ""}

    def __post_init__(self):
        if self.m < 1:
            raise NonPositiveError("system degree m must be >= 1")
        if not self.per_valuation:
            raise NonPositiveError("system needs at least one valuation")

    def valuation_sum(self, j: int) -> int:
        return sum(entry.weight for entry in self.per_valuation[j])

    def extension_count(self, j: int) -> int:
        """Number of prescribed extensions s_j of the j-th valuation."""
        return sum(entry.multiplicity for entry in self.per_valuation[j])


def is_consistent(system: ConsistentSystem) -> bool:
    """True when every per-valuation sum of e*f equals m."""
    return all(
        system.valuation_sum(j) == system.m for j in range(len(system.per_valuation))
    )


def _lcm_family(
    family: str,
    rees: ReesData | Sequence[int],
    k: int,
    entry: Callable[[int, int], SystemEntry],
) -> ConsistentSystem:
    """A degree k*lcm system with entry(e_j, lcm/e_j) at each valuation."""
    rd = rees_data(rees)
    if k < 1:
        raise NonPositiveError(f"parameter k must be >= 1, got {k}")
    m0 = rd.lcm
    per = tuple((entry(e, m0 // e),) for e in rd.entries)
    return ConsistentSystem(m=k * m0, per_valuation=per, family=family)


def build_split_system(rees: ReesData | Sequence[int], k: int) -> ConsistentSystem:
    """Family S: k*e_j ideals per valuation, residue degree one."""
    return _lcm_family(
        FAMILY_SPLIT, rees, k, lambda e, c: SystemEntry(1, c, multiplicity=k * e)
    )


def build_inert_system(rees: ReesData | Sequence[int], k: int) -> ConsistentSystem:
    """Family T: a single residue-degree-k*e_j extension per valuation."""
    return _lcm_family(FAMILY_INERT, rees, k, lambda e, c: SystemEntry(k * e, c))


def build_ramified_system(rees: ReesData | Sequence[int], k: int) -> ConsistentSystem:
    """Family U: e_j ideals per valuation with ramification k*(lcm/e_j)."""
    return _lcm_family(
        FAMILY_RAMIFIED, rees, k, lambda e, c: SystemEntry(1, k * c, multiplicity=e)
    )


def build_root_adjunction_system(
    rees: ReesData | Sequence[int], k: int
) -> ConsistentSystem:
    """Family EXP2: the k-consistent system realized by a k-th root of u."""
    rd = rees_data(rees)
    if k < 2:
        raise BadKError(f"root order must be >= 2, got {k}")
    per = []
    for e in rd.entries:
        step = general_k_extension(e, k)
        per.append((SystemEntry(step.residue_degree, step.ramification),))
    return ConsistentSystem(m=k, per_valuation=tuple(per), family=FAMILY_ROOT)


_BUILDERS = {
    FAMILY_SPLIT: build_split_system,
    FAMILY_INERT: build_inert_system,
    FAMILY_RAMIFIED: build_ramified_system,
    FAMILY_ROOT: build_root_adjunction_system,
}

FAMILIES = tuple(sorted(_BUILDERS))


def build_system(family: str, rees: ReesData | Sequence[int], k: int) -> ConsistentSystem:
    """Dispatch on the family code S, T, U or EXP2."""
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise BadKError(
            f"unknown system family {family!r}; expected one of {', '.join(FAMILIES)}"
        ) from None
    return builder(rees, k)


class GateDecision(Record):
    """Outcome of the realizability gate.

    The theorem behind the gate states sufficient conditions only, so a
    system meeting none of them is UNDECIDED rather than unrealizable.
    """

    __slots__ = ("realizable", "condition")
    _defaults = {"condition": None}

    def __str__(self) -> str:
        if self.realizable:
            return f"REALIZABLE via ({self.condition})"
        return "UNDECIDED"


def realizability_gate(
    system: ConsistentSystem,
    has_extra_dvr: bool = False,
    has_separable_approximation: bool = False,
) -> GateDecision:
    """Apply the sufficient realizability conditions in order."""
    if not is_consistent(system):
        raise InconsistentSystemError("system fails the consistency sums")
    if any(system.extension_count(j) == 1 for j in range(len(system.per_valuation))):
        return GateDecision(realizable=True, condition=1)
    if has_extra_dvr:
        return GateDecision(realizable=True, condition=2)
    if has_separable_approximation:
        return GateDecision(realizable=True, condition=3)
    return GateDecision(realizable=False)


class RealizationReport(Record):
    """Numeric consequences of realizing a consistent system.

    The extended base ideal has the same exponent at each of the
    ``maximal_ideal_count`` realized maximal ideals, so it is the
    ``jacobson_exponent``-th power of the Jacobson radical.
    """

    __slots__ = (
        "extension_degree",
        "maximal_ideal_count",
        "jacobson_exponent",
        "residue_degrees",
        "simple_extension",
    )
    _defaults = {"residue_degrees": None, "simple_extension": None}

    @property
    def uniform_rees_integer(self) -> int:
        """The Rees integer shared by every realized valuation."""
        return self.jacobson_exponent


def realize_plan(system: ConsistentSystem, rees: ReesData | Sequence[int]) -> RealizationReport:
    """Realization numerology for a system built from the given Rees data."""
    rd = rees_data(rees)
    if not is_consistent(system):
        raise InconsistentSystemError("refusing to realize an inconsistent system")
    if len(system.per_valuation) != len(rd):
        raise IndexMismatchError(
            f"system has {len(system.per_valuation)} valuations, Rees data has {len(rd)}"
        )
    count = sum(system.extension_count(j) for j in range(len(rd)))
    if count > MAX_MAXIMAL_IDEALS:
        raise BadKError(
            f"realization has {count} maximal ideals, above the limit of {MAX_MAXIMAL_IDEALS}"
        )
    # one exponent per entry; each stands for multiplicity maximal ideals
    per_entry = [
        (e_j * entry.ramification, entry.multiplicity)
        for e_j, entries in zip(rd.entries, system.per_valuation)
        for entry in entries
    ]
    first = per_entry[0][0]
    if any(x != first for x, _ in per_entry):
        exponents = tuple(x for x, mult in per_entry for _ in range(mult))
        raise NonUniformError(f"extended ideal exponents are not uniform: {exponents}")
    return RealizationReport(
        extension_degree=system.m,
        maximal_ideal_count=count,
        jacobson_exponent=first,
    )


def common_multiple_realization(rees: ReesData | Sequence[int], e: int) -> RealizationReport:
    """The integral-closure extension obtained by adjoining an e-th root of u.

    Requires e >= 2 to be a common multiple of the Rees integers.  The
    result is a semilocal Dedekind extension of degree e with one
    maximal ideal per valuation, residue degrees e_j, extended ideal
    equal to the e-th power of the Jacobson radical, and all Rees
    integers equal to e.  The extension is simple when every e_j
    equals e.
    """
    rd = rees_data(rees)
    if e < 2:
        raise BadKError(f"root order must be >= 2, got {e}")
    if not itoh_structure(rd, e).is_radical:
        raise NotCommonMultipleError(
            f"{e} is not a common multiple of the Rees integers {rd.entries}"
        )
    return RealizationReport(
        extension_degree=e,
        maximal_ideal_count=len(rd),
        jacobson_exponent=e,
        residue_degrees=rd.entries,
        simple_extension=all(ej == e for ej in rd.entries),
    )


class Component(Record):
    """One direct summand of the ambient ring.

    A component with ``participates`` false models a minimal prime on
    which the ideal blows up to the unit ideal; it passes through any
    extension plan unchanged and carries no Rees data.
    """

    __slots__ = ("rees_integers", "participates")

    def __post_init__(self):
        object.__setattr__(self, "rees_integers", tuple(int(e) for e in self.rees_integers))
        if self.participates and not self.rees_integers:
            raise NonPositiveError("participating component needs Rees data")
        if not self.participates and self.rees_integers:
            raise NonPositiveError("non-participating component must carry no Rees data")
        if any(e < 1 for e in self.rees_integers):
            raise NonPositiveError("Rees integers must be >= 1")


class ComponentPlan(Record):
    __slots__ = ("components",)

    def __post_init__(self):
        if not any(c.participates for c in self.components):
            raise NonPositiveError("at least one component must participate")


class ComponentOutcome(Record):
    __slots__ = ("participates", "rees_integers", "realization")


class DirectSumReport(Record):
    """Per-component extension plans making every Rees integer equal to e.

    ``combined_rees_integers`` records the disjoint-union decomposition
    of the input Rees data across participating components.
    """

    __slots__ = ("extension_degree", "components", "combined_rees_integers")


def direct_sum_plan(plan: ComponentPlan, e: int) -> DirectSumReport:
    """Extend each participating component to uniform Rees integer e.

    Requires e to be a positive multiple of the lcm of all Rees
    integers across participating components.  Each participating
    component gets a ramified-family realization of degree e; the rest
    pass through.
    """
    if e < 1:
        raise NonPositiveError(f"target integer must be >= 1, got {e}")
    all_entries = [
        x for c in plan.components if c.participates for x in c.rees_integers
    ]
    overall = math.lcm(*all_entries)
    if e % overall != 0:
        raise NotMultipleError(
            f"{e} is not a multiple of the overall lcm {overall}"
        )
    outcomes = []
    for comp in plan.components:
        if not comp.participates:
            outcomes.append(
                ComponentOutcome(participates=False, rees_integers=(), realization=None)
            )
            continue
        rd = ReesData(comp.rees_integers)
        k = e // rd.lcm
        report = realize_plan(build_ramified_system(rd, k), rd)
        if report.uniform_rees_integer != e:
            raise NonUniformError(
                f"component realization reached {report.uniform_rees_integer}, wanted {e}"
            )
        outcomes.append(
            ComponentOutcome(
                participates=True,
                rees_integers=comp.rees_integers,
                realization=report,
            )
        )
    return DirectSumReport(
        extension_degree=e,
        components=tuple(outcomes),
        combined_rees_integers=tuple(all_entries),
    )


class FullnessReport(Record):
    """Checks that the realized Jacobson radical behaves as promised.

    The split-family realization of the base data yields a radical,
    projectively full ideal projectively equivalent to the extended
    base ideal.
    """

    __slots__ = (
        "realization", "is_radical", "projectively_full", "equivalent_to_extension"
    )

    @property
    def ok(self) -> bool:
        return self.is_radical and self.projectively_full and self.equivalent_to_extension


def projective_fullness_check(rees: ReesData | Sequence[int]) -> FullnessReport:
    """Realize family S with k = 1 and verify the three radical-ideal claims.

    Radicality, projective fullness and projective equivalence do not
    change when a coordinate is repeated, so each is decided on one
    coordinate per system entry, not one per maximal ideal.
    """
    rd = rees_data(rees)
    system = build_split_system(rd, 1)
    report = realize_plan(system, rd)
    entries = sum(len(row) for row in system.per_valuation)
    radical = jacobson_radical(entries)
    extended = SemilocalIdeal((report.jacobson_exponent,) * entries)
    return FullnessReport(
        realization=report,
        is_radical=semilocal_radical(radical) == radical,
        projectively_full=is_projectively_full(radical),
        equivalent_to_extension=is_projectively_equivalent(radical, extended),
    )


def algebraically_closed_warning(system: ConsistentSystem) -> str | None:
    """Caveat for inert prescriptions over algebraically closed residue fields.

    A residue extension of degree >= 2 cannot exist over an
    algebraically closed field, so such systems are not usable there.
    """
    bad = max(
        (entry.residue_degree for row in system.per_valuation for entry in row),
        default=1,
    )
    if bad >= 2:
        return (
            "system prescribes a residue extension of degree "
            f"{bad}, impossible over algebraically closed residue fields"
        )
    return None
