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
from collections.abc import Sequence

from .errors import (
    BadKError,
    InconsistentSystemError,
    IndexMismatchError,
    NonPositiveError,
    NonUniformError,
    NotCommonMultipleError,
    NotMultipleError,
    int_text,
    read_int,
)
from .dvrcalc import _root_invariants
from .itoh import ReesData, _radical, rees_data
from .record import Record

FAMILY_SPLIT = "S"
FAMILY_INERT = "T"
FAMILY_RAMIFIED = "U"
FAMILY_ROOT = "EXP2"


class SystemEntry(Record):
    """One splitting prescription: residue degree, ramification, multiplicity."""

    __slots__ = ("residue_degree", "ramification", "multiplicity")
    _defaults = {"multiplicity": 1}
    _ints = {n: (1, n, NonPositiveError) for n in __slots__}


class ConsistentSystem(Record):
    __slots__ = ("m", "per_valuation", "family")
    _defaults = {"family": ""}
    _ints = {"m": (1, "system degree m", NonPositiveError)}

    def __post_init__(self):
        if not self.per_valuation:
            raise NonPositiveError("system needs at least one valuation")


def is_consistent(system: ConsistentSystem) -> bool:
    """True when every per-valuation sum of e*f*multiplicity equals m."""
    return all(
        sum([x.residue_degree * x.ramification * x.multiplicity for x in row]) == system.m
        for row in system.per_valuation
    )


def _lcm_rows(family: str, entries: tuple[int, ...], m0: int, k: int) -> tuple[int, list]:
    """Degree k*m0 of family S, T or U, m0 the lcm of ``entries``, and its one entry
    per Rees integer e_j as (e_j, residue degree, ramification, multiplicity), of
    e*f*mult k*m0."""
    if family == FAMILY_SPLIT:
        return k * m0, [(e, 1, m0 // e, k * e) for e in entries]
    if family == FAMILY_INERT:
        return k * m0, [(e, k * e, m0 // e, 1) for e in entries]
    return k * m0, [(e, 1, k * (m0 // e), e) for e in entries]


def _lcm_family(family: str, rees: ReesData | Sequence[int], k: int) -> ConsistentSystem:
    rd = rees_data(rees)
    k = read_int(k, 1, "parameter k", NonPositiveError)
    m, rows = _lcm_rows(family, rd.entries, rd.lcm, k)
    per = tuple([(SystemEntry(f, c, n),) for _, f, c, n in rows])
    return ConsistentSystem(m=m, per_valuation=per, family=family)


def build_split_system(rees: ReesData | Sequence[int], k: int) -> ConsistentSystem:
    """Family S: k*e_j ideals per valuation, residue degree one."""
    return _lcm_family(FAMILY_SPLIT, rees, k)


def build_inert_system(rees: ReesData | Sequence[int], k: int) -> ConsistentSystem:
    """Family T: a single residue-degree-k*e_j extension per valuation."""
    return _lcm_family(FAMILY_INERT, rees, k)


def build_ramified_system(rees: ReesData | Sequence[int], k: int) -> ConsistentSystem:
    """Family U: e_j ideals per valuation with ramification k*(lcm/e_j)."""
    return _lcm_family(FAMILY_RAMIFIED, rees, k)


def build_root_adjunction_system(
    rees: ReesData | Sequence[int], k: int
) -> ConsistentSystem:
    """Family EXP2: the k-consistent system realized by a k-th root of u."""
    rd = rees_data(rees)
    k = read_int(k, 2, "root order", BadKError)
    per = []
    for e in rd.entries:
        _, c, d = _root_invariants(e, k)
        per.append((SystemEntry(d, c),))
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
    # a valuation with a single prescribed extension
    if any(sum([entry.multiplicity for entry in row]) == 1 for row in system.per_valuation):
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


def _realization(m: int, rows: list) -> RealizationReport:
    """Realization of a consistent degree-m system from its entries' rows
    (e_j, residue degree, ramification, multiplicity): an entry stands for
    multiplicity maximal ideals, each of extended ideal exponent e_j * ramification."""
    exponents = tuple([e_j * c for e_j, _, c, _ in rows])
    first = exponents[0]
    if any(x != first for x in exponents):
        # int_text: an exponent too long for str would crash the message
        listed = ", ".join(map(int_text, exponents))
        raise NonUniformError(f"extended ideal exponents are not uniform: ({listed})")
    return RealizationReport(m, sum([n for _, _, _, n in rows]), first)


def realize_plan(system: ConsistentSystem, rees: ReesData | Sequence[int]) -> RealizationReport:
    """Realization numerology for a system built from the given Rees data."""
    rd = rees_data(rees)
    if not is_consistent(system):
        raise InconsistentSystemError("refusing to realize an inconsistent system")
    if len(system.per_valuation) != len(rd):
        raise IndexMismatchError(
            f"system has {len(system.per_valuation)} valuations, Rees data has {len(rd)}"
        )
    return _realization(system.m, [
        (e_j, entry.residue_degree, entry.ramification, entry.multiplicity)
        for e_j, row in zip(rd.entries, system.per_valuation)
        for entry in row
    ])


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
    e = read_int(e, 2, "root order", BadKError)
    # by result (1), r_e is radical exactly when e is a multiple of the lcm
    if e % rd.lcm:
        # int_text: an e or a Rees integer too long for str would crash the message
        listed = ", ".join(map(int_text, rd.entries))
        raise NotCommonMultipleError(
            f"{int_text(e)} is not a common multiple of the Rees integers ({listed})"
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
        entries = tuple(self.rees_integers)
        if self.participates and not entries:
            raise NonPositiveError("participating component needs Rees data")
        if not self.participates and entries:
            raise NonPositiveError("non-participating component must carry no Rees data")
        Component.rees_integers.__set__(self, tuple(
            [read_int(e, 1, "Rees integer", NonPositiveError) for e in entries]))


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
    component gets a ramified-family realization of degree e, from its
    validated integers; the rest pass through.
    """
    e = read_int(e, 1, "target integer", NonPositiveError)
    all_entries = [
        x for c in plan.components if c.participates for x in c.rees_integers
    ]
    overall = math.lcm(*all_entries)
    if e % overall != 0:
        raise NotMultipleError(
            f"{e} is not a multiple of the overall lcm {int_text(overall)}"
        )
    outcomes = []
    for comp in plan.components:
        if not comp.participates:
            outcomes.append(
                ComponentOutcome(participates=False, rees_integers=(), realization=None)
            )
            continue
        entries = comp.rees_integers
        m0 = math.lcm(*entries)
        report = _realization(*_lcm_rows(FAMILY_RAMIFIED, entries, m0, e // m0))
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

    The claims hold by construction once ``_realization`` has found the
    extended ideal's exponents uniform: the Jacobson radical (1, ..., 1)
    is radical and primitive, and the extended ideal (m, ..., m) is a
    multiple of it.  Repeating a coordinate changes none of them, so
    each is decided on one coordinate per system entry, not one per
    maximal ideal, by int arithmetic on the exponent vectors.
    """
    rd = rees_data(rees)
    report = _realization(*_lcm_rows(FAMILY_SPLIT, rd.entries, rd.lcm, 1))
    radical = (1,) * len(rd)
    extended = (report.jacobson_exponent,) * len(rd)
    return FullnessReport(
        realization=report,
        is_radical=_radical(radical) == radical,
        projectively_full=math.gcd(*radical) == 1,
        equivalent_to_extension=all(
            x * extended[0] == y * radical[0] for x, y in zip(radical, extended)
        ),
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
            f"{int_text(bad)}, impossible over algebraically closed residue fields"
        )
    return None
