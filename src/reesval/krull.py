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

from collections.abc import Sequence

from .errors import (
    BadKError,
    InconsistentSystemError,
    IndexMismatchError,
    NonPositiveError,
    NotCommonMultipleError,
    NotMultipleError,
    int_text,
    lcm_of,
    read_int,
)
from .dvrcalc import _root_invariants
from .itoh import ReesData, _read_rees_integers, rees_data
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
        rows = tuple(map(tuple, self.per_valuation))
        if not rows:
            raise NonPositiveError("system needs at least one valuation")
        ConsistentSystem.per_valuation.__set__(self, rows)


def is_consistent(system: ConsistentSystem) -> bool:
    """True when every per-valuation sum of e*f*multiplicity equals m."""
    m = system.m
    for row in system.per_valuation:
        total = 0
        for x in row:
            total += x.residue_degree * x.ramification * x.multiplicity
        if total != m:
            return False
    return True


def _lcm_family(family: str, rees: ReesData | Sequence[int], k: int) -> ConsistentSystem:
    """Family S, T or U of degree k*m0, m0 the lcm of the Rees integers, with one
    entry (residue degree, ramification, multiplicity) per Rees integer e_j."""
    rd = rees_data(rees)
    k = read_int(k, 1, "parameter k", NonPositiveError)
    m0 = rd.lcm
    if family == FAMILY_SPLIT:
        per = [(SystemEntry(1, m0 // e, k * e),) for e in rd.entries]
    elif family == FAMILY_INERT:
        per = [(SystemEntry(k * e, m0 // e, 1),) for e in rd.entries]
    else:
        per = [(SystemEntry(1, k * (m0 // e), e),) for e in rd.entries]
    return ConsistentSystem(k * m0, per, family)


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
    return ConsistentSystem(k, per, FAMILY_ROOT)


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
    # a valuation with a single prescribed extension (every multiplicity is >= 1)
    for row in system.per_valuation:
        if len(row) == 1 and row[0].multiplicity == 1:
            return GateDecision(True, 1)
    if has_extra_dvr:
        return GateDecision(True, 2)
    if has_separable_approximation:
        return GateDecision(True, 3)
    return GateDecision(False)


class RealizationReport(Record):
    """Numeric consequences of realizing a consistent system.

    The extended base ideal is the ``jacobson_exponent``-th power of the
    Jacobson radical when its exponents at the ``maximal_ideal_count``
    realized maximal ideals agree, and ``jacobson_exponent`` is None if not.
    """

    __slots__ = (
        "extension_degree",
        "maximal_ideal_count",
        "jacobson_exponent",
        "residue_degrees",
        "simple_extension",
    )
    _defaults = {"residue_degrees": None, "simple_extension": None}
    _tuples = ("residue_degrees",)

    @property
    def uniform_rees_integer(self) -> int | None:
        """The Rees integer shared by every realized valuation, or None."""
        return self.jacobson_exponent


def realize_plan(system: ConsistentSystem, rees: ReesData | Sequence[int]) -> RealizationReport:
    """Realization numerology for a system built from the given Rees data:
    an entry over Rees integer e_j stands for multiplicity maximal ideals,
    each of extended ideal exponent e_j * ramification; the report's
    ``jacobson_exponent`` is None when they differ (EXP2, k no common multiple)."""
    rd = rees_data(rees)
    if not is_consistent(system):
        raise InconsistentSystemError("refusing to realize an inconsistent system")
    if len(system.per_valuation) != len(rd):
        raise IndexMismatchError(
            f"system has {len(system.per_valuation)} valuations, Rees data has {len(rd)}"
        )
    exponents, count = [], 0
    for e_j, row in zip(rd.entries, system.per_valuation):
        for entry in row:
            exponents.append(e_j * entry.ramification)
            count += entry.multiplicity
    uniform = exponents.count(exponents[0]) == len(exponents)
    return RealizationReport(system.m, count, exponents[0] if uniform else None)


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
    return RealizationReport(e, len(rd), e, rd.entries, all(ej == e for ej in rd.entries))


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
        Component.rees_integers.__set__(self, _read_rees_integers(entries))


class ComponentPlan(Record):
    __slots__ = ("components",)
    _tuples = __slots__

    def __post_init__(self):
        if not any(c.participates for c in self.components):
            raise NonPositiveError("at least one component must participate")


class ComponentOutcome(Record):
    __slots__ = ("participates", "rees_integers", "realization")
    _tuples = ("rees_integers",)


class DirectSumReport(Record):
    """Per-component extension plans making every Rees integer equal to e.

    ``combined_rees_integers`` records the disjoint-union decomposition
    of the input Rees data across participating components.
    """

    __slots__ = ("extension_degree", "components", "combined_rees_integers")
    _tuples = ("components", "combined_rees_integers")


def direct_sum_plan(plan: ComponentPlan, e: int) -> DirectSumReport:
    """Extend each participating component to uniform Rees integer e.

    Requires e to be a positive multiple of the lcm of all Rees
    integers across participating components; the rest pass through.
    A participating component, of Rees integers e_j and lcm m0, realizes
    family U with k = e/m0: degree e, and e_j maximal ideals of exponent
    e_j * k*(m0/e_j) = e per e_j, so the closed form (e, sum of e_j, e).
    """
    e = read_int(e, 1, "target integer", NonPositiveError)
    all_entries = [
        x for c in plan.components if c.participates for x in c.rees_integers
    ]
    overall = lcm_of(all_entries)
    if e % overall != 0:
        raise NotMultipleError(
            f"{int_text(e)} is not a multiple of the overall lcm {int_text(overall)}"
        )
    # a non-participating component carries no Rees integers and passes through
    outcomes = [
        ComponentOutcome(c.participates, c.rees_integers,
                         RealizationReport(e, sum(c.rees_integers), e) if c.participates else None)
        for c in plan.components
    ]
    return DirectSumReport(e, outcomes, all_entries)


class FullnessReport(Record):
    """The realized Jacobson radical and the three facts it satisfies.

    The split-family realization of the base data yields a radical,
    projectively full ideal projectively equivalent to the extended
    base ideal; the three flags state these facts.
    """

    __slots__ = (
        "realization", "is_radical", "projectively_full", "equivalent_to_extension"
    )

    @property
    def ok(self) -> bool:
        return self.is_radical and self.projectively_full and self.equivalent_to_extension


def projective_fullness_check(rees: ReesData | Sequence[int]) -> FullnessReport:
    """Realize family S with k = 1, with its three radical-ideal facts.

    With m0 the lcm of the Rees integers e_j, family S at k = 1 has
    degree m0 and e_j maximal ideals of exponent e_j * (m0/e_j) = m0 per
    e_j, so the closed form (m0, sum of e_j, m0).  The three facts are
    structural facts of the split realization, stated, not tested: the
    Jacobson radical (1, ..., 1) is radical and primitive, and the
    extended ideal (m0, ..., m0) is its m0-th power.
    """
    rd = rees_data(rees)
    m0 = rd.lcm
    return FullnessReport(RealizationReport(m0, sum(rd.entries), m0), True, True, True)


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
