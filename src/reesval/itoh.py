"""Valuation towers over Rees data and the semilocal Dedekind ideal model.

Given the Rees integers e_1, ..., e_n of an ideal, adjoining a k-th
root of the distinguished degree-(-1) element produces one valuation
per Rees valuation; its invariants are pure gcd arithmetic in (e_j, k),
and the extended principal ideal is the exponent vector (h_1, ..., h_n)
over the maximal ideals of a semilocal Dedekind domain.  Radicality,
radicals, projective equivalence and projective fullness of such
ideals are all decided by exponent arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .errors import (
    BadKError,
    EquivalenceViolation,
    IndexMismatchError,
    NonPositiveError,
    UnitIdealError,
)
from .dvrcalc import general_k_extension
from .record import Record


class ReesData(Record):
    """The multiset of Rees integers of an ideal, in a fixed order."""

    __slots__ = ("entries",)

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        if not entries:
            raise NonPositiveError("Rees data must be nonempty")
        if any(e < 1 for e in entries):
            raise NonPositiveError("Rees integers must be >= 1")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def lcm(self) -> int:
        return math.lcm(*self.entries)


def rees_data(entries: Iterable[int] | ReesData) -> ReesData:
    return entries if isinstance(entries, ReesData) else ReesData(tuple(entries))


class ItohValuationRecord(Record):
    """Tower invariants at one valuation for a fixed root order k.

    d = gcd(e, k) is the residue degree, c = k/d the ramification,
    h = e/d the value of the adjoined root (the exponent of the
    extended principal ideal at this valuation); the tower degree is k.
    """

    __slots__ = ("rees_integer", "residue_degree", "ramification", "u_exponent")


class ItohReport(Record):
    __slots__ = ("k", "per_valuation", "is_radical", "least_radical_k")

    @property
    def u_exponents(self) -> tuple[int, ...]:
        return tuple(r.u_exponent for r in self.per_valuation)


class SemilocalIdeal(Record):
    """A nonzero ideal of a semilocal Dedekind domain as an exponent vector.

    Entry i is the multiplicity of the i-th maximal ideal; the all-zero
    vector is the unit ideal.
    """

    __slots__ = ("exponents",)

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if not exps:
            raise NonPositiveError("exponent vector must be nonempty")
        if any(e < 0 for e in exps):
            raise NonPositiveError("exponents must be >= 0")
        object.__setattr__(self, "exponents", exps)

    def __len__(self) -> int:
        return len(self.exponents)

    @property
    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exponents)


def itoh_structure(rees: ReesData | Sequence[int], k: int) -> ItohReport:
    """Per-valuation tower invariants for root order k >= 2.

    The extended principal ideal is radical exactly when every exponent
    h_j is one, i.e. when k is a common multiple of the Rees integers;
    the least such k is their lcm.
    """
    rd = rees_data(rees)
    if k < 2:
        raise BadKError(f"root order must be >= 2, got {k}")
    records = []
    for e in rd.entries:
        step = general_k_extension(e, k)
        records.append(
            ItohValuationRecord(
                rees_integer=e,
                residue_degree=step.residue_degree,
                ramification=step.ramification,
                u_exponent=e // step.residue_degree,
            )
        )
    return ItohReport(
        k=k,
        per_valuation=tuple(records),
        is_radical=all(r.u_exponent == 1 for r in records),
        least_radical_k=rd.lcm,
    )


class EquivalenceReport(Record):
    """Four independently computed radicality verdicts; all must agree."""

    __slots__ = (
        "k", "via_tower", "via_exponent_vector", "via_unextended", "via_divisibility"
    )

    @property
    def verdict(self) -> bool:
        return self.via_tower

    @property
    def agreed(self) -> bool:
        return (
            self.via_tower
            == self.via_exponent_vector
            == self.via_unextended
            == self.via_divisibility
        )


def radicality_equivalence(rees: ReesData | Sequence[int], k: int) -> EquivalenceReport:
    """Check the four equivalent radicality statements against each other.

    (1) every tower exponent h_j equals one; (2) the exponent vector of
    the extended ideal is fixed by the radical; (3) the same test on the
    unextended-level vector, recomputed through the value-group oracle
    rather than gcd; (4) k is divisible by every Rees integer.  The four
    booleans are computed independently and an ``EquivalenceViolation``
    is raised if they ever disagree.
    """
    # the oracle loads only when this cross-check runs
    from .puiseux import PuiseuxModel, oracle_ramification

    rd = rees_data(rees)
    report = itoh_structure(rd, k)
    via_tower = report.is_radical

    # the radical clamps each positive exponent to one, so a vector is
    # fixed by it exactly when no exponent exceeds one
    via_exponent_vector = all(h <= 1 for h in report.u_exponents)

    oracle_exponents = []
    for e in rd.entries:
        c = oracle_ramification(PuiseuxModel(e, k))
        h, rest = divmod(e * c, k)
        if rest:
            raise EquivalenceViolation(f"non-integral exponent for e={e}, k={k}")
        oracle_exponents.append(h)
    via_unextended = all(h <= 1 for h in oracle_exponents)

    via_divisibility = all(k % e == 0 for e in rd.entries)

    result = EquivalenceReport(
        k=k,
        via_tower=via_tower,
        via_exponent_vector=via_exponent_vector,
        via_unextended=via_unextended,
        via_divisibility=via_divisibility,
    )
    if not result.agreed:
        raise EquivalenceViolation(
            f"radicality statements disagree for rees={rd.entries}, k={k}: {result}"
        )
    return result


def semilocal_radical(a: SemilocalIdeal) -> SemilocalIdeal:
    """Radical of an ideal: every positive exponent clamps to one."""
    return SemilocalIdeal(tuple(min(e, 1) for e in a.exponents))


def jacobson_radical(n: int) -> SemilocalIdeal:
    """Jacobson radical of a semilocal Dedekind domain with n maximal ideals."""
    if n < 1:
        raise NonPositiveError(f"need at least one maximal ideal, got {n}")
    return SemilocalIdeal((1,) * n)


def _require_nonunit(a: SemilocalIdeal) -> None:
    if a.is_unit:
        raise UnitIdealError("operation is undefined for the unit ideal")


def is_projectively_equivalent(a: SemilocalIdeal, b: SemilocalIdeal) -> bool:
    """Whether some powers of a and b have equal integral closures.

    In a Dedekind domain all ideals are integrally closed, so this
    holds exactly when the exponent vectors are positive rational
    multiples of each other.
    """
    if len(a) != len(b):
        raise IndexMismatchError(f"index sets differ: {len(a)} vs {len(b)}")
    _require_nonunit(a)
    _require_nonunit(b)
    pivot = next(i for i, e in enumerate(a.exponents) if e > 0)
    if b.exponents[pivot] == 0:
        return False
    ap, bp = a.exponents[pivot], b.exponents[pivot]
    return all(x * bp == y * ap for x, y in zip(a.exponents, b.exponents))


def is_projectively_full(a: SemilocalIdeal) -> bool:
    """Whether every ideal projectively equivalent to a is a power of a.

    Equivalent to the exponent vector being primitive: the gcd of its
    entries is one.
    """
    _require_nonunit(a)
    return math.gcd(*a.exponents) == 1
