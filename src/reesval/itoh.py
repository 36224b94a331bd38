"""Valuation towers over Rees data.

Given the Rees integers e_1, ..., e_n of an ideal, adjoining a k-th
root of the distinguished degree-(-1) element produces one valuation
per Rees valuation; its invariants are pure gcd arithmetic in (e_j, k),
and the extended principal ideal is the exponent vector (h_1, ..., h_n)
over the maximal ideals of a semilocal Dedekind domain.  Its
radicality is decided by exponent arithmetic on int tuples.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import (
    BadKError,
    EquivalenceViolation,
    NonPositiveError,
    digits_refusal,
    lcm_of,
    read_int,
    value_text,
)
from .dvrcalc import _root_invariants
from .record import Record

_puiseux = None  # the oracle module, imported by the first radicality_equivalence


def _read_rees_integers(values) -> tuple[int, ...]:
    """``values`` as a tuple of Rees integers, each read as an int >= 1."""
    return tuple([read_int(e, 1, "Rees integer", NonPositiveError) for e in values])


class ReesData(Record):
    """The multiset of Rees integers of an ideal, in a fixed order."""

    __slots__ = ("entries",)

    def __post_init__(self):
        entries = _read_rees_integers(self.entries)
        if not entries:
            raise NonPositiveError("Rees data must be nonempty")
        ReesData.entries.__set__(self, entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def lcm(self) -> int:
        return lcm_of(self.entries)


def rees_data(entries: Iterable[int] | ReesData) -> ReesData:
    return entries if isinstance(entries, ReesData) else ReesData(tuple(entries))


def _read_list(text: str, what: str) -> tuple[int, ...]:
    """The ints of a comma-separated ``what`` list; ``BadKError`` when one is
    not an int, naming an entry too long to read by its length alone."""
    parts = text.split(",")
    try:
        return tuple(map(int, parts))
    except ValueError:
        why = next(filter(None, (digits_refusal(p, f"{what} list entry") for p in parts)), None)
        raise BadKError(why or f"bad {what} list {text!r}") from None


def parse_rees(text: str) -> ReesData:
    """The ``ReesData`` of a comma-separated list of Rees integers."""
    return ReesData(_read_list(text, "Rees integer"))


class ItohValuationRecord(Record):
    """Tower invariants at one valuation for a fixed root order k.

    d = gcd(e, k) is the residue degree, c = k/d the ramification,
    h = e/d the value of the adjoined root (the exponent of the
    extended principal ideal at this valuation); the tower degree is k.
    """

    __slots__ = ("rees_integer", "residue_degree", "ramification", "u_exponent")


class ItohReport(Record):
    __slots__ = ("k", "per_valuation", "is_radical", "least_radical_k")
    _tuples = ("per_valuation",)

    @property
    def u_exponents(self) -> tuple[int, ...]:
        return tuple(r.u_exponent for r in self.per_valuation)


def itoh_structure(rees: ReesData | Sequence[int], k: int) -> ItohReport:
    """Per-valuation tower invariants for root order k >= 2.

    The extended principal ideal is radical exactly when every exponent
    h_j is one, i.e. when k is a common multiple of the Rees integers;
    the least such k is their lcm.
    """
    rd = rees_data(rees)
    k = read_int(k, 2, "root order", BadKError)
    records = []
    radical = True
    for e in rd.entries:
        _, c, d = _root_invariants(e, k)
        records.append(ItohValuationRecord(e, d, c, e // d))
        radical = radical and d == e  # the exponent h = e/d is one exactly when d = e
    return ItohReport(k, records, radical, rd.lcm)


class EquivalenceReport(Record):
    """Three independently computed radicality verdicts; all must agree."""

    __slots__ = ("k", "via_tower", "via_unextended", "via_divisibility")

    @property
    def verdict(self) -> bool:
        return self.via_tower

    @property
    def agreed(self) -> bool:
        return self.via_tower == self.via_unextended == self.via_divisibility


def radicality_equivalence(rees: ReesData | Sequence[int], k: int) -> EquivalenceReport:
    """Check the three equivalent radicality statements against each other.

    (1) every tower exponent h_j = e_j/gcd(e_j, k) equals one; (2) the
    same test on the unextended-level vector, recomputed through the
    value-group oracle rather than gcd; (3) k is a multiple of the Rees
    integers' lcm.  The three booleans are computed independently, from
    ints, and an ``EquivalenceViolation`` is raised if they ever disagree.
    """
    global _puiseux
    if _puiseux is None:  # the oracle loads only when this cross-check first runs
        from . import puiseux as _puiseux

    rd = rees_data(rees)
    k = read_int(k, 2, "root order", BadKError)
    exponents, oracle_exponents = [], []
    for e in rd.entries:
        exponents.append(e // _root_invariants(e, k)[2])
        h, rest = divmod(e * _puiseux._ramification(e, k), k)
        if rest:
            raise EquivalenceViolation(
                f"non-integral exponent for e={value_text(e)}, k={value_text(k)}"
            )
        oracle_exponents.append(h)
    # routes (1)-(3); every exponent is >= 1, so "each is one" is "the largest is one"
    result = EquivalenceReport(k, max(exponents) == 1, max(oracle_exponents) <= 1,
                               k % rd.lcm == 0)
    if not result.agreed:
        raise EquivalenceViolation(
            f"radicality statements disagree for rees={value_text(rd.entries)}, "
            f"k={value_text(k)}: {value_text(result)}"
        )
    return result
