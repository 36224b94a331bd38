"""Invariants of discrete valuation ring extensions.

An extension of DVRs is a record of (degree, ramification index,
residue degree); a tower of them multiplies these componentwise.  The
paper's two-step tower has an unramified step, a root of X^e - w for a
residue-transcendental unit w (degree e, residue degree e), and then a
totally ramified step, a root of the uniformizer (degree f,
ramification f).
"""

from __future__ import annotations

import math

from .errors import NonPositiveError, NotMultipleError, read_int, value_text
from .record import Record


class ExtensionStep(Record):
    """One extension of DVRs with its three invariants."""

    __slots__ = ("degree", "ramification", "residue_degree")
    _ints = {n: (1, n, NonPositiveError) for n in __slots__}

    @property
    def invariants(self) -> tuple[int, int, int]:
        """(degree, ramification, residue_degree)."""
        return (self.degree, self.ramification, self.residue_degree)


class Tower(Record):
    """A chain of extension steps, bottom step first, stored as a tuple."""

    __slots__ = ("steps",)
    _tuples = __slots__

    def composite(self) -> ExtensionStep:
        """The one step whose invariants are the products of the steps' invariants."""
        degree = ramification = residue_degree = 1
        for s in self.steps:
            degree *= s.degree
            ramification *= s.ramification
            residue_degree *= s.residue_degree
        return ExtensionStep(degree, ramification, residue_degree)


def itoh_tower(e_j: int, e: int) -> Tower:
    """The two-step tower W <= U <= V* for a common multiple e of e_j.

    First the unramified Kummer step of degree e_j, adjoining a root of
    X^(e_j) - w for the unit w = v/(t*b), whose residue is
    transcendental; then a totally ramified root step of order
    q = e/e_j.  The composite has degree e, ramification q, residue
    degree e_j, with no splitting.
    """
    e_j = read_int(e_j, 1, "e_j", NonPositiveError)
    e = read_int(e, 1, "e", NonPositiveError)
    if e % e_j != 0:
        raise NotMultipleError(f"{value_text(e)} is not a multiple of {value_text(e_j)}")
    q = e // e_j
    return Tower((ExtensionStep(e_j, 1, e_j), ExtensionStep(q, q, 1)))


def _root_invariants(e: int, k: int) -> tuple[int, int, int]:
    """(degree, ramification, residue degree) = (k, k/d, d), d = gcd(e, k)."""
    d = math.gcd(e, k)
    return k, k // d, d


def general_k_extension(e: int, k: int) -> ExtensionStep:
    """Invariants of adjoining a k-th root of u when u has value e.

    With d = gcd(e, k): degree k, ramification k/d, residue degree d,
    and the Fundamental Equality holds with no splitting.
    """
    e = read_int(e, 1, "e", NonPositiveError)
    k = read_int(k, 1, "k", NonPositiveError)
    return ExtensionStep(*_root_invariants(e, k))


class FundamentalReport(Record):
    """One Fundamental Equality verdict per checked step."""

    __slots__ = ("checks",)
    _tuples = __slots__

    @property
    def ok(self) -> bool:
        return all(self.checks)


def check_fundamental(steps: ExtensionStep | Tower) -> FundamentalReport:
    """Check ramification * residue degree == degree for each step.

    A tower is checked step by step and then as its composite.  The
    root extensions of this module have no splitting, so the
    Fundamental Equality must hold for each of them.
    """
    if isinstance(steps, ExtensionStep):
        return FundamentalReport((steps.ramification * steps.residue_degree == steps.degree,))
    return FundamentalReport(
        [s.ramification * s.residue_degree == s.degree
         for s in steps.steps + (steps.composite(),)]
    )
