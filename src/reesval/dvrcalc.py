"""Symbolic calculus of discrete valuation ring extensions.

A DVR enters only through numeric invariants: the value of the
distinguished element u (uniformizer exponent), and the number of
transcendental generators adjoined to its residue field.  An extension
of DVRs is a record of (degree, ramification index, residue degree);
towers multiply these componentwise.  The two building blocks are the
unramified extension generated by a root of X^e - w for a
residue-transcendental unit w (degree e, residue degree e) and the
totally ramified extension by a root of the uniformizer (degree f,
ramification f).
"""

from __future__ import annotations

import functools
import math

from .errors import (
    NonPositiveError,
    NoTranscendentalError,
    NotMultipleError,
    read_int,
)
from .record import Record


class DVRSpec(Record):
    """A DVR with u-value e (u generates the e-th power of the maximal ideal).

    ``transcendentals`` counts the transcendental generators (such as
    the residue of t*b) adjoined to its residue field.
    """

    __slots__ = ("uniformizer_exponent", "transcendentals")
    _defaults = {"transcendentals": 0}
    _ints = {
        "uniformizer_exponent": (1, "uniformizer exponent", NonPositiveError),
        "transcendentals": (0, "transcendental count", NonPositiveError),
    }


class ExtensionStep(Record):
    """One extension of DVRs with its three invariants."""

    __slots__ = ("degree", "ramification", "residue_degree")
    _ints = {n: (1, n, NonPositiveError) for n in __slots__}

    @property
    def invariants(self) -> tuple[int, int, int]:
        """(degree, ramification, residue_degree)."""
        return (self.degree, self.ramification, self.residue_degree)


class Tower(Record):
    """A chain of extension steps over a base DVR, bottom step first."""

    __slots__ = ("base", "steps")

    def composite(self) -> ExtensionStep:
        """Componentwise product of all steps."""
        return functools.reduce(compose, self.steps, ExtensionStep(1, 1, 1))


def unramified_kummer_step(w: DVRSpec) -> ExtensionStep:
    """Adjoin a root of X^e - w for the residue-transcendental unit w = v/(t*b).

    The residue image of the unit is transcendental over the base
    residue field, so the reduced polynomial is irreducible and the
    extension has degree e, ramification one, residue degree e.  Without
    a transcendental residue generator the irreducibility argument is
    unavailable.
    """
    if w.transcendentals < 1:
        raise NoTranscendentalError(
            "unramified Kummer step needs a transcendental residue generator"
        )
    e = w.uniformizer_exponent
    return ExtensionStep(degree=e, ramification=1, residue_degree=e)


def totally_ramified_root_step(f: int) -> ExtensionStep:
    """Adjoin an f-th root of the uniformizer: degree f, ramification f."""
    f = read_int(f, 1, "root order", NonPositiveError)
    return ExtensionStep(degree=f, ramification=f, residue_degree=1)


def itoh_tower(e_j: int, e: int) -> Tower:
    """The two-step tower W <= U <= V* for a common multiple e of e_j.

    First the unramified Kummer step of degree e_j, then a totally
    ramified root step of order e/e_j.  The composite has degree e,
    ramification e/e_j, residue degree e_j, with no splitting.
    """
    e_j = read_int(e_j, 1, "e_j", NonPositiveError)
    e = read_int(e, 1, "e", NonPositiveError)
    if e % e_j != 0:
        raise NotMultipleError(f"{e} is not a multiple of {e_j}")
    base = DVRSpec(uniformizer_exponent=e_j, transcendentals=1)
    kummer = unramified_kummer_step(base)
    root = totally_ramified_root_step(e // e_j)
    return Tower(base=base, steps=(kummer, root))


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


def compose(t1: ExtensionStep, t2: ExtensionStep) -> ExtensionStep:
    """Stack t2 on top of t1; all three invariants multiply."""
    return ExtensionStep(
        degree=t1.degree * t2.degree,
        ramification=t1.ramification * t2.ramification,
        residue_degree=t1.residue_degree * t2.residue_degree,
    )


class FundamentalReport(Record):
    """One Fundamental Equality verdict per checked step."""

    __slots__ = ("checks",)

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
        seq: tuple[ExtensionStep, ...] = (steps,)
    else:
        seq = steps.steps + (steps.composite(),)
    return FundamentalReport(
        tuple(s.ramification * s.residue_degree == s.degree for s in seq)
    )
