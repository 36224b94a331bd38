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
)
from .record import Record


class DVRSpec(Record):
    """A DVR with u-value e (u generates the e-th power of the maximal ideal).

    ``transcendentals`` counts the transcendental generators (such as
    the residue of t*b) adjoined to its residue field.
    """

    __slots__ = ("uniformizer_exponent", "transcendentals")
    _defaults = {"transcendentals": 0}

    def __post_init__(self):
        if self.uniformizer_exponent < 1:
            raise NonPositiveError("uniformizer exponent must be >= 1")
        if self.transcendentals < 0:
            raise NonPositiveError("transcendental count must be >= 0")


class ExtensionStep(Record):
    """One extension of DVRs with its three invariants."""

    __slots__ = ("degree", "ramification", "residue_degree")

    def __post_init__(self):
        for name in ("degree", "ramification", "residue_degree"):
            if getattr(self, name) < 1:
                raise NonPositiveError(f"{name} must be >= 1")

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
    if f < 1:
        raise NonPositiveError(f"root order must be >= 1, got {f}")
    return ExtensionStep(degree=f, ramification=f, residue_degree=1)


def itoh_tower(e_j: int, e: int) -> Tower:
    """The two-step tower W <= U <= V* for a common multiple e of e_j.

    First the unramified Kummer step of degree e_j, then a totally
    ramified root step of order e/e_j.  The composite has degree e,
    ramification e/e_j, residue degree e_j, with no splitting.
    """
    if e_j < 1 or e < 1:
        raise NonPositiveError("both exponents must be >= 1")
    if e % e_j != 0:
        raise NotMultipleError(f"{e} is not a multiple of {e_j}")
    base = DVRSpec(uniformizer_exponent=e_j, transcendentals=1)
    kummer = unramified_kummer_step(base)
    root = totally_ramified_root_step(e // e_j)
    return Tower(base=base, steps=(kummer, root))


def general_k_extension(e: int, k: int) -> ExtensionStep:
    """Invariants of adjoining a k-th root of u when u has value e.

    With d = gcd(e, k): degree k, ramification k/d, residue degree d,
    and the Fundamental Equality holds with no splitting.
    """
    if e < 1 or k < 1:
        raise NonPositiveError("both e and k must be >= 1")
    d = math.gcd(e, k)
    return ExtensionStep(degree=k, ramification=k // d, residue_degree=d)


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
