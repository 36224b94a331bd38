"""Independent verification of root-extension invariants.

For a DVR in which the distinguished element u has value e, adjoining a
k-th root of u produces one extension whose invariants the gcd calculus
in :mod:`reesval.dvrcalc` predicts in closed form.  This module reaches
the same two numbers by a deliberately different route:

* ramification is the index of the old value group inside the group
  generated by 1 and e/k, computed by :func:`subgroup_generated` from
  the numerators and denominators of the generators;
* the residue degree is the order d of the smallest value-zero monomial
  in u^(1/k) and the uniformizer, whose residue tau satisfies
  tau^d = w for the unit w = v/s of s-valuation -1 over the rational
  function residue field kappa(s); the degree of X^d - w is certified
  by a Newton-polygon slope criterion.

Neither path evaluates gcd(e, k) or k/gcd(e, k) directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    FundamentalEqualityViolation,
    NonIntegralSetupError,
    NonPositiveError,
)


@dataclass(frozen=True)
class PuiseuxModel:
    """Base data: u has value e (value group Z), and a k-th root is adjoined."""

    e: int
    k: int

    def __post_init__(self):
        if self.e < 1 or self.k < 1:
            raise NonPositiveError("model requires e >= 1 and k >= 1")


def subgroup_generated(xs: Iterable[Fraction | int]) -> Fraction:
    """Generator of the subgroup of Q spanned by finitely many nonnegative rationals.

    Such a subgroup is cyclic, g*Z for a unique nonnegative rational g.
    After reducing each entry, g is gcd(numerators) over
    lcm(denominators); the empty list gives g = 0, the trivial group.
    """
    fracs = [Fraction(x) for x in xs]
    for f in fracs:
        if f < 0:
            raise NonPositiveError(f"subgroup entries must be nonnegative, got {f}")
    num = 0
    den = 1
    for f in fracs:
        num = math.gcd(num, f.numerator)
        den = math.lcm(den, f.denominator)
    return Fraction(num, den)


def oracle_ramification(model: PuiseuxModel) -> int:
    """Index of Z inside the value group extended by the value e/k of u^(1/k)."""
    generator = subgroup_generated([Fraction(1), Fraction(model.e, model.k)])
    index = 1 / generator
    if index.denominator != 1:
        raise FundamentalEqualityViolation(
            f"extended value group {generator} does not contain Z"
        )
    return int(index)


def newton_polygon_irreducible(degree: int, constant_valuation: Fraction | int) -> bool:
    """Certify irreducibility of X^d - a by the one-segment slope criterion.

    ``degree`` is d >= 1 and ``constant_valuation`` the s-valuation v(a)
    of the constant term.  The polygon is the single segment from
    (0, v(a)) to (d, 0); the polynomial is certified irreducible exactly
    when the slope v(a)/d in lowest terms has denominator d.
    """
    if degree < 1:
        raise NonPositiveError("degree must be >= 1")
    v = Fraction(constant_valuation)
    if v.denominator != 1:
        raise NonIntegralSetupError(f"constant term valuation {v} is not an integer")
    return (v / degree).denominator == degree


def oracle_residue_degree(model: PuiseuxModel) -> int:
    """Residue degree via the multiplicative order of the residue generator.

    The smallest positive a with a*e divisible by k makes
    u^(a/k) * pi^(-a*e/k) a value-zero element tau, and tau^(k/a) equals
    the unit w with residue w = v/s.  The residue extension is generated
    by a root of X^d - w with d = k/a, irreducible by the Newton
    polygon since v(w) = -1.
    """
    e, k = model.e, model.k
    a = next(a for a in range(1, k + 1) if (a * e) % k == 0)
    d = k // a
    if not newton_polygon_irreducible(d, -1):
        raise FundamentalEqualityViolation(
            f"X^{d} - w unexpectedly fails the irreducibility certificate"
        )
    return d


def oracle_extension(model: PuiseuxModel) -> tuple[int, int, int]:
    """(ramification, residue degree, degree) of the k-th root extension.

    The Fundamental Equality with no splitting is asserted before
    returning; a failure would mean a bug in one of the two routes.
    """
    ramification = oracle_ramification(model)
    residue_degree = oracle_residue_degree(model)
    if ramification * residue_degree != model.k:
        raise FundamentalEqualityViolation(
            f"{ramification} * {residue_degree} != {model.k} for e={model.e}"
        )
    return (ramification, residue_degree, model.k)
