"""Exact integer and rational arithmetic helpers.

The lcm of a list of positive integers, and finitely generated
subgroups of (Q, +), which are cyclic.  All values are exact Python
ints and ``fractions.Fraction``; floating point never appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import EmptyListError, NonPositiveError


def lcm_list(xs: Iterable[int]) -> int:
    """Least common multiple of a nonempty list of positive integers."""
    xs = list(xs)
    if not xs:
        raise EmptyListError("lcm of an empty list")
    for x in xs:
        if x <= 0:
            raise NonPositiveError(f"lcm requires positive entries, got {x}")
    return math.lcm(*xs)


@dataclass(frozen=True)
class QSubgroup:
    """A finitely generated (hence cyclic) additive subgroup of Q.

    ``generator`` is the unique nonnegative rational g with the group
    equal to g*Z; g = 0 encodes the trivial group.
    """

    generator: Fraction

    def __post_init__(self):
        if self.generator < 0:
            raise NonPositiveError("subgroup generator must be nonnegative")

    @property
    def is_trivial(self) -> bool:
        return self.generator == 0

    def contains(self, x: Fraction | int) -> bool:
        x = Fraction(x)
        if self.is_trivial:
            return x == 0
        return (x / self.generator).denominator == 1


def subgroup_generated(xs: Iterable[Fraction | int]) -> QSubgroup:
    """Subgroup of Q generated by finitely many nonnegative rationals.

    After reducing each entry, the generator is gcd(numerators) over
    lcm(denominators).  The empty list gives the trivial group.
    """
    fracs = [Fraction(x) for x in xs]
    for f in fracs:
        if f < 0:
            raise NonPositiveError(f"subgroup entries must be nonnegative, got {f}")
    if not fracs:
        return QSubgroup(Fraction(0))
    num = 0
    den = 1
    for f in fracs:
        num = math.gcd(num, f.numerator)
        den = math.lcm(den, f.denominator)
    return QSubgroup(Fraction(num, den))
