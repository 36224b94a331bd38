"""Exact integer and rational arithmetic helpers.

The lcm of a list of positive integers, and the generator of a
finitely generated subgroup of (Q, +), which is cyclic.  All values are
exact Python ints and ``fractions.Fraction``; floating point never
appears.
"""

from __future__ import annotations

import math
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
