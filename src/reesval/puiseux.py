"""Independent verification of root-extension invariants.

For a DVR in which the distinguished element u has value e, adjoining a
k-th root of u produces one extension whose invariants the gcd calculus
in :mod:`reesval.dvrcalc` predicts in closed form, by calling
``math.gcd(e, k)`` and dividing.  This module reaches the same two
numbers by two other routes, each polynomial in the bit length of e
and k and computed with integers only:

* ramification is the index of Z in the value group Z + (e/k)Z.
  Scaled by k that group is kZ + eZ = gZ, where g is the gcd of k and e
  from the extended Euclidean algorithm, returned only with Bezout
  coefficients s, t that pass s*k + t*e == g, g | k and g | e; the
  index is k/g;
* the residue degree is the order d of the smallest value-zero monomial
  in u^(1/k) and the uniformizer, whose residue tau satisfies
  tau^d = w for the unit w = v/s of s-valuation -1 over the rational
  function residue field kappa(s).  That order is read off the
  continued-fraction convergents of e/k, built with ``divmod`` alone
  and checked by multiplication.  The degree of X^d - w is certified
  by a Newton-polygon slope criterion.

Neither route calls ``math.gcd``.  :func:`oracle_extension` compares
the two with the Fundamental Equality.
"""

from __future__ import annotations

import operator

from .errors import (
    FundamentalEqualityViolation,
    NonIntegralSetupError,
    NonPositiveError,
    read_int,
)
from .record import Record


class PuiseuxModel(Record):
    """Base data: u has value e (value group Z), and a k-th root is adjoined."""

    __slots__ = ("e", "k")
    _ints = {n: (1, n, NonPositiveError) for n in __slots__}


def _certified_gcd(a: int, b: int) -> int:
    """gcd(a, b) for a >= 0 and b >= 1 by the extended Euclidean algorithm.

    The result g is returned only with Bezout coefficients that pass
    s*a + t*b == g, and with g | a and g | b: every common divisor of a
    and b then divides g, so g is the greatest.
    """
    g, s, t, r, s_next, t_next = a, 1, 0, b, 0, 1
    while r:
        quotient = g // r
        g, r = r, g - quotient * r
        s, s_next = s_next, s - quotient * s_next
        t, t_next = t_next, t - quotient * t_next
    if s * a + t * b != g or a % g or b % g:
        raise FundamentalEqualityViolation(f"no Bezout certificate for gcd({a}, {b}) = {g}")
    return g


def _ramification(e: int, k: int) -> int:
    """Index of Z inside the value group extended by the value e/k of u^(1/k).

    The group Z + (e/k)Z is computed scaled by k, as the subgroup kZ + eZ
    of Z, whose generator is the certified gcd of k and e.
    """
    return k // _certified_gcd(k, e)


def oracle_ramification(model: PuiseuxModel) -> int:
    """The ramification of the model's root extension, from the value group."""
    return _ramification(model.e, model.k)


def newton_polygon_irreducible(degree: int, constant_valuation: int) -> bool:
    """Certify irreducibility of X^d - a by the one-segment slope criterion.

    ``degree`` is d >= 1 and ``constant_valuation`` the integer
    s-valuation v(a) of the constant term.  The polygon is the single
    segment from (0, v(a)) to (d, 0); the polynomial is certified
    irreducible exactly when the slope v(a)/d in lowest terms has
    denominator d, that is when v(a) and d are coprime.
    """
    degree = read_int(degree, 1, "degree", NonPositiveError)
    try:
        v = operator.index(constant_valuation)
    except TypeError:
        raise NonIntegralSetupError(
            f"constant term valuation must be an integer, got {constant_valuation!r}"
        ) from None
    return _certified_gcd(abs(v), degree) == 1


def oracle_residue_degree(model: PuiseuxModel) -> int:
    """Residue degree via the multiplicative order of the residue generator.

    The smallest positive a with a*e divisible by k makes
    u^(a/k) * pi^(-a*e/k) a value-zero element tau, and tau^(k/a) equals
    the unit w with residue w = v/s.  The residue extension is generated
    by a root of X^d - w with d = k/a, irreducible by the Newton
    polygon since v(w) = -1.

    The least a comes from the continued fraction of e/k.  Its last
    convergent p/q equals e/k, and with the previous convergent p'/q'
    the determinant p*q' - p'*q is +-1, so p/q is in lowest terms and q
    is the least a.  Both identities are checked by multiplication, and
    the expansion takes O(log k) divisions.
    """
    e, k = model.e, model.k
    # convergents p/q and p'/q', seeded with 1/0 and 0/1
    p, q, p_prev, q_prev = 1, 0, 0, 1
    x, y = e, k
    while y:
        quotient, rest = divmod(x, y)
        p, p_prev = quotient * p + p_prev, p
        q, q_prev = quotient * q + q_prev, q
        x, y = y, rest
    if p * k != e * q or abs(p * q_prev - p_prev * q) != 1:
        raise FundamentalEqualityViolation(
            f"last convergent {p}/{q} is not e/k = {e}/{k} in lowest terms"
        )
    d = k // q
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
