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
  and checked by multiplication.  X^d - w is irreducible, as its
  Newton polygon is one segment of slope -1/d, in lowest terms since
  v(w) = -1, so its degree d is the residue degree.

Neither route calls ``math.gcd``.  :func:`oracle_extension` compares
the two with the Fundamental Equality.
"""

from __future__ import annotations

from .errors import FundamentalEqualityViolation, NonPositiveError, value_text
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
        raise FundamentalEqualityViolation(
            f"no Bezout certificate for gcd({value_text(a)}, {value_text(b)}) = {value_text(g)}"
        )
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


def oracle_residue_degree(model: PuiseuxModel) -> int:
    """Residue degree via the multiplicative order of the residue generator.

    The smallest positive a with a*e divisible by k makes
    u^(a/k) * pi^(-a*e/k) a value-zero element tau, and tau^(k/a) equals
    the unit w with residue w = v/s.  The residue extension is generated
    by a root of X^d - w with d = k/a, irreducible since v(w) = -1:
    the Newton polygon is one segment whose slope -1/d has denominator
    d, so no factor of lower degree exists.

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
            f"last convergent {value_text(p)}/{value_text(q)} is not "
            f"e/k = {value_text(e)}/{value_text(k)} in lowest terms"
        )
    return k // q


def oracle_extension(model: PuiseuxModel) -> tuple[int, int, int]:
    """(ramification, residue degree, degree) of the k-th root extension.

    The Fundamental Equality with no splitting is asserted before
    returning; a failure would mean a bug in one of the two routes.
    """
    ramification = oracle_ramification(model)
    residue_degree = oracle_residue_degree(model)
    if ramification * residue_degree != model.k:
        raise FundamentalEqualityViolation(
            f"{value_text(ramification)} * {value_text(residue_degree)} != "
            f"{value_text(model.k)} for e={value_text(model.e)}"
        )
    return (ramification, residue_degree, model.k)
