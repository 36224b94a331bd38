"""The facet-free membership oracle for integral closures of powers.

It decides whether x^m lies in the closure of the k-th power of a
monomial ideal touching no facet data at all, independently of
:func:`reesval.monomial.rees_valuations`: it looks for a convex
combination of at most d scaled generators below the point.  Three
kernels decide it, written from one source template for each d and
compiled at import into one table for d = 1, 2, 3.  ``covers`` gives
each scaled generator its cover: the nonzero 0/1 weights a with
a.k*g <= a.m.  A subset is tested only when its covers' union holds
every weight, and when the union over all generators does not, one
weight separates m from the scaled generators and the answer is no
without any subset test.  ``pair`` (one weight) and ``triple`` (two
weights) decide a subset, each coordinate's bound spelled out: a pair
narrows [0, 1], and a triple takes one Fourier-Motzkin step on d + 3
rows; neither reduces a row by its gcd.  The general Fourier-Motzkin
solver shares no code with them and is the exact reference they are
tested against.

All arithmetic is exact: integers only.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Sequence

from .errors import DimensionMismatchError, NonPositivePowerError, read_int, repr_text, vec_text
from .monomial import MonomialIdeal


def _fm_feasible(constraints: Iterable[tuple[Sequence[int], int]], nvars: int) -> bool:
    """Decide rational feasibility of integer inequalities sum(c*x) <= b, nvars >= 1.

    Classic Fourier-Motzkin elimination (Schrijver, *Theory of Linear and
    Integer Programming*, 12.2), exact for any input.  Every row is
    divided by the gcd of its entries.  Variables nvars - 1 down to 1 are
    eliminated pairwise: each row with a positive coefficient is combined
    with each row with a negative one.  One pass then settles x0: a row
    bounds it above by b/c when c > 0 and below when c < 0, 0 <= b < 0
    is a contradiction, and bounds num/den (den = 0 infinite) are compared
    by cross-multiplication.  The oracle's subset tests share no code.
    """
    rows = []
    for coeffs, rhs in constraints:
        g = math.gcd(*coeffs, rhs)
        rows.append(([c // g for c in coeffs], rhs // g) if g > 1 else (coeffs, rhs))
    for var in range(nvars - 1, 0, -1):
        pos, neg, rest = [], [], []
        for row in rows:
            cv = row[0][var]
            if cv > 0:
                pos.append(row)
            elif cv < 0:
                neg.append(row)
            else:
                rest.append(row)
        for pc, pb in pos:
            for nc, nb in neg:
                scale_p, scale_n = -nc[var], pc[var]
                coeffs = [scale_p * p + scale_n * n for p, n in zip(pc, nc)]
                rhs = scale_p * pb + scale_n * nb
                g = math.gcd(*coeffs, rhs)
                rest.append(([c // g for c in coeffs], rhs // g) if g > 1 else (coeffs, rhs))
        rows = rest
    low, low_den, high, high_den = -1, 0, 1, 0
    for (c, *_), b in rows:
        if c > 0:
            if b * high_den < high * c:  # b/c < high/high_den
                high, high_den = b, c
        elif c < 0:
            if b * low_den < low * c:  # b/c > low/low_den, as c < 0
                low, low_den = -b, -c
        elif b < 0:
            return False
    return low * high_den <= high * low_den


# The kernels of each dimension: one source, written from d alone.  _BOUND
# adds c*x <= b to x's interval [low/low_den, high/high_den] (den 0: none);
# it goes after an indent of four, or after "el" to continue an elif chain.
_BOUND = """if c > 0:
        if b * high_den < high * c:
            high, high_den = b, c
    elif c < 0:
        if b * low_den < low * c:
            low, low_den = -b, -c
    elif b < 0:
        return False"""
_KERNEL_SOURCE = """\
FULL = {full}
def covers(gens, k, m):
    ({m},) = m
    pool, union = [], 0
    for ({g},) in gens:
        {t} = {slack}
        cover = {cover}
        if cover == {full}:
            return None
        if cover:
            pool.append((({scaled},), cover))
            union |= cover
    return pool if union == {full} else []
def pair(p, q, m):
    ({p},), ({q},), ({m},) = p, q, m
    low, low_den, high, high_den = 0, 1, 1, 1{pair_rows}
    return low * high_den <= high * low_den
def triple(p, r, q, m):
    ({p},), ({r},), ({q},), ({m},) = p, r, q, m
    low, low_den, high, high_den = 0, 1, 1, 0
    pos, neg = [(1, 1, 1)], [(0, 1, 0)]{triple_rows}
    for c1, e1, b1 in pos:
        for c2, e2, b2 in neg:
            c, b = c1 * e2 + c2 * e1, b1 * e2 + b2 * e1
            {combined}
    return low * high_den <= high * low_den
"""


def _kernel_source(d: int) -> str:
    """The source of the kernels at a point m, written from ``operator.index(d)`` alone.

    Each coordinate j is spelled out.  ``covers(gens, k, m)``: bit i of a
    generator g's cover is set when a_i.(m - k*g) >= 0 for the i-th
    nonzero 0/1 weight a_i, the d unit weights first; it returns None
    when a cover is ``FULL`` (k*g <= m), and otherwise the pairs
    (k*g, cover) of nonzero cover, or no pair when their union is not
    full.  ``pair(p, q, m)``: is w*p + (1 - w)*q <= m for a w in [0, 1]?
    Each w*c <= b, c, b = p_j - q_j, m_j - q_j, narrows [0, 1].
    ``triple(p, r, q, m)``: is u*p + w*r + (1 - u - w)*q <= m for u, w >= 0,
    u + w <= 1?  Its d + 3 rows c*u + e*w <= b are split by the sign of e
    as read, and one Fourier-Motzkin step combines each with e > 0 with
    each with e < 0; positive scaling keeps every bound.
    """
    d = operator.index(d)
    weights = [1 << j for j in range(d)] + [a for a in range(1, 1 << d) if a & (a - 1)]
    sums = [" + ".join(f"t{j}" for j in range(d) if a >> j & 1) for a in weights]
    return _KERNEL_SOURCE.format(
        **{v: ", ".join(f"{v}{j}" for j in range(d)) for v in "gmpqrt"},
        slack=", ".join(f"m{j} - k * g{j}" for j in range(d)),
        full=(1 << len(weights)) - 1,
        cover=" | ".join(f"({s} >= 0) << {i}" for i, s in enumerate(sums)),
        scaled=", ".join(f"k * g{j}" for j in range(d)),
        pair_rows="".join(f"\n    c, b = p{j} - q{j}, m{j} - q{j}\n    {_BOUND}"
                          for j in range(d)),
        triple_rows="".join(f"""
    c, e, b = p{j} - q{j}, r{j} - q{j}, m{j} - q{j}
    if e > 0:
        pos.append((c, e, b))
    elif e < 0:
        neg.append((c, -e, b))
    el{_BOUND}""" for j in range(d)),
        combined=_BOUND.replace("\n", "\n        "),
    )


def _compile(d: int) -> tuple:
    """(covers, pair, triple, FULL) of dimension d, from :func:`_kernel_source`."""
    namespace: dict = {}
    exec(_kernel_source(d), namespace)
    return operator.itemgetter("covers", "pair", "triple", "FULL")(namespace)


# The kernels of every dimension a MonomialIdeal admits, compiled at import.
_KERNELS = {d: _compile(d) for d in (1, 2, 3)}


def oracle_is_integral(ideal: MonomialIdeal, k: int, m: Sequence[int]) -> bool:
    """Decide membership of x^m in the closure of the k-th power, facet-free.

    Equivalent formulation: m lies in conv(kG) + orthant, G the
    generators.  A point c of conv(kG) with c <= m is searched among the
    convex combinations of at most d of the scaled generators, each
    subset decided as exact rational feasibility in at most d - 1
    weights, independently of :func:`rees_valuations`, by the pair and
    triple kernels of the table entry for d.  As d <= 3, no larger subset
    occurs.

    At most d generators are needed (Caratheodory).  If m lies in the
    polyhedron P, move it along -(1, ..., 1) to the last point p still
    in P; p exists because P is closed and lies in the orthant.  Then p
    is on the boundary, so in a face of dimension <= d - 1, and
    Caratheodory's theorem in that face writes p as a convex combination
    of at most d vertices plus a recession vector.  The vertices are
    generators, and their combination c satisfies c <= p <= m.  One
    generator is the dominance test kg <= m; subsets of 2..d run only
    when it fails.

    Two exact prunings keep the subsets few:

    (a) A generator g with g > m in every coordinate is dropped.  If a
        combination c <= m gives g the weight w, then w < 1 as g > m,
        and since g > c, removing g and renormalising leaves
        (c - w*g) / (1 - w) < (c - w*c) / (1 - w) = c <= m.
    (b) A subset is skipped unless, for every nonzero 0/1 weight a,
        some member has a.g <= a.m: a combination c <= m with a >= 0
        gives a.c <= a.m, and a.c is a convex combination of the
        members' a.g, so one of them is at most a.m (Farkas: a weight
        that fails separates m from the subset's hull plus the orthant).

    Each generator keeps its cover, the bitmask of the weights a with
    a.(m - g) >= 0, the d unit weights as bits 0..d-1: all of them is
    dominance, no unit bit is pruning (a), and a subset passes (b) when
    the union of its members' covers is full.  The covers come from the
    entry's ``covers`` kernel, one pass over the generators, and the
    entry carries the full mask.  When the union over all generators is
    not full, no subset passes (b), and the oracle answers False with no
    pair or triple test: m is not a member.
    """
    k = read_int(k, 1, "power", NonPositivePowerError)
    try:
        m = tuple(map(operator.index, m))
    except TypeError:
        raise DimensionMismatchError(
            f"monomial {repr_text(m)} has a non-integer exponent"
        ) from None
    if len(m) != ideal.dim:
        raise DimensionMismatchError(
            f"monomial {vec_text(m)} has length {len(m)}, ideal has dimension {ideal.dim}"
        )
    if min(m) < 0:
        raise DimensionMismatchError(f"negative exponent in {vec_text(m)}")
    covers, pair, triple, full = _KERNELS[ideal.dim]
    pool = covers(ideal.generators, k, m)
    if not pool:
        return pool is None
    for (p, cp), (q, cq) in itertools.combinations(pool, 2):
        if cp | cq == full and pair(p, q, m):
            return True
    if ideal.dim > 2:
        for (p, cp), (r, cr), (q, cq) in itertools.combinations(pool, 3):
            if cp | cr | cq == full and triple(p, r, q, m):
                return True
    return False
