"""The facet-free membership oracle for integral closures of powers.

It decides whether x^m lies in the closure of the k-th power of a
monomial ideal touching no facet data at all, independently of
:func:`reesval.monomial.rees_valuations`: it looks for a convex
combination of at most d scaled generators below the point.  Each
generator first gets a cover: the nonzero 0/1 weights a with
a.k*g <= a.m, found by a step compiled once per dimension.  A subset
is tested only when its covers' union holds every weight, and when the
union over all generators does not, one weight separates m from the
scaled generators and the answer is no without any subset test.  A
pair (one weight) is decided by intersecting [0, 1] with one bound per
coordinate, and a triple (two weights) by one Fourier-Motzkin step on
d + 3 rows read off the coordinate tuples, then the same interval pass;
neither reduces a row by its gcd.  That one pass over the bounds,
compared by cross-multiplication, is a single helper that the general
Fourier-Motzkin solver also ends with; the solver is the exact
reference the direct routes are tested against.

All arithmetic is exact: integers only.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Sequence

from .errors import DimensionMismatchError, NonPositivePowerError, read_int, repr_text, vec_text
from .monomial import MonomialIdeal, Vec


def _interval_feasible(rows: Iterable[tuple[int, int]]) -> bool:
    """Whether some rational x has c*x <= b for every row (c, b).

    One pass over the bounds, with no combination of rows: a row bounds
    x above by b/c when c > 0 and below by b/c when c < 0, and a row
    0 <= b with b < 0 is a contradiction.  Bounds are num/den with
    den >= 0 and are compared by integer cross-multiplication, so no row
    needs reducing; den = 0 stands for the infinite bound (-1/0 below,
    1/0 above) that every finite one beats.
    """
    low, low_den, high, high_den = -1, 0, 1, 0
    for c, b in rows:
        if c > 0:
            if b * high_den < high * c:  # b/c < high/high_den
                high, high_den = b, c
        elif c < 0:
            if b * low_den < low * c:  # b/c > low/low_den, as c < 0
                low, low_den = -b, -c
        elif b < 0:
            return False
    return low * high_den <= high * low_den


def _fm_feasible(constraints: Iterable[tuple[Sequence[int], int]], nvars: int) -> bool:
    """Decide rational feasibility of integer inequalities sum(c*x) <= b, nvars >= 1.

    Classic Fourier-Motzkin elimination (Schrijver, *Theory of Linear and
    Integer Programming*, 12.2), exact for any input.  Every row is
    divided by the gcd of its entries.  Variables nvars - 1 down to 1 are
    eliminated pairwise: each row with a positive coefficient is combined
    with each row with a negative one.  The last variable x0 is then
    settled by :func:`_interval_feasible`, which the oracle's pairs and
    triples share.
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
    return _interval_feasible([(coeffs[0], rhs) for coeffs, rhs in rows])


def _pair_below(p: Vec, q: Vec, m: Vec) -> bool:
    """Whether w*p + (1 - w)*q <= m for some weight w in [0, 1].

    The rows -w <= 0 and w <= 1, then w*(p - q)[j] <= (m - q)[j] for
    each coordinate j: one bound on w each, settled by
    :func:`_interval_feasible`.
    """
    return _interval_feasible(itertools.chain(
        ((-1, 0), (1, 1)), zip(map(operator.sub, p, q), map(operator.sub, m, q))
    ))


def _triple_below(p: Vec, r: Vec, q: Vec, m: Vec) -> bool:
    """Whether u*p + w*r + (1 - u - w)*q <= m for some weights u, w >= 0, u + w <= 1.

    The system has d + 3 rows (a, b, c) for a*u + b*w <= c: one per
    coordinate j, ((p - q)[j], (r - q)[j], (m - q)[j]), then u + w <= 1,
    -u <= 0 and -w <= 0.  One Fourier-Motzkin step eliminates w: each
    row with b > 0 is combined with each row with b < 0, and the rows
    with b = 0 are kept.  :func:`_interval_feasible` settles u on the
    result.  Positive scaling keeps every bound, so no row is reduced.
    """
    sub = operator.sub
    rows = [
        *zip(map(sub, p, q), map(sub, r, q), map(sub, m, q)),
        (1, 1, 1), (-1, 0, 0), (0, -1, 0),
    ]
    pos = [row for row in rows if row[1] > 0]
    neg = [(a, -b, c) for a, b, c in rows if b < 0]
    flat = [(a, c) for a, b, c in rows if not b]
    flat += [(a * nb + na * b, c * nb + nc * b) for a, b, c in pos for na, nb, nc in neg]
    return _interval_feasible(flat)


# The cover step of each dimension, compiled on its first use.
_COVER_STEPS: dict = {}
_COVER_STEP_SOURCE = """\
def covers(gens, k, m):
    {m}, = m
    pool, union = [], 0
    for g in gens:
        {g}, = g
        {t} = {slack}
        cover = {cover}
        if cover == {full}:
            return None
        if cover:
            pool.append((g if k == 1 else ({scaled},), cover))
            union |= cover
    return pool if union == {full} else []
"""


def _cover_step(d: int):
    """The covers of the scaled generators at a point, compiled once per d.

    Its source is written from ``operator.index(d)`` alone: for each
    generator g, with t = m - k*g, bit i of the cover is set when
    a_i.t >= 0 for the i-th nonzero 0/1 weight a_i, the d unit weights
    first, and each a_i.t is spelled out.  The step returns None when a
    cover is full (k*g <= m), and otherwise the pairs (k*g, cover) of
    nonzero cover, or no pair when their union is not full.
    """
    d = operator.index(d)
    if d not in _COVER_STEPS:
        weights = [1 << j for j in range(d)]
        weights += [a for a in range(1, 1 << d) if a & (a - 1)]
        sums = [" + ".join(f"t{j}" for j in range(d) if a >> j & 1) for a in weights]
        namespace: dict = {}
        exec(_COVER_STEP_SOURCE.format(
            m=", ".join(f"m{j}" for j in range(d)),
            g=", ".join(f"g{j}" for j in range(d)),
            t=", ".join(f"t{j}" for j in range(d)),
            slack=", ".join(f"m{j} - k * g{j}" for j in range(d)),
            cover=" | ".join(f"({s} >= 0) << {i}" if i else f"({s} >= 0)"
                             for i, s in enumerate(sums)),
            full=(1 << len(weights)) - 1,
            scaled=", ".join(f"k * g{j}" for j in range(d)),
        ), namespace)
        _COVER_STEPS[d] = namespace["covers"]
    return _COVER_STEPS[d]


def oracle_is_integral(ideal: MonomialIdeal, k: int, m: Sequence[int]) -> bool:
    """Decide membership of x^m in the closure of the k-th power, facet-free.

    Equivalent formulation: m lies in conv(kG) + orthant, G the
    generators.  A point c of conv(kG) with c <= m is searched among the
    convex combinations of at most d of the scaled generators, each
    subset decided as exact rational feasibility in at most d - 1
    weights, independently of :func:`rees_valuations`: a pair by
    :func:`_pair_below` and a triple by :func:`_triple_below`.  As
    d <= 3, no larger subset occurs.

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
    step :func:`_cover_step` compiles for d, one pass over the
    generators that scales them only when k > 1.  When the union over
    all generators is not full, no subset passes (b), and the oracle
    answers False with no pair or triple test: m is not a member.
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
    if any(e < 0 for e in m):
        raise DimensionMismatchError(f"negative exponent in {vec_text(m)}")
    pool = _cover_step(ideal.dim)(ideal.generators, k, m)
    if pool is None:
        return True
    full = (1 << (1 << ideal.dim) - 1) - 1
    for (p, cp), (q, cq) in itertools.combinations(pool, 2):
        if cp | cq == full and _pair_below(p, q, m):
            return True
    if ideal.dim > 2:
        for (p, cp), (r, cr), (q, cq) in itertools.combinations(pool, 3):
            if cp | cr | cq == full and _triple_below(p, r, q, m):
                return True
    return False
