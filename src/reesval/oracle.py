"""The facet-free membership oracle for integral closures of powers.

It decides whether x^m lies in the closure of the k-th power of a
monomial ideal touching no facet data at all, independently of
:func:`reesval.monomial.rees_valuations`: it looks for a convex
combination of at most d scaled generators below the point.  A pair
(one weight) is decided by intersecting [0, 1] with one bound per
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

from .errors import DimensionMismatchError, NonPositivePowerError, read_int
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
    (b) A subset is skipped unless, for every coordinate j, some member
        has g_j <= m_j: a convex combination is at least the least of
        its members in each coordinate.

    Each generator keeps the coordinates j with g_j <= m_j as a
    bitmask, the sum of the bit weights that one builtin pass over the
    coordinates selects: all of them is dominance, none is pruning (a),
    and a subset passes (b) when the union of its members' masks is all
    of them.  The generators are scaled only when k > 1.
    """
    k = read_int(k, 1, "power", NonPositivePowerError)
    try:
        m = tuple(map(operator.index, m))
    except TypeError:
        raise DimensionMismatchError(f"monomial {m!r} has a non-integer exponent") from None
    if len(m) != ideal.dim:
        raise DimensionMismatchError(
            f"monomial {m} has length {len(m)}, ideal has dimension {ideal.dim}"
        )
    if any(e < 0 for e in m):
        raise DimensionMismatchError(f"negative exponent in {m}")
    bits = [1 << j for j in range(ideal.dim)]
    full = sum(bits)
    pool = []
    for g in ideal.generators:
        kg = g if k == 1 else tuple([k * e for e in g])
        cover = sum(itertools.compress(bits, map(operator.le, kg, m)))
        if cover == full:
            return True
        if cover:  # pruning (a)
            pool.append((kg, cover))
    for (p, cp), (q, cq) in itertools.combinations(pool, 2):
        if cp | cq == full and _pair_below(p, q, m):
            return True
    if ideal.dim > 2:
        for (p, cp), (r, cr), (q, cq) in itertools.combinations(pool, 3):
            if cp | cr | cq == full and _triple_below(p, r, q, m):
                return True
    return False
