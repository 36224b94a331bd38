"""Monomial ideals in up to three variables.

The Newton polyhedron of a monomial ideal is the convex hull of its
generator exponents plus the nonnegative orthant.  Each facet whose
supporting hyperplane has positive offset carries one of the ideal's
Rees valuations: the primitive inward normal is the weight vector of a
monomial valuation and the offset is its Rees integer.  The facets
come from one exact double-description routine in every dimension but
2, where a monotone chain over the staircase finds the same facets
several times faster and is kept for that reason.  Integral closures
of powers are cut out by those facet inequalities, and an independent
membership oracle decides the same question touching no facet data at
all: it looks for a convex combination of at most d scaled generators
below the point, deciding each subset by exact Fourier-Motzkin
elimination in at most d - 1 variables.

All geometry is exact: integers only.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence

from .errors import (
    DimensionMismatchError,
    EmptyGeneratorsError,
    ImproperIdealError,
    InconsistentDimensionError,
    NonPositiveError,
    NonPositivePowerError,
    ParseError,
    ZeroExponentError,
)
from .record import Record

Vec = tuple[int, ...]

_VAR_NAMES = ("x", "y", "z")


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _earlier_divisors(vecs: Sequence[Vec]) -> Iterator[tuple[Vec, Vec | None]]:
    """Pair each vector of a lexicographically sorted list with an earlier divisor.

    The divisor is None when no earlier vector divides.  Vectors have at
    most three coordinates, padded with zeros to three.  An earlier
    vector is never larger in the first coordinate, so it divides exactly
    when its tail (last two coordinates) is componentwise <= the current
    tail.  The minimal tails seen so far form a staircase: heads strictly
    increase and ends strictly decrease, so the one candidate divisor is
    the last step whose head is <= the current head, found by bisection.
    """
    heads: list[int] = []
    ends: list[int] = []
    owners: list[Vec] = []
    for v in vecs:
        head, end = (*v, 0, 0)[1:3]
        i = bisect.bisect_right(heads, head)
        if i and ends[i - 1] <= end:
            yield v, owners[i - 1]
            continue
        # Steps at or right of the new head with ends >= end are no longer minimal.
        lo = i - 1 if i and heads[i - 1] == head else i
        hi = lo
        while hi < len(ends) and ends[hi] >= end:
            hi += 1
        heads[lo:hi], ends[lo:hi], owners[lo:hi] = [head], [end], [v]
        yield v, None


def _primitive(v: Vec) -> Vec:
    g = math.gcd(*(abs(x) for x in v))
    return tuple(x // g for x in v) if g > 1 else v


def monomial_str(m: Vec) -> str:
    """Render an exponent vector as a monomial in x, y, z."""
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(_VAR_NAMES[i])
        elif e > 1:
            parts.append(f"{_VAR_NAMES[i]}^{e}")
    return "*".join(parts) if parts else "1"


class MonomialIdeal(Record):
    """A proper nonzero monomial ideal given by its minimal generators.

    Generators are stored as a lexicographically sorted antichain of
    exponent vectors; use :func:`minimalize` to build one from an
    arbitrary generating set.
    """

    __slots__ = ("dim", "generators")

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise InconsistentDimensionError(f"dimension must be 1..3, got {self.dim}")
        if not self.generators:
            raise EmptyGeneratorsError("a monomial ideal needs at least one generator")
        gens = tuple(sorted(tuple(int(e) for e in g) for g in self.generators))
        for g in gens:
            if len(g) != self.dim:
                raise InconsistentDimensionError(
                    f"generator {g} has length {len(g)}, expected {self.dim}"
                )
            if any(e < 0 for e in g):
                raise ImproperIdealError(f"negative exponent in generator {g}")
            if all(e == 0 for e in g):
                raise ImproperIdealError("the unit monomial cannot generate a proper ideal")
        for g, divisor in _earlier_divisors(gens):
            if divisor is not None:
                raise ImproperIdealError(
                    f"generators are not an antichain: {g} is a multiple of {divisor}"
                )
        object.__setattr__(self, "generators", gens)

    @property
    def max_coordinate(self) -> int:
        return max(max(g) for g in self.generators)


def minimalize(gens: Iterable[Sequence[int]], dim: int | None = None) -> MonomialIdeal:
    """Drop every generator that is a monomial multiple of another.

    The surviving antichain generates the same ideal.
    """
    vecs = sorted({tuple(int(e) for e in g) for g in gens})
    if not vecs:
        raise EmptyGeneratorsError("empty generating set")
    d = dim if dim is not None else len(vecs[0])
    for v in vecs:
        if len(v) != d:
            raise InconsistentDimensionError(f"generator {v} has length {len(v)}, expected {d}")
    kept = tuple(v for v, divisor in _earlier_divisors(vecs) if divisor is None)
    return MonomialIdeal(d, kept)


class ReesValuationSpec(Record):
    """One Rees valuation: a primitive monomial weight and its Rees integer."""

    __slots__ = ("normal", "rees_integer")

    def __post_init__(self):
        normal = tuple(int(e) for e in self.normal)
        object.__setattr__(self, "normal", normal)
        if all(e == 0 for e in normal):
            raise ZeroExponentError("valuation normal cannot be zero")
        if any(e < 0 for e in normal):
            raise ImproperIdealError("valuation normal must be nonnegative")
        if _primitive(normal) != normal:
            raise ImproperIdealError(f"normal {normal} is not primitive")
        if self.rees_integer < 1:
            raise NonPositiveError("Rees integer must be >= 1")


class ReesPackage(Record):
    """A monomial ideal together with all of its Rees valuations."""

    __slots__ = ("ideal", "valuations")

    def __post_init__(self):
        normals = [v.normal for v in self.valuations]
        if len(set(normals)) != len(normals):
            raise ImproperIdealError("duplicate valuation normals")
        object.__setattr__(
            self, "valuations", tuple(sorted(self.valuations, key=lambda v: v.normal))
        )

    @property
    def rees_integers(self) -> tuple[int, ...]:
        return tuple(v.rees_integer for v in self.valuations)


def _unit(i: int, d: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(d))


def _facets_2d(gens: Sequence[Vec]) -> list[tuple[Vec, int]]:
    """All facets of conv(gens) + orthant in the plane, as (normal, offset).

    The bounded facets form the staircase between the extreme
    generators; they are found by a monotone-chain sweep.  The two
    recession facets have the unit normals.
    """
    facets = [(_unit(i, 2), min(g[i] for g in gens)) for i in range(2)]
    pts = sorted(gens)  # antichain: x strictly increasing, y strictly decreasing
    chain: list[Vec] = []
    for p in pts:
        while len(chain) >= 2:
            b, a = chain[-1], chain[-2]
            cross = (b[0] - a[0]) * (p[1] - b[1]) - (b[1] - a[1]) * (p[0] - b[0])
            if cross <= 0:  # p makes the middle point redundant (or collinear)
                chain.pop()
            else:
                break
        chain.append(p)
    for a, b in zip(chain, chain[1:]):
        normal = _primitive((a[1] - b[1], b[0] - a[0]))
        facets.append((normal, _dot(normal, a)))
    return facets


def _facets_dd(gens: Sequence[Vec], d: int) -> list[tuple[Vec, int]]:
    """All facets of conv(gens) + orthant in any dimension, as (normal, offset).

    Double description (Fukuda & Prodon 1996), integers only.  The
    facets a.x >= b are the extreme rays y = (a, -b) with a != 0 of the
    cone of y with y.(e_i, 0) >= 0 for each unit vector and y.(g, 1) >= 0
    for each generator.  The basis {e_1..e_d, g_0} has the rays
    (e_i, -g_0i) and (0, ..., 0, 1); the other generators are then added
    in lexicographic order.  Each ray carries the bitmask of the
    constraints tight on it, and a positive and a negative ray are
    combined only when adjacent: they share at least d - 1 tight
    constraints and no third ray is tight on all of those.
    """
    # Bit i < d is the constraint of e_i; bit d + j that of gens[j].
    basis = (1 << d + 1) - 1
    rays = [(_unit(i, d) + (-gens[0][i],), basis & ~(1 << i)) for i in range(d)]
    rays.append(((0,) * d + (1,), basis >> 1))
    for j, g in enumerate(gens[1:], start=d + 1):
        bit, v = 1 << j, g + (1,)
        signed = [(_dot(y, v), y, tight) for y, tight in rays]
        pos = [(s, y, tight) for s, y, tight in signed if s > 0]
        neg = [(s, y, tight) for s, y, tight in signed if s < 0]
        new = [(y, tight | bit if s == 0 else tight) for s, y, tight in signed if s >= 0]
        for sp, p, tp in pos:
            for sn, n, tn in neg:
                common = tp & tn
                # p and n are two of the rays tight on common; a third one
                # means their combination is not extreme.
                if common.bit_count() < d - 1 or sum(
                    (tight & common) == common for _, tight in rays
                ) > 2:
                    continue
                y = tuple(sp * b - sn * a for a, b in zip(p, n))
                new.append((_primitive(y), common | bit))
        rays = new
    return [(y[:-1], -y[-1]) for y, _ in rays if any(y[:-1])]


def rees_valuations(ideal: MonomialIdeal) -> ReesPackage:
    """Rees valuations of a monomial ideal from its Newton polyhedron.

    Facets whose offset is zero are the coordinate recession walls on
    which the ideal's valuation vanishes; only the positive-offset
    facets define Rees valuations.  The facets come from
    :func:`_facets_2d` when d = 2 and from the general
    :func:`_facets_dd` otherwise.  Both give the same facets in 2D,
    where the chain is several times faster: a whole call on 10-40
    generators takes 0.07-0.2 ms with it and 0.25-1.6 ms without.
    """
    gens = ideal.generators
    facets = _facets_2d(gens) if ideal.dim == 2 else _facets_dd(gens, ideal.dim)
    specs = [
        ReesValuationSpec(normal, offset) for normal, offset in facets if offset > 0
    ]
    return ReesPackage(ideal, tuple(specs))


def integral_closure_power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """Minimal generators of the integral closure of the k-th power.

    A monomial lies in the closure exactly when every Rees valuation
    (a, r) gives it value a.m >= k*r.  The closure is walked column by
    column: for each prefix p in [0, k*M]^(d-1), with M the largest
    generator coordinate, z(p) is the least last exponent that makes
    (p, z) a member.  Each valuation with a_d > 0 forces
    z >= ceil((k*r - a'.p) / a_d), where a' is a without its last
    entry; a valuation with a_d = 0 and a'.p < k*r rules the whole
    column out (z(p) is None).  (p, z(p)) is a minimal generator
    exactly when no lower neighbour is a member: z(p - e_i) is None or
    greater than z(p) for every i with p_i > 0.

    Every minimal generator lies in the box [0, k*M]^d: a member m lies
    in c + orthant for some c in k*conv(generators), whose coordinates
    are at most k*M, so m_i > k*M leaves m - e_i a member too.  Hence
    prefixes outside the box are never needed, and a column with
    z(p) > k*M never passes the lower-neighbour rule, so z needs no
    bound check.  The cost is (k*M + 1)^(d-1) columns times the number
    of valuations, in integer steps.
    """
    if k < 1:
        raise NonPositivePowerError(f"power must be >= 1, got {k}")
    bound = k * ideal.max_coordinate
    rows = [
        (v.normal[:-1], v.normal[-1], k * v.rees_integer)
        for v in rees_valuations(ideal).valuations
    ]
    column: dict[Vec, int | None] = {}
    gens = []
    for p in itertools.product(range(bound + 1), repeat=ideal.dim - 1):
        z: int | None = 0
        for head, last, target in rows:
            short = target - _dot(head, p)
            if last:
                z = max(z, -(-short // last))
            elif short > 0:
                z = None
                break
        column[p] = z
        if z is None:
            continue
        lower = (column[p[:i] + (e - 1,) + p[i + 1:]] for i, e in enumerate(p) if e)
        if all(lz is None or lz > z for lz in lower):
            gens.append(p + (z,))
    return MonomialIdeal(ideal.dim, tuple(gens))


def _fm_feasible(constraints: list[tuple[list[int], int]], nvars: int) -> bool:
    """Decide feasibility of a system of integer inequalities sum(c*x) <= b.

    Classic Fourier-Motzkin elimination; rows are gcd-reduced to keep
    coefficients small.  Exact for any input.
    """

    def reduce_row(coeffs: list[int], rhs: int) -> tuple[list[int], int]:
        g = math.gcd(*(abs(c) for c in coeffs), abs(rhs))
        if g > 1:
            return [c // g for c in coeffs], rhs // g
        return coeffs, rhs

    rows = [reduce_row(list(c), b) for c, b in constraints]
    for var in range(nvars - 1, -1, -1):
        pos, neg, rest = [], [], []
        for coeffs, rhs in rows:
            cv = coeffs[var]
            if cv > 0:
                pos.append((coeffs, rhs))
            elif cv < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        for (pc, pb), (nc, nb) in itertools.product(pos, neg):
            scale_p, scale_n = -nc[var], pc[var]
            coeffs = [scale_p * p + scale_n * n for p, n in zip(pc, nc)]
            rhs = scale_p * pb + scale_n * nb
            if not any(coeffs) and rhs < 0:
                return False
            rest.append(reduce_row(coeffs, rhs))
        rows = rest
    return all(rhs >= 0 for _, rhs in rows)


def _combination_below(points: Sequence[Vec], m: Vec) -> bool:
    """Whether some convex combination of the points is <= m, by :func:`_fm_feasible`.

    The last weight is eliminated as 1 - sum of the others, which leaves
    len(points) - 1 variables and the system
      -lambda_i <= 0,  sum lambda_i <= 1,
      sum lambda_i * (p_i - p_last)[j] <= m[j] - p_last[j].
    """
    *rest, last = points
    r = len(rest)
    cons = [([-1 if j == i else 0 for j in range(r)], 0) for i in range(r)]
    cons.append(([1] * r, 1))
    for j, (mj, lj) in enumerate(zip(m, last)):
        cons.append(([p[j] - lj for p in rest], mj - lj))
    return _fm_feasible(cons, r)


def oracle_is_integral(ideal: MonomialIdeal, k: int, m: Sequence[int]) -> bool:
    """Decide membership of x^m in the closure of the k-th power, facet-free.

    Equivalent formulation: m lies in conv(kG) + orthant, G the
    generators.  A point c of conv(kG) with c <= m is searched among the
    convex combinations of at most d of the scaled generators, each
    subset decided as exact rational feasibility by
    :func:`_combination_below` in at most d - 1 variables, independently
    of :func:`rees_valuations`.

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
    bitmask: all of them is dominance, none is pruning (a), and a subset
    passes (b) when the union of its members' masks is all of them.
    """
    if k < 1:
        raise NonPositivePowerError(f"power must be >= 1, got {k}")
    m = tuple(int(e) for e in m)
    if len(m) != ideal.dim:
        raise DimensionMismatchError(
            f"monomial {m} has length {len(m)}, ideal has dimension {ideal.dim}"
        )
    if any(e < 0 for e in m):
        raise DimensionMismatchError(f"negative exponent in {m}")
    full = (1 << ideal.dim) - 1
    pool = []
    for g in ideal.generators:
        kg = tuple(k * e for e in g)
        cover = sum(1 << j for j, (x, y) in enumerate(zip(kg, m)) if x <= y)
        if cover == full:
            return True
        if cover:  # pruning (a)
            pool.append((kg, cover))
    for size in range(2, ideal.dim + 1):
        for subset in itertools.combinations(pool, size):
            covered = 0
            for _, cover in subset:
                covered |= cover
            if covered == full and _combination_below([kg for kg, _ in subset], m):
                return True
    return False


def ideal_power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """The k-th power as an ideal, by repeated multiplication.

    I^j = I^(j-1) * I is generated by the sums of one minimal generator
    of I^(j-1) and one of I, so each step minimalizes those products
    instead of all C(n+k-1, k) k-fold sums of the n generators.
    """
    if k < 1:
        raise NonPositivePowerError(f"power must be >= 1, got {k}")
    power = ideal
    for _ in range(k - 1):
        sums = (
            tuple(a + b for a, b in zip(p, g))
            for p in power.generators
            for g in ideal.generators
        )
        power = minimalize(sums, ideal.dim)
    return power


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the ideal text format.

    First significant line is ``dim d``; every following line lists one
    generator as d space-separated nonnegative integers.  ``#`` starts
    a comment.
    """
    dim: int | None = None
    gens: list[Vec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dim is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "dim":
                raise ParseError("expected 'dim d' header", lineno)
            try:
                dim = int(parts[1])
            except ValueError:
                raise ParseError(f"bad dimension {parts[1]!r}", lineno) from None
            if not 1 <= dim <= 3:
                raise ParseError(f"dimension must be 1..3, got {dim}", lineno)
            continue
        parts = line.split()
        if len(parts) != dim:
            raise ParseError(f"expected {dim} exponents, got {len(parts)}", lineno)
        try:
            vec = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(f"bad exponent in {line!r}", lineno) from None
        if any(e < 0 for e in vec):
            raise ParseError("exponents must be nonnegative", lineno)
        gens.append(vec)
    if dim is None:
        raise ParseError("missing 'dim d' header")
    if not gens:
        raise ParseError("no generators given")
    return minimalize(gens, dim)
