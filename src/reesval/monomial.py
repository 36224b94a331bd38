"""Monomial ideals in up to three variables.

The Newton polyhedron of a monomial ideal is the convex hull of its
generator exponents plus the nonnegative orthant.  Each facet whose
supporting hyperplane has positive offset carries one of the ideal's
Rees valuations: the primitive inward normal is the weight vector of a
monomial valuation and the offset is its Rees integer.  The facets
come from one double description, adding generators by total degree
in a step compiled once per dimension, except in 2D, where a monotone
chain is 2-4x faster and is kept.  Integral closures of powers are cut
out by those facet inequalities.  The independent membership oracle,
which decides the same question touching no facet data, is
:mod:`reesval.oracle`; ``oracle_is_integral`` is still read from here,
and only that read loads it.

All geometry is exact: integers only.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections.abc import Iterable, Sequence, Sized

from .errors import (
    EmptyGeneratorsError,
    ImproperIdealError,
    InconsistentDimensionError,
    InputError,
    NonPositiveError,
    NonPositivePowerError,
    OutputLimitError,
    ParseError,
    VerificationError,
    ZeroExponentError,
    digits_refusal,
    int_text,
    read_int,
    repr_text,
    vec_text,
)
from .record import Record

Vec = tuple[int, ...]

_VAR_NAMES = ("x", "y", "z")


def _primitive(v: Vec) -> Vec:
    g = math.gcd(*v)
    return tuple([x // g for x in v]) if g > 1 else v


def monomial_str(m: Vec) -> str:
    """Render an exponent vector as a monomial in x, y, z."""
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(_VAR_NAMES[i])
        elif e > 1:
            parts.append(f"{_VAR_NAMES[i]}^{e}")
    return "*".join(parts) if parts else "1"


def _minimal(vecs: list[Vec], d: int) -> list[Vec]:
    """The members of a lexicographically sorted list that no earlier member divides.

    They are the ideal's minimal generators, each once: an equal member
    divides too.  In 2D an earlier member divides exactly when its y is
    not larger, so the members kept are those whose y is below every
    earlier y, and one comparison pass keeps a list whose y strictly
    decreases whole.  In 1D and 3D, padded with zeros to three
    coordinates, it divides exactly when its tail (last two coordinates)
    is componentwise <= the current tail.  The minimal tails seen so far
    form a staircase, heads strictly increasing and ends strictly
    decreasing, so the one candidate divisor is the last step whose head
    is <= the current head, found by bisection: O(g log g) in all.
    """
    if d == 2:
        ys = [v[1] for v in vecs]
        if all(map(operator.gt, ys, ys[1:])):
            return vecs
        lows = itertools.accumulate(ys, min, initial=ys[0] + 1)
        return list(itertools.compress(vecs, map(operator.lt, ys, lows)))
    heads, ends, kept = [], [], []
    tails = list(zip(*vecs))[1:] + [[0] * len(vecs)] * 2  # columns, zero-padded
    for v, head, end in zip(vecs, tails[0], tails[1]):
        i = bisect.bisect_right(heads, head)
        if i and ends[i - 1] <= end:
            continue
        # Steps at or right of the new head with ends >= end are no longer minimal.
        lo = i - 1 if i and heads[i - 1] == head else i
        hi = lo
        while hi < len(ends) and ends[hi] >= end:
            hi += 1
        if hi == lo + 1:  # the common case, and cheaper than a slice
            heads[lo], ends[lo] = head, end
        else:
            heads[lo:hi], ends[lo:hi] = [head], [end]
        kept.append(v)
    return kept


def _read(gens: Sequence[Sequence[int]]) -> tuple[set[int], list[int]]:
    """The set of generator lengths and all exponents in order, read with operator.index.

    A generator that is not a sequence of integers raises ImproperIdealError.
    """
    try:
        return set(map(len, gens)), list(
            map(operator.index, itertools.chain.from_iterable(gens))
        )
    except TypeError:
        pass
    for g in gens:
        try:
            len(g), tuple(map(operator.index, g))
        except TypeError:
            raise ImproperIdealError(
                f"generator {repr_text(g)} is not a sequence of integers"
            ) from None
    raise ImproperIdealError("generators must be sequences of integers")


def _first_fault(gens: Sequence[Sequence[int]], d: int) -> InputError:
    """The error of the first generator, in sorted order, that fails a check."""
    for g in sorted([tuple(map(operator.index, g)) for g in gens]):
        if len(g) != d:
            return InconsistentDimensionError(
                f"generator {vec_text(g)} has length {len(g)}, expected {d}"
            )
        if min(g) < 0:
            return ImproperIdealError(f"negative exponent in generator {vec_text(g)}")
        if not any(g):
            return ImproperIdealError("the unit monomial cannot generate a proper ideal")


class MonomialIdeal(Record):
    """A proper nonzero monomial ideal, stored by its minimal generators.

    ``generators`` is any nonempty generating set: a sequence of
    exponent sequences of length ``dim``, 1 <= dim <= 3, nonnegative
    and without the unit monomial.  Every exponent is read once with
    ``operator.index``, so a float or a Fraction is refused, not
    truncated.  The generators are sorted once and reduced once by
    :func:`_minimal`, and the ideal stores the minimal ones as a
    lexicographically sorted tuple of int tuples: a redundant or
    repeated generator is dropped.  Any other input raises an
    ``InputError``.  Each check is a builtin pass over all generators;
    only when one fails are the generators walked in sorted order, to
    name the first one that fails.
    """

    __slots__ = ("dim", "generators")

    def __post_init__(self):
        try:
            d = operator.index(self.dim)
        except TypeError:
            raise InconsistentDimensionError(
                f"dimension must be an integer, got {repr_text(self.dim)}"
            ) from None
        if not 1 <= d <= 3:
            raise InconsistentDimensionError(f"dimension must be 1..3, got {int_text(d)}")
        raw = tuple(self.generators or ())
        if not raw:
            raise EmptyGeneratorsError("a monomial ideal needs at least one generator")
        lengths, exps = _read(raw)
        if lengths == {d} and min(exps) >= 0:
            gens = _minimal(sorted(zip(*[iter(exps)] * d)), d)
            # the unit monomial divides every generator, so it alone would be kept
            if any(gens[0]):
                MonomialIdeal.dim.__set__(self, d)
                MonomialIdeal.generators.__set__(self, tuple(gens))
                return
        raise _first_fault(raw, d)

    @property
    def max_coordinate(self) -> int:
        return max(max(g) for g in self.generators)


def minimalize(gens: Iterable[Sequence[int]], dim: int | None = None) -> MonomialIdeal:
    """The ideal a generating set generates, by its minimal generators.

    ``dim`` defaults to the length of the first generator; the set is
    read, sorted and reduced once, by :class:`MonomialIdeal`.
    """
    gens = tuple(gens)
    if not gens:
        raise EmptyGeneratorsError("empty generating set")
    if dim is None:
        # a first generator with no length is refused under any dimension
        dim = len(gens[0]) if isinstance(gens[0], Sized) else 1
    return MonomialIdeal(dim, gens)


class ReesValuationSpec(Record):
    """One Rees valuation: a primitive monomial weight and its Rees integer."""

    __slots__ = ("normal", "rees_integer")

    def __post_init__(self):
        try:
            normal = tuple(map(operator.index, self.normal))
        except TypeError:
            raise ImproperIdealError(
                f"valuation normal {repr_text(self.normal)} is not a sequence of integers"
            ) from None
        # a gcd of 1 also rules out the zero normal
        if math.gcd(*normal) != 1 or min(normal) < 0:
            if not any(normal):
                raise ZeroExponentError("valuation normal cannot be zero")
            if min(normal) < 0:
                raise ImproperIdealError("valuation normal must be nonnegative")
            raise ImproperIdealError(f"normal {vec_text(normal)} is not primitive")
        ReesValuationSpec.normal.__set__(self, normal)
        e = self.rees_integer
        if e.__class__ is not int or e < 1:
            ReesValuationSpec.rees_integer.__set__(
                self, read_int(e, 1, "Rees integer", NonPositiveError)
            )


_NORMAL = operator.attrgetter("normal")


class ReesPackage(Record):
    """A monomial ideal together with all of its Rees valuations."""

    __slots__ = ("ideal", "valuations")

    def __post_init__(self):
        valuations = tuple(sorted(self.valuations, key=_NORMAL))
        normals = [v.normal for v in valuations]
        # sorted, equal normals are neighbours
        if any(map(operator.eq, normals, normals[1:])):
            raise ImproperIdealError("duplicate valuation normals")
        ReesPackage.valuations.__set__(self, valuations)

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
    pts = sorted(gens)  # antichain: x strictly increasing, y strictly decreasing
    facets = [((1, 0), pts[0][0]), ((0, 1), pts[-1][1])]
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
        facets.append((normal, normal[0] * a[0] + normal[1] * a[1]))
    return facets


# The double-description step of each dimension, compiled on its first use.
_DD_STEPS: dict = {}
_DD_STEP_SOURCE = """\
def step(rays, g, bit):
    {v}, = g
    pos, neg, new = [], [], []
    for ray in rays:
        y, tight = ray
        {y}, = y
        s = {value}
        if s > 0:
            pos.append((s, y, tight))
            new.append(ray)
        elif s < 0:
            neg.append((s, {y}, tight))
        else:
            new.append((y, tight | bit))
    for sn, {n}, tn in neg:
        for sp, p, tp in pos:
            common = tp & tn
            if common.bit_count() >= {least}{scan}:
                {p}, = p
                {c}, = {combination},
                k = gcd({c})
                new.append((({quotient},) if k > 1 else ({c},), common | bit))
    return new
"""


def _dd_step(d: int):
    """The step adding a constraint (g, 1) of tight bit ``bit``, compiled once per d.

    Its source is written from ``operator.index(d)`` alone, each ray's
    value y0*v0 + ... + yd and each pair's combination spelled out.
    """
    d = operator.index(d)
    if d not in _DD_STEPS:
        namespace = {"gcd": math.gcd}
        exec(_DD_STEP_SOURCE.format(
            v=", ".join(f"v{i}" for i in range(d)),
            value=" + ".join([f"y{i}*v{i}" for i in range(d)] + [f"y{d}"]),
            least=d - 1,
            scan=" and sum((t & common) == common for _, t in rays) <= 2" if d > 3 else "",
            combination=", ".join(f"sp*n{i} - sn*p{i}" for i in range(d + 1)),
            quotient=", ".join(f"c{i} // k" for i in range(d + 1)),
            **{s: ", ".join(f"{s}{i}" for i in range(d + 1)) for s in "ynpc"},
        ), namespace)
        _DD_STEPS[d] = namespace["step"]
    return _DD_STEPS[d]


def _facets_dd(gens: Sequence[Vec], d: int) -> list[tuple[Vec, int]]:
    """All facets of conv(gens) + orthant in any dimension, as (normal, offset).

    Double description (Fukuda & Prodon 1996), integers only.  The
    facets a.x >= b are the extreme rays y = (a, -b) with a != 0 of the
    cone of y with y.(e_i, 0) >= 0 for each unit vector and y.(g, 1) >= 0
    for each generator, which are taken by total degree, ties in
    lexicographic order (on 3D surfaces this tests a fifth fewer pairs
    than lexicographic order; the facets do not depend on it).  The
    basis {e_1..e_d, g_0} has the rays (e_i, -g_0i) and (0, ..., 0, 1);
    the step :func:`_dd_step` compiles for d adds each other generator.
    Each ray carries the bitmask of the constraints tight on it.  A step
    keeps the rays of nonnegative value on the new constraint and
    combines each negative ray with each positive one that is adjacent:
    they share at least d - 1 tight constraints and, from d = 4 on, where
    those can be dependent (the (g, 1) of three collinear generators),
    no third ray is tight on all of them.
    """
    gens = sorted(sorted(gens), key=sum)
    # Bit i < d is the constraint of e_i; bit d + j that of gens[j].
    basis = (1 << d + 1) - 1
    rays = [(_unit(i, d) + (-gens[0][i],), basis & ~(1 << i)) for i in range(d)]
    rays.append(((0,) * d + (1,), basis >> 1))
    # d <= 3 needs no third-ray test: any two distinct constraint vectors
    # are independent, so d - 1 <= 2 common tight ones have rank d - 1 (no
    # more, as p and n lie in their null space) and, the cone being pointed,
    # cut out a 2-face whose only extreme rays are p and n.
    for j, g in enumerate(gens[1:], start=d + 1):
        rays = _dd_step(d)(rays, g, 1 << j)
    return [(y[:-1], -y[-1]) for y, _ in rays if any(y[:-1])]


def _rees_facets(ideal: MonomialIdeal) -> list[tuple[Vec, int]]:
    """The facets (normal, offset) of positive offset: one per Rees valuation."""
    gens = ideal.generators
    facets = _facets_2d(gens) if ideal.dim == 2 else _facets_dd(gens, ideal.dim)
    return [facet for facet in facets if facet[1] > 0]


def rees_valuations(ideal: MonomialIdeal) -> ReesPackage:
    """Rees valuations of a monomial ideal from its Newton polyhedron.

    Facets whose offset is zero are the coordinate recession walls on
    which the ideal's valuation vanishes; only the positive-offset
    facets define Rees valuations.  The facets come from :func:`_facets_2d`
    when d = 2 and otherwise from :func:`_facets_dd`, whose compiled step
    adds the generators by total degree.  Both give the same facets in 2D,
    where the chain stays as it is 2-4x faster: a whole call on 2-40
    generators takes 0.003-0.03 ms with it and 0.006-0.12 ms without.
    :func:`integral_closure_power` reads the same facet list.
    """
    specs = [ReesValuationSpec(normal, offset) for normal, offset in _rees_facets(ideal)]
    return ReesPackage(ideal, tuple(specs))


# larger boxes of (k*M + 1)^(d - 1) columns are refused; the walk computes fewer
MAX_CLOSURE_COLUMNS = 100_000


def integral_closure_power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """Minimal generators of the integral closure of the k-th power.

    A monomial lies in the closure exactly when every Rees valuation
    (a, r) gives it value a.m >= k*r.  For each column prefix p in
    [0, k*M]^(d-1), with M the largest generator coordinate, z(p) is the
    least last exponent that makes (p, z) a member: each valuation with
    a_d > 0 forces z >= ceil((k*r - a'.p) / a_d), a' being a without its
    last entry, and one with a_d = 0 and a'.p < k*r rules the column
    out.  (p, z(p)) is a minimal generator exactly when no lower
    neighbour p - e_i (p_i > 0) is a member, i.e. each is ruled out or
    has z(p - e_i) > z(p).

    Every minimal generator lies in the box [0, k*M]^d: a member m lies
    in c + orthant for some c in k*conv(generators), whose coordinates
    are at most k*M, so m_i > k*M leaves m - e_i a member too, and
    z(p) <= k*M unless p is ruled out, which k*M + 1 then stands for.
    The walk takes one line of columns (q, t), q in [0, k*M]^(d-2), at
    a time, and ends it at its first zero, which membership being upward
    closed puts no later than that of a lower line q - e_i.  On the line,
    each valuation with a_d > 0 bounds z by (b - s*t) / a_d, where
    b = k*r - a''.q (a'' = a[:-2]) and s = a_{d-1} >= 0, and z is the
    ceiling of the bounds' upper envelope, which does not increase.  A
    segment of it costs one pass over the valuations, to find the largest
    bound at t by cross-multiplying and the column where a flatter one
    exceeds it, and one floor division per column.  A valuation with
    a_d = 0 costs one division, one with b <= 0 nothing.  Powers whose
    box has more than MAX_CLOSURE_COLUMNS columns are refused.
    """
    k = read_int(k, 1, "power", NonPositivePowerError)
    d, bound = ideal.dim, k * ideal.max_coordinate
    columns = (bound + 1) ** (d - 1)
    if columns > MAX_CLOSURE_COLUMNS:
        raise OutputLimitError(
            f"closure has {int_text(columns)} columns, above the limit of {MAX_CLOSURE_COLUMNS}"
        )
    if d == 1:
        return MonomialIdeal(1, ((k * ideal.generators[0][0],),))
    rows = [(a[:-2], a[-2], a[-1], k * r) for a, r in _rees_facets(ideal)]
    span, out = range(bound + 1), bound + 1
    lines: dict[Vec, list[int]] = {}
    gens = []
    for q in itertools.product(span, repeat=d - 2):
        lows = [lines[q[:i] + (e - 1,) + q[i + 1:]] for i, e in enumerate(q) if e]
        end = min(map(len, lows), default=out)
        bounds, cut = [], 0
        for head, step, last, target in rows:
            base = target - sum(map(operator.mul, head, q))
            if base <= 0:  # the valuation holds on the whole line
                continue
            if last:
                bounds.append((base, step, last))
            elif step:
                cut = max(cut, min(-(-base // step), out))
            else:
                cut = out
        zs = [out] * min(cut, end)
        t = len(zs)
        while t < end:
            b, s, l = 0, 0, 1  # the largest bound (b - s*t) / l at t; (0, 0, 1) is z = 0
            for bj, sj, lj in bounds:
                if (bj - sj * t) * l > (b - s * t) * lj:
                    b, s, l = bj, sj, lj
            if not b:
                zs.append(0)
                break
            stop = min(end, -(-b // s)) if s > 0 else end  # its own zero
            for bj, sj, lj in bounds:
                if sj * l < s * lj:  # a flatter bound exceeds it from this column on
                    stop = min(stop, (b * lj - bj * l) // (s * lj - sj * l) + 1)
            zs += map(operator.floordiv, itertools.count(b - s * t + l - 1, -s),
                      itertools.repeat(l, stop - t))
            t = stop
        lines[q] = zs
        floor = [out, *zs[:-1]]
        for low in lows:
            floor = list(map(min, floor, low))
        gens += [q + (t, z) for t, z, f in zip(span, zs, floor) if z < f]
    closure = MonomialIdeal(d, gens)
    dropped = len(gens) - len(closure.generators)
    if dropped:  # the walk emits a column only if no lower neighbour divides it
        raise VerificationError(f"the closure walk emitted {dropped} non-minimal generators")
    return closure


# ideal_power bounds its sums up front; larger powers are refused
MAX_POWER_SUMS = 1_000_000


def ideal_power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """The k-th power as an ideal, by repeated multiplication.

    I^j = I^(j-1) * I is generated by the sums of one minimal generator
    of I^(j-1) and one of I, so each step reduces those products
    instead of all C(n+k-1, k) k-fold sums of the n generators.  The
    minimal generators of I^(j-1) are an antichain in [0, k*M]^d, so at
    most (k*M + 1)^(d-1) of them, and the k - 1 steps take at most
    (k - 1) * (k*M + 1)^(d-1) * n sums; powers whose bound exceeds
    MAX_POWER_SUMS are refused before the first step.  In 1D the one
    generator is scaled, with no step.
    """
    k = read_int(k, 1, "power", NonPositivePowerError)
    d, n = ideal.dim, len(ideal.generators)
    if d == 1:
        return MonomialIdeal(1, ((k * ideal.generators[0][0],),))
    sums = (k - 1) * (k * ideal.max_coordinate + 1) ** (d - 1) * n
    if sums > MAX_POWER_SUMS:
        raise OutputLimitError(
            f"power takes up to {int_text(sums)} sums, above the limit of {MAX_POWER_SUMS}"
        )
    power = ideal
    for _ in range(k - 1):
        sums = (
            tuple(a + b for a, b in zip(p, g))
            for p in power.generators
            for g in ideal.generators
        )
        power = MonomialIdeal(ideal.dim, tuple(sums))
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
                why = digits_refusal(parts[1], "dimension") or f"bad dimension {parts[1]!r}"
                raise ParseError(why, lineno) from None
            if not 1 <= dim <= 3:
                raise ParseError(f"dimension must be 1..3, got {dim}", lineno)
            continue
        parts = line.split()
        if len(parts) != dim:
            raise ParseError(f"expected {dim} exponents, got {len(parts)}", lineno)
        try:
            vec = tuple(map(int, parts))
        except ValueError:
            why = next(filter(None, (digits_refusal(p, "exponent") for p in parts)), None)
            raise ParseError(why or f"bad exponent in {line!r}", lineno) from None
        if min(vec) < 0:
            raise ParseError("exponents must be nonnegative", lineno)
        gens.append(vec)
    if dim is None:
        raise ParseError("missing 'dim d' header")
    if not gens:
        raise ParseError("no generators given")
    return MonomialIdeal(dim, gens)


def __getattr__(name: str):
    # the oracle is compiled only by a process that reads it
    if name == "oracle_is_integral":
        from .oracle import oracle_is_integral

        globals()[name] = oracle_is_integral
        return oracle_is_integral
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
