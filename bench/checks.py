"""Checks of the program's answers that share no code with the program.

Nothing here imports ``reesval``.  Membership in a Newton polyhedron
conv(G) + orthant is decided by an exact small-subset test: a point m
lies in it exactly when some set of at most d generators has a convex
combination that is componentwise <= m (move m along -(1, ..., 1) until
it meets the boundary; the face it meets has dimension <= d-1, so
Caratheodory's theorem leaves at most d generators).  Each subset is a
feasibility problem in at most d-1 variables, solved by exact integer
Fourier-Motzkin elimination.

Every check returns a list of problems; an empty list means the answer
passed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[int, ...]


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """a >= b componentwise."""
    return all(x >= y for x, y in zip(a, b))


def lower_neighbours(m: Vec) -> list[Vec]:
    return [
        tuple(e - (1 if j == i else 0) for j, e in enumerate(m))
        for i in range(len(m))
        if m[i] > 0
    ]


def _feasible(rows: list[tuple[list[int], int]], nvars: int) -> bool:
    """Is {x : sum(c*x) <= b for every row (c, b)} nonempty?  Exact."""
    for var in reversed(range(nvars)):
        pos = [r for r in rows if r[0][var] > 0]
        neg = [r for r in rows if r[0][var] < 0]
        rest = [r for r in rows if r[0][var] == 0]
        for (pc, pb), (nc, nb) in itertools.product(pos, neg):
            sp, sn = -nc[var], pc[var]
            rest.append(([sp * p + sn * n for p, n in zip(pc, nc)], sp * pb + sn * nb))
        rows = rest
    return all(b >= 0 for _, b in rows)


def combination_below(subset: Sequence[Vec], m: Vec) -> bool:
    """Does some convex combination of ``subset`` lie componentwise <= m?"""
    last = subset[-1]
    free = len(subset) - 1
    rows = [([-1 if j == i else 0 for j in range(free)], 0) for i in range(free)]
    if free:
        rows.append(([1] * free, 1))
    for j in range(len(m)):
        rows.append(([p[j] - last[j] for p in subset[:-1]], m[j] - last[j]))
    return _feasible(rows, free)


def in_newton_polyhedron(points: Sequence[Vec], m: Vec, hint: Sequence[Vec] = ()) -> bool:
    """Exact membership of m in conv(points) + orthant.

    ``hint`` lists points to try first; it only changes how fast a
    witness is found, never the answer.
    """
    if any(dominates(m, p) for p in points):
        return True
    d = len(m)
    for pool in (hint, points):
        for size in range(2, d + 1):
            for subset in itertools.combinations(pool, size):
                if combination_below(subset, m):
                    return True
    return False


def rank(vectors: Iterable[Sequence[int]]) -> int:
    """Rank over Q by fraction-free integer elimination."""
    rows = [list(v) for v in vectors if any(v)]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f, g = top[col], rows[i][col]
                row = [f * x - g * y for x, y in zip(rows[i], top)]
                h = math.gcd(*row)
                rows[i] = [x // h for x in row] if h > 1 else row
        r += 1
    return r


def _unit(i: int, d: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(d))


def _cross(a: Sequence[int], b: Sequence[int]) -> Vec:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _tight_points(ineqs: Sequence[tuple[Vec, int]], d: int):
    """Solve each choice of d inequalities as equations, by Cramer's rule
    in integers; yield (numerators, positive denominator) when unique.
    The workloads have d = 2 or 3."""
    if d == 2:
        for ((a0, a1), r), ((b0, b1), s) in itertools.combinations(ineqs, 2):
            den = a0 * b1 - a1 * b0
            if den:
                nums = (r * b1 - s * a1, a0 * s - b0 * r)
                yield (nums, den) if den > 0 else (tuple(-x for x in nums), -den)
        return
    idx = range(len(ineqs))
    cross = {(j, k): _cross(ineqs[j][0], ineqs[k][0]) for j, k in itertools.combinations(idx, 2)}
    for i, j, k in itertools.combinations(idx, 3):
        (a, r), (_, s), (_, t) = ineqs[i], ineqs[j], ineqs[k]
        den = dot(a, cross[j, k])
        if den:
            cjk, cik, cij = cross[j, k], cross[i, k], cross[i, j]
            nums = tuple(r * x - s * y + t * z for x, y, z in zip(cjk, cik, cij))
            yield (nums, den) if den > 0 else (tuple(-x for x in nums), -den)


def polyhedron_vertices(ineqs: Sequence[tuple[Vec, int]], d: int) -> set[tuple[Vec, int]]:
    """Vertices of {x : a.x >= b for every (a, b)}, as (numerators, denominator).

    Every vertex is where d linearly independent inequalities are tight;
    each such point is kept when it satisfies every inequality.
    """
    verts = set()
    for nums, den in _tight_points(ineqs, d):
        if all(dot(a, nums) >= b * den for a, b in ineqs):
            g = math.gcd(den, *nums)
            verts.add((tuple(x // g for x in nums), den // g))
    return verts


def check_rees(gens: Sequence[Vec], valuations: Sequence[tuple[Vec, int]]) -> list[str]:
    """Check a reported list of Rees valuations (normal, Rees integer).

    Each must be a primitive nonnegative normal whose hyperplane at the
    reported offset supports conv(gens) + orthant along a face of
    dimension d-1.  Completeness: the polyhedron the reported
    inequalities cut out of the orthant contains conv(gens) + orthant
    (each inequality supports it), and must not be larger, so each of
    its vertices must lie in conv(gens) + orthant.
    """
    d = len(gens[0])
    problems = []
    normals = [tuple(a) for a, _ in valuations]
    if len(set(normals)) != len(normals):
        problems.append(f"duplicate normals in {normals}")
    for a, b in valuations:
        a = tuple(a)
        if len(a) != d or any(x < 0 for x in a) or not any(a) or math.gcd(*a) != 1:
            problems.append(f"normal {a} is not a primitive nonnegative vector")
            continue
        offset = min(dot(a, g) for g in gens)
        if b != offset or b <= 0:
            problems.append(f"normal {a}: Rees integer {b}, supporting offset {offset}")
            continue
        touching = [g for g in gens if dot(a, g) == b]
        spans = [tuple(x - y for x, y in zip(g, touching[0])) for g in touching[1:]]
        spans += [_unit(i, d) for i in range(d) if a[i] == 0]
        if rank(spans) != d - 1:
            problems.append(f"normal {a}: its face has dimension {rank(spans)}, not {d - 1}")
    if problems:
        return problems
    ineqs = [(tuple(a), b) for a, b in valuations] + [(_unit(i, d), 0) for i in range(d)]
    for nums, den in sorted(polyhedron_vertices(ineqs, d)):
        hint = [tuple(den * x for x in g) for g in gens
                if any(dot(a, nums) == b * den and dot(a, g) == b for a, b in ineqs)]
        if not in_newton_polyhedron([tuple(den * x for x in g) for g in gens], nums, hint):
            vertex = tuple(str(Fraction(x, den)) for x in nums)
            problems.append(
                f"vertex {vertex} of the reported inequalities lies outside the "
                "Newton polyhedron: a facet is missing")
    return problems


def outside_corners(closure: Sequence[Vec], d: int, top: int) -> list[Vec]:
    """The maximal points of [0, top]^d that no reported generator divides.

    For each q in [0, top]^(d-1), the points (q, z) that no generator
    divides are those with z <= h(q) = min(top, z0(q) - 1), where z0(q)
    is the least last coordinate of a generator whose other coordinates
    are <= q.  h never grows with q, so (q, h(q)) is maximal exactly
    when every step q + e_i leaves the box or lowers h.
    """
    def height(q):
        lowest = min((c[-1] for c in closure if dominates(q, c[:-1])), default=top + 1)
        return min(top, lowest - 1)

    heights = {q: height(q) for q in itertools.product(range(top + 1), repeat=d - 1)}
    corners = []
    for q, h in heights.items():
        if h >= 0 and all(
            q[i] == top or heights[q[:i] + (q[i] + 1,) + q[i + 1:]] < h for i in range(d - 1)
        ):
            corners.append(q + (h,))
    return corners


def check_closure(gens: Sequence[Vec], k: int, closure: Sequence[Vec]) -> list[str]:
    """Check reported minimal generators of the integral closure of I^k.

    Every generator lies in conv(k*gens) + orthant and none of its lower
    neighbours does.  Completeness is exact: the closure is closed
    upwards and its minimal generators lie in the box [0, k*M]^d (M the
    largest exponent of gens), so no point of the box that no reported
    generator divides may lie in it, and it suffices to test the
    maximal such points.
    """
    pts = [tuple(k * x for x in g) for g in gens]
    problems = []
    for c in closure:
        if not in_newton_polyhedron(pts, c):
            problems.append(f"generator {c} is not in the closure of the power {k}")
        for lo in lower_neighbours(c):
            if in_newton_polyhedron(pts, lo):
                problems.append(f"generator {c} is not minimal: {lo} is in the closure")
    top = max(max(p) for p in pts)
    for m in outside_corners([tuple(c) for c in closure], len(pts[0]), top):
        if in_newton_polyhedron(pts, m):
            problems.append(f"point {m} is in the closure but no reported generator divides it")
    return problems


def check_oracle(gens: Sequence[Vec], k: int, point: Vec, verdict: bool) -> list[str]:
    truth = in_newton_polyhedron([tuple(k * x for x in g) for g in gens], point)
    if verdict != truth:
        return [f"oracle says {verdict} for {point} in closure of power {k}, truth is {truth}"]
    return []


def pure_power_valuation(exps: Sequence[int]) -> tuple[Vec, int]:
    """The single Rees valuation of (x1^a1, ..., xd^ad): normal L/a_i, integer L."""
    L = math.lcm(*exps)
    return tuple(L // a for a in exps), L


def tower_invariants(e: int, k: int) -> dict:
    """Adjoining a k-th root of u with v(u) = e: degree k, ramification k/g, residue degree g."""
    g = math.gcd(e, k)
    return {"degree": k, "ramification": k // g, "residue_degree": g}


def itoh_expected(rees: Sequence[int], k: int) -> dict:
    return {
        "per_valuation": [
            [e, math.gcd(e, k), k // math.gcd(e, k), e // math.gcd(e, k)] for e in rees
        ],
        "radical": all(k % e == 0 for e in rees),
        "least_radical_k": math.lcm(*rees),
    }


def system_expected(family: str, rees: Sequence[int], k: int) -> dict:
    """Entries (residue degree, ramification, multiplicity) per valuation, degree m."""
    L = math.lcm(*rees)
    if family == "S":
        rows, m = [[1, L // e, k * e] for e in rees], k * L
    elif family == "T":
        rows, m = [[k * e, L // e, 1] for e in rees], k * L
    elif family == "U":
        rows, m = [[1, k * L // e, e] for e in rees], k * L
    else:
        rows, m = [[math.gcd(k, e), k // math.gcd(k, e), 1] for e in rees], k
    return {"m": m, "rows": rows}


def gate_expected(rows: Sequence[Sequence[int]], has_extra_dvr: bool, has_sep: bool) -> int | None:
    """Condition number of the first sufficient realizability condition, or None."""
    if any(mult == 1 for _, _, mult in rows):
        return 1
    if has_extra_dvr:
        return 2
    if has_sep:
        return 3
    return None


def realization_expected(rees: Sequence[int], rows: Sequence[Sequence[int]], m: int) -> dict:
    """Maximal ideals, their extended-ideal exponent (uniform) and the degree."""
    exps = [e * ram for e, (_, ram, mult) in zip(rees, rows) for _ in range(mult)]
    return {"degree": m, "count": len(exps), "exponent": exps[0], "uniform": len(set(exps)) == 1}


def compare(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]
