import ast
import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reesval.errors import (
    DimensionMismatchError,
    EmptyGeneratorsError,
    ImproperIdealError,
    InconsistentDimensionError,
    NonPositivePowerError,
    ParseError,
)
from reesval.monomial import (
    MonomialIdeal,
    _facets_2d,
    _facets_dd,
    ideal_power,
    integral_closure_power,
    minimalize,
    monomial_str,
    oracle_is_integral,
    parse_ideal,
    rees_valuations,
)


def normals_and_integers(package):
    return [(v.normal, v.rees_integer) for v in package.valuations]


def brute_force_facets(ideal, bound=24):
    """Independent facet enumeration: scan all small primitive normals.

    A nonnegative primitive vector is a facet normal of the Newton
    polyhedron exactly when the generators attaining its minimum,
    together with the coordinate rays it annihilates, span a
    (dim-1)-dimensional space.
    """
    gens = ideal.generators
    d = ideal.dim
    facets = []
    for a in itertools.product(range(bound + 1), repeat=d):
        if all(x == 0 for x in a) or math.gcd(*a) != 1:
            continue
        offset = min(sum(x * y for x, y in zip(a, g)) for g in gens)
        touching = [g for g in gens if sum(x * y for x, y in zip(a, g)) == offset]
        spans = [tuple(x - y for x, y in zip(g, touching[0])) for g in touching[1:]]
        spans.extend(
            tuple(1 if j == i else 0 for j in range(d)) for i in range(d) if a[i] == 0
        )
        if rank(spans) == d - 1 and offset > 0:
            facets.append((a, offset))
    return sorted(facets)


def rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors if any(v)]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def box_scan_closure(ideal, k):
    """Reference closure: test every cell of the box [0, k*M]^d."""
    valuations = rees_valuations(ideal).valuations

    def member(m):
        return all(
            sum(a * b for a, b in zip(v.normal, m)) >= k * v.rees_integer for v in valuations
        )

    def lower(m):
        return (m[:i] + (e - 1,) + m[i + 1 :] for i, e in enumerate(m) if e)

    cells = itertools.product(range(k * ideal.max_coordinate + 1), repeat=ideal.dim)
    return tuple(m for m in cells if member(m) and not any(map(member, lower(m))))


def det(rows):
    """Integer determinant by expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def candidate_scan_facets(gens, d):
    """Reference facets, as (normal, offset): scan candidate normals.

    This is the candidate scan the library used in 3D, in any dimension.
    Candidates are the normals of every hyperplane spanned by d - 1
    vectors among the generator differences and the unit vectors (the
    cross product of two of them in 3D); a candidate is a facet when
    its supporting face spans d - 1 dimensions.
    """
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    vectors = units + [
        tuple(x - y for x, y in zip(q, p)) for p, q in itertools.combinations(gens, 2)
    ]
    candidates = set()
    for rows in itertools.combinations(vectors, d - 1):
        n = tuple((-1) ** i * det([r[:i] + r[i + 1 :] for r in rows]) for i in range(d))
        if all(e <= 0 for e in n):
            n = tuple(-e for e in n)
        if any(n) and all(e >= 0 for e in n):
            g = math.gcd(*n)
            candidates.add(tuple(e // g for e in n))
    facets = []
    for a in sorted(candidates):
        offset = min(sum(x * y for x, y in zip(a, g)) for g in gens)
        touching = [g for g in gens if sum(x * y for x, y in zip(a, g)) == offset]
        spans = [tuple(x - y for x, y in zip(g, touching[0])) for g in touching[1:]]
        spans.extend(units[i] for i in range(d) if a[i] == 0)
        if rank(spans) == d - 1:
            facets.append((a, offset))
    return facets


def sphere_ideal(n, seed):
    """n incomparable lattice points near the sphere of radius 4 + n // 3
    centred at (r, r, r), on the side facing the origin: nearly all are
    vertices of the Newton polyhedron, so the ideal has many facets."""
    rng = random.Random(seed)
    r = 4 + n // 3
    pts = []
    while len(pts) < n:
        v = [abs(rng.gauss(0.0, 1.0)) + 1e-9 for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        c = tuple(round(r - r * x / norm) for x in v)
        if not any(divides(c, p) or divides(p, c) for p in pts):
            pts.append(c)
    return MonomialIdeal(3, tuple(pts))


@st.composite
def staircases(draw, max_gens, min_gens=1):
    """2D antichains of min_gens to max_gens generators; small steps make
    collinear runs of generators common."""
    steps = st.tuples(st.integers(1, 3), st.integers(1, 3))
    steps = draw(st.lists(steps, min_size=min_gens - 1, max_size=max_gens - 1))
    x = draw(st.integers(0, 3))
    y = draw(st.integers(0 if x else 1, 3)) + sum(dy for _, dy in steps)
    gens = [(x, y)]
    for dx, dy in steps:
        x, y = x + dx, y - dy
        gens.append((x, y))
    return MonomialIdeal(2, tuple(gens))


def ideals(dim, max_coord, max_gens):
    vectors = st.tuples(*[st.integers(0, max_coord)] * dim).filter(any)
    return st.sets(vectors, min_size=1, max_size=max_gens).map(
        lambda gens: minimalize(gens, dim)
    )


# Sorted 1-3D lists of nonzero vectors; small coordinates make duplicates common.
sorted_vectors = (
    st.integers(1, 3)
    .flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(0, 3)] * d).filter(any), min_size=1, max_size=10
        )
    )
    .map(sorted)
)


def ideal_product(a, b):
    """I * J, generated by the sums of one generator of each."""
    sums = (tuple(x + y for x, y in zip(g, h)) for g in a.generators for h in b.generators)
    return minimalize(sums, a.dim)


def random_ideal(rng, dim=2, max_coord=6, max_gens=5):
    while True:
        gens = set()
        for _ in range(rng.randint(1, max_gens)):
            g = tuple(rng.randint(0, max_coord) for _ in range(dim))
            if any(g):
                gens.add(g)
        if gens:
            return minimalize(gens, dim)


class TestMinimalize:
    def test_drops_dominated(self):
        ideal = minimalize({(2, 0), (3, 1), (0, 3)})
        assert ideal.generators == ((0, 3), (2, 0))
        assert minimalize({(1, 1), (2, 2), (3, 3)}).generators == ((1, 1),)

    def test_identity(self):
        assert minimalize({(1, 1)}).generators == ((1, 1),)

    def test_antichain_untouched(self):
        ideal = minimalize({(2, 0), (1, 1), (0, 2)})
        assert ideal.generators == ((0, 2), (1, 1), (2, 0))

    def test_errors(self):
        with pytest.raises(EmptyGeneratorsError):
            minimalize(set())
        with pytest.raises(InconsistentDimensionError):
            minimalize({(1, 0), (1, 0, 0)})

    def test_improper_ideal_rejected(self):
        for gens in [
            ((0, 0),),
            ((1, 0), (2, 0)),
            ((1, 2), (0, 3), (1, 2)),  # duplicate
            ((0, 1, 5), (1, 0, 0), (1, 0, 3)),
            ((1, 0, 1), (0, 1, 0), (0, 0, 1)),  # multiple two places after its divisor
        ]:
            with pytest.raises(ImproperIdealError):
                MonomialIdeal(len(gens[0]), gens)

    @given(
        st.sets(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any),
            min_size=1,
            max_size=6,
        )
    )
    def test_generates_the_same_ideal(self, gens):
        ideal = minimalize(gens)
        # kept generators are a subset; every dropped one is a multiple
        assert set(ideal.generators) <= set(gens)
        for g in gens:
            assert any(all(x >= y for x, y in zip(g, kept)) for kept in ideal.generators)

    @given(sorted_vectors)
    def test_matches_pairwise_minimalization(self, vecs):
        expected = {v for v in vecs if not any(w != v and divides(w, v) for w in vecs)}
        assert minimalize(vecs).generators == tuple(sorted(expected))

    @given(sorted_vectors)
    def test_antichain_check_matches_pairwise(self, vecs):
        if not any(divides(a, b) for a, b in itertools.combinations(vecs, 2)):
            assert MonomialIdeal(len(vecs[0]), vecs).generators == tuple(vecs)
            return
        with pytest.raises(ImproperIdealError) as err:
            MonomialIdeal(len(vecs[0]), vecs)
        named = re.findall(r"\([\d, ]*\)", str(err.value))
        multiple, divisor = map(ast.literal_eval, named)
        assert multiple in vecs and divisor in vecs and divides(divisor, multiple)
        assert multiple != divisor or vecs.count(divisor) > 1


class TestReesValuations:
    def test_two_pure_powers(self):
        ideal = minimalize({(2, 0), (0, 3)})
        assert normals_and_integers(rees_valuations(ideal)) == [((3, 2), 6)]
        # the stated verification of the derived value
        assert min(3 * 2 + 2 * 0, 3 * 0 + 2 * 3) == 6

    def test_maximal_ideal(self):
        ideal = minimalize({(1, 0), (0, 1)})
        assert normals_and_integers(rees_valuations(ideal)) == [((1, 1), 1)]

    def test_collinear_points_merge(self):
        ideal = minimalize({(2, 0), (1, 1), (0, 2)})
        assert normals_and_integers(rees_valuations(ideal)) == [((1, 1), 2)]

    @pytest.mark.parametrize(
        "gens",
        [
            {(2, 0), (0, 3)},
            {(1, 0), (0, 1)},
            {(2, 0), (1, 1), (0, 2)},
            {(3, 0), (1, 1), (0, 4)},
            {(5, 1)},
            {(4, 0), (2, 3), (0, 6), (1, 5)},
        ],
    )
    def test_matches_brute_force_enumeration_2d(self, gens):
        ideal = minimalize(gens)
        package = rees_valuations(ideal)
        assert normals_and_integers(package) == brute_force_facets(ideal)

    @pytest.mark.parametrize(
        "gens",
        [
            {(1, 0, 0), (0, 1, 0), (0, 0, 1)},
            {(2, 0, 0), (0, 2, 0), (0, 0, 2)},
            {(1, 0, 0), (0, 1, 0)},
            {(2, 1, 0), (0, 0, 3)},
            {(1, 1, 0), (0, 0, 2), (2, 0, 1)},
        ],
    )
    def test_matches_brute_force_enumeration_3d(self, gens):
        ideal = minimalize(gens)
        package = rees_valuations(ideal)
        assert normals_and_integers(package) == brute_force_facets(ideal, bound=9)

    def test_random_2d_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(25):
            ideal = random_ideal(rng)
            assert normals_and_integers(rees_valuations(ideal)) == brute_force_facets(
                ideal
            )

    def test_random_3d_against_brute_force(self):
        rng = random.Random(99)
        for _ in range(15):
            ideal = random_ideal(rng, dim=3, max_coord=3)
            assert normals_and_integers(rees_valuations(ideal)) == brute_force_facets(
                ideal, bound=18
            )

    def test_one_dimensional(self):
        ideal = minimalize({(4,)}, 1)
        assert normals_and_integers(rees_valuations(ideal)) == [((1,), 4)]

    @settings(deadline=None)
    @given(staircases(40))
    def test_double_description_matches_chain_2d(self, ideal):
        gens = ideal.generators
        assert sorted(_facets_dd(gens, 2)) == sorted(_facets_2d(gens))

    @settings(deadline=None)
    @given(ideals(3, 6, 12))
    def test_double_description_matches_candidate_scan_3d(self, ideal):
        gens = ideal.generators
        assert sorted(_facets_dd(gens, 3)) == candidate_scan_facets(gens, 3)

    def test_degenerate_3d(self):
        # All 36 generators on the plane x + y + z = 7: one facet.
        plane = minimalize({(a, b, 7 - a - b) for a in range(8) for b in range(8 - a)})
        assert len(plane.generators) == 36
        assert normals_and_integers(rees_valuations(plane)) == [((1, 1, 1), 7)]
        pure = minimalize({(2, 0, 0), (0, 3, 0), (0, 0, 4)})
        assert normals_and_integers(rees_valuations(pure)) == [((6, 4, 3), 12)]
        axis = minimalize({(0, 0, 5)})
        assert normals_and_integers(rees_valuations(axis)) == [((0, 0, 1), 5)]
        walls = [((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0)]
        assert sorted(_facets_dd(plane.generators, 3)) == walls + [((1, 1, 1), 7)]
        for ideal in (pure, axis):
            gens = ideal.generators
            assert sorted(_facets_dd(gens, 3)) == candidate_scan_facets(gens, 3)

    @settings(deadline=None)
    @given(st.sets(st.tuples(*[st.integers(0, 2)] * 4).filter(any), min_size=1, max_size=7))
    @example({(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 2)})
    @example({(1, 2, 1, 2), (1, 2, 2, 1), (2, 0, 2, 2), (2, 1, 1, 1), (3, 0, 1, 0), (3, 2, 0, 0)})
    def test_double_description_4d(self, vecs):
        # From d = 4 on, d - 1 common tight constraints can be dependent
        # (three collinear generators), so adjacency needs the third-ray
        # check, which the examples exercise; MonomialIdeal stops at d = 3.
        gens = tuple(v for v in sorted(vecs) if not any(w != v and divides(w, v) for w in vecs))
        assert sorted(_facets_dd(gens, 4)) == candidate_scan_facets(gens, 4)

    def test_determinism(self):
        gens = [(4, 0), (2, 3), (0, 6), (1, 5)]
        first = rees_valuations(minimalize(gens))
        second = rees_valuations(minimalize(list(reversed(gens))))
        assert first == second


def principal(b):
    return rees_valuations(MonomialIdeal(len(b), (b,)))


class TestPrincipalRees:
    """(x^b) has one Rees valuation per nonzero coordinate of b: the
    coordinate wall through b, with that coordinate as Rees integer."""

    def test_single_variable(self):
        assert normals_and_integers(principal((1, 0))) == [((1, 0), 1)]

    def test_two_variables(self):
        assert normals_and_integers(principal((2, 3))) == [
            ((0, 1), 3),
            ((1, 0), 2),
        ]

    def test_other_axis(self):
        assert normals_and_integers(principal((0, 4))) == [((0, 1), 4)]

    def test_one_dimensional(self):
        assert normals_and_integers(principal((5,))) == [((1,), 5)]

    def test_three_variables(self):
        # a single generator leaves _facets_dd with only its basis rays
        assert normals_and_integers(principal((2, 0, 3))) == [
            ((0, 0, 1), 3),
            ((1, 0, 0), 2),
        ]
        assert normals_and_integers(principal((1, 4, 2))) == [
            ((0, 0, 1), 2),
            ((0, 1, 0), 4),
            ((1, 0, 0), 1),
        ]

    def test_agrees_with_newton_polyhedron(self):
        for d in (1, 2, 3):
            for b in itertools.product(range(4), repeat=d):
                if not any(b):
                    continue
                walls = [
                    (tuple(int(j == i) for j in range(d)), e)
                    for i, e in enumerate(b)
                    if e
                ]
                assert normals_and_integers(principal(b)) == sorted(walls)

    def test_zero_rejected(self):
        for d in (1, 2, 3):
            with pytest.raises(ImproperIdealError):
                principal((0,) * d)


class TestIntegralClosure:
    def test_two_squares(self):
        ideal = minimalize({(2, 0), (0, 2)})
        assert integral_closure_power(ideal, 1).generators == ((0, 2), (1, 1), (2, 0))

    def test_maximal_power(self):
        ideal = minimalize({(1, 0), (0, 1)})
        assert integral_closure_power(ideal, 3).generators == (
            (0, 3),
            (1, 2),
            (2, 1),
            (3, 0),
        )

    def test_mixed_powers(self):
        ideal = minimalize({(2, 0), (0, 3)})
        assert integral_closure_power(ideal, 1).generators == ((0, 3), (1, 2), (2, 0))

    def test_rejects_bad_power(self):
        with pytest.raises(NonPositivePowerError):
            integral_closure_power(minimalize({(1, 0), (0, 1)}), 0)

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(10):
            ideal = random_ideal(rng)
            once = integral_closure_power(ideal, 1)
            assert integral_closure_power(once, 1) == once

    def test_contains_generators(self):
        rng = random.Random(13)
        for _ in range(10):
            ideal = random_ideal(rng)
            for g in ideal.generators:
                assert oracle_is_integral(ideal, 1, g)

    @settings(deadline=None)
    @given(
        st.one_of(
            st.tuples(ideals(1, 8, 3), st.integers(1, 6)),
            st.tuples(ideals(2, 8, 8), st.integers(1, 6)),
            st.tuples(ideals(3, 4, 6), st.integers(1, 4)),
        )
    )
    def test_matches_box_scan(self, case):
        ideal, k = case
        assert integral_closure_power(ideal, k).generators == box_scan_closure(ideal, k)

    @pytest.mark.parametrize(
        "gens, dim",
        [
            ({(1, 0)}, 2),
            ({(2, 0), (1, 3)}, 2),
            ({(1, 0, 0), (0, 1, 0)}, 3),
            ({(1, 0, 1), (0, 2, 0)}, 3),
            ({(3,)}, 1),
        ],
    )
    def test_fixed_cases_match_box_scan(self, gens, dim):
        ideal = minimalize(gens, dim)
        if dim > 1:  # a zero last normal entry rules out whole columns
            assert any(v.normal[-1] == 0 for v in rees_valuations(ideal).valuations)
        for k in range(1, 5):
            assert integral_closure_power(ideal, k).generators == box_scan_closure(ideal, k)

    # closure(I^k) = I * closure(I^(k-1)) for k >= d (Reid, Roberts and
    # Vitulli 2003): a certificate that uses no facets and no
    # Fourier-Motzkin, only a product and minimalize.
    @settings(deadline=None, max_examples=150)
    @given(
        st.one_of(
            st.tuples(ideals(1, 8, 3), st.integers(2, 4)),
            st.tuples(ideals(2, 8, 6), st.integers(2, 4)),
            st.tuples(ideals(3, 4, 5), st.integers(3, 5)),
        )
    )
    def test_product_identity_from_k_equal_d(self, case):
        ideal, k = case
        lower = integral_closure_power(ideal, k - 1)
        assert integral_closure_power(ideal, k) == ideal_product(ideal, lower)

    def test_product_identity_fails_below_d(self):
        # d = 3: the identity holds from k = 3 on, not at k = 2
        ideal = minimalize({(0, 0, 2), (1, 3, 0), (3, 1, 0)})
        for k, holds in ((2, False), (3, True), (4, True)):
            lower = integral_closure_power(ideal, k - 1)
            assert (integral_closure_power(ideal, k) == ideal_product(ideal, lower)) == holds

    def test_work_scales_with_columns(self):
        # d = 3, k*M = 120: the box has 121^3 cells, the walk 121^2 columns.
        ideal = minimalize({(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 2, 1)})
        start = time.perf_counter()
        closure = integral_closure_power(ideal, 30)
        assert time.perf_counter() - start < 3.0
        assert len(closure.generators) == 7381


def test_facets_scale_to_many_generators():
    # n = 60 in 3D: the candidate scan tests O(n^3) normals and takes
    # seconds; it finds the same 55 Rees valuations.
    ideal = sphere_ideal(60, seed=5)
    start = time.perf_counter()
    package = rees_valuations(ideal)
    assert time.perf_counter() - start < 1.0
    assert len(package.valuations) == 55


@st.composite
def near_boundary(draw, ideal_strategy):
    """An ideal, a power k and a point near the boundary of its closure:
    a rounded-down convex combination of up to d of the k-scaled
    generators, shifted by -2..1 in each coordinate."""
    ideal = draw(ideal_strategy)
    k = draw(st.integers(1, 3))
    picks = draw(st.lists(st.sampled_from(ideal.generators), min_size=1, max_size=ideal.dim))
    weights = draw(st.lists(st.integers(1, 6), min_size=len(picks), max_size=len(picks)))
    shift = draw(st.tuples(*[st.integers(-2, 1)] * ideal.dim))
    point = tuple(
        max(0, k * sum(w * g[j] for w, g in zip(weights, picks)) // sum(weights) + s)
        for j, s in enumerate(shift)
    )
    return ideal, k, point


class TestOracle:
    def test_examples(self):
        assert oracle_is_integral(minimalize({(2, 0), (0, 2)}), 1, (1, 1))
        assert not oracle_is_integral(minimalize({(2, 0), (0, 3)}), 1, (1, 1))
        assert oracle_is_integral(minimalize({(1, 0), (0, 1)}), 1, (1, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            oracle_is_integral(minimalize({(1, 0), (0, 1)}), 1, (1, 0, 0))

    def test_equivalence_small(self):
        # closure membership from facets == cone membership, on the whole box
        cases = [
            (minimalize({(2, 0), (0, 3)}), 4),
            (minimalize({(3, 1), (1, 4)}), 1),
            (minimalize({(1, 0, 0), (0, 1, 0), (0, 0, 1)}), 2),
            (minimalize({(2, 1, 0), (0, 0, 3)}), 1),
            (minimalize({(2, 1, 0), (0, 2, 1), (1, 0, 2)}), 4),
            (minimalize({(6,)}, 1), 4),
        ]
        for ideal, kmax in cases:
            for k in range(1, kmax + 1):
                closure = integral_closure_power(ideal, k)
                bound = k * ideal.max_coordinate
                for m in itertools.product(range(bound + 1), repeat=ideal.dim):
                    in_closure = any(
                        all(x >= y for x, y in zip(m, g)) for g in closure.generators
                    )
                    assert in_closure == oracle_is_integral(ideal, k, m)

    # Two queries the Fourier-Motzkin system over all n - 1 convex weights
    # did not answer in 40 s: a 2D ideal with 12 generators at a non-member
    # next to the boundary, and a 3D ideal with 8 generators at a member.
    STAIRCASE_12 = ((0, 34), (1, 31), (2, 28), (3, 26), (4, 23), (5, 21),
                    (12, 12), (15, 9), (17, 8), (22, 4), (26, 3), (29, 2))
    SHELL_8 = ((1, 3, 6), (1, 4, 5), (1, 5, 3), (2, 5, 2),
               (3, 2, 5), (4, 1, 4), (4, 4, 1), (6, 2, 2))

    @pytest.mark.parametrize("gens, point, member", [
        (STAIRCASE_12, (6, 19), False),
        (SHELL_8, (3, 3, 3), True),
    ])
    def test_former_stuck_queries(self, gens, point, member):
        ideal = minimalize(gens)
        start = time.perf_counter()
        assert oracle_is_integral(ideal, 1, point) is member
        assert time.perf_counter() - start < 1.0

    def test_three_generator_witness(self):
        # (1, 1, 1) is the centroid of x^3, y^3, z^3.  No generator lies
        # below it, nor any combination of two: each of the two weights
        # must be <= 1/3 to keep its coordinate <= 1, so they cannot sum to 1.
        ideal = minimalize({(3, 0, 0), (0, 3, 0), (0, 0, 3)})
        assert oracle_is_integral(ideal, 1, (1, 1, 1))
        assert not oracle_is_integral(ideal, 1, (1, 1, 0))

    @settings(deadline=None)
    @given(st.one_of(
        near_boundary(st.integers(1, 30).flatmap(lambda n: staircases(n, min_gens=n))),
        near_boundary(st.builds(sphere_ideal, st.integers(1, 15), st.integers(0, 1 << 16))),
    ))
    def test_matches_facet_closure(self, query):
        ideal, k, m = query
        in_closure = all(
            sum(a * x for a, x in zip(v.normal, m)) >= k * v.rees_integer
            for v in rees_valuations(ideal).valuations
        )
        assert oracle_is_integral(ideal, k, m) == in_closure


class TestPowerStability:
    def test_power_scales_rees_integers(self):
        rng = random.Random(17)
        for _ in range(12):
            ideal = random_ideal(rng)
            base = rees_valuations(ideal)
            for k in (2, 3):
                powered = rees_valuations(ideal_power(ideal, k))
                assert [v.normal for v in powered.valuations] == [
                    v.normal for v in base.valuations
                ]
                assert [v.rees_integer for v in powered.valuations] == [
                    k * v.rees_integer for v in base.valuations
                ]


def kfold_sums_power(ideal, k):
    """Minimal generators of I^k from every k-fold sum of generators."""
    sums = {
        tuple(map(sum, zip(*combo)))
        for combo in itertools.combinations_with_replacement(ideal.generators, k)
    }
    return minimalize(sums, ideal.dim).generators


class TestIdealPower:
    def test_matches_kfold_sums(self):
        rng = random.Random(23)
        for dim in (1, 2, 3):
            for _ in range(40):
                ideal = random_ideal(rng, dim=dim, max_coord=5, max_gens=6)
                for k in range(1, 5):
                    assert ideal_power(ideal, k).generators == kfold_sums_power(ideal, k)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(NonPositivePowerError):
            ideal_power(minimalize({(1, 0), (0, 1)}), 0)

    def test_many_generators_high_power(self):
        # 16 generators at k = 8: C(23, 8) = 490314 eight-fold sums,
        # against 7 products of at most 16 times 121 generators.
        ideal = minimalize({(i, (15 - i) ** 2) for i in range(16)})
        start = time.perf_counter()
        power = ideal_power(ideal, 8)
        assert time.perf_counter() - start < 1.0
        assert power.generators[0] == (0, 1800)
        assert power.generators[-1] == (120, 0)


class TestParse:
    def test_round_trip(self):
        text = "# comment\ndim 2\n2 0\n0 3  # generator\n"
        ideal = parse_ideal(text)
        assert ideal.dim == 2
        assert ideal.generators == ((0, 3), (2, 0))

    def test_minimalizes(self):
        ideal = parse_ideal("dim 2\n2 0\n3 1\n0 3\n")
        assert ideal.generators == ((0, 3), (2, 0))

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_ideal("dim 2\n1 2 3\n")
        assert err.value.line == 2
        with pytest.raises(ParseError):
            parse_ideal("2 0\n")
        with pytest.raises(ParseError):
            parse_ideal("dim 4\n1 1 1 1\n")
        with pytest.raises(ParseError):
            parse_ideal("dim 2\n")


def test_monomial_str():
    assert monomial_str((2, 0)) == "x^2"
    assert monomial_str((1, 1)) == "x*y"
    assert monomial_str((0, 0)) == "1"
    assert monomial_str((0, 1, 3)) == "y*z^3"
