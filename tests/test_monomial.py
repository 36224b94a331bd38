import itertools
import math
import operator
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reesval import monomial, oracle
from reesval.errors import (
    DimensionMismatchError,
    EmptyGeneratorsError,
    ImproperIdealError,
    InconsistentDimensionError,
    NonPositivePowerError,
    OutputLimitError,
    ParseError,
    VerificationError,
)
from reesval.monomial import (
    MAX_CLOSURE_COLUMNS,
    MAX_POWER_SUMS,
    MonomialIdeal,
    _facets_2d,
    _facets_dd,
    ideal_power,
    integral_closure_power,
    minimalize,
    monomial_str,
    parse_ideal,
    rees_valuations,
)
from reesval.oracle import _fm_feasible, oracle_is_integral


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


@st.composite
def shuffled_antichains(draw):
    """Unsorted 2D and 3D lists of up to ~60 vectors with entries up to 40:
    an antichain (a staircase in 2D, points of one coordinate sum in 3D)
    plus a few spoilers, each a duplicate of a member, a multiple of one
    or any vector at all."""
    d = draw(st.integers(2, 3))
    size = draw(st.integers(1, 60))
    if d == 2:
        size = min(size, 40)
        xs = sorted(draw(st.sets(st.integers(0, 40), min_size=size, max_size=size)))
        ys = sorted(draw(st.sets(st.integers(0, 40), min_size=size, max_size=size)))
        base = [v for v in zip(xs, reversed(ys)) if any(v)]
    else:
        total = draw(st.integers(1, 40))
        level = [(a, b, total - a - b) for a in range(total + 1) for b in range(total + 1 - a)]
        size = min(size, len(level))
        base = draw(st.lists(st.sampled_from(level), min_size=size, max_size=size, unique=True))
    if not base:
        base = [(1,) * d]
    member = st.sampled_from(base)
    bump = st.tuples(*[st.integers(0, 5)] * d).filter(any)
    spoilers = st.one_of(
        member,
        st.tuples(member, bump).map(lambda mb: tuple(map(operator.add, *mb))),
        st.tuples(*[st.integers(0, 40)] * d).filter(any),
    )
    return draw(st.permutations(base + draw(st.lists(spoilers, max_size=3))))


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


def pairwise_minimal(vecs):
    """The distinct members no other member divides, sorted: the minimal generators."""
    return tuple(sorted({v for v in vecs if not any(w != v and divides(w, v) for w in vecs)}))


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
        # the unit monomial is refused, alone or beside the generators it divides
        for gens in [((0, 0),), ((1, 0), (0, 0)), ((0, 0, 0), (1, 2, 3))]:
            with pytest.raises(ImproperIdealError):
                MonomialIdeal(len(gens[0]), gens)

    def test_constructor_keeps_the_minimal_generators(self):
        for gens in [
            ((1, 0), (2, 0)),
            ((1, 2), (0, 3), (1, 2)),  # duplicate
            ((0, 1, 5), (1, 0, 0), (1, 0, 3)),
            ((1, 0, 1), (0, 1, 0), (0, 0, 1)),  # multiple two places after its divisor
        ]:
            assert MonomialIdeal(len(gens[0]), gens).generators == pairwise_minimal(gens)

    def test_each_intake_reduces_once(self, monkeypatch):
        ideal = MonomialIdeal(3, ((4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)))
        calls, minimal = [], monomial._minimal

        def counting(vecs, d):
            calls.append(d)
            return minimal(vecs, d)

        monkeypatch.setattr(monomial, "_minimal", counting)
        for build, runs in [
            (lambda: MonomialIdeal(3, ((1, 0, 0), (2, 0, 0), (0, 1, 1))), 1),
            (lambda: MonomialIdeal(2, ((2, 0), (0, 3))), 1),
            (lambda: minimalize([(1, 0), (2, 0), (0, 1)]), 1),
            (lambda: minimalize([(1, 0, 0), (2, 0, 0)], 3), 1),
            (lambda: parse_ideal("dim 3\n1 0 0\n2 0 0\n0 1 1\n"), 1),
            (lambda: parse_ideal("dim 2\n2 0\n0 3\n"), 1),
            (lambda: ideal_power(ideal, 5), 4),  # one per step
        ]:
            calls.clear()
            build()
            assert len(calls) == runs

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

    @given(st.one_of(sorted_vectors, shuffled_antichains()))
    def test_matches_pairwise_minimalization(self, vecs):
        expected = pairwise_minimal(vecs)
        assert minimalize(vecs).generators == expected

    @given(st.one_of(sorted_vectors, shuffled_antichains()))
    def test_antichain_check_matches_pairwise(self, vecs):
        d = len(vecs[0])
        expected = pairwise_minimal(vecs)
        antichain = not any(
            divides(a, b) or divides(b, a) for a, b in itertools.combinations(vecs, 2)
        )
        # an antichain is kept whole; any other set loses exactly its multiples
        assert antichain == (expected == tuple(sorted(vecs)))
        # and the constructor's answer does not depend on the input order
        for order in (vecs, sorted(vecs), sorted(vecs, reverse=True)):
            assert MonomialIdeal(d, order).generators == expected


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
    @given(ideals(3, 6, 12), st.randoms(use_true_random=False))
    def test_double_description_matches_candidate_scan_3d(self, ideal, rng):
        # the generators are added by degree, in whatever order they come
        gens = list(ideal.generators)
        rng.shuffle(gens)
        assert sorted(_facets_dd(tuple(gens), 3)) == candidate_scan_facets(ideal.generators, 3)

    @pytest.mark.parametrize("n, seed", [(16, 1301), (18, 1302), (20, 1303)])
    def test_double_description_on_convex_surfaces_3d(self, n, seed):
        # The property test above stops at 12 generators; the rees-facets
        # benchmark runs 10-24 on such surfaces, where nearly every
        # generator is a vertex.  The reference scan takes ~0.5 s at n = 20.
        ideal = sphere_ideal(n, seed)
        facets = candidate_scan_facets(ideal.generators, 3)
        assert sorted(_facets_dd(ideal.generators, 3)) == facets
        assert normals_and_integers(rees_valuations(ideal)) == [
            (a, b) for a, b in facets if b > 0
        ]

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
    @given(
        st.sets(st.tuples(*[st.integers(0, 2)] * 4).filter(any), min_size=1, max_size=7),
        st.randoms(use_true_random=False),
    )
    @example(
        {(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 2)},
        random.Random(0),
    )
    @example(
        {(1, 2, 1, 2), (1, 2, 2, 1), (2, 0, 2, 2), (2, 1, 1, 1), (3, 0, 1, 0), (3, 2, 0, 0)},
        random.Random(1),
    )
    def test_double_description_4d(self, vecs, rng):
        # From d = 4 on, d - 1 common tight constraints can be dependent
        # (three collinear generators), so adjacency needs the third-ray
        # check, which the examples exercise; MonomialIdeal stops at d = 3.
        gens = [v for v in sorted(vecs) if not any(w != v and divides(w, v) for w in vecs)]
        expected = candidate_scan_facets(gens, 4)
        rng.shuffle(gens)
        assert sorted(_facets_dd(tuple(gens), 4)) == expected

    @pytest.mark.parametrize(
        "gens",
        [
            # pure powers: one facet besides the five walls
            [(2, 0, 0, 0, 0), (0, 3, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 2, 0), (0, 0, 0, 0, 1)],
            # three collinear generators in the (x1, x2) plane
            [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 1, 1, 1), (1, 0, 0, 2, 0)],
            [(1, 2, 0, 1, 0), (0, 1, 2, 0, 1), (2, 0, 1, 0, 2), (1, 1, 1, 1, 1), (0, 0, 0, 3, 1)],
        ],
    )
    def test_double_description_5d(self, gens):
        # the compiled step differs by d: five coordinates and the third-ray scan
        expected = candidate_scan_facets(sorted(gens), 5)
        assert sorted(_facets_dd(tuple(reversed(gens)), 5)) == expected

    @settings(deadline=None)
    @given(st.one_of(ideals(1, 8, 3), ideals(2, 12, 12), ideals(3, 6, 10)))
    def test_valuations_are_the_positive_facets(self, ideal):
        # the closure reads the same facet list that the records are built from
        facets = monomial._rees_facets(ideal)
        assert all(offset > 0 for _, offset in facets)
        assert normals_and_integers(rees_valuations(ideal)) == sorted(facets)

    def test_determinism(self):
        gens = [(4, 0), (2, 3), (0, 6), (1, 5)]
        first = rees_valuations(minimalize(gens))
        second = rees_valuations(minimalize(list(reversed(gens))))
        assert first == second


class TestDoubleDescriptionStep:
    @pytest.fixture
    def compiled(self, monkeypatch):
        """The source of every step compiled from here on, from an empty cache."""
        sources = []

        def recording_exec(source, namespace):
            sources.append(source)
            exec(source, namespace)

        monkeypatch.setattr(monomial, "_DD_STEPS", {})
        monkeypatch.setattr(monomial, "exec", recording_exec, raising=False)
        return sources

    def test_compiled_on_the_first_step_and_once(self, compiled):
        # the 2D chain and a one-generator ideal take no double-description step
        assert normals_and_integers(rees_valuations(minimalize({(2, 0), (1, 1), (0, 2)}))) == [
            ((1, 1), 2)
        ]
        assert normals_and_integers(principal((1, 4, 2)))[0] == ((0, 0, 1), 2)
        assert compiled == [] and monomial._DD_STEPS == {}
        pure = minimalize({(2, 0, 0), (0, 3, 0), (0, 0, 4)})
        assert normals_and_integers(rees_valuations(pure)) == [((6, 4, 3), 12)]
        ideal = sphere_ideal(16, 1301)
        facets = candidate_scan_facets(ideal.generators, 3)
        assert sorted(_facets_dd(ideal.generators, 3)) == facets
        assert len(compiled) == 1 and list(monomial._DD_STEPS) == [3]
        # the third-ray scan is emitted only from d = 4 on
        assert "sum(" not in compiled[0]
        monomial._dd_step(4)
        assert len(compiled) == 2 and "sum(" in compiled[1]

    @pytest.mark.parametrize("d", [3.0, "3", "3) or __import__('os') or (", None, Fraction(3)])
    def test_non_integer_dimension_is_refused_before_compiling(self, compiled, d):
        with pytest.raises(TypeError):
            monomial._dd_step(d)
        with pytest.raises(TypeError):
            _facets_dd(((2, 0, 0), (0, 2, 0)), d)
        assert compiled == [] and monomial._DD_STEPS == {}


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

    def test_reads_the_facets_without_valuation_records(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the closure built a valuation record")

        for name in ("ReesValuationSpec", "ReesPackage", "rees_valuations"):
            monkeypatch.setattr(monomial, name, refuse)
        assert integral_closure_power(minimalize({(2, 0), (0, 3)}), 1).generators == (
            (0, 3), (1, 2), (2, 0)
        )
        pure = minimalize({(2, 0, 0), (0, 2, 0), (0, 0, 2)})
        assert integral_closure_power(pure, 1).generators == (
            (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)
        )

    def test_walk_emitting_a_non_minimal_generator_fails_verification(self, monkeypatch):
        # z >= 1 + |x - y| is no Newton polyhedron: z is not monotone, and
        # the walk, which compares each column with its lower neighbours
        # only, emits z and x*y*z
        facets = [((1, -1, 1), 1), ((-1, 1, 1), 1)]
        monkeypatch.setattr(monomial, "_rees_facets", lambda ideal: facets)
        cube = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
        with pytest.raises(VerificationError, match="non-minimal generators"):
            integral_closure_power(cube, 1)

    def test_rejects_bad_power(self):
        with pytest.raises(NonPositivePowerError):
            integral_closure_power(minimalize({(1, 0), (0, 1)}), 0)
        with pytest.raises(NonPositivePowerError, match="must be an integer, got 2.0"):
            integral_closure_power(minimalize({(2, 0), (0, 3)}), 2.0)

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
            # normal (1, 0, 0): each line with x < k is ruled out whole
            ({(1, 0, 0)}, 3),
            ({(1, 1, 0), (1, 0, 1)}, 3),
            ({(2, 0, 0), (1, 0, 2), (1, 1, 0)}, 3),
            # normals (0, 1, 0) and (1, 2, 0): a leading segment of y is
            # ruled out, at (1, 2, 0) a shorter one as x grows
            ({(2, 1, 0), (0, 1, 3)}, 3),
            ({(2, 0, 0), (0, 1, 0)}, 3),
        ],
    )
    def test_fixed_cases_match_box_scan(self, gens, dim):
        ideal = minimalize(gens, dim)
        if dim > 1:  # a zero last normal entry rules out whole columns
            assert any(v.normal[-1] == 0 for v in rees_valuations(ideal).valuations)
        for k in range(1, 5):
            assert integral_closure_power(ideal, k).generators == box_scan_closure(ideal, k)

    # Each line of the walk ends at the first zero of a lower line.
    @pytest.mark.parametrize(
        "gens",
        [
            # lines reach zero early, and at different columns
            {(5, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 1)},
            # every member has z >= 1, so no line is ever cut short
            {(1, 0, 1), (0, 1, 1)},
            # the ruled-out prefix of y shortens as x grows
            {(2, 1, 0), (0, 1, 3)},
        ],
    )
    def test_truncated_walk_matches_box_scan(self, gens):
        ideal = minimalize(gens, 3)
        for k in range(1, 5):
            assert integral_closure_power(ideal, k).generators == box_scan_closure(ideal, k)

    # The walk fills each segment of the upper envelope of a line's bounds
    # from the one bound largest there, and ends the line at its first zero.
    @settings(deadline=None, max_examples=30)
    @given(staircases(30, min_gens=10), st.integers(1, 3))
    def test_many_envelope_segments_match_box_scan(self, ideal, k):
        assert integral_closure_power(ideal, k).generators == box_scan_closure(ideal, k)

    @pytest.mark.parametrize("n, seed", [(6, 1), (8, 2), (10, 3), (12, 4)])
    def test_sphere_ideals_match_box_scan(self, n, seed):
        ideal = sphere_ideal(n, seed)
        for k in (1, 2):
            assert integral_closure_power(ideal, k).generators == box_scan_closure(ideal, k)

    @pytest.mark.parametrize(
        "gens, dim",
        [
            # collinear generators: at each vertex k*(2, 2) two bounds tie
            ({(0, 6), (1, 4), (2, 2), (4, 1), (6, 0)}, 2),
            ({(0, 4, 0), (0, 2, 2), (0, 0, 4), (2, 2, 0), (2, 0, 2), (4, 0, 0)}, 3),
            ({(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)}, 2),
        ],
    )
    def test_tied_bounds_at_a_breakpoint_match_box_scan(self, gens, dim):
        ideal = minimalize(gens, dim)
        for k in range(1, 5):
            assert integral_closure_power(ideal, k).generators == box_scan_closure(ideal, k)

    @pytest.mark.parametrize(
        "gens, dim",
        [
            # normal (0, 1): z >= k on the whole line
            ({(0, 3), (2, 1)}, 2),
            # normal (1, 0, 1): z >= 2k - x on the whole line of each x
            ({(2, 0, 0), (0, 0, 2)}, 3),
            ({(2, 0, 0), (0, 0, 2), (1, 3, 1)}, 3),
            ({(3, 0, 1), (0, 2, 1), (0, 0, 3)}, 3),
        ],
    )
    def test_a_bound_constant_along_the_line_matches_box_scan(self, gens, dim):
        ideal = minimalize(gens, dim)
        assert any(v.normal[-2] == 0 < v.normal[-1] for v in rees_valuations(ideal).valuations)
        for k in range(1, 5):
            assert integral_closure_power(ideal, k).generators == box_scan_closure(ideal, k)

    @pytest.mark.parametrize(
        "gens, dim",
        [
            # the one 2D line has no lower line
            ({(2, 0), (0, 3)}, 2),
            # the line of x reaches zero at y = 3k - x, one column before x - 1's
            ({(3, 0, 0), (0, 3, 0), (0, 0, 3)}, 3),
            ({(5, 0, 0), (0, 2, 0), (0, 0, 7), (1, 1, 2)}, 3),
        ],
    )
    def test_a_line_ending_before_its_lower_lines_matches_box_scan(self, gens, dim):
        ideal = minimalize(gens, dim)
        for k in range(1, 5):
            assert integral_closure_power(ideal, k).generators == box_scan_closure(ideal, k)

    @pytest.mark.parametrize(
        "gens, dim, filled",
        [
            # z = ceil((6k - 3t) / 2) on t in [0, 3k] is 0 from t = 2k on
            ({(2, 0), (0, 3)}, 2, lambda k: [2 * k]),
            # the line of x fills y < 3k - x; the line x = 3k is 0 from y = 0
            ({(3, 0, 0), (0, 3, 0), (0, 0, 3)}, 3, lambda k: list(range(3 * k, 0, -1))),
        ],
    )
    def test_a_line_computes_no_column_past_its_first_zero(self, monkeypatch, gens, dim, filled):
        # each segment's columns are one floor division each, counted by
        # the itertools.repeat that pairs them with the divisor
        counts = []

        class Recording:
            def __getattr__(self, name):
                return getattr(itertools, name)

            @staticmethod
            def repeat(value, times):
                counts.append(times)
                return itertools.repeat(value, times)

        ideal = minimalize(gens, dim)
        monkeypatch.setattr(monomial, "itertools", Recording())
        for k in (1, 4, 9):
            counts.clear()
            assert integral_closure_power(ideal, k).generators == box_scan_closure(ideal, k)
            assert counts == filled(k)

    def test_largest_2d_answer(self):
        # (x^2, y^3) at k = 33 333: the 100 000 columns of the limit, of
        # which the line computes the 66 667 up to its first zero
        closure = integral_closure_power(minimalize({(2, 0), (0, 3)}), 33333)
        assert len(closure.generators) == 66667
        assert closure.generators[:2] == ((0, 99999), (1, 99998))
        assert closure.generators[-2:] == ((66665, 2), (66666, 0))

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

    def test_column_limit(self):
        # (x^(L-1), y) at k = 1 has exactly L = MAX_CLOSURE_COLUMNS columns
        at = MonomialIdeal(2, ((0, 1), (MAX_CLOSURE_COLUMNS - 1, 0)))
        assert integral_closure_power(at, 1) == at
        over = MonomialIdeal(2, ((0, 1), (MAX_CLOSURE_COLUMNS, 0)))
        with pytest.raises(OutputLimitError) as info:
            integral_closure_power(over, 1)
        assert str(info.value) == (
            f"closure has {MAX_CLOSURE_COLUMNS + 1} columns, "
            f"above the limit of {MAX_CLOSURE_COLUMNS}"
        )

    def test_column_limit_counts_lines_of_columns(self):
        # d = 3, M = 4: (4k + 1)^2 columns, 313^2 <= 100000 < 317^2
        ideal = minimalize({(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)})
        assert MAX_CLOSURE_COLUMNS == 100_000
        assert len(integral_closure_power(ideal, 78).generators) == 36973
        with pytest.raises(OutputLimitError, match="100489 columns"):
            integral_closure_power(ideal, 79)

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

    def test_integers_only(self):
        # int() would truncate (1.9, 1.9) to the non-member (1, 1), and
        # k = 1.5 would scale x^2 in floats to (3.0, 0.0) <= (3, 1).
        ideal = minimalize({(2, 0), (0, 3)})
        with pytest.raises(DimensionMismatchError, match="non-integer exponent"):
            oracle_is_integral(ideal, 1, (1.9, 1.9))
        with pytest.raises(NonPositivePowerError, match="must be an integer, got 1.5"):
            oracle_is_integral(ideal, 1.5, (3, 1))
        assert oracle_is_integral(ideal, True, (2, 0))  # bool is an int

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

    def test_touches_no_facet_code(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the oracle reached facet code")

        for name in ("_facets_2d", "_facets_dd", "rees_valuations", "integral_closure_power"):
            monkeypatch.setattr(monomial, name, refuse)
        assert oracle_is_integral(minimalize({(2, 0), (0, 2)}), 3, (3, 3))
        assert oracle_is_integral(minimalize({(3, 0, 0), (0, 3, 0), (0, 0, 3)}), 1, (1, 1, 1))
        assert not oracle_is_integral(minimalize({(3, 0, 0), (0, 3, 0), (0, 0, 3)}), 2, (2, 2, 1))

    @pytest.fixture
    def refusing_subset_tests(self, monkeypatch):
        """The kernel table with pair and triple tests that raise when called."""
        def refusing(route):
            def refuse(*args):
                raise AssertionError(f"the oracle tested a {route}")
            return refuse

        table = {d: (covers, refusing("pair"), refusing("triple"), full)
                 for d, (covers, _, _, full) in oracle._KERNELS.items()}
        monkeypatch.setattr(oracle, "_KERNELS", table)

    @pytest.mark.parametrize("gens, k, point", [
        # the all-ones weight: each of 2*(x^3, y^3, z^3) sums to 6 > 2 + 2 + 1
        (((3, 0, 0), (0, 3, 0), (0, 0, 3)), 2, (2, 2, 1)),
        # each of x^2 and y^2 sums to 2 > 1 + 0
        (((2, 0), (0, 2)), 1, (1, 0)),
    ])
    def test_separated_query_tests_no_subset(self, refusing_subset_tests, gens, k, point):
        # every generator passes some unit weight, so pruning by the unit
        # weights alone would test pairs, but one 0/1 weight separates
        assert not oracle_is_integral(minimalize(gens), k, point)

    @pytest.mark.parametrize("gens, point, route", [
        # (1, 1) is the midpoint of x^2 and y^2
        (((2, 0), (0, 2)), (1, 1), "pair"),
        # (1, 1, 1) is the centroid of x^3, y^3, z^3, and every pair misses
        # the weight (1, 1, 0), (1, 0, 1) or (0, 1, 1)
        (((3, 0, 0), (0, 3, 0), (0, 0, 3)), (1, 1, 1), "triple"),
    ])
    def test_refusing_subset_tests_intercept(self, refusing_subset_tests, gens, point, route):
        # the patch that the separated queries pass reaches the routes
        # the oracle calls
        with pytest.raises(AssertionError, match=f"the oracle tested a {route}$"):
            oracle_is_integral(minimalize(gens), 1, point)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        near_boundary(ideals(1, 8, 1)),
        near_boundary(ideals(2, 8, 7)),
        near_boundary(ideals(3, 5, 6)),
    ))
    def test_matches_unpruned_subsets(self, query):
        ideal, k, m = query
        assert oracle_is_integral(ideal, k, m) is unpruned_member(ideal, k, m)

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


def unpruned_member(ideal, k, m):
    """Reference membership: every subset of at most d scaled generators,
    one generator by dominance and each larger subset by the general
    Fourier-Motzkin solver on its weights, with no pruning."""
    scaled = [tuple(k * e for e in g) for g in ideal.generators]
    if any(divides(g, m) for g in scaled):
        return True
    return any(
        _fm_feasible(weight_system(points, m), size - 1)
        for size in range(2, ideal.dim + 1)
        for points in itertools.combinations(scaled, size)
    )


@pytest.fixture
def compiled_sources(monkeypatch):
    """The source of every kernel compiled from here on."""
    sources = []

    def recording_exec(source, namespace):
        sources.append(source)
        exec(source, namespace)

    monkeypatch.setattr(oracle, "exec", recording_exec, raising=False)
    return sources


NON_INTEGER_DIMENSIONS = [3.0, "3", "3) or __import__('os') or (", None, Fraction(3)]


class TestCoverStep:
    """The source writer of the kernels: a pure function of d."""

    @pytest.mark.parametrize("d", NON_INTEGER_DIMENSIONS)
    def test_non_integer_dimension_is_refused_before_compiling(self, d):
        # the source writer refuses it before writing a line
        with pytest.raises(TypeError):
            oracle._kernel_source(d)


class TestSubsetSteps:
    """The kernel table: compiled at import, never on a query."""

    def test_import_fills_the_table_for_every_dimension(self):
        assert sorted(oracle._KERNELS) == [1, 2, 3]
        for d, (*kernels, full) in oracle._KERNELS.items():
            assert [f.__name__ for f in kernels] == ["covers", "pair", "triple"]
            # one bit per nonzero 0/1 weight: 1 in 1D, 3 in 2D, 7 in 3D
            assert full == (1 << (1 << d) - 1) - 1
            source = oracle._kernel_source(d)
            assert f"<< {full.bit_length() - 1}" in source
            assert f"<< {full.bit_length()}" not in source
            # one bound spelled out per coordinate, and no division anywhere
            assert f"m{d - 1} - q{d - 1}" in source and f"m{d}" not in source
            assert "/" not in source and "gcd" not in source

    @pytest.mark.parametrize("d", NON_INTEGER_DIMENSIONS)
    def test_non_integer_dimension_is_refused_before_compiling(self, compiled_sources, d):
        # nothing reaches exec
        with pytest.raises(TypeError):
            oracle._compile(d)
        assert compiled_sources == []


BIG = 10**12
# small values make ties, zero coefficients and tight bounds likely
fm_coefficients = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))


@st.composite
def fm_systems(draw):
    """(rows, nvars, feasible) for a system of rows sum(c*x) <= b.

    A feasible system is built around an integer witness x*, with
    b >= c.x*.  An infeasible one carries a Farkas certificate: random
    rows plus the row -sum y_i*row_i whose right-hand side is lowered by
    1 + slack, with every y_i >= 1, so that sum y_i*row_i plus that row
    reads 0 <= -1 - slack.  When a sign is drawn, every coefficient has
    that sign, so each variable is bounded on one side only; such a
    system is infeasible only through a row 0 <= b with b < 0.
    """
    nvars = draw(st.integers(1, 3))
    sign = draw(st.sampled_from((0, 1, -1)))
    coeff = st.integers(0, BIG).map(lambda c: sign * c) if sign else fm_coefficients
    slack = draw(st.one_of(st.just(0), st.integers(0, BIG)))
    feasible = draw(st.booleans())
    coeffs = draw(st.lists(st.lists(coeff, min_size=nvars, max_size=nvars), min_size=1, max_size=6))
    if feasible:
        witness = draw(st.lists(st.integers(-10**6, 10**6), min_size=nvars, max_size=nvars))
        rows = [
            (c, sum(map(operator.mul, c, witness)) + draw(st.sampled_from((0, slack))))
            for c in coeffs
        ]
    elif sign:
        rows = [(c, draw(fm_coefficients)) for c in coeffs] + [([0] * nvars, -1 - slack)]
    else:
        rows = [(c, draw(fm_coefficients)) for c in coeffs]
        ys = draw(st.lists(st.integers(1, 10**6), min_size=len(rows), max_size=len(rows)))
        last = [-sum(y * c[i] for y, (c, _) in zip(ys, rows)) for i in range(nvars)]
        rows.append((last, -sum(y * b for y, (_, b) in zip(ys, rows)) - 1 - slack))
    return draw(st.permutations(rows)), nvars, feasible


class TestFourierMotzkin:
    @settings(max_examples=400, deadline=None)
    @given(fm_systems())
    # 2 <= x0 <= 2 and 2 <= x0 <= 1
    @example(([([1], 2), ([-1], -2)], 1, True))
    @example(([([1], 1), ([-1], -2)], 1, False))
    # bounded above only, below only, not at all, and 0 <= -1
    @example(([([3], -7), ([5], 4)], 1, True))
    @example(([([-3], -7), ([-5], 4)], 1, True))
    @example(([([0], 0)], 1, True))
    @example(([([0], -1), ([1], 5)], 1, False))
    # x0 + x1 <= 1 (or 2) with x0 >= 1 and x1 >= 1/2
    @example(([([1, 1], 1), ([-1, 0], -1), ([0, -2], -1)], 2, False))
    @example(([([1, 1], 2), ([-1, 0], -1), ([0, -2], -1)], 2, True))
    def test_witness_and_farkas_systems(self, system):
        rows, nvars, feasible = system
        assert _fm_feasible(rows, nvars) is feasible


def weight_system(points, m):
    """The rows sum(c*w) <= b on the weights of all points but the last.

    The last weight is 1 - sum of the others: each coordinate j reads
    sum w_i*(p_i - p_last)[j] <= (m - p_last)[j], then sum w_i <= 1 and
    -w_i <= 0 for each i.
    """
    *rest, last = points
    r = len(rest)
    rows = [([p[j] - last[j] for p in rest], m[j] - last[j]) for j in range(len(m))]
    rows.append(([1] * r, 1))
    rows += [([-1 if j == i else 0 for j in range(r)], 0) for i in range(r)]
    return rows


def vertex_feasible(rows, nvars):
    """Whether the bounded system has a vertex: a reference in Fractions, for nvars <= 2.

    The weights lie in a simplex, so the feasible set is bounded, and it
    is nonempty exactly when it has a vertex, where nvars linearly
    independent rows are tight.  Each candidate is solved by Cramer's
    rule and checked against every row.
    """
    for tight in itertools.combinations(rows, nvars):
        if nvars == 1:
            (((c,), b),) = tight
            if not c:
                continue
            x = (Fraction(b, c),)
        else:
            ((a1, b1), r1), ((a2, b2), r2) = tight
            det = a1 * b2 - a2 * b1
            if not det:
                continue
            x = (Fraction(r1 * b2 - r2 * b1, det), Fraction(a1 * r2 - a2 * r1, det))
        if all(sum(map(operator.mul, c, x)) <= b for c, b in rows):
            return True
    return False


@st.composite
def subsets_below(draw):
    """(points, m): two or three points and a query point in 1..4 dimensions."""
    d = draw(st.integers(1, 4))
    vec = st.tuples(*[fm_coefficients] * d)
    points = draw(st.lists(vec, min_size=2, max_size=3))
    return points, draw(vec)


class TestDirectRoutes:
    # the kernels of d = 1..4, each compiled once, past the table's d <= 3
    KERNELS = {d: oracle._compile(d) for d in range(1, 5)}

    @settings(max_examples=400, deadline=None)
    @given(subsets_below())
    # p_1 = q_1 and m_1 < q_1: the row 0 <= -1
    @example(([(1, 2), (3, 2)], (5, 1)))
    # (r - q)[j] >= 0 in every coordinate: w is bounded below by -w <= 0 only
    @example(([(0, 4, 1), (4, 4, 2), (2, 0, 0)], (2, 2, 1)))
    # the weight on (0, 2) is pinned to 1/2, and the centroid pins both to 1/3
    @example(([(0, 2), (2, 0)], (1, 1)))
    @example(([(3, 0, 0), (0, 3, 0), (0, 0, 3)], (1, 1, 1)))
    def test_pairs_and_triples_match_the_general_solver(self, case):
        points, m = case
        rows, r = weight_system(points, m), len(points) - 1
        direct = self.KERNELS[len(m)][r]
        assert direct(*points, m) is _fm_feasible(rows, r) is vertex_feasible(rows, r)


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
        with pytest.raises(NonPositivePowerError, match="must be an integer"):
            ideal_power(minimalize({(2, 0), (0, 3)}), 2.0)

    @pytest.mark.parametrize("k", [10**9, 10**5000], ids=["1e9", "5001 digits"])
    def test_refuses_above_the_sum_limit(self, k):
        start = time.perf_counter()
        with pytest.raises(OutputLimitError, match=f"above the limit of {MAX_POWER_SUMS}$"):
            ideal_power(minimalize({(5, 0), (2, 1), (0, 3)}), k)
        assert time.perf_counter() - start < 1.0

    def test_one_dimensional_power_takes_no_step(self):
        assert ideal_power(minimalize({(3,)}, 1), 10**9).generators == ((3 * 10**9,),)

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

    def test_reads_without_minimalize(self, monkeypatch):
        # parsing has read and checked every exponent, so it hands its
        # minimal generators to the constructor without reading them again
        def refuse(*args, **kwargs):
            raise AssertionError("parse_ideal called minimalize")

        monkeypatch.setattr(monomial, "minimalize", refuse)
        cases = {
            "dim 1\n3\n2\n": ((2,),),
            "dim 2\n2 0\n3 1\n0 3\n": ((0, 3), (2, 0)),
            "dim 3\n1 1 1\n2 0 0\n1 1 2\n0 0 2\n": ((0, 0, 2), (1, 1, 1), (2, 0, 0)),
        }
        for text, generators in cases.items():
            assert parse_ideal(text).generators == generators
        with pytest.raises(ImproperIdealError, match="unit monomial"):
            parse_ideal("dim 2\n0 0\n")

    @pytest.mark.parametrize(
        "text, line, what",
        [("dim {}\n1\n", 1, "dimension"), ("dim 2\n1 {}\n", 2, "exponent"),
         ("dim 3\n1 x {}\n", 2, "exponent")],
    )
    def test_an_integer_over_the_digit_limit_is_refused_by_its_length(self, text, line, what):
        # int() refuses it; the message states its length and the limit, not the token
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ParseError) as err:
            parse_ideal(text.format("7" * (limit + 700)))
        assert err.value.line == line
        assert str(err.value) == (
            f"line {line}: {what}: int value of {limit + 700} characters "
            f"exceeds the {limit}-digit limit"
        )

    def test_other_bad_integers_are_refused_as_before(self):
        # as many characters as a refused token, but few enough digits
        under = "_".join("1" * (sys.get_int_max_str_digits() // 2 + 1)) + "x"
        cases = {
            "dim x\n": "line 1: bad dimension 'x'",
            f"dim {under}\n": f"line 1: bad dimension {under!r}",
            "dim 2\n1 y\n": "line 2: bad exponent in '1 y'",
            f"dim 2\n1 {under}\n": f"line 2: bad exponent in '1 {under}'",
            "dim 2\n1 -1\n": "line 2: exponents must be nonnegative",
        }
        for text, message in cases.items():
            with pytest.raises(ParseError) as err:
                parse_ideal(text)
            assert str(err.value) == message


def test_monomial_str():
    assert monomial_str((2, 0)) == "x^2"
    assert monomial_str((1, 1)) == "x*y"
    assert monomial_str((0, 0)) == "1"
    assert monomial_str((0, 1, 3)) == "y*z^3"
