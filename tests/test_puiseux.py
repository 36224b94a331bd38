import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from reesval.cli import main
from reesval.dvrcalc import general_k_extension
from reesval.errors import NonIntegralSetupError, NonPositiveError
from reesval.puiseux import (
    PuiseuxModel,
    newton_polygon_irreducible,
    oracle_extension,
    oracle_ramification,
    oracle_residue_degree,
    subgroup_generated,
)

_S, _X = sympy.symbols("s X")


def sympy_irreducible(d: int, n: int) -> bool:
    """Independent factorization oracle for X^d - 1/s^n over Q(s).

    Clearing denominators, the question is whether s^n * X^d - 1 is
    irreducible in Q[s, X]; sympy factors it exactly.
    """
    factors = sympy.factor_list((_S**n) * (_X**d) - 1, _S, _X)[1]
    nontrivial = [(f, mult) for f, mult in factors if sympy.degree(f, _X) > 0]
    return (
        len(nontrivial) == 1
        and nontrivial[0][1] == 1
        and sympy.degree(nontrivial[0][0], _X) == d
    )


class TestRamification:
    @pytest.mark.parametrize("e,k,expected", [(4, 6, 3), (1, 1, 1), (2, 3, 3)])
    def test_examples(self, e, k, expected):
        assert oracle_ramification(PuiseuxModel(e, k)) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveError):
            PuiseuxModel(0, 3)


class TestResidueDegree:
    @pytest.mark.parametrize("e,k,expected", [(4, 6, 2), (3, 3, 3), (2, 3, 1)])
    def test_examples(self, e, k, expected):
        assert oracle_residue_degree(PuiseuxModel(e, k)) == expected


def linear_residue_degree(e: int, k: int) -> int:
    """Reference: k over the least a >= 1 with k | a*e, found by trying every a."""
    return k // next(a for a in range(1, k + 1) if (a * e) % k == 0)


@given(st.integers(1, 2000), st.integers(1, 2000))
def test_residue_degree_matches_linear_search(e, k):
    assert oracle_residue_degree(PuiseuxModel(e, k)) == linear_residue_degree(e, k)


# e up to 10^12 against a Mersenne prime k and k = 2^12 * 5^12: gcd 1,
# powers of 2 or 5 alone, and e = k
_rng = random.Random(11)
LARGE_E = [1, 2, 3, 2**39, 5**17, 999_999_999_989, 10**12 - 1, 10**12] + [
    _rng.randint(1, 10**12) for _ in range(200)
]


@pytest.mark.parametrize("k", [2**61 - 1, 10**12])
def test_large_bit_length_agrees_with_gcd_calculus(k):
    start = time.perf_counter()
    for e in LARGE_E:
        step = general_k_extension(e, k)
        assert oracle_extension(PuiseuxModel(e, k)) == (
            step.ramification,
            step.residue_degree,
            step.degree,
        )
    assert time.perf_counter() - start < 1.0


class TestNewtonPolygon:
    def test_degree_three(self):
        assert newton_polygon_irreducible(3, -1)
        assert sympy_irreducible(3, 1)

    def test_linear(self):
        assert newton_polygon_irreducible(1, -1)

    def test_degree_four_even_valuation(self):
        assert not newton_polygon_irreducible(4, -2)
        assert not sympy_irreducible(4, 2)

    def test_slope_minus_one_over_d(self):
        for d in range(1, 21):
            assert newton_polygon_irreducible(d, -1)

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 1), (4, 3), (5, 5), (6, 4)])
    def test_matches_factorization_oracle(self, d, n):
        criterion = newton_polygon_irreducible(d, -n)
        assert criterion == sympy_irreducible(d, n)

    def test_rejects_fractional_valuation(self):
        with pytest.raises(NonIntegralSetupError):
            newton_polygon_irreducible(2, Fraction(1, 2))

    @pytest.mark.parametrize("degree", [0, -1])
    def test_rejects_nonpositive_degree(self, degree):
        with pytest.raises(NonPositiveError, match="degree must be >= 1"):
            newton_polygon_irreducible(degree, -1)


class TestOracleExtension:
    @pytest.mark.parametrize(
        "e,k,expected",
        [(4, 6, (3, 2, 6)), (6, 6, (1, 6, 6)), (5, 2, (2, 1, 2))],
    )
    def test_examples(self, e, k, expected):
        assert oracle_extension(PuiseuxModel(e, k)) == expected

    def test_fundamental_equality_sweep(self):
        for e in range(1, 41):
            for k in range(1, 41):
                ram, res, deg = oracle_extension(PuiseuxModel(e, k))
                assert ram * res == deg == k
                # acceptance-level agreement with the closed form
                assert res == math.gcd(e, k)
                assert ram == k // math.gcd(e, k)


def test_oracle_is_independent_of_math_gcd(monkeypatch, capsys):
    # a gcd that calls every pair coprime breaks the calculus, not the oracle
    monkeypatch.setattr(math, "gcd", lambda *args: 1)
    assert oracle_extension(PuiseuxModel(4, 6)) == (3, 2, 6)
    assert main(["tower", "--e", "4", "--k", "6", "--oracle"]) == 3
    assert "disagrees with oracle" in capsys.readouterr().err


def brute_subgroup_generator(xs, bound=6):
    """Smallest positive two-term integer combination of the inputs."""
    best = None
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for x in xs:
                for y in xs:
                    value = a * Fraction(x) + b * Fraction(y)
                    if value > 0 and (best is None or value < best):
                        best = value
    return best


def test_subgroup_examples():
    assert subgroup_generated([1, Fraction(2, 3)]) == Fraction(1, 3)
    assert brute_subgroup_generator([1, Fraction(2, 3)]) == Fraction(1, 3)
    assert subgroup_generated([2, 3]) == 1
    assert subgroup_generated([1]) == 1
    assert subgroup_generated([]) == 0
    assert subgroup_generated([0, 0]) == 0


def test_subgroup_rejects_negative():
    with pytest.raises(NonPositiveError):
        subgroup_generated([Fraction(-1, 2)])


@given(
    st.lists(
        st.fractions(min_value=0, max_value=8, max_denominator=6),
        min_size=1,
        max_size=4,
    )
)
def test_subgroup_contains_inputs(xs):
    g = subgroup_generated(xs)
    assert isinstance(g, Fraction) and g >= 0
    for x in xs:
        # x lies in gZ: an integer multiple of g (only 0 when g = 0)
        assert x == 0 if g == 0 else (x / g).denominator == 1


CURATED = [
    [Fraction(1, 2), Fraction(1, 3)],
    [Fraction(3, 4), Fraction(5, 6)],
    [Fraction(2), Fraction(7, 5)],
    [Fraction(4, 9), Fraction(2, 3), Fraction(1, 6)],
    [Fraction(5)],
]


@pytest.mark.parametrize("xs", CURATED)
def test_subgroup_generator_is_two_term_combination(xs):
    # the generator must be reachable as a*x + b*y with |a|, |b| <= 100
    g = subgroup_generated(xs)
    found = any(
        a * x + b * y == g
        for x in xs
        for y in xs
        for a in range(-100, 101)
        for b in range(-100, 101)
    )
    assert found
