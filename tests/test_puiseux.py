import math
from fractions import Fraction

import pytest
import sympy

from reesval.errors import NonIntegralSetupError, NonPositiveError
from reesval.puiseux import (
    PuiseuxModel,
    newton_polygon_irreducible,
    oracle_extension,
    oracle_ramification,
    oracle_residue_degree,
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
