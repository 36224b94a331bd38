import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reesval.cli import main
from reesval.dvrcalc import general_k_extension
from reesval.errors import NonPositiveError
from reesval.puiseux import (
    PuiseuxModel,
    oracle_extension,
    oracle_ramification,
    oracle_residue_degree,
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


def linear_ramification(e: int, k: int) -> int:
    """Reference: the least c >= 1 with k | c*e, found by trying every c."""
    return next(c for c in range(1, k + 1) if (c * e) % k == 0)


@given(st.integers(1, 2000), st.integers(1, 2000))
def test_ramification_matches_linear_search(e, k):
    assert oracle_ramification(PuiseuxModel(e, k)) == linear_ramification(e, k)


# (e, k) rows whose value group Z + (e/k)Z is generated by 1/c: c = 1
# at e = k, c strictly between 1 and k, e > k, and c = k at gcd 1
VALUE_GROUPS = [(6, 6), (4, 6), (9, 12), (10, 4), (7, 5)]


@pytest.mark.parametrize("e,k", VALUE_GROUPS)
def test_ramification_generates_the_value_group(e, k):
    # Z + (e/k)Z = (1/c)Z: both generators lie in (1/c)Z, and 1/c is a
    # two-term integer combination of them
    c = oracle_ramification(PuiseuxModel(e, k))
    assert (Fraction(e, k) * c).denominator == 1
    assert any(
        a + b * Fraction(e, k) == Fraction(1, c)
        for a in range(-100, 101)
        for b in range(-100, 101)
    )


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


def test_oracle_answers_when_math_gcd_raises(monkeypatch):
    # the oracle computes with integers only, so it never reaches math.gcd,
    # not even through Fraction normalisation
    def refuse(*args):
        raise AssertionError("math.gcd called")

    monkeypatch.setattr(math, "gcd", refuse)
    assert oracle_extension(PuiseuxModel(4, 6)) == (3, 2, 6)
    assert oracle_extension(PuiseuxModel(10**12, 2**61 - 1)) == (2**61 - 1, 1, 2**61 - 1)
